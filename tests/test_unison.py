"""Clock system, wave-stream protocol, legitimacy predicates, and lifting."""

import itertools
import json
import random
import re
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rhosync import (DaemonPolicy, GraphParams, IncrementingSystem, LiftError,
                     SizingError, auto_sizes, build_ss_dc, build_ss_ws, delay,
                     generate, graph_params, intrinsic_delays, is_wu, is_wu0,
                     lift, random_configuration, run, trivial_plugin,
                     uniform_configuration)
from rhosync import cli
from conftest import (ADVERSARIAL, make_dc, make_ws, stabilized_dc,
                      stabilized_suffix)


# -- incrementing system ---------------------------------------------------


def test_phi_tail_then_ring():
    s = IncrementingSystem(alpha=3, period=4)
    orbit = [-3]
    for _ in range(8):
        orbit.append(s.phi(orbit[-1]))
    assert orbit == [-3, -2, -1, 0, 1, 2, 3, 0, 1]


def test_domain_partition():
    s = IncrementingSystem(alpha=2, period=3)
    assert [x for x in range(-4, 5) if s.contains(x)] == [-2, -1, 0, 1, 2]
    assert [x for x in range(-4, 5) if s.in_ring(x)] == [0, 1, 2]
    assert s.reset_value == -2


def test_sizing_rejected():
    with pytest.raises(SizingError):
        IncrementingSystem(alpha=-1, period=4)
    with pytest.raises(SizingError):
        IncrementingSystem(alpha=0, period=0)


def test_d_K_brute_force():
    # The name is kept from the ring distance that `delay` replaces.
    # Window 1 (local comparability) and 2*rho for rho = 1..3: the first
    # of 0..window forward ticks from a that reaches b, else the first of
    # 1..window backward ticks, else None.
    for K in range(1, 16):
        for window in (1, 2, 4, 6):
            for a, b in itertools.product(range(K), repeat=2):
                ticks = [d for d in range(window + 1) if (a + d) % K == b] \
                    + [-d for d in range(1, window + 1) if (a - d) % K == b]
                expect = ticks[0] if ticks else None
                assert delay(a, b, K, window) == expect, (a, b, K, window)


@settings(max_examples=60, deadline=None)
@given(a=st.integers(0, 9), b=st.integers(0, 9))
def test_local_order_consistent_with_phi(a, b):
    K = 10
    if a == b:
        assert delay(a, b, K, 1) == 0
    elif (a + 1) % K == b:
        assert delay(a, b, K, 1) == 1
    elif (b + 1) % K == a:
        assert delay(a, b, K, 1) == -1
    else:
        assert delay(a, b, K, 1) is None


# -- delays and legitimacy -------------------------------------------------


def test_is_wu_and_intrinsic_on_small_ring():
    topo = generate("ring", n=4)
    s = IncrementingSystem(alpha=2, period=6)
    balanced = tuple({"r": v} for v in [0, 1, 0, 1])  # cycle delay sums to 0
    assert is_wu(balanced, topo, s)
    assert is_wu0(balanced, topo, s)
    tail = tuple({"r": v} for v in [0, -1, 0, 1])
    assert not is_wu(tail, topo, s)
    gap = tuple({"r": v} for v in [0, 3, 0, 1])
    assert not is_wu(gap, topo, s)


def test_wu_without_intrinsic_delay():
    # C3 with values 0,1,2 mod 3: locally comparable but the cycle delay is 3
    topo = generate("ring", n=3)
    s = IncrementingSystem(alpha=2, period=3)
    c = tuple({"r": v} for v in [0, 1, 2])
    assert is_wu(c, topo, s)
    assert intrinsic_delays(c, topo, s) is None
    assert not is_wu0(c, topo, s)


def test_intrinsic_delays_values(path6):
    s = IncrementingSystem(alpha=2, period=8)
    c = tuple({"r": v} for v in [2, 3, 3, 4, 5, 5])
    assert intrinsic_delays(c, topo=path6, sysm=s) == [0, 1, 1, 2, 3, 3]


def _reference_delays(c, topo, sysm, reg="r"):
    """WU0 decided the long way: `is_wu`, then the delays along a BFS tree
    from process 0, then the unit difference checked on every edge."""
    if not is_wu(c, topo, sysm, reg):
        return None
    K = sysm.period

    def unit(b, a):  # the values are locally comparable here
        return 0 if a == b else (1 if (b - a) % K == 1 else -1)

    delays = {0: 0}
    frontier = [0]
    while frontier:
        nxt = []
        for u in frontier:
            for v in sorted(topo.adjacency[u]):
                if v not in delays:
                    delays[v] = delays[u] + unit(c[v][reg], c[u][reg])
                    nxt.append(v)
        frontier = nxt
    for u, v in topo.edges:
        if delays[v] - delays[u] != unit(c[v][reg], c[u][reg]):
            return None
    return [delays[p] for p in topo.nodes]


_WU0_TOPOS = [generate("ring", n=n) for n in range(3, 7)] + [
    generate("path", n=4), generate("grid", rows=2, cols=3)]


@st.composite
def clock_configurations(draw):
    """A topology, a clock system of period 3-9, and register values that
    cluster around one ring value, spread over chi, or mix the two."""
    topo = draw(st.sampled_from(_WU0_TOPOS))
    period = draw(st.integers(3, 9))
    sysm = IncrementingSystem(alpha=draw(st.integers(0, 3)), period=period)
    base = draw(st.integers(0, period - 1))
    near = st.integers(-1, 1).map(lambda d: (base + d) % period)
    anywhere = st.integers(-sysm.alpha, period - 1)
    cell = draw(st.sampled_from([near, anywhere, st.one_of(near, anywhere)]))
    c = tuple({"r": draw(cell)} for _ in topo.nodes)
    return c, topo, sysm


@settings(max_examples=300, deadline=None)
@given(clock_configurations())
def test_intrinsic_delays_match_reference(case):
    c, topo, sysm = case
    expect = _reference_delays(c, topo, sysm)
    assert intrinsic_delays(c, topo, sysm) == expect
    assert is_wu0(c, topo, sysm) == (expect is not None)


@pytest.mark.parametrize("kind,n,period", [("ring", 3, 3), ("ring", 4, 4),
                                           ("path", 3, 5)])
def test_intrinsic_delays_match_reference_exhaustively(kind, n, period):
    topo = generate(kind, n=n)
    sysm = IncrementingSystem(alpha=1, period=period)
    legit = 0
    for vals in itertools.product(range(-1, period), repeat=topo.node_count):
        c = tuple({"r": v} for v in vals)
        expect = _reference_delays(c, topo, sysm)
        assert intrinsic_delays(c, topo, sysm) == expect, vals
        legit += expect is not None
    assert legit > 0


# -- wave-stream protocol --------------------------------------------------


def test_build_ss_ws_sizing_enforced():
    gp = GraphParams(t_g=8, c_g_bound=8)
    with pytest.raises(SizingError):
        build_ss_ws(0, 5, 8, gp)
    with pytest.raises(SizingError):
        build_ss_ws(2, 5, 4, gp)  # alpha below T_G
    with pytest.raises(SizingError):
        build_ss_ws(1, 4, 8, gp)  # period 8 not > C_G
    assert build_ss_ws(1, 5, 8, gp).clock_registers["r"].period == 10


@settings(max_examples=40, deadline=None)
@given(n=st.integers(3, 12), p=st.floats(0, 1), seed=st.integers(0, 10_000),
       rho=st.integers(1, 3))
def test_builders_accept_auto_sizes_and_refuse_one_below_each_floor(
        n, p, seed, rho):
    gp = graph_params(generate("random_connected", n=n, p=p, seed=seed))
    alpha, K, K2 = auto_sizes(rho, gp)
    build_ss_ws(rho, K, alpha, gp)
    build_ss_dc(rho, gp, K=K, K2=K2, alpha=alpha, plugin=trivial_plugin())
    # the least K with (rho+1)*K > C_G bound, and the least K2
    k_floor = gp.c_g_bound // (rho + 1) + 1
    k2_floor = max(4 * rho + 1, gp.c_g_bound - 1)
    build_ss_dc(rho, gp, K=k_floor, K2=k2_floor, alpha=gp.t_g,
                plugin=trivial_plugin())
    below = {
        "alpha": ((alpha - 1, K, K2),
                  f"alpha={alpha - 1} violates alpha >= T_G bound "
                  f"({gp.t_g})"),
        "K": ((alpha, k_floor - 1, K2),
              f"(rho+1)*K={(rho + 1) * (k_floor - 1)} violates (rho+1)*K > "
              f"C_G bound ({gp.c_g_bound})"),
        "K2": ((alpha, K, k2_floor - 1),
               f"K2={k2_floor - 1} violates K2 >= {k2_floor}"),
    }
    for name, ((a, k, k2), message) in below.items():
        if name != "K2":
            with pytest.raises(SizingError, match=re.escape(message)):
                build_ss_ws(rho, k, a, gp)
        with pytest.raises(SizingError, match=re.escape(message)):
            build_ss_dc(rho, gp, K=k, K2=k2, alpha=a,
                        plugin=trivial_plugin())


def test_ss_ws_period_and_meta(ring8):
    proto = make_ws(ring8, 2)
    sysm = proto.clock_registers["r"]
    assert proto.meta == {"delta": 3}
    assert sysm.period == 3 * (graph_params(ring8).c_g_bound + 1)


@pytest.mark.parametrize("daemon", ["synchronous", "central",
                                    "distributed_random", ADVERSARIAL])
def test_ss_ws_converges_from_arbitrary_init(ring8, daemon):
    proto = make_ws(ring8, 2)
    suffix, idx = stabilized_suffix(proto, ring8, daemon, seed=3,
                                    max_steps=8000)
    assert idx >= 0
    sysm = proto.clock_registers["r"]
    # closure along the run: every later configuration stays in WU
    for cfg in suffix.configs[::50]:
        assert is_wu(cfg, ring8, sysm)


def test_ss_ws_quiesces_never(ring8):
    proto = make_ws(ring8, 1)
    tr = run(proto, ring8, DaemonPolicy(kind="synchronous"),
             uniform_configuration(proto, ring8), max_steps=100)
    assert tr.stop_reason == "budget"


# -- a master clock wound once around an odd ring --------------------------


def _wound_clock_run(tmp_path, k):
    """The report of `ss_ws` on ring:9 at rho 2 under the synchronous
    daemon, from a clock wound once around the ring (r = p at each
    process p), and the clock's period."""
    init = tmp_path / "wound.json"
    init.write_text(json.dumps([{"r": p} for p in range(9)]))
    scn = cli.scenario_from({}, {"proto": "ss_ws", "topo": "ring:9",
                                 "rho": "2", "k": k,
                                 "init": f"adversarial_file:{init}"})
    trace = cli.run_scenario(scn)
    return (cli.analyze(scn, trace),
            trace.protocol.clock_registers["r"].period)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the master floor accepts K = 3 at rho 2 on "
                   "ring:9, a period of C_G = 9, and a clock wound around "
                   "the ring then never unwinds (ROADMAP item 2)")
def test_the_master_floor_unwinds_a_wound_clock_on_an_odd_ring(tmp_path):
    report, period = _wound_clock_run(tmp_path, "3")
    assert period == 9
    # today no process is enabled: the run stops by quiescence at step 0
    assert report["stab_index"] is not None, (report["stop_reason"],
                                              report["steps"])


def test_a_master_period_above_the_ring_unwinds_a_wound_clock(tmp_path):
    report, period = _wound_clock_run(tmp_path, "4")
    assert period == 12
    assert report["stab_index"] == 17 and report["violations"] == 0


# -- lifting ---------------------------------------------------------------


def test_lift_requires_wu0(ring8):
    proto = make_ws(ring8, 1)
    bad = tuple({"r": -1 if p == 0 else 0} for p in ring8.nodes)
    tr = run(proto, ring8, DaemonPolicy(kind="synchronous"), bad, max_steps=1)
    with pytest.raises(ValueError):
        lift(tr)


def test_lift_rejects_post_wu0_reset():
    # WU0 is closed, so a reset after it is a fault the lifting must report,
    # not skip: skipping leaves the lifted and concrete clocks out of step.
    topo = generate("ring", n=6)
    proto = make_ws(topo, 1)
    tr = run(proto, topo, DaemonPolicy(kind="synchronous"),
             uniform_configuration(proto, topo), max_steps=20)
    lift(tr)
    p = min(tr.records[10].fired)
    reset = proto.clock_registers["r"].reset_value
    tr.configs[11] = tuple({**st, "r": reset} if q == p else st
                           for q, st in enumerate(tr.configs[11]))
    with pytest.raises(LiftError) as info:
        lift(tr)
    assert not isinstance(info.value, ValueError)


@pytest.mark.parametrize("daemon", ["synchronous", "central"])
def test_lift_invariants(ring8, daemon):
    proto = make_ws(ring8, 2)
    suffix, _ = stabilized_suffix(proto, ring8, daemon, seed=5,
                                  max_steps=6000)
    lt = lift(suffix)
    sysm = proto.clock_registers["r"]
    n = ring8.node_count
    for t in range(0, len(suffix.configs), 25):
        row = lt.row(t)
        cfg = suffix.configs[t]
        for p in ring8.nodes:
            # congruence with the concrete ring value
            assert row[p] % sysm.period == cfg[p]["r"]
            for q in ring8.nodes:
                assert abs(row[p] - row[q]) <= ring8.dist[p][q]
    # per-process monotone, increments by one per NA firing
    for p in ring8.nodes:
        col = [lt.value(t, p) for t in range(len(suffix.configs))]
        assert all(0 <= b - a <= 1 for a, b in zip(col, col[1:]))


def reference_rows(trace, reg):
    """Every lifted row, the first anchored at the minimal process by the
    intrinsic delays, each next one read off two consecutive
    configurations: a process gains one wherever its register changed."""
    sysm = trace.protocol.clock_registers[reg]
    c0 = trace.configs[0]
    delays = intrinsic_delays(c0, trace.topo, sysm, reg)
    p_min = min(trace.topo.nodes, key=lambda p: (delays[p], p))
    rows = [[c0[p_min][reg] + d - delays[p_min] for d in delays]]
    for cfg, nxt in zip(trace.configs, trace.configs[1:]):
        rows.append([v + (nxt[p][reg] != cfg[p][reg])
                     for p, v in enumerate(rows[-1])])
    return rows


def _ws_suffix(topo, daemon):
    suffix, _ = stabilized_suffix(make_ws(topo, 2), topo, daemon, seed=5,
                                  max_steps=3000)
    return suffix


def _dc_suffix(topo, daemon):
    proto = make_dc(topo, 1, trivial_plugin())
    tr, wu = stabilized_dc(proto, topo, daemon, seed=3, max_steps=3000)
    return tr.suffix(wu)


LIFT_CASES = [
    pytest.param(_ws_suffix, "synchronous", "r", id="ss_ws-synchronous"),
    pytest.param(_ws_suffix, "central", "r", id="ss_ws-central"),
] + [
    pytest.param(_dc_suffix, daemon, reg, id=f"ss_dc-{reg}-{daemon}")
    for reg in ("r1", "r2")
    for daemon in ("central", "rho_central", "adversarial")
]


@pytest.mark.parametrize("make_suffix, daemon, reg", LIFT_CASES)
def test_lift_matches_a_rowwise_reference(ring8, make_suffix, daemon, reg):
    suffix = make_suffix(ring8, daemon)
    lt = lift(suffix, reg)
    rows = reference_rows(suffix, reg)
    assert lt.base == min(rows[0])
    assert [lt.row(t) for t in range(len(rows))] == rows
    assert all(lt.value(t, p) == v
               for t, row in enumerate(rows) for p, v in enumerate(row))
    assert lt.top_level() == min(rows[-1])
    for p in ring8.nodes:
        for k in range(rows[0][p], rows[-1][p] + 1):
            # the first configuration at which p holds level k
            assert lt.level_time(p, k) == next(
                t for t, row in enumerate(rows) if row[p] == k)
        assert lt.level_time(p, rows[0][p] - 1) is None
        assert lt.level_time(p, rows[-1][p] + 1) is None
    # one stored move per increment, each an int64
    increments = sum(rows[-1]) - sum(rows[0])
    assert increments > 0
    assert sum(len(m) for m in lt.moves) == increments
    assert all(type(m) is array and m.typecode == "q" for m in lt.moves)
    period = suffix.protocol.clock_registers[reg].period
    last = len(suffix.records)
    for i in (0, 1, last // 3, last // 2, last - 1, last):
        sliced, fresh = lt.suffix(i), lift(suffix.suffix(i), reg)
        offset = sliced.base - fresh.base
        assert offset % period == 0
        assert sliced.moves == fresh.moves
        assert sliced.row(0) == [v + offset for v in fresh.row(0)]
        assert sliced.row(0) == rows[i]


def test_level_time_earliest(ring8):
    proto = make_ws(ring8, 1)
    suffix, _ = stabilized_suffix(proto, ring8, "synchronous", seed=1,
                                  max_steps=3000)
    lt = lift(suffix)
    k = max(lt.row(0)) + 3
    for p in ring8.nodes:
        t = lt.level_time(p, k)
        assert lt.value(t, p) == k
        assert t == 0 or lt.value(t - 1, p) == k - 1
