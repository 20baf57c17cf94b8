"""Clock system, wave-stream protocol, legitimacy predicates, and lifting."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rhosync import (DaemonPolicy, GraphParams, IncrementingSystem, LiftError,
                     SizingError, build_ss_ws, d_K, generate, graph_params,
                     intrinsic_delays, is_wu, is_wu0, lift, ominus,
                     random_configuration, run, uniform_configuration)
from conftest import ADVERSARIAL, make_ws, stabilized_suffix


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


@settings(max_examples=60, deadline=None)
@given(a=st.integers(0, 11), b=st.integers(0, 11))
def test_d_K_brute_force(a, b):
    K = 12
    expect = min(abs(a - b + t * K) for t in (-1, 0, 1))
    assert d_K(a, b, K) == expect
    assert d_K(a, b, K) == d_K(b, a, K)


def test_d_K_domain():
    with pytest.raises(ValueError):
        d_K(12, 0, 12)


@settings(max_examples=60, deadline=None)
@given(a=st.integers(0, 9), b=st.integers(0, 9))
def test_local_order_consistent_with_phi(a, b):
    K = 10
    if a == b:
        assert ominus(b, a, K) == 0
    elif (a + 1) % K == b:
        assert ominus(b, a, K) == 1
    elif (b + 1) % K == a:
        assert ominus(b, a, K) == -1
    else:
        assert d_K(a, b, K) > 1
        assert ominus(b, a, K) is None


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
    gp = GraphParams(t_g=8, t_g_exact=True, c_g_bound=8)
    with pytest.raises(SizingError):
        build_ss_ws(0, 5, 8, gp)
    with pytest.raises(SizingError):
        build_ss_ws(2, 5, 4, gp)  # alpha below T_G
    with pytest.raises(SizingError):
        build_ss_ws(1, 4, 8, gp)  # period 8 not > C_G
    assert build_ss_ws(1, 5, 8, gp).clock_registers["r"].period == 10


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
    for t in range(0, len(lt.values), 25):
        row = lt.values[t]
        cfg = suffix.configs[t]
        for p in ring8.nodes:
            # congruence with the concrete ring value
            assert row[p] % sysm.period == cfg[p]["r"]
            for q in ring8.nodes:
                assert abs(row[p] - row[q]) <= ring8.dist[p][q]
    # per-process monotone, increments by one per NA firing
    for p in ring8.nodes:
        col = [lt.values[t][p] for t in range(len(lt.values))]
        assert all(0 <= b - a <= 1 for a, b in zip(col, col[1:]))


def test_level_time_earliest(ring8):
    proto = make_ws(ring8, 1)
    suffix, _ = stabilized_suffix(proto, ring8, "synchronous", seed=1,
                                  max_steps=3000)
    lt = lift(suffix)
    k = max(lt.values[0]) + 3
    for p in ring8.nodes:
        t = lt.level_time(p, k)
        assert lt.values[t][p] == k
        assert t == 0 or lt.values[t - 1][p] == k - 1
