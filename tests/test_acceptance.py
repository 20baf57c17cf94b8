"""Acceptance gate: ten end-to-end criteria over large run matrices.

Each test covers one numbered criterion and records a single pass/fail
summary line (shown in the terminal summary).  Session fixtures share the
expensive run matrices between criteria.
"""

import dataclasses
import math
import pathlib
import random

import pytest

from rhosync import (DaemonPolicy, build_event_graph, check_closure,
                     check_wavelet, cut_for_level, extract_cs_records,
                     generate, graph_params, is_wu, is_wu0, lift,
                     lra_monitor_start, make_infimum, make_lra_plugin,
                     metrics, monitor_safety, random_configuration,
                     round_count, run, stabilization_indices, trivial_plugin,
                     verify_ball_infimum, verify_delay_agreement)
from rhosync.infimum import attach_infimum
from conftest import (ACCEPTANCE_LINES, make_dc, make_ws, stabilized_dc,
                      stabilized_suffix)

DAEMONS = ["synchronous", "central", "distributed_random", "adversarial"]


def record(num: int, ok: bool, detail: str) -> None:
    ACCEPTANCE_LINES.append(
        f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


# ---------------------------------------------------------------------------
# Shared run matrices


def _dc_cell(kind, topo, daemon, seed, rho=1, break_cond=False):
    """One layer-clock cell: converge, then monitor a fixed window.

    Returns a summary dict; raises if the run never stabilizes.
    """
    gp = graph_params(topo)
    k2 = max(4 * rho + 1, gp.c_g_bound + 1)
    if kind == "trivial":
        plugin = trivial_plugin()
    else:
        plugin = make_lra_plugin(kind, topo, rho, k2, request_seed=seed)
        if break_cond:
            # negative control for the safety monitor
            plugin = dataclasses.replace(plugin, cond=lambda view: True)
    proto = make_dc(topo, rho, plugin, K2=k2)
    s1, s2 = proto.clock_registers["r1"], proto.clock_registers["r2"]
    wu_both = lambda c: (is_wu(c, topo, s1, "r1")
                         and is_wu(c, topo, s2, "r2"))
    init = random_configuration(proto, topo, random.Random(seed))
    t1 = run(proto, topo, DaemonPolicy(kind=daemon, seed=seed), init,
             max_steps=2000 * topo.node_count, stop_predicate=wu_both)
    if t1.stop_reason != "predicate":
        raise AssertionError(f"no stabilization: {kind} {daemon} seed {seed}")
    w1, wu = stabilization_indices(t1)
    delta = proto.meta["delta"]
    window = topo.diameter + 12 * delta + 24
    if daemon != "synchronous":
        window *= 3 * topo.node_count
    t2 = run(proto, topo, DaemonPolicy(kind=daemon, seed=seed + 1),
             t1.configs[-1], max_steps=window)
    lt1 = lift(t2, "r1")
    agree = verify_delay_agreement(lift(t2, "r2"), rho, sample_every=4)
    lt1 = lt1.suffix(lra_monitor_start(lt1))
    recs = extract_cs_records(lt1.trace)
    safety = monitor_safety(recs, topo, rho, plugin.compat)
    m = metrics(lt1, recs)
    return {
        "n": topo.node_count, "diameter": topo.diameter, "rho": rho,
        "daemon": daemon, "w1": w1, "wu": wu, "stab_steps": len(t1.records),
        "safety": len(safety), "delay_ok": agree.ok,
        "delay_pairs": agree.pairs_checked, "cs": m.cs_total,
        "fairness": m.fairness_index, "service": m.service_time,
    }


MATRIX_TOPOS = [
    generate("ring", n=6), generate("ring", n=8), generate("path", n=6),
    generate("grid", rows=2, cols=3), generate("tree", n=9, seed=2),
    generate("random_connected", n=10, p=0.3, seed=7),
]


@pytest.fixture(scope="session")
def lme_matrix():
    cells = []
    for topo in MATRIX_TOPOS:
        for daemon in DAEMONS:
            for seed in range(21):
                cells.append(_dc_cell("lme", topo, daemon, seed))
    return cells


@pytest.fixture(scope="session")
def gme_rw_matrix():
    cells = []
    for kind in ("gme", "rw"):
        for topo in MATRIX_TOPOS[:3]:
            for daemon in DAEMONS:
                for seed in range(5):
                    cells.append((kind, _dc_cell(kind, topo, daemon, seed)))
    return cells


# ---------------------------------------------------------------------------
# 1. Convergence to weak unison with near-linear round counts


def test_criterion_1_convergence():
    points = []
    failures = 0
    topos = []
    for n in range(5, 25):
        topos.append(generate("ring", n=n))
        topos.append(generate("tree", n=n, seed=n))
        topos.append(generate("random_connected", n=n, p=0.3, seed=n))
        if n % 2 == 0:
            topos.append(generate("grid", rows=2, cols=n // 2))
    runs = 0
    for topo in topos:
        proto = make_ws(topo, 1)
        sysm = proto.clock_registers["r"]
        for daemon in ("synchronous", "distributed_random", "adversarial"):
            runs += 1
            init = random_configuration(proto, topo,
                                        random.Random(runs))
            tr = run(proto, topo, DaemonPolicy(kind=daemon, seed=runs),
                     init, max_steps=900 * topo.node_count,
                     stop_predicate=lambda c: is_wu(c, topo, sysm))
            if tr.stop_reason != "predicate":
                failures += 1
                continue
            points.append((topo.node_count,
                           round_count(tr, len(tr.records))))
    xs = [math.log(n) for n, _ in points]
    ys = [math.log(max(r, 1)) for _, r in points]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    var = sum((x - mx) ** 2 for x in xs)
    slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / var
    ok = runs >= 200 and failures == 0 and slope <= 1.3
    record(1, ok,
           f"{runs} runs, {failures} non-stabilizing, "
           f"log-log round slope {slope:.2f} (limit 1.30)")


# ---------------------------------------------------------------------------
# 2. Wavelet windows at every available level


def _wavelet_scan(topo, rho, daemon, seed, steps):
    proto = make_ws(topo, rho)
    suffix, _ = stabilized_suffix(proto, topo, daemon, seed=seed,
                                  max_steps=steps)
    lt = lift(suffix)
    g = build_event_graph(suffix)
    base = lt.base + topo.diameter
    top = min(lt.values[-1])
    good = bad = 0
    for k in range(base, top - rho + 1):
        c1, c2 = cut_for_level(lt, k), cut_for_level(lt, k + rho)
        decides = {(p, c2[p]) for p in topo.nodes}
        if check_wavelet(g, c1, c2, rho, decides):
            good += 1
        else:
            bad += 1
    # negative control: a window one level short must fail
    k = base + 1
    c1 = cut_for_level(lt, k)
    c2 = cut_for_level(lt, k + rho - 1)
    short_fails = not check_wavelet(g, c1, c2, rho,
                                    {(p, c2[p]) for p in topo.nodes})
    return good, bad, short_fails


def test_criterion_2_wavelet(ring8):
    cases = [(ring8, 1, "synchronous", 1, 260),
             (ring8, 2, "synchronous", 2, 280),
             (ring8, 3, "synchronous", 3, 300),
             (ring8, 2, "central", 4, 2600),
             (generate("path", n=4), 3, "synchronous", 5, 220)]  # wave: rho >= D
    total = bad_total = 0
    controls_ok = True
    for topo, rho, daemon, seed, steps in cases:
        good, bad, short_fails = _wavelet_scan(topo, rho, daemon, seed, steps)
        assert good >= 20, (rho, daemon, good)
        total += good + bad
        bad_total += bad
        controls_ok = controls_ok and short_fails
    ok = bad_total == 0 and controls_ok
    record(2, ok,
           f"{total} level windows over rho in {{1,2,3}} + wave case, "
           f"{bad_total} failures, short-window control "
           f"{'fails as expected' if controls_ok else 'DID NOT FAIL'}")


# ---------------------------------------------------------------------------
# 3. Infimum exactness against the ball oracle


def _acc_source(kind, seed):
    def src(p, phase):
        rng = random.Random(f"acc:{kind}:{seed}:{p}:{phase}")
        if kind == "lex_pair":
            return (rng.randrange(-40, 40), rng.randrange(-40, 40))
        if kind == "set_intersection":
            return frozenset(x for x in range(8) if rng.random() < 0.6)
        return rng.randrange(-999, 999)
    return src


def test_criterion_3_infimum(ring8, grid23):
    topos = [("ring8", ring8, 2), ("grid23", grid23, 2),
             ("path5", generate("path", n=5), 2)]
    kinds = ["min_int", "set_intersection", "lex_pair"]
    checked = mismatches = 0
    min_phases = None
    for kind in kinds:
        op = make_infimum(kind)
        for name, topo, rho in topos:
            proto = make_ws(topo, rho,
                            **attach_infimum(op, _acc_source(kind, 3)))
            for daemon in DAEMONS:
                steps = 420 if daemon == "synchronous" else 5000
                suffix, _ = stabilized_suffix(proto, topo, daemon, seed=9,
                                              max_steps=steps)
                verdict = verify_ball_infimum(lift(suffix), op, rho)
                assert verdict.phases_checked >= 20, (kind, name, daemon)
                checked += verdict.phases_checked
                mismatches += len(verdict.mismatches)
                p = verdict.phases_checked
                min_phases = p if min_phases is None else min(min_phases, p)
    ok = mismatches == 0
    record(3, ok,
           f"{checked} phase-end cuts exact over 3 operators x 3 topologies "
           f"x 4 daemons (>= {min_phases} phases each), "
           f"{mismatches} mismatches")


# ---------------------------------------------------------------------------
# 4. Layer-clock staircase and no-starvation


def test_criterion_4_staircase(ring8, lme_matrix):
    bad = [c for c in lme_matrix
           if c["w1"] is None or c["wu"] is None or c["w1"] > c["wu"]]
    # no-starvation: master progress keeps growing when the budget doubles
    proto = make_dc(ring8, 1, trivial_plugin())
    tr, wu = stabilized_dc(proto, ring8, "central", seed=8, max_steps=30000)
    start = tr.configs[wu]
    progress = []
    for budget in (600, 1200, 2400):
        t = run(proto, ring8, DaemonPolicy(kind="central", seed=9), start,
                max_steps=budget)
        lt = lift(t, reg="r1")
        progress.append(min(lt.values[-1][p] - lt.values[0][p]
                            for p in ring8.nodes))
    growing = progress[0] > 0 and progress[0] < progress[1] < progress[2]
    ok = not bad and growing
    record(4, ok,
           f"WU1 index <= WU index in {len(lme_matrix)}/{len(lme_matrix)} "
           f"runs, master progress over doubled budgets {progress}")


# ---------------------------------------------------------------------------
# 5. 2-rho-local delay lemma with undersized negative control


def test_criterion_5_delay_lemma(ring8, lme_matrix):
    pairs = sum(c["delay_pairs"] for c in lme_matrix)
    bad = sum(1 for c in lme_matrix if not c["delay_ok"])
    rho = 2
    proto = make_dc(ring8, rho, trivial_plugin())
    tr, wu = stabilized_dc(proto, ring8, "central", seed=4, max_steps=30000)
    control = verify_delay_agreement(lift(tr.suffix(wu), "r2"), rho,
                                     k2_override=2 * rho + 1)
    ok = bad == 0 and len(control.disagreements) >= 1
    record(5, ok,
           f"{pairs} sampled pairs agree in {len(lme_matrix)} runs; "
           f"undersized K2 control: {len(control.disagreements)} "
           f"disagreements")


# ---------------------------------------------------------------------------
# 6. LME safety across the matrix with broken-cond control


def test_criterion_6_lme_safety(lme_matrix):
    violations = sum(c["safety"] for c in lme_matrix)
    cs_total = sum(c["cs"] for c in lme_matrix)
    broken = _dc_cell("lme", MATRIX_TOPOS[0], "central", 13,
                      break_cond=True)
    ok = (len(lme_matrix) >= 500 and violations == 0 and cs_total > 0
          and broken["safety"] > 0)
    record(6, ok,
           f"{len(lme_matrix)} runs, {cs_total} CS entries, "
           f"{violations} violations; broken-cond control: "
           f"{broken['safety']} violations")


# ---------------------------------------------------------------------------
# 7. Fairness index and service time bounds


def test_criterion_7_fairness(ring8, lme_matrix):
    over = scored = 0
    for c in lme_matrix:
        fb = math.ceil(c["diameter"] / c["rho"])
        sb = math.ceil(c["n"] * (c["n"] - 1) / c["rho"])
        if c["fairness"] is not None:
            scored += 1
            if c["fairness"] > fb or (c["service"] or 0) > sb:
                over += 1
    # the ring C8, rho=2 reference point
    proto, _ = _ring8_lme2(ring8)
    tr, wu = stabilized_dc(proto, ring8, "synchronous", seed=2,
                           max_steps=4000)
    lt1 = lift(tr.suffix(wu), "r1")
    lt1 = lt1.suffix(lra_monitor_start(lt1))
    m = metrics(lt1, extract_cs_records(lt1.trace))
    bound = math.ceil(ring8.diameter / 2)
    ok = over == 0 and scored >= len(lme_matrix) // 2 \
        and m.fairness_index is not None and m.fairness_index <= bound
    note = ("matches the stated equality" if m.fairness_index == 2
            else "below the bound (reported, not failed)")
    record(7, ok,
           f"{scored} scored runs within bounds, {over} over; "
           f"C8 rho=2 fairness_index={m.fairness_index} ({note})")


def _ring8_lme2(ring8):
    gp = graph_params(ring8)
    k2 = max(4 * 2 + 1, gp.c_g_bound + 1)
    plugin = make_lra_plugin("lme", ring8, 2, k2)
    return make_dc(ring8, 2, plugin, K2=k2), k2


# ---------------------------------------------------------------------------
# 8. Exact synchronous communication count


def test_criterion_8_comms(ring8, path6, grid23):
    checked = 0
    wrong = []
    for topo, name in ((ring8, "ring8"), (path6, "path6"),
                       (grid23, "grid23")):
        for rho in (1, 2, 3):
            proto = make_dc(topo, rho, trivial_plugin())
            tr, wu = stabilized_dc(proto, topo, "synchronous", seed=rho,
                                   max_steps=3000)
            lt1 = lift(tr.suffix(wu), "r1")
            m = metrics(lt1, extract_cs_records(lt1.trace))
            expect = 2 * (rho + 1) * topo.edge_count
            assert m.comms_per_phase, (name, rho)
            checked += len(m.comms_per_phase)
            if any(c != expect for c in m.comms_per_phase):
                wrong.append((name, rho))
    ok = not wrong
    record(8, ok,
           f"{checked} stabilized synchronous phases across 3 topologies x "
           f"rho in {{1,2,3}} all read exactly 2(rho+1)|E|; "
           f"deviations: {wrong or 'none'}")


# ---------------------------------------------------------------------------
# 9. GME and RW safety


def test_criterion_9_gme_rw(gme_rw_matrix):
    by_kind = {"gme": [0, 0], "rw": [0, 0]}
    for kind, c in gme_rw_matrix:
        by_kind[kind][0] += c["safety"]
        by_kind[kind][1] += c["cs"]
    ok = all(v == 0 and cs > 0 for v, cs in by_kind.values())
    record(9, ok,
           f"{len(gme_rw_matrix)} runs: gme {by_kind['gme'][1]} CS entries / "
           f"{by_kind['gme'][0]} violations, rw {by_kind['rw'][1]} CS "
           f"entries / {by_kind['rw'][0]} violations")


# ---------------------------------------------------------------------------
# 10. Closure of WU and WU0 with a non-closed control predicate


def _wu_sampler(topo, sysm):
    n = topo.node_count

    def sampler(rng):
        while True:
            incs = [rng.randrange(-1, 2) for _ in range(n - 1)]
            if abs(sum(incs)) <= 1:
                break
        base = rng.randrange(sysm.period)
        lifted = [base]
        for d in incs:
            lifted.append(lifted[-1] + d)
        return tuple({"r": v % sysm.period} for v in lifted)

    return sampler


def test_criterion_10_closure(ring8):
    proto = make_ws(ring8, 1)
    sysm = proto.clock_registers["r"]
    sampler = _wu_sampler(ring8, sysm)
    wu = lambda c: is_wu(c, ring8, sysm)
    wu0 = lambda c: is_wu0(c, ring8, sysm)
    v_wu = check_closure(wu, proto, ring8, sampler,
                         samples=800, steps_per_sample=13, seed=1)
    v_wu0 = check_closure(wu0, proto, ring8, sampler,
                          samples=800, steps_per_sample=13, seed=2)
    all_equal = lambda c: len({st["r"] for st in c}) == 1

    def equal_sampler(rng):
        v = rng.randrange(sysm.period)
        return tuple({"r": v} for _ in ring8.nodes)

    control = check_closure(all_equal, proto, ring8, equal_sampler,
                            samples=200, steps_per_sample=4, seed=3)
    ok = (v_wu.closed and v_wu0.closed
          and v_wu.samples_checked >= 10000
          and v_wu0.samples_checked >= 10000
          and not control.closed)
    record(10, ok,
           f"WU closed over {v_wu.samples_checked} successors, WU0 over "
           f"{v_wu0.samples_checked}; all-clocks-equal control "
           f"{'escapes as expected' if not control.closed else 'DID NOT ESCAPE'}")


# ---------------------------------------------------------------------------
# Equivalence gate: the summary lines are seeded and deterministic


def test_acceptance_lines_match_committed():
    """Must stay the last test of this module: it reads the lines the ten
    criteria recorded earlier in this test run."""
    if len(ACCEPTANCE_LINES) != 10:
        pytest.skip("not all ten criteria ran in this test run")
    path = pathlib.Path(__file__).with_name("acceptance_lines.txt")
    assert ACCEPTANCE_LINES == path.read_text(encoding="utf-8").splitlines()
