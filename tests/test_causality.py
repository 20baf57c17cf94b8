"""Causal DAG reconstruction, cuts, covers, and the wavelet checker."""

import pytest

from rhosync import (ball, build_event_graph, check_wavelet, cover,
                     cut_for_level, cut_leq, generate, is_coherent, lift)
from rhosync.causality import segment_events
from conftest import make_ws, stabilized_suffix


def sync_suffix(topo, rho, seed=0, steps=400):
    proto = make_ws(topo, rho)
    return stabilized_suffix(proto, topo, "synchronous", seed=seed,
                             max_steps=steps)


def oracle_preds(trace, p, t):
    """Independent reimplementation of the two causal rules."""
    topo = trace.topo
    fire_times = {q: [0] + [i + 1 for i, r in enumerate(trace.records)
                            if q in r.fired] for q in topo.nodes}
    preds = {(p, max(x for x in fire_times[p] if x < t))}
    for q in topo.adjacency[p]:
        preds.add((q, max(x for x in fire_times[q] if x < t)))
    return preds


def test_event_graph_rules(ring8):
    suffix, _ = stabilized_suffix(make_ws(ring8, 1), ring8, "central",
                                  seed=2, max_steps=3000)
    sub = suffix.suffix(0)
    sub.configs = sub.configs[:61]
    sub.records = sub.records[:60]
    g = build_event_graph(sub)
    for p, times in g.events_by_process.items():
        for t in times:
            if t == 0:
                assert (p, t) not in g.preds
                continue
            assert set(g.preds[(p, t)]) == oracle_preds(sub, p, t)


def test_same_step_events_not_linked(ring8):
    # synchronous: all processes fire each step, rule 2 must reach back to
    # the previous step, never sideways
    suffix, _ = sync_suffix(ring8, 1, steps=300)
    sub = suffix.suffix(0)
    sub.configs = sub.configs[:21]
    sub.records = sub.records[:20]
    g = build_event_graph(sub)
    for e, preds in g.preds.items():
        for q, tq in preds:
            assert tq < e[1]


def test_cover_grows_one_hop_per_synchronous_step(ring8):
    suffix, _ = sync_suffix(ring8, 1, steps=300)
    g = build_event_graph(suffix)
    p = 0
    for k in range(0, ring8.diameter + 2):
        c = cover(g, (p, k))
        expect = ball(ring8, p, min(k, ring8.diameter))
        assert c == expect


def test_cover_rejects_non_event(ring8):
    suffix, _ = sync_suffix(ring8, 1, steps=300)
    g = build_event_graph(suffix)
    with pytest.raises(ValueError):
        cover(g, (0, 10 ** 9))


def test_leq_and_ancestors(ring8):
    suffix, _ = sync_suffix(ring8, 1, steps=300)
    g = build_event_graph(suffix)
    assert g.leq((0, 0), (0, 5))
    assert g.leq((1, 2), (0, 5))  # distance 1, 3 steps of slack
    assert not g.leq((4, 1), (0, 2))  # distance 4 cannot be covered in 1 step


def test_cut_for_level_is_coherent(ring8):
    rho = 2
    suffix, _ = sync_suffix(ring8, rho, steps=500)
    lt = lift(suffix)
    g = build_event_graph(suffix)
    base = lt.base + ring8.diameter
    for k in (base, base + 1, base + 5):
        cut = cut_for_level(lt, k)
        assert is_coherent(g, cut)
    c1, c2 = cut_for_level(lt, base), cut_for_level(lt, base + 3)
    assert cut_leq(c1, c2) and not cut_leq(c2, c1)


def test_incoherent_cut_detected(ring8):
    suffix, _ = sync_suffix(ring8, 1, steps=300)
    g = build_event_graph(suffix)
    # neighbor 1 is held at time 0 while 0 sits far in the future
    cut = {p: (10 if p == 0 else 0) for p in ring8.nodes}
    assert not is_coherent(g, cut)


def test_cut_for_level_missing_level(ring8):
    suffix, _ = sync_suffix(ring8, 1, steps=300)
    lt = lift(suffix)
    with pytest.raises(ValueError):
        cut_for_level(lt, max(lt.values[-1]) + 100)


def test_segment_events_bounds(ring8):
    suffix, _ = sync_suffix(ring8, 1, steps=300)
    g = build_event_graph(suffix)
    lt = lift(suffix)
    base = lt.base + ring8.diameter
    c1, c2 = cut_for_level(lt, base), cut_for_level(lt, base + 2)
    seg = segment_events(g, c1, c2)
    for p, t in seg:
        assert c1[p] <= t <= c2[p]


@pytest.mark.parametrize("rho", [1, 2, 3])
def test_wavelet_window_passes(ring8, rho):
    suffix, _ = sync_suffix(ring8, rho, steps=800)
    lt = lift(suffix)
    g = build_event_graph(suffix)
    base = lt.base + ring8.diameter
    for k in range(base, base + 4):
        c1, c2 = cut_for_level(lt, k), cut_for_level(lt, k + rho)
        decides = {(p, c2[p]) for p in ring8.nodes}
        verdict = check_wavelet(g, c1, c2, rho, decides)
        assert verdict.ok, verdict
        assert verdict.decide_count == ring8.node_count


def test_wavelet_wave_case_rho_at_least_diameter():
    topo = generate("path", n=4)  # D = 3
    rho = 3
    suffix, _ = stabilized_suffix(make_ws(topo, rho), topo, "synchronous",
                                  seed=4, max_steps=600)
    lt = lift(suffix)
    g = build_event_graph(suffix)
    k = lt.base + topo.diameter
    c1, c2 = cut_for_level(lt, k), cut_for_level(lt, k + rho)
    verdict = check_wavelet(g, c1, c2, rho, {(p, c2[p]) for p in topo.nodes})
    assert verdict.ok


@pytest.mark.parametrize("rho", [2, 3])
def test_wavelet_short_window_fails(ring8, rho):
    suffix, _ = sync_suffix(ring8, rho, steps=800)
    lt = lift(suffix)
    g = build_event_graph(suffix)
    k = lt.base + ring8.diameter
    c1, c2 = cut_for_level(lt, k), cut_for_level(lt, k + rho - 1)
    verdict = check_wavelet(g, c1, c2, rho, {(p, c2[p]) for p in ring8.nodes})
    assert not verdict.ok


def test_wavelet_rejects_unordered_cuts(ring8):
    suffix, _ = sync_suffix(ring8, 1, steps=300)
    lt = lift(suffix)
    g = build_event_graph(suffix)
    k = lt.base + ring8.diameter
    c1, c2 = cut_for_level(lt, k), cut_for_level(lt, k + 1)
    with pytest.raises(ValueError):
        check_wavelet(g, c2, c1, 1, set())


def test_wavelet_no_decides_in_segment(ring8):
    suffix, _ = sync_suffix(ring8, 1, steps=300)
    lt = lift(suffix)
    g = build_event_graph(suffix)
    k = lt.base + ring8.diameter
    c1, c2 = cut_for_level(lt, k), cut_for_level(lt, k + 1)
    verdict = check_wavelet(g, c1, c2, 1, decides={(0, 10 ** 9)})
    assert not verdict.ok and verdict.decide_count == 0
