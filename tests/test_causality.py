"""Causal DAG reconstruction, cuts, past cones, and the wavelet checker."""

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rhosync import (WaveletVerdict, ball, build_event_graph, check_wavelet,
                     cut_for_level, cut_leq, generate, is_coherent, lift)
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
    # the cover of an event: the processes of its past cone
    suffix, _ = sync_suffix(ring8, 1, steps=300)
    g = build_event_graph(suffix)
    p = 0
    for k in range(0, ring8.diameter + 2):
        c = frozenset(q for q, _ in g.ancestors((p, k)))
        expect = ball(ring8, p, min(k, ring8.diameter))
        assert c == expect


def test_leq_and_ancestors(ring8):
    suffix, _ = sync_suffix(ring8, 1, steps=300)
    g = build_event_graph(suffix)
    assert (0, 0) in g.ancestors((0, 5))
    assert (1, 2) in g.ancestors((0, 5))  # distance 1, 3 steps of slack
    # distance 4 cannot be covered in 1 step
    assert (4, 1) not in g.ancestors((0, 2))


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


# -- differential test against the past-cone DFS ----------------------------


TOPOLOGIES = {
    "path": lambda n, seed: generate("path", n=n),
    "ring": lambda n, seed: generate("ring", n=n),
    "tree": lambda n, seed: generate("tree", n=n, seed=seed),
    "grid": lambda n, seed: generate("grid", rows=2, cols=n // 2),
    "random": lambda n, seed: generate("random_connected", n=n, seed=seed),
}
DAEMONS = ("synchronous", "central", "rho_central", "distributed_random",
           "adversarial")

run_params = dict(kind=st.sampled_from(sorted(TOPOLOGIES)),
                  n=st.integers(4, 6), seed=st.integers(0, 2),
                  daemon=st.sampled_from(DAEMONS), rho=st.integers(1, 3))


@functools.lru_cache(maxsize=None)
def lifted_run(kind, n, seed, daemon, rho):
    topo = TOPOLOGIES[kind](n, seed)
    suffix, _ = stabilized_suffix(make_ws(topo, rho), topo, daemon,
                                  seed=seed, max_steps=150)
    return lift(suffix), build_event_graph(suffix)


def dfs_ancestors(g, e):
    """Reference past cone: depth-first search over the predecessors."""
    seen = {e}
    stack = [e]
    while stack:
        for pr in g.preds.get(stack.pop(), ()):
            if pr not in seen:
                seen.add(pr)
                stack.append(pr)
    return seen


def dfs_is_coherent(g, cut):
    for p, tp in cut.items():
        if not g.has_event((p, tp)):
            raise ValueError(f"({p},{tp}) is not an event")
    return all(tq <= cut[q] for p, tp in cut.items()
               for q, tq in dfs_ancestors(g, (p, tp)))


def dfs_check_wavelet(g, c1, c2, rho, decides):
    """Reference verdict: the segment intersected with each decide's past
    cone."""
    if not cut_leq(c1, c2):
        raise ValueError("cuts are not ordered c1 <= c2")
    if not dfs_is_coherent(g, c1) or not dfs_is_coherent(g, c2):
        raise ValueError("cuts must be coherent")
    seg = {(p, t) for p, times in g.events_by_process.items()
           for t in times if c1[p] <= t <= c2[p]}
    inside = sorted(d for d in decides if d in seg)
    if not inside:
        return WaveletVerdict(False, 0, None)
    for d in inside:
        covered = frozenset(p for p, t in dfs_ancestors(g, d)
                            if (p, t) in seg)
        needed = ball(g.topo, d[0], rho)
        if not needed <= covered:
            return WaveletVerdict(False, len(inside), (d, needed - covered))
    return WaveletVerdict(True, len(inside), None)


def wavelet_outcome(check, *args):
    try:
        return check(*args)
    except ValueError as exc:
        return str(exc)


def level_range(lt):
    """Levels every process holds at some configuration of the trace."""
    return max(lt.values[0]), min(lt.values[-1])


def closure_cut(g, events):
    """The cut of the causal past of `events`: coherent by construction."""
    cut = dict.fromkeys(g.topo.nodes, 0)
    for e in events:
        for q, tq in dfs_ancestors(g, e):
            cut[q] = max(cut[q], tq)
    return cut


def draw_events(data, g, size):
    return data.draw(st.lists(
        st.sampled_from(sorted(g.preds)), min_size=1, max_size=size))


def shift_one(data, g, cut):
    """The cut with one process moved one event earlier or later."""
    p = data.draw(st.sampled_from(sorted(cut)))
    times = g.events_by_process[p]
    i = times.index(cut[p]) + data.draw(st.sampled_from((-1, 1)))
    return {**cut, p: times[min(max(i, 0), len(times) - 1)]}


@settings(max_examples=150, deadline=None)
@given(data=st.data(), **run_params)
def test_is_coherent_matches_past_cone_dfs(kind, n, seed, daemon, rho, data):
    lt, g = lifted_run(kind, n, seed, daemon, rho)
    level = cut_for_level(lt, data.draw(st.integers(*level_range(lt))))
    closure = closure_cut(g, draw_events(data, g, 3))
    assert dfs_is_coherent(g, closure) and dfs_is_coherent(g, level)
    random_cut = {p: data.draw(st.sampled_from(times))
                  for p, times in g.events_by_process.items()}
    for cut in (level, shift_one(data, g, level), closure,
                shift_one(data, g, closure), random_cut):
        assert is_coherent(g, cut) == dfs_is_coherent(g, cut), cut
    off = {**level, 0: max(g.events_by_process[0]) + 1}
    with pytest.raises(ValueError):
        is_coherent(g, off)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), **run_params)
def test_check_wavelet_matches_past_cone_dfs(kind, n, seed, daemon, rho,
                                             data):
    lt, g = lifted_run(kind, n, seed, daemon, rho)
    lo, top = level_range(lt)
    k = data.draw(st.integers(lo, top - rho))
    # level windows of width rho and the rho-1 short-window control
    windows = [(cut_for_level(lt, k), cut_for_level(lt, k + width))
               for width in (rho, rho - 1)]
    below = draw_events(data, g, 3)
    c1 = closure_cut(g, below)
    windows.append((c1, closure_cut(g, below + draw_events(data, g, 3))))
    # unordered, and ordered but (mostly) incoherent
    random_cut = {p: data.draw(st.sampled_from(times))
                  for p, times in g.events_by_process.items()}
    windows.append((windows[0][1], windows[0][0]))
    windows.append((random_cut, {p: max(t, windows[0][1][p])
                                 for p, t in random_cut.items()}))
    for c1, c2 in windows:
        segment = sorted((p, t) for p, times in g.events_by_process.items()
                         for t in times if c1[p] <= t <= c2[p])
        upper = {(p, c2[p]) for p in g.topo.nodes}
        picked = set(draw_events(data, g, 2))
        if segment:
            picked |= set(data.draw(st.lists(st.sampled_from(segment),
                                             max_size=6)))
        for decides in (upper, picked, upper | picked):
            args = (g, c1, c2, rho, decides)
            assert (wavelet_outcome(check_wavelet, *args)
                    == wavelet_outcome(dfs_check_wavelet, *args))


@settings(max_examples=60, deadline=None)
@given(**run_params)
def test_level_time_matches_linear_scan(kind, n, seed, daemon, rho):
    lt, _ = lifted_run(kind, n, seed, daemon, rho)
    for p in lt.trace.topo.nodes:
        column = [row[p] for row in lt.values]
        for k in range(column[0] - 2, column[-1] + 3):
            t = next((t for t, v in enumerate(column) if v >= k), None)
            expect = t if t is not None and column[t] == k else None
            assert lt.level_time(p, k) == expect
