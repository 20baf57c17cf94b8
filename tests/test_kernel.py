"""Engine tests: views, composite atomicity, priorities, neutralization,
daemons, rounds, and the closure/attractor monitors."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rhosync import (Action, DaemonPolicy, EngineFault, ProtocolDef,
                     RegisterSpec, View, check_attractor, check_closure,
                     enabled, first_enabled_map, generate,
                     random_configuration, rounds, run, step,
                     uniform_configuration)
from rhosync.kernel import make_daemon


def any_int(x):
    """The domain of the toy protocols' register x."""
    return type(x) is int


def swap_protocol():
    """Two-register toy: every process copies its left ring neighbor's x.
    Always enabled, so it exercises daemons and atomicity cleanly."""
    def guard(view):
        return True

    def body(view, emit):
        q = min(view.neighbors)
        return {"x": view.nget(q, "x")}

    return ProtocolDef(
        name="copy_min_neighbor",
        actions=(Action("CP", guard, body),),
        registers=(RegisterSpec("x", 0,
                                lambda rng: rng.randrange(100), any_int),),
    )


def countdown_protocol():
    """Decrement to zero; quiesces."""
    return ProtocolDef(
        name="countdown",
        actions=(Action("DEC", lambda v: v.get("x") > 0,
                        lambda v, emit: {"x": v.get("x") - 1}),),
        registers=(RegisterSpec("x", 3,
                                lambda rng: rng.randrange(5), any_int),),
    )


def test_view_rejects_non_neighbor_read(ring8):
    cfg = tuple({"x": p} for p in ring8.nodes)
    view = View(cfg, ring8, 0)
    assert view.nget(1, "x") == 1
    with pytest.raises(EngineFault):
        view.nget(4, "x")


def test_view_tracks_reads(ring8):
    cfg = tuple({"x": p} for p in ring8.nodes)
    view = View(cfg, ring8, 0, track=True)
    view.nget(1, "x")
    view.nget(7, "x")
    view.nget(1, "x")
    assert view.reads == {(1, "x"), (7, "x")}


def test_step_composite_atomicity(ring8):
    # all statements read the pre-state: a synchronous step rotates values,
    # it does not cascade
    proto = swap_protocol()
    cfg = tuple({"x": p} for p in ring8.nodes)
    nxt, rec = step(cfg, list(ring8.nodes), proto, ring8,
                    first_enabled_map(cfg, proto, ring8))
    for p in ring8.nodes:
        assert nxt[p]["x"] == cfg[min(ring8.adjacency[p])]["x"]
    assert set(rec.fired) == set(ring8.nodes)


def test_step_rejects_empty_and_disabled_selection(ring8):
    proto = countdown_protocol()
    cfg = tuple({"x": 0} for _ in ring8.nodes)
    first = first_enabled_map(cfg, proto, ring8)
    with pytest.raises(EngineFault):
        step(cfg, [], proto, ring8, first)
    with pytest.raises(EngineFault):
        step(cfg, [0], proto, ring8, first)


def test_step_rejects_unknown_register_write(ring8):
    proto = ProtocolDef(
        name="bad",
        actions=(Action("B", lambda v: True, lambda v, e: {"nope": 1}),),
        registers=(RegisterSpec("x", 0, lambda rng: 0, any_int),),
    )
    cfg = uniform_configuration(proto, ring8)
    with pytest.raises(EngineFault):
        step(cfg, [0], proto, ring8, first_enabled_map(cfg, proto, ring8))


def test_priority_first_enabled_action_fires(ring8):
    hi = Action("HI", lambda v: v.get("x") >= 1, lambda v, e: {"x": 10})
    lo = Action("LO", lambda v: True, lambda v, e: {"x": -10})
    proto = ProtocolDef(name="prio", actions=(hi, lo),
                        registers=(RegisterSpec("x", 1,
                                                lambda rng: 0, any_int),))
    cfg = uniform_configuration(proto, ring8)
    assert enabled(cfg, 0, proto, ring8) == ["HI", "LO"]
    nxt, rec = step(cfg, [0], proto, ring8,
                    first_enabled_map(cfg, proto, ring8))
    assert rec.fired[0] == "HI" and nxt[0]["x"] == 10


def test_neutralization(path6):
    # enabled iff matching some neighbor; the mover's jump away from the
    # shared value neutralizes its partner
    proto = ProtocolDef(
        name="match",
        actions=(Action(
            "M",
            lambda v: any(v.nget(q, "x") == v.get("x") for q in v.neighbors),
            lambda v, e: {"x": v.get("x") + 10}),),
        registers=(RegisterSpec("x", 0, lambda rng: 0, any_int),),
    )
    cfg = tuple({"x": [5, 5, 0, 1, 2, 3][p]} for p in path6.nodes)
    first = first_enabled_map(cfg, proto, path6)
    assert sorted(first) == [0, 1]
    _, rec = step(cfg, [0], proto, path6, first)
    assert rec.neutralized == (1,)


def test_step_rejects_a_stale_enabled_map(path6):
    # The map's view of process 1 holds an old state of its neighbor 2:
    # its guard's verdict no longer stands for the configuration stepped.
    proto = countdown_protocol()
    old = tuple({"x": 1} for _ in path6.nodes)
    first = first_enabled_map(old, proto, path6)
    cfg = old[:2] + ({"x": 0},) + old[3:]
    with pytest.raises(EngineFault, match="stale"):
        step(cfg, [1], proto, path6, first)
    # Equal values in new objects do not count as the same states either.
    with pytest.raises(EngineFault, match="stale"):
        step(tuple(dict(st) for st in old), [1], proto, path6, first)
    # Process 4's closed neighborhood still holds the very states of `old`.
    nxt, rec = step(cfg, [4], proto, path6, first)
    assert rec.fired == {4: "DEC"} and nxt[4]["x"] == 0


# -- daemons ---------------------------------------------------------------


def test_daemon_synchronous_selects_all(ring8):
    d = make_daemon(DaemonPolicy(kind="synchronous"), ring8)
    assert d.select([1, 3, 5], 0) == [1, 3, 5]


def test_daemon_central_selects_one(ring8):
    d = make_daemon(DaemonPolicy(kind="central", seed=1), ring8)
    for i in range(20):
        sel = d.select([0, 2, 4, 6], i)
        assert len(sel) == 1 and sel[0] in (0, 2, 4, 6)


def test_daemon_rho_central_respects_distance(ring8):
    d = make_daemon(DaemonPolicy(kind="rho_central", seed=2, rho=2), ring8)
    for i in range(50):
        sel = d.select(list(ring8.nodes), i)
        assert sel
        for a in sel:
            for b in sel:
                assert a == b or ring8.dist[a][b] > 2


def test_daemon_distributed_random_nonempty(ring8):
    d = make_daemon(DaemonPolicy(kind="distributed_random", seed=3,
                                 p_select=0.01), ring8)
    for i in range(30):
        assert d.select(list(ring8.nodes), i)


def test_daemon_adversarial_starves_most_recent(ring8):
    d = make_daemon(DaemonPolicy(kind="adversarial", seed=4), ring8)
    picked = d.select([0, 1], 0)[0]
    other = 1 - picked
    # as long as anything else is enabled, the last actor is never selected
    for i in range(1, 30):
        sel = d.select([0, 1], i)
        assert sel == [other]
        other = 1 - sel[0]
    assert d.select([picked], 100) == [picked]


def test_daemon_unknown_kind(ring8):
    d = make_daemon(DaemonPolicy(kind="mystery"), ring8)
    with pytest.raises(EngineFault):
        d.select([0], 0)


# -- runs ------------------------------------------------------------------


def test_run_reaches_quiescence(ring8):
    proto = countdown_protocol()
    tr = run(proto, ring8, DaemonPolicy(kind="synchronous"),
             uniform_configuration(proto, ring8), max_steps=100)
    assert tr.stop_reason == "quiescence"
    assert len(tr.records) == 3
    assert all(st["x"] == 0 for st in tr.configs[-1])


def test_run_budget_and_predicate(ring8):
    proto = swap_protocol()
    init = tuple({"x": p} for p in ring8.nodes)
    tr = run(proto, ring8, DaemonPolicy(kind="synchronous"), init, max_steps=7)
    assert tr.stop_reason == "budget" and len(tr.records) == 7
    cd = countdown_protocol()
    tr2 = run(cd, ring8, DaemonPolicy(kind="synchronous"),
              uniform_configuration(cd, ring8), max_steps=100,
              stop_predicate=lambda c: c[0]["x"] == 1)
    assert tr2.stop_reason == "predicate"
    assert tr2.configs[-1][0]["x"] == 1


def test_run_deterministic_per_seed(ring8):
    proto = swap_protocol()
    init = random_configuration(proto, ring8, random.Random(5))
    a = run(proto, ring8, DaemonPolicy(kind="distributed_random", seed=9),
            init, max_steps=40)
    b = run(proto, ring8, DaemonPolicy(kind="distributed_random", seed=9),
            init, max_steps=40)
    assert a.configs == b.configs
    assert [r.fired for r in a.records] == [r.fired for r in b.records]


def test_trace_suffix_shares_records(ring8):
    proto = swap_protocol()
    init = tuple({"x": p} for p in ring8.nodes)
    tr = run(proto, ring8, DaemonPolicy(kind="central", seed=0), init,
             max_steps=10)
    suf = tr.suffix(4)
    assert len(suf.configs) == 7
    assert len(suf.records) == 6
    assert all(a is b for a, b in zip(suf.records, tr.records[4:]))
    assert suf.configs[0] == tr.configs[4]


def test_rounds_synchronous_one_step_each(ring8):
    proto = swap_protocol()
    init = tuple({"x": p} for p in ring8.nodes)
    tr = run(proto, ring8, DaemonPolicy(kind="synchronous"), init, max_steps=6)
    assert rounds(tr) == [1, 2, 3, 4, 5, 6]


def test_rounds_central_daemon(ring8):
    # always-enabled protocol, one process per step: a round completes
    # exactly when all n processes have acted at least once
    proto = swap_protocol()
    init = tuple({"x": p} for p in ring8.nodes)
    tr = run(proto, ring8, DaemonPolicy(kind="central", seed=7), init,
             max_steps=200)
    bounds = rounds(tr)
    assert bounds
    prev = 0
    for b in bounds:
        acted = set()
        for rec in tr.records[prev:b]:
            acted |= set(rec.fired)
        assert acted == set(ring8.nodes)
        # minimality: strictly before the boundary some process is missing
        acted_before = set()
        for rec in tr.records[prev:b - 1]:
            acted_before |= set(rec.fired)
        assert acted_before != set(ring8.nodes)
        prev = b


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_step_changes_only_selected(data):
    topo = generate("ring", n=8)
    proto = swap_protocol()
    vals = data.draw(st.lists(st.integers(0, 99), min_size=8, max_size=8))
    cfg = tuple({"x": v} for v in vals)
    sel = data.draw(st.sets(st.integers(0, 7), min_size=1))
    nxt, rec = step(cfg, sorted(sel), proto, topo,
                    first_enabled_map(cfg, proto, topo))
    for p in topo.nodes:
        if p not in sel:
            assert nxt[p] == cfg[p]


# -- predicate monitors ----------------------------------------------------


def test_check_closure_flags_non_closed_predicate(ring8):
    # always-enabled increment: any proper selection breaks all-equal
    proto = ProtocolDef(
        name="inc",
        actions=(Action("I", lambda v: True,
                        lambda v, e: {"x": v.get("x") + 1}),),
        registers=(RegisterSpec("x", 0,
                                lambda rng: rng.randrange(100), any_int),),
    )

    def all_equal(c):
        return len({st["x"] for st in c}) == 1

    def sampler(rng):
        v = rng.randrange(100)
        return tuple({"x": v} for _ in ring8.nodes)

    verdict = check_closure(all_equal, proto, ring8, sampler,
                            samples=200, steps_per_sample=4, seed=2)
    assert not verdict.closed
    assert verdict.counterexample is not None
    cfg, sel, nxt = verdict.counterexample
    assert all_equal(cfg) and not all_equal(nxt)


def test_check_closure_accepts_invariant(ring8):
    proto = swap_protocol()

    def bounded(c):
        return all(st["x"] < 100 for st in c)

    def sampler(rng):
        return tuple({"x": rng.randrange(100)} for _ in ring8.nodes)

    verdict = check_closure(bounded, proto, ring8, sampler,
                            samples=100, steps_per_sample=4, seed=3)
    assert verdict.closed and verdict.samples_checked > 0


def test_check_attractor_countdown(ring8):
    proto = countdown_protocol()

    def done(c):
        return all(st["x"] == 0 for st in c)

    verdict = check_attractor(
        None, done, proto, ring8, DaemonPolicy(kind="central", seed=0),
        lambda rng: random_configuration(proto, ring8, rng),
        runs=5, budget=500, seed=1)
    assert verdict.converged
    assert all(h is not None for h in verdict.hit_indices)
    assert all(rc is not None for rc in verdict.round_counts)
