"""The engine against a naive reference, and its guard-evaluation budget.

The reference engine below recomputes the full enabled map before and after
every step, evaluates every guard of every process, and scans every process
for neutralization.  `kernel.step` instead keeps a map of first enabled
actions and re-evaluates only the closed neighborhood of the fired
processes; both must produce the same configurations and records, live and
in trace replay, and the same round boundaries.  The reference also tracks
what each fired action reads while it fires, which `lra.metrics` derives
afterwards from the trace.
"""

import dataclasses
import os
import random
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rhosync import (Action, DaemonPolicy, EngineFault, HookEvent,
                     ProtocolDef, RegisterSpec, TransitionRecord, View,
                     enabled, lift, metrics, random_configuration, rounds,
                     run, stabilization_indices)
from rhosync.cli import (auto_steps, build_protocol, make_init, make_topology,
                         read_trace, scenario_from, write_trace)
from rhosync.kernel import make_daemon


def any_int(x):
    """The domain of the toy protocols' register x."""
    return type(x) is int


def enabled_map(c, proto, topo):
    """Each enabled process, mapped to all its enabled labels."""
    return {p: labs for p in topo.nodes
            if (labs := enabled(c, p, proto, topo))}


@dataclasses.dataclass
class ReferenceRecord:
    """A reference step's record and its tracked reads: process ->
    set of (neighbor, register)."""

    record: TransitionRecord
    reads: dict


def reference_step(c, selection, proto, topo):
    """One step, plus the reads each fired action made while firing: its
    guard and statement run on one tracking View."""
    selection = sorted(set(selection))
    if not selection:
        raise EngineFault("empty selection")
    before = enabled_map(c, proto, topo)
    fired, reads, writes, events = {}, {}, {}, []
    for p in selection:
        if p not in before:
            raise EngineFault(f"selected process {p} has no enabled action")
        action = next(a for a in proto.actions if a.guard(View(c, topo, p)))
        view = View(c, topo, p, track=True)
        assert action.guard(view)
        updates = action.statement(
            view, lambda kind, payload, _p=p: events.append(
                HookEvent(process=_p, kind=kind, payload=payload)))
        assert set(updates) <= set(c[p])
        fired[p] = action.label
        reads[p] = frozenset(view.reads)
        writes[p] = updates
    c_next = tuple({**c[p], **writes.get(p, {})} for p in topo.nodes)
    after = enabled_map(c_next, proto, topo)
    neutralized = tuple(p for p in topo.nodes
                        if p in before and p not in fired and p not in after)
    rec = TransitionRecord(fired=fired, neutralized=neutralized,
                           events=tuple(events))
    return c_next, ReferenceRecord(rec, reads)


def reference_run(proto, topo, daemon, init, max_steps):
    dstate = make_daemon(daemon, topo)
    configs, records = [init], []
    cfg = init
    for i in range(max_steps):
        en = enabled_map(cfg, proto, topo)
        if not en:
            return configs, records, "quiescence"
        cfg, rec = reference_step(cfg, dstate.select(sorted(en), i),
                                  proto, topo)
        configs.append(cfg)
        records.append(rec)
    return configs, records, "budget"


def reference_comms(lt1, reads):
    """Per-phase totals of the tracked reads: the distinct neighbors each
    fired process read, by the master phase it fired in (its lifted value
    before the step), over the phases every process has completed."""
    delta = lt1.trace.protocol.meta["delta"]
    totals = {}
    for row, step_reads in zip(lt1.values, reads):
        for p, rs in step_reads.items():
            phase = row[p] // delta
            totals[phase] = totals.get(phase, 0) + len({q for q, _ in rs})
    first = lt1.first_phase_level(delta) // delta
    return [totals.get(phase, 0)
            for phase in range(first, min(lt1.values[-1]) // delta)]


def reference_rounds(configs, records, proto, topo):
    """Round boundaries: from each round start, recompute the all-guard
    enabled set and walk the records until every one of those processes
    has fired or been neutralized."""
    boundaries, i = [], 0
    while i < len(records):
        remaining = set(enabled_map(configs[i], proto, topo))
        if not remaining:
            break
        j = i
        while remaining and j < len(records):
            remaining -= set(records[j].fired) | set(records[j].neutralized)
            j += 1
        if remaining:
            break
        boundaries.append(j)
        i = j
    return boundaries


TOPOLOGIES = ["path:3", "path:5", "ring:3", "ring:6", "tree:6", "grid:2x3",
              "grid:3x3", "random:6:0.4"]
PROTOCOLS = ["ss_ws", "trivial", "lme", "gme", "rw"]
DAEMONS = ["synchronous", "central", "rho_central", "distributed_random",
           "adversarial"]


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(topo=st.sampled_from(TOPOLOGIES), proto=st.sampled_from(PROTOCOLS),
       rho=st.sampled_from([1, 2]), daemon=st.sampled_from(DAEMONS),
       init=st.sampled_from(["random_arbitrary", "wu0_uniform"]),
       infimum=st.sampled_from(["", "lex_pair"]),
       seed=st.integers(0, 10_000), steps=st.integers(1, 120))
def test_run_and_replay_match_reference(topo, proto, rho, daemon, init,
                                        infimum, seed, steps):
    scn = scenario_from({}, {"topo": topo, "proto": proto, "rho": rho,
                             "daemon": daemon, "init": init, "seed": seed,
                             "steps": str(steps),
                             "infimum": infimum if proto == "ss_ws" else ""})
    graph = make_topology(scn.topo)
    protocol = build_protocol(scn, graph)
    start = make_init(scn, protocol, graph)
    policy = DaemonPolicy(scn.daemon, scn.seed, scn.rho, scn.p_select)

    trace = run(protocol, graph, policy, start, max_steps=steps)
    configs, ref, stop = reference_run(protocol, graph, policy, start, steps)
    records = [r.record for r in ref]
    assert trace.stop_reason == stop
    assert trace.configs == configs
    assert trace.records == records
    assert rounds(trace) == reference_rounds(configs, records, protocol, graph)
    if proto != "ss_ws":
        _wu1, stab = stabilization_indices(trace)
        if stab is not None:
            lt1 = lift(trace.suffix(stab), "r1")
            assert metrics(lt1, []).comms_per_phase == reference_comms(
                lt1, [r.reads for r in ref[stab:]])

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "trace.jsonl")
        write_trace(path, scn, trace)
        _scn, replayed = read_trace(path)
    assert replayed.configs == configs
    assert replayed.records == records


def churn_protocol():
    """Neutralizes often, which the clock protocols almost never do: a
    process matching a neighbor stops matching when either of them moves.
    Three actions, one reading no neighbor, so a step also changes which
    action comes first at a process that stays enabled."""
    def match(v):
        return any(v.nget(q, "x") == v.get("x") for q in v.neighbors)

    def peak(v):
        return all(v.nget(q, "x") < v.get("x") for q in v.neighbors)

    def restart(v, emit):
        emit("zero", v.p)
        return {"x": 3}

    return ProtocolDef(
        name="churn",
        actions=(
            Action("MATCH", match,
                   lambda v, e: {"x": (v.get("x") + 2) % 5}),
            Action("PEAK", peak, lambda v, e: {"x": v.get("x") - 1}),
            Action("ZERO", lambda v: v.get("x") == 0, restart),
        ),
        registers=(RegisterSpec("x", 0,
                                lambda rng: rng.randrange(5), any_int),),
    )


@settings(max_examples=100, deadline=None)
@given(topo=st.sampled_from(TOPOLOGIES), daemon=st.sampled_from(DAEMONS),
       rho=st.sampled_from([1, 2]), seed=st.integers(0, 10_000),
       steps=st.integers(1, 60))
def test_run_matches_reference_under_neutralization(topo, daemon, rho, seed,
                                                    steps):
    graph = make_topology(topo)
    proto = churn_protocol()
    policy = DaemonPolicy(kind=daemon, seed=seed, rho=rho)
    start = random_configuration(proto, graph, random.Random(seed))
    trace = run(proto, graph, policy, start, max_steps=steps)
    configs, ref, stop = reference_run(proto, graph, policy, start, steps)
    records = [r.record for r in ref]
    assert trace.stop_reason == stop
    assert trace.configs == configs
    assert trace.records == records
    assert rounds(trace) == reference_rounds(configs, records, proto, graph)


def test_guard_evaluations_stay_in_the_fired_neighborhood():
    """Central daemon on grid:4x4 (rho=2, 8,352 steps): each step evaluates,
    at every process of the closed neighborhood of the selection, the
    guards up to the first that holds on the new configuration, or all of
    them when none holds, and nothing else.  In particular the guard of a
    selected process is not evaluated again before its statement runs."""
    scn = scenario_from({}, {"topo": "grid:4x4", "proto": "ss_ws", "rho": 2,
                             "daemon": "central", "seed": 0})
    topo = make_topology(scn.topo)
    proto = build_protocol(scn, topo)
    evals = [0]

    def counted(guard):
        def wrapper(view):
            evals[0] += 1
            return guard(view)
        return wrapper

    counted_proto = dataclasses.replace(proto, actions=tuple(
        dataclasses.replace(a, guard=counted(a.guard))
        for a in proto.actions))
    per_step = []  # snapshots before the first step and after each step

    def snapshot(_cfg):
        per_step.append(evals[0])
        return False

    def scanned(cfg, p):
        """Guards evaluated at p on cfg, stopping at the first that holds."""
        view = View(cfg, topo, p)
        for n, a in enumerate(proto.actions, start=1):
            if a.guard(view):
                return n
        return len(proto.actions)

    steps = auto_steps(scn, topo, proto)
    trace = run(counted_proto, topo,
                DaemonPolicy(scn.daemon, scn.seed, scn.rho, scn.p_select),
                make_init(scn, proto, topo), max_steps=steps,
                stop_predicate=snapshot)
    assert len(trace.records) == steps == 8352
    for i, (rec, lo, hi) in enumerate(zip(trace.records, per_step,
                                          per_step[1:])):
        ball = set(rec.fired)
        for p in rec.fired:
            ball |= topo.adjacency[p]
        nxt = trace.configs[i + 1]
        assert hi - lo == sum(scanned(nxt, q) for q in ball), \
            f"step {i} evaluated {hi - lo} guards"
