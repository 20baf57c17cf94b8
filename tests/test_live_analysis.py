"""The analysis that runs as the steps come, against the post-hoc one.

`run_scenario` and `read_trace` append each step to a `cli.LiveTrace`,
which scans, counts rounds and lifts as the steps arrive and keeps only
what `analyze` reads later.  `tests/analyze_reports.json` pins the reports
the post-hoc analysis gave over stored traces for a set of scenarios
(every protocol and daemon, four graph families, rho 1 and 2, each
infimum kind, an `adversarial_file:` start); `post_hoc_report` below is
that analysis, built from the stored-trace entry points, and the property
test holds random scenarios to it.
"""

import errno
import gc
import json
import math
import os
import pathlib
import tempfile
import tracemalloc
import types
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rhosync import (DAEMONS, DroppedConfiguration, DroppedEvents,
                     EngineFault, HookEvent, LiftError, ProtocolDef,
                     Topology, Trace, TransitionRecord, extract_cs_records,
                     lift, lra_monitor_start, metrics, monitor_liveness,
                     monitor_safety, round_count, stabilization_indices,
                     unison, verify_ball_infimum, verify_delay_agreement)
from rhosync import cli, kernel
from rhosync.cli import (CSV_HEADER, analyze, main, read_trace, run_scenario,
                         scenario_from, write_trace)
from conftest import naive_ball_infimum, stored_run

REPORTS = json.loads(pathlib.Path(__file__).with_name(
    "analyze_reports.json").read_text(encoding="utf-8"))


def post_hoc_report(scn, trace):
    """The report of `analyze`, computed by the monitors over a stored
    trace: a scan of every configuration, the rounds of the prefix, and a
    lifting of the suffix from its configurations."""
    topo, proto = trace.topo, trace.protocol
    report = {"stop_reason": trace.stop_reason, "steps": len(trace.records),
              "n": topo.node_count}
    ws = proto.name == "ss_ws"
    wu1, stab = stabilization_indices(trace)
    if not ws:
        report["wu1_index"] = wu1
    report["stab_index"] = stab
    if stab is None:
        report["violations"] = 1
        report["notes"] = ["did not stabilize within the step budget"]
        return report
    report["stab_round"] = round_count(trace, stab)
    suffix = trace.suffix(stab)
    violations = 0
    if ws:
        lt = lift(suffix)
        levels = cli.check_wavelet_levels(lt, scn.rho)
        report["wavelet_levels"] = len(levels)
        report["wavelet_failures"] = [k for k, ok in levels if not ok]
        violations += len(report["wavelet_failures"])
        vacuous = [] if levels else ["wavelet window"]
        if scn.infimum:
            verdict = verify_ball_infimum(lt, proto.meta["infimum"], scn.rho)
            report["infimum_phases"] = verdict.phases_checked
            report["infimum_mismatches"] = len(verdict.mismatches)
            violations += len(verdict.mismatches)
            if not verdict.phases_checked:
                vacuous.append("infimum phase")
        if vacuous:
            # a verdict that checked nothing fails, as an LRA run's does
            violations += 1
            report["notes"] = ["the stabilized suffix holds no "
                               + " and no ".join(vacuous) + " to check"]
        report["violations"] = violations
        return report
    lt1 = lift(suffix, "r1")
    agree = verify_delay_agreement(lift(suffix, "r2"), scn.rho,
                                   sample_every=5)
    report["delay_pairs"] = agree.pairs_checked
    report["delay_disagreements"] = len(agree.disagreements)
    violations += len(agree.disagreements)
    mon = lra_monitor_start(lt1)
    if mon is None:
        report["monitor_start"] = None
        report["violations"] = violations + 1
        report["notes"] = ["no complete post-stabilization phase: the LRA "
                           "monitors saw no privilege"]
        return report
    report["monitor_start"] = stab + mon
    lt1 = lt1.suffix(mon)
    recs = extract_cs_records(lt1.trace)
    safety = monitor_safety(recs, topo, scn.rho, proto.meta["plugin"].compat)
    report["safety_violations"] = len(safety)
    live = monitor_liveness(recs, topo)
    report["cs_min_count"], report["cs_max_gap"] = live.min_count, live.max_gap
    m = metrics(lt1, recs)
    report["fairness_index"] = m.fairness_index
    report["service_time"] = m.service_time
    report["fairness_bound"] = math.ceil(topo.diameter / scn.rho)
    report["service_bound"] = math.ceil(
        topo.node_count * (topo.node_count - 1) / scn.rho)
    report["comms_per_phase"] = max(m.comms_per_phase, default=None)
    report["cs_total"] = m.cs_total
    report["violations"] = violations + len(safety)
    return report


def _three_reports(scn):
    """The reports of the live run, of the stored run and of the live
    replay of its trace file, and whether the live run's writer and
    `write_trace` of the stored run wrote the same bytes."""
    stored = stored_run(scn)
    with tempfile.TemporaryDirectory() as tmp:
        paths = [os.path.join(tmp, name) for name in ("live", "stored")]
        live = run_scenario(scn, paths[0])
        write_trace(paths[1], scn, stored)
        same = [open(p, "rb").read() for p in paths]
        _scn, replayed = read_trace(paths[0])
    return ([analyze(scn, live), post_hoc_report(scn, stored),
             analyze(scn, replayed)], same[0] == same[1])


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_reports_match_the_pinned_post_hoc_reports(tmp_path, name):
    entry = REPORTS[name]
    params = dict(entry["params"])
    if "states" in entry:
        init = tmp_path / "init.json"
        init.write_text(json.dumps(entry["states"]))
        params["init"] = f"adversarial_file:{init}"
    reports, same_bytes = _three_reports(scenario_from({}, params))
    assert same_bytes
    for report in reports:
        assert json.loads(json.dumps(report)) == entry["report"]


@settings(max_examples=40, deadline=None)
@given(proto=st.sampled_from(["ss_ws", "trivial", "lme", "gme", "rw"]),
       daemon=st.sampled_from(DAEMONS),
       topo=st.sampled_from(["ring:5", "ring:8", "path:5", "grid:2x3",
                             "tree:6"]),
       rho=st.sampled_from([1, 2]),
       infimum=st.sampled_from(["", "min_int", "max_int", "lex_pair"]),
       seed=st.integers(0, 10_000), steps=st.integers(1, 500))
def test_live_stored_and_replayed_reports_agree(proto, daemon, topo, rho,
                                                infimum, seed, steps):
    scn = scenario_from({}, {
        "proto": proto, "daemon": daemon, "topo": topo, "rho": rho,
        "infimum": infimum if proto == "ss_ws" else "", "seed": seed,
        "steps": str(steps)})
    (live, post_hoc, replayed), same_bytes = _three_reports(scn)
    assert same_bytes
    assert live == post_hoc == replayed


def test_a_live_trace_keeps_only_what_analyze_reads():
    scn = scenario_from({}, {"topo": "ring:8", "proto": "ss_ws", "rho": "2",
                             "infimum": "lex_pair", "steps": "150"})
    live, stored = run_scenario(scn), stored_run(scn)
    configs = live.configs
    assert len(configs) == len(stored.configs) == 151
    assert (configs[0], configs[-1]) == (stored.configs[0],
                                         stored.configs[-1])
    for i in [*range(1, 150), *range(-150, -1)]:
        with pytest.raises(DroppedConfiguration):
            configs[i]
    for i in (151, -152):
        with pytest.raises(IndexError):
            configs[i]
    # a suffix, and the trace of each lifting, keep only the last
    stab = live.stab_index
    assert 0 < stab < 150
    lt = live.lifted("r")
    for suffix in (live.suffix(3), live.suffix(stab), lt.trace):
        assert suffix.configs[-1] == stored.configs[-1]
        for i in range(len(suffix.configs) - 1):
            with pytest.raises(DroppedConfiguration):
                suffix.configs[i]
    # no process state is kept for the infimum check, which judged the
    # run's phases as they came
    assert not hasattr(live, "state") and not hasattr(configs, "state")
    verdict = live.infimum_verdict()
    assert verdict.phases_checked > 0
    assert verdict == verify_ball_infimum(lift(stored.suffix(stab)),
                                          live.protocol.meta["infimum"],
                                          scn.rho)


_NOT_HELD_STATE = (ProtocolDef, Topology, type, types.ModuleType,
                   types.FunctionType, types.BuiltinFunctionType)


def _reached(root, wanted, past=()):
    """The objects for which `wanted` holds that `root` reaches by
    references, past the protocol, the topology, types, modules, functions
    and the types `past`, and not into a wanted object."""
    seen, stack, found = set(), [root], {}
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (*_NOT_HELD_STATE, *past)):
            continue
        seen.add(id(obj))
        if wanted(obj):
            found[id(obj)] = obj
        else:
            stack.extend(gc.get_referents(obj))
    return list(found.values())


def _reached_configurations(root, n):
    """The configurations (tuples of n register dicts) that `root` reaches
    (`_reached`), past records."""
    return _reached(root, lambda obj: type(obj) is tuple and len(obj) == n
                    and all(type(st) is dict for st in obj),
                    past=(TransitionRecord,))


@pytest.mark.parametrize("steps", [150, 157, 163])
def test_a_live_trace_reaches_three_configurations_at_most(steps):
    # configuration 0, the last one, and the stabilization configuration
    # that each lifting's start trace holds, whatever the run's length
    scn = scenario_from({}, {"topo": "ring:8", "proto": "ss_ws", "rho": "2",
                             "infimum": "lex_pair", "steps": str(steps)})
    live, stored = run_scenario(scn), stored_run(scn)
    assert 0 < live.stab_index < steps
    held = _reached_configurations(live, 8)
    assert len(held) <= 3
    assert all(any(cfg is c for cfg in held)
               for c in (live.configs[0], live.configs[-1]))
    kept = [stored.configs[t] for t in (0, live.stab_index, steps)]
    assert all(cfg in kept for cfg in held)


def _tampered(suffix, lt, op, rho):
    """`suffix` with three lies, each at a level the infimum check reads:
    process 0's v1 at the first inner level, the last process's decide
    payload v2 at the end of the first phase, and process 0's decide at
    the end of the second phase dropped."""
    delta, last = rho + 1, suffix.topo.node_count - 1
    k0 = lt.first_phase_level(delta)
    configs, records = list(suffix.configs), list(suffix.records)
    t = lt.level_time(0, k0 + 1)
    configs[t] = tuple({**st, "v1": op.identity} if p == 0 else st
                       for p, st in enumerate(configs[t]))
    t = lt.level_time(last, k0 + delta)
    rec = records[t - 1]
    records[t - 1] = TransitionRecord(rec.fired, tuple(
        HookEvent(ev.process, ev.kind, {**ev.payload, "v2": op.identity})
        if (ev.process, ev.kind) == (last, "decide") else ev
        for ev in rec.events))
    t = lt.level_time(0, k0 + 2 * delta)
    rec = records[t - 1]
    records[t - 1] = TransitionRecord(rec.fired, tuple(
        ev for ev in rec.events if (ev.process, ev.kind) != (0, "decide")))
    return Trace(suffix.protocol, suffix.topo, configs, records,
                 stop_reason=suffix.stop_reason)


@settings(max_examples=30, deadline=None)
@given(topo=st.sampled_from(["ring:7", "path:5", "grid:2x3", "tree:6",
                             "random:6"]),
       rho=st.integers(1, 3),
       infimum=st.sampled_from(["min_int", "max_int", "lex_pair"]),
       daemon=st.sampled_from(["synchronous", "distributed_random"]),
       seed=st.integers(0, 10_000))
def test_live_stored_and_naive_infimum_checks_agree(topo, rho, infimum,
                                                    daemon, seed):
    scn = scenario_from({}, {"proto": "ss_ws", "topo": topo, "rho": rho,
                             "infimum": infimum, "daemon": daemon,
                             "seed": seed})
    live, stored = run_scenario(scn), stored_run(scn)
    _w1, stab = stabilization_indices(stored)
    assert live.stab_index == stab is not None
    op = stored.protocol.meta["infimum"]
    suffix = stored.suffix(stab)
    lt = lift(suffix)
    verdict = verify_ball_infimum(lt, op, rho)
    assert live.infimum_verdict() == verdict == naive_ball_infimum(lt, op,
                                                                   rho)
    assert verdict.ok and verdict.phases_checked >= 2
    # negative control: the library check and the reference see the
    # same lies, in the same order
    bad = lift(_tampered(suffix, lt, op, rho))
    lies = verify_ball_infimum(bad, op, rho)
    assert lies == naive_ball_infimum(bad, op, rho)
    k0, delta = lt.first_phase_level(rho + 1), rho + 1
    assert [m[:4] for m in lies.mismatches] == [
        (k0, 1, 0, "v1"), (k0, delta, suffix.topo.node_count - 1, "v2"),
        (k0 + delta, delta, 0, "decide")]


def _held_bytes(make):
    """The bytes that the object `make()` returns holds, by tracemalloc."""
    tracemalloc.start()
    try:
        obj = make()
        held = tracemalloc.get_traced_memory()[0]
        del obj
        return held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def test_a_live_run_holds_less_than_half_a_stored_one():
    # 1,200 steps: the infimum check holds only the phases in flight
    scn = scenario_from({}, {"topo": "ring:32", "proto": "ss_ws", "rho": "2",
                             "infimum": "lex_pair", "seed": "7",
                             "steps": "1200"})
    live = _held_bytes(lambda: run_scenario(scn))
    stored = _held_bytes(lambda: stored_run(scn))
    assert 0 < live < stored / 2


def test_a_live_trace_that_never_stabilizes_is_freed_when_dropped():
    # its monitors hold no reference cycle, so no collector run is needed
    scn = scenario_from({}, {"topo": "ring:8", "steps": "1"})
    trace = run_scenario(scn)
    assert trace.stab_index is None
    gc.disable()
    try:
        ref = weakref.ref(trace)
        del trace
        assert ref() is None
    finally:
        gc.enable()


def test_a_fault_met_while_the_steps_come_is_raised_by_analyze(
        tmp_path, monkeypatch, capsys):
    # Faults at steps 5 (r2) and 9 (r1) of the suffix: the one kept is the
    # first in step order, though r1's lifting takes each step first.
    extend = unison.LiftedTrace.extend

    def faulty(self, i, rec, cfg, nxt):
        if (self.reg, i) in (("r2", 5), ("r1", 9)):
            raise LiftError(f"step {i}: injected into {self.reg}")
        extend(self, i, rec, cfg, nxt)

    monkeypatch.setattr(unison.LiftedTrace, "extend", faulty)
    flags = {"topo": "ring:6", "proto": "trivial", "steps": "60"}
    scn = scenario_from({}, flags)
    trace = run_scenario(scn)
    assert len(trace.records) == 60 and trace.stab_index + 10 <= 60
    with pytest.raises(LiftError, match="step 5: injected into r2"):
        analyze(scn, trace)
    assert cli._sweep_cell(scn)[CSV_HEADER.index("violations")] == \
        "error: LiftError"
    # `run --trace` writes every line of the trace, as `write_trace` of
    # the stored run does, before the analysis raises
    path = tmp_path / "t.jsonl"
    argv = [x for key, val in flags.items() for x in (f"--{key}", val)]
    with pytest.raises(LiftError):
        main(["run", *argv, "--trace", str(path)])
    assert len(path.read_text().splitlines()) == 63
    write_trace(str(tmp_path / "stored.jsonl"), scn, stored_run(scn))
    assert path.read_bytes() == (tmp_path / "stored.jsonl").read_bytes()


# -- the trace writer -------------------------------------------------------


def _written_live_and_stored(tmp_path, scn):
    """Write the trace of `scn` twice, by the live run's writer
    (`run_scenario(scn, path)`) and by `write_trace` of the stored run;
    return the live trace and both files' bytes."""
    live_path, stored_path = tmp_path / "live.jsonl", tmp_path / "stored.jsonl"
    live = run_scenario(scn, str(live_path))
    write_trace(str(stored_path), scn, stored_run(scn))
    assert sorted(os.listdir(tmp_path)) == ["live.jsonl", "stored.jsonl"]
    return live, live_path.read_bytes(), stored_path.read_bytes()


@pytest.mark.parametrize("daemon", DAEMONS)
@pytest.mark.parametrize("rho", [1, 2])
@pytest.mark.parametrize("topo", ["ring:6", "grid:2x3", "tree:5"])
@pytest.mark.parametrize("proto, infimum", [
    ("ss_ws", ""), ("ss_ws", "min_int"), ("ss_ws", "lex_pair"),
    ("trivial", ""), ("lme", ""), ("gme", ""), ("rw", "")])
def test_the_live_writer_writes_the_bytes_of_write_trace(
        tmp_path, proto, infimum, topo, rho, daemon):
    scn = scenario_from({}, {"proto": proto, "infimum": infimum,
                             "topo": topo, "rho": rho, "daemon": daemon,
                             "seed": 3, "steps": "400"})
    live, written, stored = _written_live_and_stored(tmp_path, scn)
    assert written == stored
    assert len(written.splitlines()) == len(live.records) + 3


def _wound_ring9(tmp_path):
    """`ss_ws` on ring:9 at rho 2 with K = 3, from a clock wound once
    around the ring: no process is enabled at step 0."""
    init = tmp_path / "wound.json"
    init.write_text(json.dumps([{"r": p} for p in range(9)]))
    return {"proto": "ss_ws", "topo": "ring:9", "rho": "2", "k": "3",
            "init": f"adversarial_file:{init}"}


@pytest.mark.parametrize("stop_reason", ["budget", "quiescence"])
def test_the_live_writer_writes_the_lines_of_a_run_of_no_step(
        tmp_path, stop_reason):
    # a 0-step budget, and a start where no process is enabled
    (tmp_path / "out").mkdir()
    params = _wound_ring9(tmp_path) if stop_reason == "quiescence" else {
        "proto": "ss_ws", "infimum": "lex_pair", "steps": "0"}
    live, written, stored = _written_live_and_stored(
        tmp_path / "out", scenario_from({}, params))
    assert written == stored
    assert live.records == [] and live.stop_reason == stop_reason
    assert len(written.splitlines()) == 3
    replayed = read_trace(str(tmp_path / "out" / "live.jsonl"))[1]
    assert replayed.stop_reason == stop_reason


def _lex_pair_ring8():
    return scenario_from({}, {"topo": "ring:8", "proto": "ss_ws", "rho": "2",
                              "infimum": "lex_pair"})


def _is_event(obj):
    return type(obj) is HookEvent


def test_a_finished_ss_ws_trace_reaches_no_event(tmp_path):
    # the decide events, read by the infimum check and the writer as each
    # step comes, are dropped; a layer clock keeps the cs events that the
    # LRA monitors read after the run
    path = str(tmp_path / "t.jsonl")
    scn = _lex_pair_ring8()
    live = run_scenario(scn, path)
    assert analyze(scn, live)["infimum_phases"] > 0
    assert any(ev.kind == "decide" for rec in stored_run(scn).records
               for ev in rec.events)
    assert _reached(live, _is_event) == []
    _scn, replayed = read_trace(path)
    assert analyze(scn, replayed) == analyze(scn, live)
    assert _reached(replayed, _is_event) == []
    lme = run_scenario(scenario_from({}, {"topo": "ring:8", "proto": "lme"}))
    events = _reached(lme, _is_event)
    assert events and all(ev.kind == "cs" for ev in events)
    assert len(events) == sum(len(rec.events) for rec in lme.records)


def test_write_trace_refuses_a_live_trace_without_its_events(tmp_path):
    scn = _lex_pair_ring8()
    live = run_scenario(scn)
    with pytest.raises(DroppedEvents) as exc:
        write_trace(str(tmp_path / "t.jsonl"), scn, live)
    assert "a live trace dropped the events of this step" in str(exc.value)
    assert os.listdir(tmp_path) == []
    with pytest.raises(DroppedEvents):
        [rec.events for rec in live.records]
    # a record that had no events drops none, and a layer clock's live
    # trace keeps them and writes the bytes its writer wrote
    quiet = scenario_from({}, {"topo": "ring:8", "steps": "40"})
    assert all(rec.events == () for rec in run_scenario(quiet).records)
    lme = scenario_from({}, {"topo": "ring:8", "proto": "lme"})
    run_scenario(lme, str(tmp_path / "live.jsonl"))
    write_trace(str(tmp_path / "t.jsonl"), lme, run_scenario(lme))
    assert (tmp_path / "t.jsonl").read_bytes() == \
        (tmp_path / "live.jsonl").read_bytes()


@pytest.mark.parametrize("fault", [
    EngineFault("injected"), OSError(errno.ENOSPC, "injected")],
    ids=["engine", "write"])
def test_a_run_that_fails_mid_run_leaves_no_trace_and_no_spool(
        tmp_path, monkeypatch, capsys, fault):
    path = tmp_path / "t.jsonl"
    path.write_bytes(b"earlier trace\n")
    seen = []
    if isinstance(fault, EngineFault):
        owner, name = kernel, "step"
    else:
        owner, name = cli.TraceWriter, "step"
    original = getattr(owner, name)

    def failing(*args, **kwargs):
        seen.append(sorted(os.listdir(tmp_path)))
        if len(seen) == 30:
            raise fault
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, failing)
    argv = ["run", "--topo", "ring:8", "--proto", "ss_ws", "--infimum",
            "lex_pair", "--trace", str(path)]
    if isinstance(fault, EngineFault):
        with pytest.raises(EngineFault, match="injected"):
            main(argv)
    else:
        assert main(argv) == 2
        assert "cannot write trace" in capsys.readouterr().err
    # while the run goes, the directory holds the earlier trace and the
    # temporary file that replaces it on success; the spool has no name
    assert len(seen) == 30 and len(seen[-1]) == 2
    assert seen[-1][0].startswith(".t.jsonl.") and seen[-1][1] == "t.jsonl"
    assert os.listdir(tmp_path) == ["t.jsonl"]
    assert path.read_bytes() == b"earlier trace\n"
