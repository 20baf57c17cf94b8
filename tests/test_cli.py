"""CLI: scenario parsing and precedence, topology specs, run / check /
sweep subcommands, trace round-trips, and exit codes."""

import concurrent.futures
import csv
import dataclasses
import gc
import json
import os
import pathlib
import random
import subprocess
import sys
import tracemalloc
import warnings

import pytest

from rhosync import (DAEMONS, causality, cli, graph_params, infimum, lra,
                     random_configuration, unison, uniform_configuration)
from rhosync.cli import (CSV_HEADER, CorruptTraceError, Scenario,
                         ScenarioError, analyze, expand_grid, main,
                         make_topology, parse_config_file, read_trace,
                         run_scenario, scenario_from, write_trace)
from conftest import replayed_steps, stored_run


# -- configuration ---------------------------------------------------------


def test_parse_config_file(tmp_path):
    p = tmp_path / "scn.cfg"
    p.write_text("topo = ring:6\n# comment\nrho=2  # trailing\n\nseed=7\n")
    assert parse_config_file(str(p)) == {"topo": "ring:6", "rho": "2",
                                         "seed": "7"}


def test_parse_config_rejects_garbage(tmp_path):
    p = tmp_path / "scn.cfg"
    p.write_text("rho 2\n")
    with pytest.raises(ScenarioError):
        parse_config_file(str(p))
    with pytest.raises(ScenarioError):
        parse_config_file(str(tmp_path / "missing.cfg"))


def test_flag_overrides_beat_config():
    scn = scenario_from({"topo": "ring:6", "rho": "2"},
                        {"rho": 3, "daemon": "central", "topo": None})
    assert scn.topo == "ring:6" and scn.rho == 3 and scn.daemon == "central"


@pytest.mark.parametrize("config", [
    {"proto": "chang_roberts"},
    {"daemon": "lazy"},
    {"rho": "0"},
    {"rho": "two"},
    {"steps": "many"},
    {"proto": "lme", "infimum": "min_int"},  # needs proto ss_ws
    {"proto": "ss_ws", "infimum": "sum"},
    {"mystery_key": "1"},
    {"proto": "gme", "group_count": "0"},
    {"steps": "-5"},
    {"p_select": "1.5"},
    {"init": "lazy"},
    {"init": "wu0_uniform:garbage"},  # the mode takes no argument
    {"init": "random_arbitrary:3"},
    {"rho": True},  # typed values, as a trace header or a caller gives them
    {"seed": 1.5},
    {"p_select": "half"},
    {"topo": 5},
    {"steps": 40},
])
def test_invalid_scenarios_rejected(config):
    with pytest.raises(ScenarioError):
        scenario_from(config, {})


def test_an_int_for_a_float_field_becomes_a_float():
    scn = scenario_from({"p_select": 1}, {})
    assert type(scn.p_select) is float and scn.p_select == 1.0
    with pytest.raises(ScenarioError, match=r"p_select must be a number "
                                            r"\(float\), got 1"):
        cli.validate_scenario(Scenario(p_select=1))


def test_every_field_is_a_string_flag():
    names = [f.name for f in dataclasses.fields(Scenario)]
    flags = [x for n in names for x in ("--" + n.replace("_", "-"), n)]
    args = cli.build_parser().parse_args(["run", *flags])
    assert {n: getattr(args, n) for n in names} == {n: n for n in names}


@pytest.mark.parametrize("flag, value, message", [
    ("--proto", "nope", "unknown proto 'nope'"),
    ("--daemon", "lazy", "unknown daemon 'lazy'"),
    ("--rho", "x", "rho must be an integer"),
    ("--p-select", "x", "p_select must be a number"),
    ("--group-count", "2.5", "group_count must be an integer"),
])
def test_bad_flag_values_exit_2(capsys, flag, value, message):
    assert main(["run", "--topo", "ring:6", flag, value]) == 2
    assert f"error: {message}" in capsys.readouterr().err


# -- topology specs --------------------------------------------------------


def test_make_topology_specs(tmp_path):
    assert make_topology("ring:8").node_count == 8
    assert make_topology("path:5").diameter == 4
    assert make_topology("grid:2x3").node_count == 6
    assert make_topology("tree:9").edge_count == 8
    r1, r2 = make_topology("random:10:0.3"), make_topology("random:10:0.3")
    assert r1.edges == r2.edges  # spec-derived seed
    p = tmp_path / "g.edges"
    p.write_text("0 1\n1 2\n")
    assert make_topology(f"file:{p}").node_count == 3


@pytest.mark.parametrize("spec", ["ring", "ring:x", "donut:8", "grid:3",
                                  "file:/nonexistent.edges"])
def test_make_topology_rejects(spec):
    with pytest.raises(ScenarioError):
        make_topology(spec)


@pytest.mark.parametrize("config", [
    {"k": "1"},  # (rho+1)*K = 2 <= C_G bound
    {"alpha": "1"},  # below T_G = 8
    {"proto": "lme", "rho": "1", "k2": "4"},  # below max(5, C_G - 1) = 7
    {"proto": "ss_ws", "infimum": "min_int", "alpha": "1"},
], ids=["k", "alpha", "k2", "infimum"])
def test_undersized_clocks_refused(config, capsys):
    scn = scenario_from({"topo": "ring:8", **config}, {})
    with pytest.raises(ScenarioError):
        run_scenario(scn)
    argv = ["run", "--topo", "ring:8"]
    for key, val in config.items():
        argv += [f"--{key}", val]
    assert main(argv) == 2
    assert "refused scenario" in capsys.readouterr().err


# -- run / check round trip ------------------------------------------------


def run_cli(argv):
    return main(argv)


def test_run_ss_ws_with_trace_then_check(tmp_path, capsys):
    trace_file = str(tmp_path / "t.jsonl")
    rc = run_cli(["run", "--topo", "ring:6", "--proto", "ss_ws",
                  "--rho", "2", "--daemon", "central", "--seed", "3",
                  "--infimum", "min_int", "--trace", trace_file])
    out = capsys.readouterr().out
    assert rc == 0
    assert "violations = 0" in out
    rc = run_cli(["check", trace_file])
    out = capsys.readouterr().out
    assert rc == 0
    assert "replay ok" in out and "infimum_mismatches = 0" in out
    assert "violations = 0" in out


def test_run_lra_and_check(tmp_path, capsys):
    trace_file = str(tmp_path / "t.jsonl")
    rc = run_cli(["run", "--topo", "ring:6", "--proto", "lme", "--rho", "1",
                  "--daemon", "adversarial", "--seed", "5",
                  "--trace", trace_file])
    assert rc == 0
    capsys.readouterr()
    rc = run_cli(["check", trace_file])
    out = capsys.readouterr().out
    assert rc == 0
    assert "safety_violations = 0" in out and "delay_disagreements = 0" in out


def test_run_nonstabilizing_budget_fails(capsys):
    for proto in ("ss_ws", "lme"):
        rc = run_cli(["run", "--topo", "ring:8", "--proto", proto,
                      "--rho", "1", "--daemon", "central", "--steps", "3"])
        out = capsys.readouterr().out
        assert rc == 1, proto
        assert "did not stabilize" in out, proto


def test_slave_wound_around_cycle_does_not_stabilize(tmp_path, capsys):
    # K2 = 11 passes the K2 >= c_g_bound - 1 floor of ring:12, but a slave
    # ring shorter than the cycle can wind once around it: r2 = i % 11 is
    # in WU and never in WU0, so there is no suffix to lift.
    init = tmp_path / "wound.json"
    init.write_text(json.dumps([{"r1": 0, "r2": i % 11} for i in range(12)]))
    rc = run_cli(["run", "--proto", "trivial", "--topo", "ring:12",
                  "--k2", "11", "--daemon", "synchronous",
                  "--init", f"adversarial_file:{init}"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "did not stabilize within the step budget" in out
    assert "violations = 1" in out


@pytest.mark.parametrize("flags, states, register", [
    # entries are not register dicts
    ([], [1, 2, 3, 4, 5, 6], None),
    # clock value outside the clock domain
    ([], [{"r": "x"}] * 6, "r"),
    # election candidates that are not (slave clock, value) pairs
    (["--proto", "lme", "--rho", "1"],
     [{"r1": 0, "r2": 0, "v": 0, "res1": 5, "res2": 5, "u": 0}] * 6, "res1"),
    # an int where lex_pair holds pairs
    (["--infimum", "lex_pair"],
     [{"r": 0, "v0": 5, "v1": [1, 2], "v2": [1, 2], "u": 0}] * 6, "v0"),
], ids=[f"states{i}" for i in range(4)])
def test_malformed_init_file_exits_2(tmp_path, capsys, flags, states,
                                     register):
    init = tmp_path / "init.json"
    init.write_text(json.dumps(states))
    rc = run_cli(["run", "--topo", "ring:6", *flags,
                  "--init", f"adversarial_file:{init}"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "error:" in err
    if register is not None:
        assert f"process 0: register {register} = " in err


@pytest.mark.parametrize("params", [
    {"proto": "ss_ws"}, {"proto": "ss_ws", "infimum": "min_int"},
    {"proto": "ss_ws", "infimum": "max_int"},
    {"proto": "ss_ws", "infimum": "lex_pair"},
    {"proto": "trivial"}, {"proto": "lme"}, {"proto": "gme"}, {"proto": "rw"},
], ids=lambda params: "-".join(params.values()))
def test_default_and_sampled_configurations_load(params):
    # what a trace's config line holds: JSON of a default or sampled
    # configuration
    for topo_spec in ("ring:6", "grid:2x3"):
        scn = scenario_from({"topo": topo_spec, "rho": "2", **params}, {})
        topo = make_topology(scn.topo)
        proto = cli.build_protocol(scn, topo)
        rng = random.Random(0)
        configs = [uniform_configuration(proto, topo)] + [
            random_configuration(proto, topo, rng) for _ in range(20)]
        for cfg in configs:
            states = json.loads(json.dumps(list(cfg)))
            assert cli._load_configuration(states, proto, topo) == cfg


def _count_calls(monkeypatch, original, record):
    """Route every rhosync binding of `original` through a wrapper that
    appends record(*args, **kwargs) to the returned list before the call."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(record(*args, **kwargs))
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "rhosync" or name.startswith("rhosync."):
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, counting)
    return calls


def test_analyze_lifts_each_clock_register_once(monkeypatch):
    # a monitor that lifts on its own shows up as an extra call
    calls = _count_calls(monkeypatch, unison.lift,
                         lambda trace, reg="r": reg)
    for params, expect in (
            ({"topo": "ring:6", "proto": "ss_ws", "rho": "2",
              "infimum": "min_int"}, ["r"]),
            ({"topo": "ring:6", "proto": "lme", "rho": "1"}, ["r1", "r2"])):
        calls.clear()
        scn = scenario_from(params, {})
        report = analyze(scn, run_scenario(scn))
        assert report["stab_index"] is not None and report["violations"] == 0
        assert sorted(calls) == expect, params


def test_analyze_extracts_cs_records_once(monkeypatch):
    # the safety, liveness and metrics monitors share one record list
    calls = _count_calls(monkeypatch, lra.extract_cs_records,
                         lambda trace, **_: len(trace.records))
    scn = scenario_from({"topo": "ring:6", "proto": "lme", "rho": "1"}, {})
    trace = run_scenario(scn)
    report = analyze(scn, trace)
    assert report["violations"] == 0 and report["cs_total"] > 0
    # once, over the suffix from the monitor start
    assert calls == [len(trace.records) - report["monitor_start"]]


def test_lex_pair_analysis_builds_its_operator_once(monkeypatch):
    # the protocol carries the operator its run was built with
    calls = _count_calls(monkeypatch, infimum.make_infimum,
                         lambda kind, **_: kind)
    scn = scenario_from({"topo": "ring:6", "proto": "ss_ws", "rho": "2",
                         "infimum": "lex_pair"}, {})
    report = analyze(scn, run_scenario(scn))
    assert calls == ["lex_pair"]
    assert report == {
        "stop_reason": "budget", "steps": 126, "n": 6, "stab_index": 7,
        "stab_round": 7, "wavelet_levels": 6, "wavelet_failures": [],
        "infimum_phases": 20, "infimum_mismatches": 0, "violations": 0}


def test_analyze_walks_no_past_cones(monkeypatch):
    # coherence and cover are decided edge by edge, not by past-cone walks
    calls = []
    original = causality.EventGraph.ancestors

    def counting(self, e):
        calls.append(e)
        return original(self, e)

    monkeypatch.setattr(causality.EventGraph, "ancestors", counting)
    scn = scenario_from({"topo": "ring:6", "proto": "ss_ws", "rho": "2"}, {})
    report = analyze(scn, run_scenario(scn))
    assert report["wavelet_levels"] > 0 and report["violations"] == 0
    assert calls == []


def test_check_truncated_trace(tmp_path, capsys):
    trace_file = str(tmp_path / "t.jsonl")
    scn = scenario_from({"topo": "ring:6", "proto": "trivial",
                         "daemon": "synchronous", "steps": "40"}, {})
    write_trace(trace_file, scn, run_scenario(scn))
    lines = open(trace_file).read().splitlines()
    open(trace_file, "w").write("\n".join(lines[:-2] + [lines[-1]]) + "\n")
    rc = run_cli(["check", trace_file])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def _first_event(lines):
    step = next(x for x in lines if x.get("type") == "step" and x["events"])
    return step["events"][0]


def _drop_event_process(lines):
    del _first_event(lines)["process"]


@pytest.mark.parametrize("field, value", [
    pytest.param(field, value, id=f"{field}={json.dumps(value)}")
    for field, value in [("group_count", 2.5), ("seed", None), ("seed", [1]),
                         ("rho", 2.0), ("rho", True), ("topo", 5),
                         ("k", 1e9), ("p_select", "0.5")]])
def test_check_mistyped_header_exits_2(tmp_path, capsys, field, value):
    # a header is typed JSON: its values are checked, never parsed
    trace_file = str(tmp_path / "t.jsonl")
    scn = scenario_from({"topo": "ring:6", "proto": "gme", "seed": "3",
                         "steps": "40"}, {})
    write_trace(trace_file, scn, run_scenario(scn))
    lines = [json.loads(x) for x in open(trace_file)]
    lines[0]["scenario"][field] = value
    open(trace_file, "w").write("\n".join(json.dumps(x) for x in lines) + "\n")
    assert main(["check", trace_file]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad scenario in header: ") and field in err


# infimum attaches to the default proto only: two scenarios cover the fields
@pytest.mark.parametrize("params, left_default", [
    ({"proto": "gme"}, "infimum"), ({"infimum": "lex_pair"}, "proto"),
], ids=["gme", "infimum"])
def test_header_roundtrip_keeps_every_field(tmp_path, params, left_default):
    gp = graph_params(make_topology("ring:6"))
    scn = scenario_from({
        "topo": "ring:6", "rho": "2", "alpha": str(gp.t_g + 1),
        "k": str(gp.c_g_bound + 2), "k2": str(gp.c_g_bound + 10),
        "daemon": "distributed_random", "p_select": "0.25", "seed": "5",
        "init": "wu0_uniform", "steps": "30", "group_count": "2",
        **params}, {})
    for f in dataclasses.fields(Scenario):
        assert (getattr(scn, f.name) == f.default) == (f.name == left_default)
    trace_file = str(tmp_path / "t.jsonl")
    run_scenario(scn, trace_file)
    assert read_trace(trace_file)[0] == scn


def _edit_selection(edit):
    """Replace the selection of step 0 by edit(selection)."""
    return lambda lines: lines[2].update(selected=edit(lines[2]["selected"]))


def _shifted_ids(shift):
    """Shift every id of step 0, in `selected` and `fired` alike."""
    def edit(lines):
        step = lines[2]
        step["selected"] = [p + shift for p in step["selected"]]
        step["fired"] = {str(int(p) + shift): lab
                         for p, lab in step["fired"].items()}
    return edit


# Step 0 of the trace below selects all six processes.
MALFORMED_FIELDS = {
    "footer_final_states": lambda lines: lines[-1].pop("final_states"),
    "config_states": lambda lines: lines[1].pop("states"),
    "step_fired": lambda lines: lines[2].pop("fired"),
    "event_process": _drop_event_process,
    "edge_one_endpoint": lambda lines: lines[0]["edges"][0].pop(),
    "header_group_count": lambda lines: lines[0]["scenario"].update(
        group_count=0),
    "header_rho_missing": lambda lines: lines[0]["scenario"].pop("rho"),
    "step_selected_bool": _edit_selection(
        lambda sel: [True if p == 1 else p for p in sel]),
    "step_selected_twice": _edit_selection(lambda sel: sel + sel),
    "step_selected_float": _edit_selection(
        lambda sel: [float(p) for p in sel]),
    "step_selected_descending": _edit_selection(lambda sel: sel[::-1]),
    # ids in range(-6, 0) would alias processes through Python indexing
    "step_selected_negative": _shifted_ids(-6),
    "step_selected_past_n": _shifted_ids(1),
    "step_selected_empty": lambda lines: lines[2].update(selected=[],
                                                         fired={}),
    "step_fired_key_padded": lambda lines: lines[2]["fired"].update(
        {"01": lines[2]["fired"].pop("1")}),
    # every line, and every event, is exactly what the replay writes
    "step_extra_key": lambda lines: lines[2].update(note="extra"),
    "event_extra_key": lambda lines: _first_event(lines).update(note="extra"),
    "header_extra_key": lambda lines: lines[0].update(note="extra"),
    "config_extra_key": lambda lines: lines[1].update(note="extra"),
    "footer_extra_key": lambda lines: lines[-1].update(note="extra"),
    # the same graph, written in another order than `Topology.edges`
    "header_edges_reordered": lambda lines: lines[0]["edges"].reverse(),
    "header_edge_flipped": lambda lines: lines[0]["edges"][0].reverse(),
    # integer fields are ints: Python compares 6.0 and True equal to 6, 1
    "header_n_float": lambda lines: lines[0].update(n=6.0),
    # and float fields are floats: the writer writes 1.0, never 1
    "header_p_select_int": lambda lines: lines[0]["scenario"].update(
        p_select=1),
    "footer_steps_float": lambda lines: lines[-1].update(steps=40.0),
    "step_step_float": lambda lines: lines[2].update(step=0.0),
}


@pytest.mark.parametrize("field", sorted(MALFORMED_FIELDS))
def test_check_malformed_trace_field_exits_2(tmp_path, capsys, field):
    trace_file = str(tmp_path / "t.jsonl")
    scn = scenario_from({"topo": "ring:6", "proto": "trivial",
                         "daemon": "synchronous", "steps": "40"}, {})
    write_trace(trace_file, scn, run_scenario(scn))
    lines = [json.loads(x) for x in open(trace_file)]
    assert lines[2]["selected"] == [0, 1, 2, 3, 4, 5]
    event_step = next(x["step"] for x in lines[2:-1] if x["events"])
    MALFORMED_FIELDS[field](lines)
    open(trace_file, "w").write("\n".join(json.dumps(x) for x in lines) + "\n")
    rc = run_cli(["check", trace_file])
    assert rc == 2
    err = capsys.readouterr().err
    assert "error:" in err
    if field.startswith("step_"):
        assert "malformed step 0" in err
    if field.startswith("event_"):
        assert f"malformed step {event_step}" in err


def test_check_refuses_a_bool_step_count(tmp_path, capsys):
    # true == 1: a one-step trace whose footer says "steps": true
    trace_file = str(tmp_path / "t.jsonl")
    scn = scenario_from({"topo": "ring:6", "proto": "trivial",
                         "daemon": "synchronous", "steps": "1"}, {})
    write_trace(trace_file, scn, run_scenario(scn))
    lines = [json.loads(x) for x in open(trace_file)]
    assert lines[-1]["steps"] == 1
    lines[-1]["steps"] = True
    open(trace_file, "w").write("\n".join(json.dumps(x) for x in lines) + "\n")
    assert run_cli(["check", trace_file]) == 2
    assert capsys.readouterr().err == (
        "error: malformed footer: it differs from the replay in ['steps']\n")


def test_check_names_the_keys_a_step_line_gets_wrong(tmp_path, capsys):
    trace_file = str(tmp_path / "t.jsonl")
    scn = scenario_from({"topo": "ring:6", "proto": "trivial",
                         "daemon": "synchronous", "steps": "40"}, {})
    write_trace(trace_file, scn, run_scenario(scn))
    lines = [json.loads(x) for x in open(trace_file)]
    del lines[3]["type"]
    lines[3]["fired"]["0"] = "NOPE"
    lines[3]["note"] = None
    open(trace_file, "w").write("\n".join(json.dumps(x) for x in lines) + "\n")
    assert run_cli(["check", trace_file]) == 2
    assert capsys.readouterr().err == (
        "error: malformed step 1: the replay at step 1 differs in "
        "['fired', 'note', 'type']\n")


def test_lex_pair_infinite_payloads_round_trip(tmp_path, capsys):
    # a uniform start holds the operator's identity (inf, inf), which the
    # decide payloads carry and the trace writes as JSON Infinity
    trace_file = str(tmp_path / "t.jsonl")
    flags = ["--topo", "ring:6", "--proto", "ss_ws", "--infimum", "lex_pair",
             "--init", "wu0_uniform"]
    assert run_cli(["run", *flags, "--trace", trace_file]) == 0
    steps = open(trace_file).read().splitlines()[2:-1]
    assert any('"kind": "decide", "payload": {"v1": [Infinity, Infinity]'
               in line for line in steps)
    assert run_cli(["check", trace_file]) == 0
    assert capsys.readouterr().err == ""


def _as_float(obj, key):
    assert type(obj[key]) is int
    obj[key] = float(obj[key])


# Python compares 5.0 == 5 and True == 1; a trace compares JSON, where the
# writer never turns an int into a float.  Edits of an lme ring:6 trace.
MISTYPED_NUMBERS = {
    "event_process": lambda lines: _as_float(_first_event(lines), "process"),
    "event_payload": lambda lines: _as_float(_first_event(lines)["payload"],
                                             "v"),
    "final_state": lambda lines: _as_float(lines[-1]["final_states"][0],
                                           "r1"),
}


def _lme_trace(trace_file):
    scn = scenario_from({"topo": "ring:6", "proto": "lme",
                         "daemon": "central", "steps": "200"}, {})
    write_trace(trace_file, scn, run_scenario(scn))
    return [json.loads(x) for x in open(trace_file)]


@pytest.mark.parametrize("edit", sorted(MISTYPED_NUMBERS))
def test_check_refuses_a_mistyped_number(tmp_path, capsys, edit):
    trace_file = str(tmp_path / "t.jsonl")
    lines = _lme_trace(trace_file)
    event_step = next(x["step"] for x in lines[2:-1] if x["events"])
    MISTYPED_NUMBERS[edit](lines)
    open(trace_file, "w").write("\n".join(json.dumps(x) for x in lines) + "\n")
    assert run_cli(["check", trace_file]) == 2
    assert capsys.readouterr().err == (
        "error: malformed footer: it differs from the replay in "
        "['final_states']\n"
        if edit == "final_state" else
        f"error: malformed step {event_step}: the replay at step "
        f"{event_step} differs in ['events']\n")


def test_check_reads_values_not_formatting(tmp_path, capsys):
    # compact separators and reversed key order change the text of every
    # line, not one JSON value
    trace_file = str(tmp_path / "t.jsonl")
    lines = _lme_trace(trace_file)
    assert run_cli(["check", trace_file]) == 0
    expected = capsys.readouterr()

    def flip(value):
        if isinstance(value, dict):
            return {k: flip(v) for k, v in reversed(value.items())}
        return [flip(v) for v in value] if isinstance(value, list) else value

    open(trace_file, "w").write("".join(
        json.dumps(flip(x), separators=(",", ":")) + "\n" for x in lines))
    assert run_cli(["check", trace_file]) == 0
    assert capsys.readouterr() == expected


@pytest.mark.parametrize("buffered", [True, False],
                         ids=["buffered", "unbuffered"])
def test_check_into_a_closed_pipe_exits_141_without_a_traceback(tmp_path,
                                                                 buffered):
    # `rhosync check t.jsonl | head -1`, with the reader gone before the
    # first line: every write to stdout fails, at the print when stdout is
    # unbuffered, else when it is flushed
    trace_file = str(tmp_path / "t.jsonl")
    _lme_trace(trace_file)
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from rhosync.cli import main; "
             "sys.exit(main(sys.argv[1:]))", "check", trace_file],
            stdout=write_end, stderr=subprocess.PIPE, env=env, text=True)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, "")


def test_equal_fired_maps_are_one_dict(tmp_path):
    # the synchronous daemon fires every process at each stabilized step,
    # in the run and in its replay alike
    trace_file = str(tmp_path / "t.jsonl")
    scn = scenario_from({"topo": "ring:8", "proto": "ss_ws",
                         "daemon": "synchronous", "steps": "60"}, {})
    trace = run_scenario(scn)
    write_trace(trace_file, scn, trace)
    for t in (trace, read_trace(trace_file)[1]):
        pairs = list(zip(t.records, t.records[1:]))
        shared = [b.fired is a.fired for a, b in pairs]
        assert shared == [b.fired == a.fired for a, b in pairs]
        assert any(shared) and not all(shared)


def test_a_trace_holds_one_dict_per_distinct_fired_map(tmp_path):
    # the central daemon fires one process per step: the same few maps
    # recur, seldom on consecutive steps
    trace_file = str(tmp_path / "t.jsonl")
    scn = scenario_from({"topo": "ring:8", "proto": "lme",
                         "daemon": "central", "steps": "400"}, {})
    trace = run_scenario(scn)
    write_trace(trace_file, scn, trace)
    for t in (trace, read_trace(trace_file)[1]):
        dicts = {id(rec.fired): rec.fired for rec in t.records}
        distinct = {tuple(m.items()) for m in dicts.values()}
        assert len(dicts) == len(distinct) < len(t.records) // 2


def test_an_lra_run_with_no_clean_phase_fails(tmp_path):
    # 30 central steps end before the master clock reaches the first
    # phase whose elections see only post-stabilization inputs
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from rhosync.cli import main; "
         "sys.exit(main(sys.argv[1:]))",
         "run", "--proto", "lme", "--topo", "ring:6", "--init",
         "wu0_uniform", "--daemon", "central", "--steps", "30"],
        env=env, capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (1, "")
    lines = proc.stdout.splitlines()
    assert "  monitor_start = None" in lines
    assert ("  note: no complete post-stabilization phase: the LRA monitors "
            "saw no privilege") in lines
    assert lines[-1] == "  violations = 1"
    assert not any(line.startswith("  cs_") for line in lines)


@pytest.mark.parametrize("flags, missing", [
    (["--steps", "0", "--infimum", "min_int"],
     "no wavelet window and no infimum phase"),
    (["--steps", "4", "--infimum", "min_int"], "no infimum phase"),
    (["--steps", "2"], "no wavelet window"),
], ids=["nothing", "no_phase", "no_window"])
def test_an_ss_ws_verdict_that_checked_nothing_fails(capsys, flags, missing):
    # a stable start and a few steps: the suffix ends before the first
    # complete wavelet window or judged infimum phase
    rc = main(["run", "--topo", "ring:6", "--init", "wu0_uniform", *flags])
    lines = capsys.readouterr().out.splitlines()
    assert rc == 1
    assert f"  note: the stabilized suffix holds {missing} to check" in lines
    assert lines[-1] == "  violations = 1"


@pytest.mark.parametrize("flags", [
    {"topo": "ring:8", "proto": "ss_ws", "daemon": "synchronous",
     "rho": "2", "infimum": "lex_pair"},
    {"topo": "ring:6", "proto": "lme", "daemon": "synchronous",
     "steps": "300"},
], ids=["ss_ws", "lme"])
def test_analyze_leaves_the_shared_fired_maps_alone(flags):
    scn = scenario_from(flags, {})
    trace = run_scenario(scn)
    fired = [list(rec.fired.items()) for rec in trace.records]
    report = analyze(scn, trace)
    assert report["violations"] == 0
    assert analyze(scn, trace) == report
    assert [list(rec.fired.items()) for rec in trace.records] == fired


def _header(**changes):
    return lambda lines: lines[0].update(changes)


def _header_scenario(**changes):
    return lambda lines: lines[0]["scenario"].update(changes)


# Lies about how the trace below came about: it is a synchronous run that
# stopped on its 40-step budget, and its step 0 selects all six processes.
HEADER_LIES = {
    "daemon_central": (_header_scenario(daemon="central"),
                       "step 0 selects 6 processes"),
    "daemon_adversarial": (_header_scenario(daemon="adversarial"),
                           "step 0 selects 6 processes"),
    "daemon_rho_central": (_header_scenario(daemon="rho_central"),
                           "step 0 selects processes 0 and 1 at distance 1"),
    "stop_reason_quiescence": (_header(stop_reason="quiescence"),
                               "stop_reason 'quiescence'"),
    "stop_reason_list": (_header(stop_reason=[1]), "stop_reason [1]"),
    "stop_reason_missing": (lambda lines: lines[0].pop("stop_reason"),
                            "malformed header: it differs from the replay "
                            "in ['stop_reason']"),
    "steps_above_budget": (_header_scenario(steps="30"),
                           "40 steps, above the step budget 30"),
    "steps_below_budget": (_header_scenario(steps="50"),
                           "below the step budget 50, with processes still "
                           "enabled"),
    # the scenario determines the graph and the start it names
    "topo_other_graph": (_header_scenario(topo="path:6"),
                         "malformed header: it differs from the replay in "
                         "['edges']"),
    "init_other_start": (_header_scenario(init="wu0_uniform"),
                         "malformed config line: it differs from the replay "
                         "in ['states']"),
}


@pytest.mark.parametrize("lie", sorted(HEADER_LIES))
def test_check_refuses_a_header_the_steps_contradict(tmp_path, capsys, lie):
    trace_file = str(tmp_path / "t.jsonl")
    scn = scenario_from({"topo": "ring:6", "proto": "trivial",
                         "daemon": "synchronous", "steps": "40"}, {})
    write_trace(trace_file, scn, run_scenario(scn))
    lines = [json.loads(x) for x in open(trace_file)]
    assert lines[0]["stop_reason"] == "budget"
    assert lines[2]["selected"] == [0, 1, 2, 3, 4, 5]
    edit, message = HEADER_LIES[lie]
    edit(lines)
    open(trace_file, "w").write("\n".join(json.dumps(x) for x in lines) + "\n")
    assert run_cli(["check", trace_file]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_check_refuses_step_lines_after_a_quiescence_stop():
    # the clock protocols keep some process enabled, so the line checker
    # takes a hand-made run that stopped on quiescence at step 0, and one
    # step line left after it
    scn = Scenario(topo="ring:6", proto="trivial")
    topo = make_topology(scn.topo)
    proto = cli.build_protocol(scn, topo)
    trace = cli.LiveTrace(proto, topo, uniform_configuration(proto, topo))
    trace.stop_reason = "quiescence"
    lines = cli._StepLines(iter(['{"type": "step"}\n']), scn, trace)
    with pytest.raises(CorruptTraceError, match=r"^trace has 1 steps; no "
                       r"process is enabled after 0$"):
        lines.close(trace)


def test_check_refuses_a_relabelled_synchronous_trace(tmp_path, capsys):
    # step 0 of this distributed_random run skips enabled processes
    trace_file = str(tmp_path / "t.jsonl")
    scn = scenario_from({"topo": "ring:6", "proto": "trivial",
                         "daemon": "distributed_random", "seed": "2",
                         "steps": "50"}, {})
    write_trace(trace_file, scn, run_scenario(scn))
    assert run_cli(["check", trace_file]) == 0
    lines = [json.loads(x) for x in open(trace_file)]
    lines[0]["scenario"]["daemon"] = "synchronous"
    open(trace_file, "w").write("\n".join(json.dumps(x) for x in lines) + "\n")
    capsys.readouterr()
    assert run_cli(["check", trace_file]) == 2
    assert capsys.readouterr().err == (
        "error: step 0 selects [4, 5]; the synchronous daemon selects every "
        "enabled process, [2, 3, 4, 5]\n")


@pytest.mark.parametrize("daemon", DAEMONS)
@pytest.mark.parametrize("proto", ["ss_ws", "trivial", "lme", "gme", "rw"])
def test_every_daemon_round_trip_checks_clean(tmp_path, capsys, proto,
                                              daemon):
    # each daemon's own selections pass its rule on replay
    trace_file = str(tmp_path / "t.jsonl")
    for topo in ("ring:5", "tree:6", "random:6"):
        flags = ["--topo", topo, "--proto", proto, "--rho", "2",
                 "--daemon", daemon]
        assert run_cli(["run", *flags, "--trace", trace_file]) == 0, topo
        assert run_cli(["check", trace_file]) == 0, topo
    assert capsys.readouterr().err == ""


def test_check_reports_the_first_fault_in_file_order(tmp_path, capsys):
    # steps are decoded as the replay reaches them: a divergence at step 3
    # is reported before a malformed step 8
    trace_file = str(tmp_path / "t.jsonl")
    scn = scenario_from({"topo": "ring:6", "proto": "trivial",
                         "daemon": "central", "steps": "60", "seed": "2"}, {})
    write_trace(trace_file, scn, run_scenario(scn))
    lines = [json.loads(x) for x in open(trace_file)]
    diverged = lines[2 + 3]["fired"]
    diverged[next(iter(diverged))] = "NOPE"
    del lines[2 + 8]["selected"]
    open(trace_file, "w").write("\n".join(json.dumps(x) for x in lines) + "\n")
    assert run_cli(["check", trace_file]) == 2
    err = capsys.readouterr().err
    assert "at step 3" in err and "step 8" not in err


def test_check_reads_the_footer_before_any_step(tmp_path, capsys):
    # a trace cut before its footer is refused as such, before the replay
    # meets the fault at step 3
    trace_file = str(tmp_path / "t.jsonl")
    scn = scenario_from({"topo": "ring:6", "proto": "trivial",
                         "daemon": "central", "steps": "60", "seed": "2"}, {})
    write_trace(trace_file, scn, run_scenario(scn))
    lines = [json.loads(x) for x in open(trace_file)]
    diverged = lines[2 + 3]["fired"]
    diverged[next(iter(diverged))] = "NOPE"
    open(trace_file, "w").write(
        "\n".join(json.dumps(x) for x in lines[:-1]) + "\n")
    assert run_cli(["check", trace_file]) == 2
    assert capsys.readouterr().err == (
        "error: trace is truncated or missing header/footer\n")


def test_check_skips_blank_lines(tmp_path, capsys):
    trace_file = str(tmp_path / "t.jsonl")
    scn = scenario_from({"topo": "ring:6", "proto": "lme",
                         "daemon": "central", "steps": "300"}, {})
    write_trace(trace_file, scn, run_scenario(scn))
    lines = open(trace_file).read().splitlines()
    open(trace_file, "w").write("\n \n".join(lines) + "\n\t\n\n")
    assert run_cli(["check", trace_file]) == 0
    assert "replay ok: 300 steps" in capsys.readouterr().out


def test_check_refuses_a_line_that_is_not_utf8(tmp_path, capsys):
    trace_file = tmp_path / "t.jsonl"
    scn = scenario_from({"topo": "ring:6", "proto": "trivial",
                         "steps": "40"}, {})
    write_trace(str(trace_file), scn, run_scenario(scn))
    lines = trace_file.read_bytes().split(b"\n")
    lines[5] = lines[5].replace(b'"step"', b'"st\xffep"')
    trace_file.write_bytes(b"\n".join(lines))
    assert run_cli(["check", str(trace_file)]) == 2
    assert capsys.readouterr().err.startswith(
        "error: malformed trace line: 'utf-8' codec can't decode")


def _replace_in_line(i, old, new):
    return lambda lines: [*lines[:i], lines[i].replace(old, new),
                          *lines[i + 1:]]


# Byte-level edits of the lines of a clean 40-step trace (the last is b""),
# and the exit code of `check` on the result.
TRACE_FILES = {
    "clean": (lambda lines: lines, 0),
    "malformed_step": (lambda lines: [*lines[:4], b"{", *lines[5:]], 2),
    "missing_footer": (lambda lines: [*lines[:-2], b""], 2),
    "bad_header": (_replace_in_line(0, b'"rho": 1', b'"rho": 1.0'), 2),
    "not_utf8": (_replace_in_line(5, b'"step"', b'"st\xffep"'), 2),
    "one_line": (lambda lines: lines[:1], 2),
    "empty": (lambda lines: [], 2),
}


@pytest.mark.parametrize("name", sorted(TRACE_FILES))
def test_check_leaves_no_file_open(tmp_path, capsys, name):
    trace_file = tmp_path / "t.jsonl"
    scn = scenario_from({"topo": "ring:6", "proto": "trivial",
                         "steps": "40"}, {})
    write_trace(str(trace_file), scn, run_scenario(scn))
    edit, code = TRACE_FILES[name]
    lines = trace_file.read_bytes().split(b"\n")
    trace_file.write_bytes(b"\n".join(edit(lines)))
    # a file left open warns when it is collected: under the "error" filter
    # the warning is an exception that the unraisable hook receives
    unraisable = []
    with warnings.catch_warnings(), pytest.MonkeyPatch.context() as mp:
        warnings.simplefilter("error", ResourceWarning)
        mp.setattr(sys, "unraisablehook", unraisable.append)
        assert run_cli(["check", str(trace_file)]) == code
        gc.collect()
    assert [u.exc_value for u in unraisable] == []
    assert (capsys.readouterr().err == "") == (code == 0)


def _drop_from_a_selection(lines):
    """Drop the last process of the first selection of several, with its
    action and events, and return that step: the rest stays pairwise
    beyond rho, and the greedy draw would have added it back."""
    step = next(x for x in lines[2:-1] if len(x["selected"]) > 1)
    p = step["selected"].pop()
    del step["fired"][str(p)]
    step["events"] = [ev for ev in step["events"] if ev["process"] != p]
    return step["step"]


# Lies about the seeded draw: each selection is one the header's daemon can
# make, but not the one its seed draws.  Each edit returns the step it
# names, if it knows it.
DRAW_LIES = {
    "synchronous_as_distributed_random": (
        {"daemon": "synchronous", "steps": "40"},
        lambda lines: lines[0]["scenario"].update(
            daemon="distributed_random")),
    "central_seed_2_as_3": (
        {"daemon": "central", "init": "wu0_uniform", "steps": "60",
         "seed": "2"}, lambda lines: lines[0]["scenario"].update(seed=3)),
    "rho_central_not_maximal": (
        {"daemon": "rho_central", "steps": "60"}, _drop_from_a_selection),
}


@pytest.mark.parametrize("lie", sorted(DRAW_LIES))
def test_check_refuses_a_selection_that_is_not_the_seeded_draw(tmp_path,
                                                               capsys, lie):
    trace_file = str(tmp_path / "t.jsonl")
    params, edit = DRAW_LIES[lie]
    scn = scenario_from({"topo": "ring:6", "proto": "trivial", **params}, {})
    write_trace(trace_file, scn, run_scenario(scn))
    lines = [json.loads(x) for x in open(trace_file)]
    step = edit(lines)
    open(trace_file, "w").write("\n".join(json.dumps(x) for x in lines) + "\n")
    assert run_cli(["check", trace_file]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: step {'' if step is None else step}")
    assert "not the seeded draw" in err


def test_read_trace_holds_one_copy_of_the_trace(tmp_path):
    # the step lines are decoded one at a time, so reading peaks barely
    # above the trace it returns
    trace_file = str(tmp_path / "t.jsonl")
    scn = scenario_from({"topo": "ring:16", "proto": "lme",
                         "daemon": "central", "rho": "1", "seed": "5"}, {})
    write_trace(trace_file, scn, run_scenario(scn))
    tracemalloc.start()
    try:
        _scn, trace = read_trace(trace_file)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(trace.records) > 5000
    assert peak <= 1.3 * held


def test_check_tampered_state_detected(tmp_path):
    trace_file = str(tmp_path / "t.jsonl")
    scn = scenario_from({"topo": "ring:6", "proto": "trivial",
                         "daemon": "central", "steps": "60", "seed": "2"}, {})
    write_trace(trace_file, scn, run_scenario(scn))
    lines = [json.loads(x) for x in open(trace_file)]
    lines[-1]["final_states"][0]["r1"] += 1
    open(trace_file, "w").write("\n".join(json.dumps(x) for x in lines) + "\n")
    with pytest.raises(CorruptTraceError):
        read_trace(trace_file)


def test_check_tampered_events_detected(tmp_path):
    trace_file = str(tmp_path / "t.jsonl")
    scn = scenario_from({"topo": "ring:6", "proto": "trivial",
                         "daemon": "synchronous", "steps": "40"}, {})
    write_trace(trace_file, scn, run_scenario(scn))
    lines = [json.loads(x) for x in open(trace_file)]
    for line in lines:
        if line.get("type") == "step" and line["events"]:
            line["events"][0]["process"] = \
                (line["events"][0]["process"] + 1) % 6
            break
    open(trace_file, "w").write("\n".join(json.dumps(x) for x in lines) + "\n")
    with pytest.raises(CorruptTraceError):
        read_trace(trace_file)


def test_trace_roundtrip_preserves_run(tmp_path):
    trace_file = str(tmp_path / "t.jsonl")
    scn = scenario_from({"topo": "grid:2x3", "proto": "rw", "rho": "1",
                         "daemon": "central", "steps": "400",
                         "seed": "4"}, {})
    trace = stored_run(scn)
    write_trace(trace_file, scn, trace)
    with replayed_steps() as stepped:
        scn2, replayed = read_trace(trace_file)
    assert scn2 == scn
    assert [replayed.configs[0], *(cfg for cfg, _rec in stepped)] == \
        trace.configs


_POOL_PROBE = """
import sys
from rhosync.cli import main
trace = sys.argv[1]
codes = (main(["run", "--topo", "ring:6", "--proto", "lme", "--trace", trace]),
         main(["check", trace]))
loaded = sorted({"multiprocessing", "concurrent.futures"} & sys.modules.keys())
print("probe", codes, loaded)
"""


def test_run_and_check_never_load_the_process_pool(tmp_path):
    # A fresh interpreter: this test process may have loaded the pool.
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", _POOL_PROBE, str(tmp_path / "t.jsonl")],
        env=env, capture_output=True, text=True, check=True)
    assert proc.stdout.splitlines()[-1] == "probe (0, 0) []"


# -- sweep -----------------------------------------------------------------


def test_expand_grid_product_and_order():
    cells = expand_grid({"topo": "ring", "n": "6,8", "rho": "1,2",
                         "seed": "0", "proto": "lme", "steps": "50"})
    assert len(cells) == 4
    assert [c.key() for c in cells] == sorted(c.key() for c in cells)
    assert all(c.steps == "50" for c in cells)


def test_expand_grid_missing_axes_take_defaults():
    (cell,) = expand_grid({"topo": "ring:6", "steps": "50"})
    assert cell == Scenario(topo="ring:6", proto="lme", steps="50")


def test_expand_grid_rejects_conflicting_axes():
    with pytest.raises(ScenarioError):
        expand_grid({"topo": "ring:8", "n": "6,8"})
    with pytest.raises(ScenarioError):
        expand_grid({"topo": "ring"})  # generator without n


def test_sweep_writes_csv_and_exit_code(tmp_path):
    grid = tmp_path / "grid.cfg"
    grid.write_text("topo=ring\nn=6\nproto=trivial,lme\nrho=1\n"
                    "daemon=synchronous,central\nseed=1\n")
    out = tmp_path / "rows.csv"
    rc = main(["sweep", "--grid", str(grid), "--out", str(out)])
    assert rc == 0
    rows = list(csv.reader(open(out)))
    assert rows[0] == CSV_HEADER
    assert len(rows) == 1 + 4
    for row in rows[1:]:
        assert row[CSV_HEADER.index("violations")] == "0"


def test_sweep_parallel_matches_serial(tmp_path):
    grid = tmp_path / "grid.cfg"
    grid.write_text("topo=ring\nn=6\nproto=trivial\nrho=1\n"
                    "daemon=synchronous,central\nseed=1,2\n")
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["sweep", "--grid", str(grid), "--out", str(out1)]) == 0
    assert main(["sweep", "--grid", str(grid), "--out", str(out2),
                 "--jobs", "2"]) == 0
    assert open(out1).read() == open(out2).read()


def test_sweep_asks_for_no_more_workers_than_cells(monkeypatch, capsys):
    # A stand-in for the pool that forks nothing: it records the worker
    # count asked for and maps in this process.
    asked = []

    class Pool:
        def __init__(self, max_workers=None):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    assert main(["sweep", "--topo", "ring:6,ring:8", "--proto", "lme",
                 "--steps", "200", "--jobs", "64"]) == 0
    assert asked == [2]
    assert len(capsys.readouterr().out.splitlines()) == 3  # header, 2 rows
    # one cell runs in this process: no pool of one
    assert main(["sweep", "--topo", "ring:6", "--proto", "lme",
                 "--jobs", "64"]) == 0
    assert asked == [2]
    assert len(capsys.readouterr().out.splitlines()) == 2  # header, 1 row


def test_sweep_cell_error_reported_as_row(tmp_path):
    grid = tmp_path / "grid.cfg"
    # k=1 fails the sizing check inside the cell
    grid.write_text("topo=ring\nn=6\nproto=trivial\nrho=1\n"
                    "daemon=synchronous\nseed=0\nk=1\n")
    out = tmp_path / "rows.csv"
    rc = main(["sweep", "--grid", str(grid), "--out", str(out)])
    assert rc == 1
    rows = list(csv.reader(open(out)))
    assert rows[1][CSV_HEADER.index("violations")].startswith("error:")


def test_sweep_cell_reads_its_row_off_the_header(monkeypatch):
    # scenario fields, the proto as `plugin`, then the report; absent and
    # None values are blank
    monkeypatch.setattr(cli, "run_scenario", lambda scn: None)
    monkeypatch.setattr(cli, "analyze", lambda scn, trace: {
        "n": 6, "violations": 0, "stab_round": None, "fairness_index": 1.5})
    row = cli._sweep_cell(Scenario(topo="ring:6", proto="lme", seed=4))
    assert row == ["ring:6", 6, 1, "synchronous", 4, "lme", "", 0, 1.5, "",
                   ""]


def test_sweep_has_no_config_flag(tmp_path, capsys):
    # its scenario file is --grid; --config would be ignored
    cfg = tmp_path / "scn.cfg"
    cfg.write_text("proto=trivial\nrho=2\n")
    for path in (str(cfg), "/nonexistent"):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--config", path, "--topo", "ring:4"])
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err


def test_sweep_empty_grid_header_only(capsys):
    rc = main(["sweep"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.strip().splitlines()[0] == ",".join(CSV_HEADER)


# -- exit code plumbing ----------------------------------------------------


def test_main_scenario_error_exits_2(capsys):
    rc = main(["run", "--topo", "moebius:8"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_main_bad_group_count_exits_2(capsys):
    rc = main(["run", "--topo", "ring:6", "--proto", "gme",
               "--group-count", "0"])
    assert rc == 2
    assert "group_count" in capsys.readouterr().err


def test_main_ignored_init_suffix_exits_2(capsys):
    rc = main(["run", "--topo", "ring:6", "--init", "wu0_uniform:garbage"])
    assert rc == 2
    assert "takes no argument" in capsys.readouterr().err


def _record_calls(monkeypatch, name):
    calls = []
    original = getattr(cli, name)

    def recording(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(cli, name, recording)
    return calls


def test_run_unwritable_trace_exits_2(tmp_path, capsys, monkeypatch):
    runs = _record_calls(monkeypatch, "run_scenario")
    path = tmp_path / "missing" / "t.jsonl"
    rc = main(["run", "--topo", "ring:6", "--proto", "trivial",
               "--trace", str(path)])
    assert rc == 2
    assert "cannot write" in capsys.readouterr().err
    assert runs == []


def test_sweep_unwritable_out_exits_2(tmp_path, capsys, monkeypatch):
    cells = _record_calls(monkeypatch, "_sweep_cell")
    path = tmp_path / "missing" / "s.csv"
    rc = main(["sweep", "--topo", "ring:6", "--proto", "trivial",
               "--steps", "20", "--out", str(path)])
    assert rc == 2
    assert "cannot write" in capsys.readouterr().err
    assert cells == []


def test_refused_run_keeps_existing_trace(tmp_path, capsys):
    path = tmp_path / "t.jsonl"
    path.write_bytes(b"earlier trace\n")
    assert main(["run", "--topo", "ring:8", "--k", "1",
                 "--trace", str(path)]) == 2
    assert "refused scenario" in capsys.readouterr().err
    assert path.read_bytes() == b"earlier trace\n"
    assert os.listdir(tmp_path) == ["t.jsonl"]


def test_outputs_are_replaced_whole(tmp_path, capsys):
    trace = tmp_path / "t.jsonl"
    out = tmp_path / "s.csv"
    trace.write_text("x" * 100_000)
    out.write_text("y" * 100_000)
    assert main(["run", "--topo", "ring:6", "--proto", "trivial",
                 "--trace", str(trace)]) == 0
    assert main(["sweep", "--topo", "ring:6", "--proto", "trivial",
                 "--steps", "20", "--out", str(out)]) == 0
    assert read_trace(str(trace))[1].records
    assert out.read_text().startswith(",".join(CSV_HEADER))
    assert sorted(os.listdir(tmp_path)) == ["s.csv", "t.jsonl"]
    plain = tmp_path / "plain"
    plain.write_text("")
    assert trace.stat().st_mode == out.stat().st_mode == plain.stat().st_mode


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_sweep_nonpositive_jobs_exits_2(capsys, jobs):
    rc = main(["sweep", "--jobs", jobs])
    assert rc == 2
    assert "--jobs" in capsys.readouterr().err


def test_main_missing_trace_exits_2(tmp_path, capsys):
    rc = main(["check", str(tmp_path / "no.jsonl")])
    assert rc == 2
