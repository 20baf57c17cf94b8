"""CLI: scenario parsing and precedence, topology specs, run / check /
sweep subcommands, trace round-trips, and exit codes."""

import csv
import dataclasses
import json
import os
import pathlib
import random
import subprocess
import sys

import pytest

from rhosync import (causality, cli, graph_params, lra, random_configuration,
                     unison, uniform_configuration)
from rhosync.cli import (CSV_HEADER, CorruptTraceError, Scenario,
                         ScenarioError, analyze, expand_grid, main,
                         make_topology, parse_config_file, read_trace,
                         run_scenario, scenario_from, write_trace)


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


def _drop_event_process(lines):
    step = next(x for x in lines if x.get("type") == "step" and x["events"])
    del step["events"][0]["process"]


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
    write_trace(trace_file, scn, run_scenario(scn))
    assert cli.parse_trace(trace_file)[0] == scn


MALFORMED_FIELDS = {
    "footer_final_states": lambda lines: lines[-1].pop("final_states"),
    "config_states": lambda lines: lines[1].pop("states"),
    "step_fired": lambda lines: lines[2].pop("fired"),
    "event_process": _drop_event_process,
    "edge_one_endpoint": lambda lines: lines[0]["edges"][0].pop(),
    "header_group_count": lambda lines: lines[0]["scenario"].update(
        group_count=0),
    "header_rho_missing": lambda lines: lines[0]["scenario"].pop("rho"),
}


@pytest.mark.parametrize("field", sorted(MALFORMED_FIELDS))
def test_check_malformed_trace_field_exits_2(tmp_path, capsys, field):
    trace_file = str(tmp_path / "t.jsonl")
    scn = scenario_from({"topo": "ring:6", "proto": "trivial",
                         "daemon": "synchronous", "steps": "40"}, {})
    write_trace(trace_file, scn, run_scenario(scn))
    lines = [json.loads(x) for x in open(trace_file)]
    MALFORMED_FIELDS[field](lines)
    open(trace_file, "w").write("\n".join(json.dumps(x) for x in lines) + "\n")
    rc = run_cli(["check", trace_file])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


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
    trace = run_scenario(scn)
    write_trace(trace_file, scn, trace)
    scn2, replayed = read_trace(trace_file)
    assert scn2 == scn
    assert replayed.configs == trace.configs


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
