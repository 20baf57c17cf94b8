"""Command-line front end: scenario configuration, run orchestration,
trace replay and re-validation, and parameter sweeps.

Scenarios come from a flat key=value config file plus CLI-flag overrides
(flags win).  Traces are JSON lines: header, initial configuration, one
line per transition, footer.  Exit codes: 0 pass, 1 violation found,
2 configuration error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import itertools
import json
import math
import os
import random
import sys
import tempfile
import zlib
from dataclasses import asdict, dataclass, fields

from .causality import build_event_graph, check_wavelet, cut_for_level
from .infimum import attach_infimum, make_infimum, verify_ball_infimum
from .kernel import (DaemonPolicy, HookEvent, Trace, first_enabled_map,
                     random_configuration, round_count, run, step,
                     uniform_configuration)
from .layerclock import build_ss_dc, stabilization_indices, trivial_plugin, \
    verify_delay_agreement
from .lra import (extract_cs_records, lra_monitor_start, make_lra_plugin,
                  metrics, monitor_liveness, monitor_safety)
from .topology import (Topology, TopologyError, generate, graph_params,
                       load_topology, parse_edge_list)
from .unison import LiftedTrace, SizingError, build_ss_ws, is_wu0, lift

CSV_HEADER = ["topo", "n", "rho", "daemon", "seed", "plugin", "stab_round",
              "violations", "fairness_index", "service_time",
              "comms_per_phase"]


class ScenarioError(Exception):
    """Invalid scenario configuration (exit code 2)."""


class CorruptTraceError(Exception):
    """A trace file failed to parse or to replay faithfully."""


@dataclass
class Scenario:
    """One simulation cell.  Each field is a CLI flag and a config key,
    and its default's type is the type its values must have.  String
    fields keep 'auto' as a sentinel."""

    topo: str = "ring:8"
    proto: str = "ss_ws"  # ss_ws | trivial | lme | gme | rw
    rho: int = 1
    alpha: str = "auto"
    k: str = "auto"
    k2: str = "auto"
    daemon: str = "synchronous"
    p_select: float = 0.5
    seed: int = 0
    init: str = "random_arbitrary"
    steps: str = "auto"
    infimum: str = ""  # ss_ws only: min_int | max_int | lex_pair
    group_count: int = 3

    def key(self) -> tuple:
        return (self.topo, self.proto, self.rho, self.daemon, self.seed)


_DAEMONS = {"synchronous", "central", "rho_central", "distributed_random",
            "adversarial"}
_PROTOS = {"ss_ws", "trivial", "lme", "gme", "rw"}
_INIT_MODES = {"wu0_uniform", "random_arbitrary", "adversarial_file"}
# The values a field may hold, by the type of its default, and how to say so.
_FIELD_TYPES = {int: (int, "an integer"), float: ((int, float), "a number"),
                str: (str, "a string")}


def parse_config_file(path: str) -> dict[str, str]:
    out: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ScenarioError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ScenarioError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out


def scenario_from(config: dict[str, object],
                  overrides: dict[str, object]) -> Scenario:
    """Merge defaults, config-file entries, then explicit flag overrides
    (None means unset).  A string given for a numeric field is parsed as
    the type of that field's default."""
    values = {**config,
              **{k: v for k, v in overrides.items() if v is not None}}
    kinds = {f.name: type(f.default) for f in fields(Scenario)}
    for key, val in values.items():
        if key not in kinds:
            raise ScenarioError(f"unknown config key {key!r}")
        if kinds[key] is not str and isinstance(val, str):
            try:
                values[key] = kinds[key](val)
            except ValueError as exc:
                raise ScenarioError(
                    f"{key} must be {_FIELD_TYPES[kinds[key]][1]}") from exc
    scn = Scenario(**values)
    validate_scenario(scn)
    return scn


def validate_scenario(scn: Scenario) -> None:
    """Check each field's type against its default's, then its value."""
    for f in fields(Scenario):
        val = getattr(scn, f.name)
        accepted, what = _FIELD_TYPES[type(f.default)]
        if isinstance(val, bool) or not isinstance(val, accepted):
            raise ScenarioError(f"{f.name} must be {what}, got {val!r}")
    if scn.proto not in _PROTOS:
        raise ScenarioError(f"unknown proto {scn.proto!r}")
    if scn.daemon not in _DAEMONS:
        raise ScenarioError(f"unknown daemon {scn.daemon!r}")
    if scn.rho < 1:
        raise ScenarioError("rho must be >= 1")
    if scn.group_count < 1:
        raise ScenarioError("group_count must be >= 1")
    if not 0 <= scn.p_select <= 1:
        raise ScenarioError("p_select must lie in [0, 1]")
    if scn.infimum and scn.proto != "ss_ws":
        raise ScenarioError("infimum operators attach to proto ss_ws only")
    if scn.infimum and scn.infimum not in ("min_int", "max_int", "lex_pair"):
        raise ScenarioError(f"unsupported infimum kind {scn.infimum!r}")
    for name in ("alpha", "k", "k2", "steps"):
        val = getattr(scn, name)
        if val != "auto":
            try:
                int(val)
            except ValueError as exc:
                raise ScenarioError(f"{name} must be 'auto' or an integer") from exc
    if scn.steps != "auto" and int(scn.steps) < 0:
        raise ScenarioError("steps must be >= 0")
    mode, sep, _ = scn.init.partition(":")
    if mode not in _INIT_MODES:
        raise ScenarioError(f"unknown init mode {scn.init!r}")
    if sep and mode != "adversarial_file":
        raise ScenarioError(f"init mode {mode!r} takes no argument, got "
                            f"{scn.init!r}")


# ---------------------------------------------------------------------------
# Scenario materialization


def make_topology(spec: str) -> Topology:
    kind, _, rest = spec.partition(":")
    try:
        if kind == "file":
            return load_topology(rest)
        if kind in ("ring", "path", "tree"):
            return generate(kind, n=int(rest))
        if kind == "grid":
            rows, _, cols = rest.partition("x")
            return generate("grid", rows=int(rows), cols=int(cols))
        if kind == "random":
            n_str, _, p_str = rest.partition(":")
            return generate("random_connected", n=int(n_str),
                            p=float(p_str) if p_str else 0.25,
                            seed=zlib.crc32(spec.encode()))
    except (ValueError, TopologyError) as exc:
        raise ScenarioError(f"bad topology spec {spec!r}: {exc}") from exc
    raise ScenarioError(f"unknown topology kind {kind!r} in {spec!r}")


def _infimum_input_source(kind: str, seed: int):
    def source(p: int, phase: int):
        # string seed: stable across processes, unlike tuple hashing
        rng = random.Random(f"inf-input:{seed}:{p}:{phase}")
        if kind == "lex_pair":
            return (rng.randrange(-50, 50), rng.randrange(-50, 50))
        return rng.randrange(-1000, 1000)
    return source


def build_protocol(scn: Scenario, topo: Topology):
    """Protocol for a scenario, with 'auto' clock sizing resolved.

    Auto sizing: alpha := greatest-hole length, K := cyclomatic bound + 1,
    K2 := max(4*rho+1, cyclomatic bound + 1).  Each protocol is built once,
    an infimum `ss_ws` with its hooks attached, and the builders always
    check explicit values against the floors of the topology's
    `graph_params`, so refused scenarios never start.
    """
    gp = graph_params(topo)
    rho = scn.rho
    alpha = gp.t_g if scn.alpha == "auto" else int(scn.alpha)
    K = gp.c_g_bound + 1 if scn.k == "auto" else int(scn.k)
    K2 = max(4 * rho + 1, gp.c_g_bound + 1) if scn.k2 == "auto" else int(scn.k2)
    try:
        if scn.proto == "ss_ws":
            hooks = {}
            if scn.infimum:
                hooks = attach_infimum(
                    make_infimum(scn.infimum),
                    _infimum_input_source(scn.infimum, scn.seed))
            return build_ss_ws(rho, K, alpha, gp, **hooks)
        if scn.proto == "trivial":
            plugin = trivial_plugin()
        else:
            plugin = make_lra_plugin(scn.proto, topo, rho, K2,
                                     group_count=scn.group_count,
                                     request_seed=scn.seed)
        return build_ss_dc(rho, gp, K=K, K2=K2, alpha=alpha, plugin=plugin)
    except SizingError as exc:
        raise ScenarioError(f"refused scenario: {exc}") from exc


def make_init(scn: Scenario, proto, topo: Topology):
    mode, _, rest = scn.init.partition(":")
    if mode == "wu0_uniform":
        return uniform_configuration(proto, topo)
    if mode == "random_arbitrary":
        return random_configuration(proto, topo, random.Random(scn.seed))
    if mode == "adversarial_file":
        try:
            with open(rest, encoding="utf-8") as fh:
                states = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ScenarioError(f"cannot load init file {rest!r}: {exc}") from exc
        try:
            return _load_configuration(states, proto, topo)
        except ValueError as exc:
            raise ScenarioError(f"bad init file {rest!r}: {exc}") from exc
    raise ScenarioError(f"unknown init mode {scn.init!r}")


def _load_configuration(states, proto, topo: Topology):
    """The configuration listed by `states` (one register dict per process,
    as JSON gives it).  Raises ValueError unless every process has exactly
    the protocol's registers, each holding a value of its register's
    domain, and every guard evaluates on the result."""
    if not isinstance(states, list) or len(states) != topo.node_count:
        raise ValueError(f"expected a list of {topo.node_count} register dicts")
    known = {r.name for r in proto.registers}
    cfg = []
    for p, st in enumerate(states):
        if not isinstance(st, dict) or set(st) != known:
            raise ValueError(f"process {p}: expected registers {sorted(known)}, "
                             f"got {st!r}")
        st = _freeze(st)
        for r in proto.registers:
            if not r.contains(st[r.name]):
                raise ValueError(f"process {p}: register {r.name} = "
                                 f"{st[r.name]!r} is outside its domain")
        cfg.append(st)
    cfg = tuple(cfg)
    try:
        first_enabled_map(cfg, proto, topo)
    except Exception as exc:  # noqa: BLE001 - any guard failure is bad input
        raise ValueError(f"bad initial configuration: {exc}") from exc
    return cfg


def auto_steps(scn: Scenario, topo: Topology, proto) -> int:
    if scn.steps != "auto":
        return int(scn.steps)
    if scn.proto == "ss_ws":
        sysm = proto.clock_registers["r"]
    else:
        sysm = proto.clock_registers["r1"]
    delta = proto.meta["delta"]
    ticks = sysm.alpha + 2 * sysm.period + 14 * delta + 2 * topo.diameter + 30
    if scn.daemon == "synchronous":
        return ticks
    return 3 * topo.node_count * ticks


def run_scenario(scn: Scenario) -> Trace:
    topo = make_topology(scn.topo)
    proto = build_protocol(scn, topo)
    init = make_init(scn, proto, topo)
    daemon = DaemonPolicy(scn.daemon, scn.seed, scn.rho, scn.p_select)
    budget = auto_steps(scn, topo, proto)
    return run(proto, topo, daemon, init, max_steps=budget)


# ---------------------------------------------------------------------------
# Analysis shared by run, check, and sweep


def check_wavelet_levels(lt: LiftedTrace, rho: int) -> list[tuple[int, bool]]:
    """Wavelet verdicts for up to six consecutive level windows [k, k+rho]
    of a lifted stabilized trace, using the upper-cut events as the decide
    set."""
    topo = lt.trace.topo
    k0 = lt.base + topo.diameter
    count = min(6, min(lt.values[-1]) - rho - k0 + 1)
    if count <= 0:
        return []
    # cuts[i] is the cut of level k0 + i: window i reads cuts i and i + rho.
    cuts = [cut_for_level(lt, k) for k in range(k0, k0 + count + rho)]
    # Predecessors and coherence look only backwards in time, so the trace
    # up to the last upper cut decides every window.
    g = build_event_graph(lt.trace.prefix(max(cuts[-1].values())))
    out: list[tuple[int, bool]] = []
    for i in range(count):
        c1, c2 = cuts[i], cuts[i + rho]
        decides = {(p, c2[p]) for p in topo.nodes}
        out.append((k0 + i, bool(check_wavelet(g, c1, c2, rho, decides))))
    return out


def ss_ws_stabilization_index(trace: Trace) -> int | None:
    sysm = trace.protocol.clock_registers["r"]
    for i, cfg in enumerate(trace.configs):
        if is_wu0(cfg, trace.topo, sysm, "r"):
            return i
    return None


def analyze(scn: Scenario, trace: Trace) -> dict:
    """Post-run monitors appropriate to the protocol; the 'violations' total
    drives the exit code.  Every monitor reads the one lifting of each
    clock register of the suffix from the stabilization index on."""
    topo = trace.topo
    rho = scn.rho
    report: dict = {"stop_reason": trace.stop_reason,
                    "steps": len(trace.records), "n": topo.node_count}
    ws = trace.protocol.name == "ss_ws"
    if ws:
        stab = ss_ws_stabilization_index(trace)
    else:
        report["wu1_index"], stab = stabilization_indices(trace)
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
        levels = check_wavelet_levels(lt, rho)
        report["wavelet_levels"] = len(levels)
        bad = [k for k, ok in levels if not ok]
        report["wavelet_failures"] = bad
        violations += len(bad)
        if scn.infimum:
            op = make_infimum(scn.infimum)
            verdict = verify_ball_infimum(lt, op, rho)
            report["infimum_phases"] = verdict.phases_checked
            report["infimum_mismatches"] = len(verdict.mismatches)
            violations += len(verdict.mismatches)
    else:
        lt1, lt2 = lift(suffix, "r1"), lift(suffix, "r2")
        agree = verify_delay_agreement(lt2, rho, sample_every=5)
        report["delay_pairs"] = agree.pairs_checked
        report["delay_disagreements"] = len(agree.disagreements)
        violations += len(agree.disagreements)
        # Score from the first phase whose elections only see
        # post-stabilization inputs: every LRA monitor reads the one list
        # of privileges granted from there on.
        mon = lra_monitor_start(lt1)
        report["monitor_start"] = stab + mon
        lt1, lt2 = lt1.suffix(mon), lt2.suffix(mon)
        recs = extract_cs_records(lt1.trace)
        compat = trace.protocol.meta["plugin"].compat
        safety = monitor_safety(recs, topo, rho, compat)
        report["safety_violations"] = len(safety)
        violations += len(safety)
        live = monitor_liveness(lt2, recs)
        report["cs_min_count"] = live.min_count
        report["cs_max_gap"] = live.max_gap
        m = metrics(lt1, recs)
        report["fairness_index"] = m.fairness_index
        report["service_time"] = m.service_time
        report["fairness_bound"] = math.ceil(topo.diameter / rho)
        report["service_bound"] = math.ceil(
            topo.node_count * (topo.node_count - 1) / rho)
        report["comms_per_phase"] = max(m.comms_per_phase, default=None)
        report["cs_total"] = m.cs_total
    report["violations"] = violations
    return report


def print_summary(scn: Scenario, report: dict, out=None) -> None:
    out = out if out is not None else sys.stdout
    head = (f"proto={scn.proto} topo={scn.topo} n={report['n']} "
            f"rho={scn.rho} daemon={scn.daemon} seed={scn.seed}")
    print(head, file=out)
    for key in ("stop_reason", "steps", "stab_index", "wu1_index",
                "monitor_start", "stab_round", "wavelet_levels",
                "wavelet_failures",
                "infimum_phases", "infimum_mismatches", "delay_pairs",
                "delay_disagreements", "safety_violations", "cs_min_count",
                "cs_max_gap", "cs_total", "fairness_index", "fairness_bound",
                "service_time", "service_bound", "comms_per_phase"):
        if key in report:
            print(f"  {key} = {report[key]}", file=out)
    for note in report.get("notes", ()):
        print(f"  note: {note}", file=out)
    print(f"  violations = {report['violations']}", file=out)


# ---------------------------------------------------------------------------
# Trace files


def _freeze(value):
    if isinstance(value, list):
        return tuple(_freeze(v) for v in value)
    if isinstance(value, dict):
        return {k: _freeze(v) for k, v in value.items()}
    return value


def write_trace(path: str, scn: Scenario, trace: Trace) -> None:
    topo = trace.topo
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({
            "type": "header", "scenario": asdict(scn),
            "n": topo.node_count, "edges": topo.edges,
            "stop_reason": trace.stop_reason}) + "\n")
        fh.write(json.dumps({
            "type": "config", "states": list(trace.configs[0])}) + "\n")
        for i, rec in enumerate(trace.records):
            fh.write(json.dumps({
                "type": "step", "step": i, "selected": list(rec.fired),
                "fired": {str(p): lab for p, lab in rec.fired.items()},
                "events": [{"process": ev.process, "kind": ev.kind,
                            "payload": ev.payload} for ev in rec.events],
            }) + "\n")
        fh.write(json.dumps({
            "type": "footer", "steps": len(trace.records),
            "final_states": list(trace.configs[-1])}) + "\n")


def parse_trace(path: str) -> tuple[Scenario, Trace, list[tuple], tuple]:
    """Parse and check a trace file without replaying it.

    Returns (scenario, trace, steps, final): `trace` holds the protocol,
    topology, stop reason and initial configuration only; each entry of
    `steps` is a step line's (selection, fired labels, events); `final` is
    the footer's configuration.  Raises CorruptTraceError on malformed
    input.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            lines = [json.loads(line) for line in fh if line.strip()]
    except OSError as exc:
        raise CorruptTraceError(f"cannot read trace {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CorruptTraceError(f"malformed trace line: {exc}") from exc
    if len(lines) < 3 or not all(isinstance(x, dict) for x in lines) \
            or lines[0].get("type") != "header" \
            or lines[1].get("type") != "config" \
            or lines[-1].get("type") != "footer":
        raise CorruptTraceError("trace is truncated or missing header/footer")
    header, config_line, footer = lines[0], lines[1], lines[-1]
    try:
        scn = Scenario(**header["scenario"])
        # a missing key would silently take its default
        missing = [f.name for f in fields(Scenario)
                   if f.name not in header["scenario"]]
        if missing:
            raise ScenarioError(f"{missing[0]} is missing")
        validate_scenario(scn)
    except (TypeError, KeyError, ScenarioError) as exc:
        raise CorruptTraceError(f"bad scenario in header: {exc}") from exc
    try:
        topo = parse_edge_list(
            "\n".join(f"{u} {v}" for u, v in header["edges"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise CorruptTraceError(f"bad topology in header: {exc}") from exc
    if topo.node_count != header.get("n"):
        raise CorruptTraceError("edge list does not match declared node count")
    proto = build_protocol(scn, topo)
    try:
        cfg = _load_configuration(config_line.get("states"), proto, topo)
    except ValueError as exc:
        raise CorruptTraceError(f"bad config line: {exc}") from exc
    trace = Trace(proto, topo, [cfg], [],
                  stop_reason=header.get("stop_reason", "incomplete"))
    step_lines = lines[2:-1]
    if footer.get("steps") != len(step_lines):
        raise CorruptTraceError("trace is truncated: step count mismatch")
    steps = []
    for i, line in enumerate(step_lines):
        if line.get("type") != "step" or line.get("step") != i:
            raise CorruptTraceError(f"unexpected record at step {i}")
        try:
            steps.append((
                line["selected"],
                {int(p): lab for p, lab in line["fired"].items()},
                tuple(HookEvent(ev["process"], ev["kind"],
                                _freeze(ev["payload"]))
                      for ev in line["events"])))
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise CorruptTraceError(f"malformed step {i}: {exc!r}") from exc
    try:
        final = tuple(_freeze(st) for st in footer["final_states"])
    except (KeyError, TypeError) as exc:
        raise CorruptTraceError(f"malformed footer: {exc!r}") from exc
    return scn, trace, steps, final


def read_trace(path: str) -> tuple[Scenario, Trace]:
    """Load and replay a trace file.

    Replay re-executes every recorded selection through the engine and
    cross-checks the fired labels, emitted events, and final configuration;
    any divergence, truncation or malformed line raises CorruptTraceError.
    """
    scn, trace, steps, final = parse_trace(path)
    proto, topo = trace.protocol, trace.topo
    cfg = trace.configs[0]
    first = first_enabled_map(cfg, proto, topo)
    for i, (selected, recorded_fired, recorded_events) in enumerate(steps):
        try:
            cfg, rec = step(cfg, selected, proto, topo, first_enabled=first)
        except Exception as exc:
            raise CorruptTraceError(f"replay failed at step {i}: {exc}") from exc
        if rec.fired != recorded_fired:
            raise CorruptTraceError(
                f"replay fired {rec.fired} at step {i}, trace says "
                f"{recorded_fired}")
        if rec.events != recorded_events:
            raise CorruptTraceError(f"replay events diverge at step {i}")
        trace.configs.append(cfg)
        trace.records.append(rec)
    if trace.configs[-1] != final:
        raise CorruptTraceError("replayed final configuration diverges")
    return scn, trace


# ---------------------------------------------------------------------------
# Subcommands


def _add_scenario_flags(sub: argparse.ArgumentParser) -> None:
    """One string flag per `Scenario` field: --p-select sets p_select."""
    for f in fields(Scenario):
        sub.add_argument("--" + f.name.replace("_", "-"), dest=f.name)


def _scenario_flags(args) -> dict[str, str | None]:
    return {f.name: getattr(args, f.name) for f in fields(Scenario)}


@contextlib.contextmanager
def _output_file(path: str | None, what: str):
    """Yield a temporary file beside `path`, created before the work that
    fills it, and move it onto `path` when the block succeeds.

    An unwritable location thus fails before any work, and a failed
    command removes the temporary file and leaves an existing `path` as it
    was.  An OSError inside the block is a write failure (exit 2).  Yields
    None when there is no `path`.
    """
    if not path:
        yield None
        return
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".",
                                   prefix=f".{os.path.basename(path)}.")
    except OSError as exc:
        raise ScenarioError(f"cannot write {what} {path}: {exc}") from exc
    try:
        mask = os.umask(0)
        os.umask(mask)
        os.fchmod(fd, 0o666 & ~mask)  # the mode `open(path, "w")` would give
        os.close(fd)
        yield tmp
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise ScenarioError(f"cannot write {what} {path}: {exc}") from exc
        raise


def cmd_run(args) -> int:
    config = parse_config_file(args.config) if args.config else {}
    scn = scenario_from(config, _scenario_flags(args))
    with _output_file(args.trace, "trace") as tmp:
        trace = run_scenario(scn)
        if tmp:
            write_trace(tmp, scn, trace)
    report = analyze(scn, trace)
    print_summary(scn, report)
    return 0 if report["violations"] == 0 else 1


def cmd_check(args) -> int:
    scn, trace = read_trace(args.trace)
    print(f"replay ok: {len(trace.records)} steps re-validated")
    report = analyze(scn, trace)
    print_summary(scn, report)
    return 0 if report["violations"] == 0 else 1


_GRID_KEYS = ("topo", "n", "rho", "daemon", "seed", "proto")


def expand_grid(config: dict[str, str]) -> list[Scenario]:
    """Cartesian product of the comma-separated grid axes.

    A 'topo' entry without ':' names a generator kind and combines with the
    'n' axis; entries with ':' are used verbatim (then 'n' must be absent).
    A missing axis takes the `Scenario` default, except proto, which
    defaults to lme.
    """
    axes: dict[str, list[str]] = {}
    base: dict[str, str] = {"proto": "lme"}
    for key, raw in config.items():
        if key in _GRID_KEYS:
            axes[key] = [v.strip() for v in raw.split(",") if v.strip()]
        else:
            base[key] = raw
    ns = axes.pop("n", [])
    specs: list[str] = []
    for t in axes.get("topo", [Scenario.topo]):
        if ":" in t:
            if ns:
                raise ScenarioError(
                    f"topo {t!r} fixes its own size; drop the n axis")
            specs.append(t)
        else:
            if not ns:
                raise ScenarioError(f"generator topo {t!r} needs an n axis")
            specs.extend(f"{t}:{n}" for n in ns)
    axes["topo"] = specs
    cells = [scenario_from(base, dict(zip(axes, values)))
             for values in itertools.product(*axes.values())]
    cells.sort(key=Scenario.key)
    return cells


def _sweep_cell(scn: Scenario) -> list:
    """One sweep row; cell failures are recorded, not raised."""
    try:
        trace = run_scenario(scn)
        report = analyze(scn, trace)
    except Exception as exc:  # noqa: BLE001 - per-row failure capture
        return [scn.topo, "", scn.rho, scn.daemon, scn.seed, scn.proto,
                "", f"error: {type(exc).__name__}", "", "", ""]
    blank = lambda v: "" if v is None else v
    return [scn.topo, report["n"], scn.rho, scn.daemon, scn.seed, scn.proto,
            blank(report.get("stab_round")), report["violations"],
            blank(report.get("fairness_index")),
            blank(report.get("service_time")),
            blank(report.get("comms_per_phase"))]


def cmd_sweep(args) -> int:
    config = parse_config_file(args.grid) if args.grid else {}
    config.update((key, val) for key, val in _scenario_flags(args).items()
                  if val is not None)
    if args.jobs < 1:
        raise ScenarioError(f"--jobs must be >= 1, got {args.jobs}")
    cells = expand_grid(config) if config else []
    with _output_file(args.out, "sweep output") as tmp:
        if args.jobs > 1 and cells:
            # Only a parallel sweep pays for loading the process pool
            # (multiprocessing, pickle, logging, socket).
            from concurrent.futures import ProcessPoolExecutor  # noqa: PLC0415
            with ProcessPoolExecutor(max_workers=args.jobs) as pool:
                rows = list(pool.map(_sweep_cell, cells))
        else:
            rows = [_sweep_cell(scn) for scn in cells]
        with open(tmp, "w", newline="", encoding="utf-8") if tmp \
                else contextlib.nullcontext(sys.stdout) as out:
            writer = csv.writer(out)
            writer.writerow(CSV_HEADER)
            writer.writerows(rows)
    bad = sum(1 for row in rows if row[7] != 0)
    return 0 if bad == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rhosync",
        description="Simulate and verify self-stabilizing clock and "
                    "rho-local coordination protocols.")
    subs = parser.add_subparsers(dest="command", required=True)

    p_run = subs.add_parser("run", help="execute one scenario")
    p_run.add_argument("--config", help="key=value scenario file")
    _add_scenario_flags(p_run)
    p_run.add_argument("--trace", help="write a JSON-lines trace here")
    p_run.set_defaults(func=cmd_run)

    p_check = subs.add_parser("check", help="replay and re-verify a trace")
    p_check.add_argument("trace", help="trace file from `run --trace`")
    p_check.set_defaults(func=cmd_check)

    p_sweep = subs.add_parser("sweep", help="run a scenario grid to CSV")
    p_sweep.add_argument("--grid", help="key=value grid file; comma lists "
                                        "on topo,n,rho,daemon,seed,proto")
    _add_scenario_flags(p_sweep)
    p_sweep.add_argument("--out", help="CSV output path (default stdout)")
    p_sweep.add_argument("--jobs", type=int, default=1)
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ScenarioError, CorruptTraceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
