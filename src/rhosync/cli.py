"""Command-line front end: scenario configuration, run orchestration,
trace replay and re-validation, and parameter sweeps.

Scenarios come from a flat key=value config file plus CLI-flag overrides
(flags win).  Traces are JSON lines: header, initial configuration, one
line per transition, footer.  Exit codes: 0 pass, 1 violation found,
2 configuration error, 141 stdout closed before the output was written.
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
import shutil
import sys
import tempfile
import zlib
from dataclasses import asdict, dataclass, fields, replace

from .causality import build_event_graph, check_wavelet, cut_for_level
from .infimum import (BallInfimumCheck, InfimumVerdict, attach_infimum,
                      make_infimum)
from .kernel import (DAEMONS, Configuration, DaemonPolicy, HeldConfigs,
                     ProtocolDef, RoundCounter, Trace, TransitionRecord,
                     first_enabled_map, random_configuration, run, step,
                     uniform_configuration)
from .layerclock import (build_ss_dc, stabilization_indices, trivial_plugin,
                         verify_delay_agreement)
from .lra import (extract_cs_records, lra_monitor_start, make_lra_plugin,
                  metrics, monitor_liveness, monitor_safety)
from .topology import (Topology, TopologyError, generate, graph_params,
                       load_topology, parse_edge_list)
from .unison import (LiftedTrace, SizingError, auto_sizes, build_ss_ws,
                     is_stable, is_wu, lift)

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


_PROTOS = {"ss_ws", "trivial", "lme", "gme", "rw"}
_INIT_MODES = {"wu0_uniform", "random_arbitrary", "adversarial_file"}
# The values a field may hold, by the type of its default, and how to say so.
_FIELD_TYPES = {int: (int, "an integer"), float: (float, "a number"),
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
    the type of that field's default, and an int given for a float field
    becomes a float."""
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
        elif kinds[key] is float and type(val) is int:
            values[key] = float(val)
    scn = Scenario(**values)
    validate_scenario(scn)
    return scn


def validate_scenario(scn: Scenario) -> None:
    """Check each field's type against its default's (1 is not a float),
    then its value."""
    for f in fields(Scenario):
        val = getattr(scn, f.name)
        accepted, what = _FIELD_TYPES[type(f.default)]
        if isinstance(val, bool) or not isinstance(val, accepted):
            raise ScenarioError(f"{f.name} must be {what} "
                                f"({accepted.__name__}), got {val!r}")
    if scn.proto not in _PROTOS:
        raise ScenarioError(f"unknown proto {scn.proto!r}")
    if scn.daemon not in DAEMONS:
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


def _infimum_input_source(op, seed: int):
    def source(p: int, phase: int):
        # string seed: stable across processes, unlike tuple hashing
        return op.sample(random.Random(f"inf-input:{seed}:{p}:{phase}"))
    return source


def build_protocol(scn: Scenario, topo: Topology):
    """Protocol for a scenario, each 'auto' clock size resolved by
    `unison.auto_sizes`.  Each protocol is built once, an infimum `ss_ws`
    with its hooks attached, and the builders always check explicit values
    against the floors of the topology's `graph_params`, so refused
    scenarios never start.
    """
    gp = graph_params(topo)
    rho = scn.rho
    alpha, K, K2 = (auto if val == "auto" else int(val) for auto, val in
                    zip(auto_sizes(rho, gp), (scn.alpha, scn.k, scn.k2)))
    try:
        if scn.proto == "ss_ws":
            hooks = {}
            if scn.infimum:
                op = make_infimum(scn.infimum)
                hooks = attach_infimum(op, _infimum_input_source(op, scn.seed))
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


def run_scenario(scn: Scenario, trace_path: str | None = None) -> LiveTrace:
    """Run a scenario into a `LiveTrace`, analyzed as the steps come, and
    with a `trace_path` written there as they come (`TraceWriter`)."""
    topo = make_topology(scn.topo)
    proto = build_protocol(scn, topo)
    init = make_init(scn, proto, topo)
    daemon = DaemonPolicy(scn.daemon, scn.seed, scn.rho, scn.p_select)
    budget = auto_steps(scn, topo, proto)
    with TraceWriter(trace_path, scn) if trace_path \
            else contextlib.nullcontext() as writer:
        trace = run(proto, topo, daemon, init, max_steps=budget,
                    trace=LiveTrace(proto, topo, init, writer))
        if writer:
            writer.finish(trace)
    return trace


# ---------------------------------------------------------------------------
# Analysis shared by run, check, and sweep


class LiveTrace(Trace):
    """A trace that runs the analysis's monitors as its steps are appended
    and keeps only what `analyze` reads later.

    It keeps every record's `fired` map, and its events only for a layer
    clock, whose LRA monitors read them after the run: an `ss_ws` record
    drops them once the writer and the monitors took its step.  Of the
    configurations (`HeldConfigs`) it keeps the first and the last.  A
    `writer` (`TraceWriter`) takes each step as it comes; up to the
    stabilization index, the round counter and the stability scan take
    it and find:
      - `stab_index`, the first stable configuration (`is_stable`); for
        the layer clock also `wu1_index`, the first in WU1;
      - `stab_round`, the number of rounds before it (`RoundCounter`).
    From there each suffix monitor takes step i as `monitor(i -
    stab_index, rec, cfg, nxt)`, `rec` taking `cfg` to `nxt`: the
    liftings of each clock register (`lifted`), then for an `ss_ws` with
    an infimum attached the ball-infimum check (`infimum_verdict`).  The
    first monitor that fails, say with a LiftError, stops them all; the
    steps and the writer go on, and `analyze` raises that `fault`.
    """

    def __init__(self, proto: ProtocolDef, topo: Topology,
                 init: Configuration, writer: TraceWriter | None = None):
        super().__init__(proto, topo, HeldConfigs(init), [])
        self.wu1_index: int | None = None
        self.stab_index: int | None = None
        self.stab_round: int | None = None
        self.fault: Exception | None = None
        self._last = init  # the configuration the next step starts from
        self._writer = writer
        self._rounds = RoundCounter(proto, topo)
        # Each clock register's lifting from the stabilization index on,
        # whose trace `lifted` sets to the suffix.
        self._lifted: dict[str, LiftedTrace] = {}
        self._infimum: BallInfimumCheck | None = None
        self._monitors: list = []  # the suffix monitors
        try:
            self._scan(init)
        except Exception as exc:  # noqa: BLE001 - `analyze` raises it
            self.fault = exc

    def append(self, cfg: Configuration, rec: TransitionRecord) -> None:
        Trace.append(self, cfg, rec)
        i = len(self.records) - 1
        if self._writer is not None:
            self._writer.step(i, rec)
        last, self._last = self._last, cfg
        if self.fault is None:
            try:
                if self.stab_index is None:
                    self._rounds.step(i, rec, last, cfg)
                    self._scan(cfg)
                else:
                    j = i - self.stab_index
                    for monitor in self._monitors:
                        monitor(j, rec, last, cfg)
            except Exception as exc:  # noqa: BLE001 - `analyze` raises it
                self.fault = exc
        if rec.events and self.protocol.name == "ss_ws":
            del rec.events

    def lifted(self, reg: str) -> LiftedTrace:
        """The lifting of clock register `reg` over the suffix from the
        stabilization index."""
        return replace(self._lifted[reg], trace=self.suffix(self.stab_index))

    def infimum_verdict(self) -> InfimumVerdict:
        """The verdict of the ball-infimum check over the steps so far."""
        return self._infimum.verdict()

    def _scan(self, cfg: Configuration) -> None:
        """Note whether `cfg`, the last configuration, is the first in WU1;
        if it is stable, make it the stabilization index and start the
        suffix monitors there."""
        proto, topo, t = self.protocol, self.topo, len(self.records)
        sys1 = proto.clock_registers.get("r1")
        if sys1 is not None and self.wu1_index is None \
                and is_wu(cfg, topo, sys1, "r1"):
            self.wu1_index = t
        # WU0 implies WU: a configuration outside WU1 is not stable
        if (sys1 is not None and self.wu1_index is None) \
                or not is_stable(cfg, proto, topo):
            return
        start = self.suffix(t)  # `cfg` alone
        self._lifted = {reg: lift(start, reg)
                        for reg in proto.clock_registers}
        self._monitors = [lt.extend for lt in self._lifted.values()]
        if "infimum" in proto.meta:
            self._infimum = BallInfimumCheck(
                self._lifted["r"], proto.meta["infimum"],
                proto.meta["delta"] - 1)
            self._monitors.append(self._infimum.feed)
        self.stab_index, self.stab_round = t, len(self._rounds.boundaries)


def check_wavelet_levels(lt: LiftedTrace, rho: int) -> list[tuple[int, bool]]:
    """Wavelet verdicts for up to six consecutive level windows [k, k+rho]
    of a lifted stabilized trace, using the upper-cut events as the decide
    set."""
    topo = lt.trace.topo
    k0 = lt.base + topo.diameter
    count = min(6, lt.top_level() - rho - k0 + 1)
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


ss_ws_stabilization_index = stabilization_indices  # a name the benchmark spans


def analyze(scn: Scenario, trace: LiveTrace) -> dict:
    """Monitors appropriate to the protocol over the `LiveTrace` of a run
    or a replay, which ran the scans as its steps came; the 'violations'
    total drives the exit code.  Every monitor reads the one lifting of
    each clock register of the suffix from the stabilization index on.  A
    fault a monitor met while the steps came is raised here."""
    if trace.fault is not None:
        raise trace.fault
    proto, topo = trace.protocol, trace.topo
    stab = trace.stab_index
    rho = scn.rho
    report: dict = {"stop_reason": trace.stop_reason,
                    "steps": len(trace.records), "n": topo.node_count}
    ws = proto.name == "ss_ws"
    if not ws:
        report["wu1_index"] = trace.wu1_index
    report["stab_index"] = stab
    if stab is None:
        report["violations"] = 1
        report["notes"] = ["did not stabilize within the step budget"]
        return report
    report["stab_round"] = trace.stab_round
    violations = 0
    if ws:
        lt = trace.lifted("r")
        levels = check_wavelet_levels(lt, rho)
        report["wavelet_levels"] = len(levels)
        bad = [k for k, ok in levels if not ok]
        report["wavelet_failures"] = bad
        violations += len(bad)
        vacuous = [] if levels else ["wavelet window"]
        if scn.infimum:
            verdict = trace.infimum_verdict()
            report["infimum_phases"] = verdict.phases_checked
            report["infimum_mismatches"] = len(verdict.mismatches)
            violations += len(verdict.mismatches)
            vacuous += [] if verdict.phases_checked else ["infimum phase"]
        if vacuous:
            violations += 1
            report["notes"] = [f"the stabilized suffix holds no "
                               f"{' and no '.join(vacuous)} to check"]
    else:
        lt1, lt2 = trace.lifted("r1"), trace.lifted("r2")
        agree = verify_delay_agreement(lt2, rho, sample_every=5)
        report["delay_pairs"] = agree.pairs_checked
        report["delay_disagreements"] = len(agree.disagreements)
        violations += len(agree.disagreements)
        # Score from the first phase whose elections only see
        # post-stabilization inputs: every LRA monitor reads the one list
        # of privileges granted from there on.
        mon = lra_monitor_start(lt1)
        if mon is None:
            report["monitor_start"] = None
            report["violations"] = violations + 1
            report["notes"] = ["no complete post-stabilization phase: "
                               "the LRA monitors saw no privilege"]
            return report
        report["monitor_start"] = stab + mon
        lt1 = lt1.suffix(mon)
        recs = extract_cs_records(lt1.trace)
        compat = proto.meta["plugin"].compat
        safety = monitor_safety(recs, topo, rho, compat)
        report["safety_violations"] = len(safety)
        violations += len(safety)
        live = monitor_liveness(recs, topo)
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


# The encoders of the four kinds of trace line: the one definition of each
# line, which `write_trace` writes and `read_trace` checks.


def _encode_header(scn: Scenario, topo: Topology, stop_reason) -> dict:
    return {"type": "header", "scenario": asdict(scn),
            "n": topo.node_count, "edges": topo.edges,
            "stop_reason": stop_reason}


def _encode_config(cfg: Configuration) -> dict:
    return {"type": "config", "states": list(cfg)}


def _encode_step(i: int, rec: TransitionRecord) -> dict:
    """Step line `i` of a trace, for the transition record `rec`."""
    return {"type": "step", "step": i, "selected": list(rec.fired),
            "fired": {str(p): lab for p, lab in rec.fired.items()},
            "events": [{"process": ev.process, "kind": ev.kind,
                        "payload": ev.payload} for ev in rec.events]}


def _encode_footer(trace: Trace) -> dict:
    return {"type": "footer", "steps": len(trace.records),
            "final_states": list(trace.configs[-1])}


class TraceWriter(contextlib.AbstractContextManager):
    """The trace file of scenario `scn` at `path`, written as the steps
    come: `step` spools each step line in an unnamed temporary file beside
    `path`; after the last step `finish` writes the header, whose stop
    reason is known only then, the config line, the spool and the footer.
    Leaving the `with` block closes the spool: no file without `finish`."""

    def __init__(self, path: str, scn: Scenario):
        self.path, self.scn = path, scn
        self._spool = tempfile.TemporaryFile(
            "w+", encoding="utf-8", dir=os.path.dirname(path) or ".")

    def __exit__(self, *exc_info) -> None:
        self._spool.close()

    def step(self, i: int, rec: TransitionRecord) -> None:
        self._spool.write(json.dumps(_encode_step(i, rec)) + "\n")

    def finish(self, trace: Trace) -> None:
        self._spool.seek(0)
        with open(self.path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(_encode_header(self.scn, trace.topo,
                                               trace.stop_reason)) + "\n")
            fh.write(json.dumps(_encode_config(trace.configs[0])) + "\n")
            shutil.copyfileobj(self._spool, fh)
            fh.write(json.dumps(_encode_footer(trace)) + "\n")


def write_trace(path: str, scn: Scenario, trace: Trace) -> None:
    """Write `trace` through a `TraceWriter`.  A live `ss_ws` trace, which
    dropped its events, raises DroppedEvents and leaves no file."""
    with TraceWriter(path, scn) as writer:
        for i, rec in enumerate(trace.records):
            writer.step(i, rec)
        writer.finish(trace)


def _last_line(path: str) -> bytes:
    """The last non-blank line of the file at `path` (its only line, or
    b"" if it has none), read backwards from its end."""
    with open(path, "rb") as fh:
        pos = fh.seek(0, os.SEEK_END)
        tail = b""
        while pos:
            size = min(pos, 1 << 16)
            pos -= size
            fh.seek(pos)
            tail = fh.read(size) + tail
            body = tail.rstrip()
            if body and b"\n" in body:
                break
        return tail.rstrip().rpartition(b"\n")[2]


def _parse_ends(header_text: str, config_text: str, footer_text: bytes
                ) -> tuple[Scenario, LiveTrace, dict]:
    """Parse the header, config and footer lines of a trace from their
    text, and hold the header and config line to what `write_trace` writes
    for them (`_check_line`).

    The header's scenario determines the graph and the start, unless it
    names a `file:` topology or an `adversarial_file:` init: then they are
    read from the header's edges and the config line.  The header's stop
    reason must be there; `read_trace` decides its value after the replay.

    Returns (scenario, trace, footer): `trace` holds the protocol,
    topology, header stop reason and initial configuration only, as a
    `LiveTrace`; `footer` is the last line as JSON gives it.  Raises
    CorruptTraceError on malformed input.
    """
    try:
        header, config_line, footer = (json.loads(header_text),
                                       json.loads(config_text),
                                       json.loads(footer_text))
    except ValueError as exc:
        raise CorruptTraceError(f"malformed trace line: {exc}") from exc
    if not all(isinstance(x, dict) for x in (header, config_line, footer)) \
            or header.get("type") != "header" \
            or config_line.get("type") != "config" \
            or footer.get("type") != "footer":
        raise CorruptTraceError("trace is truncated or missing header/footer")
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
    if scn.topo.startswith("file:"):
        try:
            topo = parse_edge_list(
                "\n".join(f"{u} {v}" for u, v in header["edges"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise CorruptTraceError(f"bad topology in header: {exc}") from exc
    else:
        topo = make_topology(scn.topo)
    # encoded with its own stop reason, whose value the replay decides: so
    # here only a missing key differs
    _check_line("header", header, _encode_header(
        scn, topo, header.get("stop_reason")))
    proto = build_protocol(scn, topo)
    if scn.init.startswith("adversarial_file"):
        try:
            cfg = _load_configuration(config_line.get("states"), proto, topo)
        except ValueError as exc:
            raise CorruptTraceError(f"bad config line: {exc}") from exc
    else:
        cfg = make_init(scn, proto, topo)
    _check_line("config line", config_line, _encode_config(cfg))
    trace = LiveTrace(proto, topo, cfg)
    trace.stop_reason = header["stop_reason"]
    return scn, trace, footer


def _decode_step(text: str, i: int, n: int) -> tuple[dict, list[int]]:
    """Decode step line `i` of a trace over `n` processes into the line,
    its events frozen as the engine emits them, and its selection.

    The selection must be a non-empty, strictly ascending list of process
    ids (ints in range(n), not bools), and `step` an int.  Raises
    CorruptTraceError otherwise.  `read_trace` holds the rest of the line
    to `_encode_step` of the replayed step.
    """
    try:
        line = json.loads(text)
        selected, step_index = line["selected"], line["step"]
        if type(selected) is not list or not selected \
                or any(type(p) is not int for p in selected) \
                or not 0 <= selected[0] \
                or any(p >= q for p, q in zip(selected, selected[1:])) \
                or selected[-1] >= n:
            raise ValueError(f"selected {selected!r} is not an ascending "
                             f"list of process ids")
        if type(step_index) is not int:
            raise ValueError(f"step {step_index!r} is not an integer")
        line["events"] = [_freeze(ev) for ev in line["events"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise CorruptTraceError(f"malformed step {i}: {exc!r}") from exc
    return line, selected


def _json_text(value) -> str:
    """A JSON value as text that is equal for two values iff they are the
    same JSON: key order aside, and with number types kept."""
    return json.dumps(value, sort_keys=True)


def _differing_keys(line: dict, written: dict) -> list[str]:
    """The keys, sorted, in which trace line `line` differs from the line
    `written` that `write_trace` writes in its place: a missing or an
    extra key, or another JSON value by `_json_text`."""
    return [k for k in sorted(line.keys() | written.keys())
            if k not in line or k not in written
            or _json_text(line[k]) != _json_text(written[k])]


def _check_line(name: str, line: dict, written: dict) -> None:
    """Raise CorruptTraceError naming the differing keys unless the trace
    line `name` holds the JSON value `written`."""
    if keys := _differing_keys(line, written):
        raise CorruptTraceError(
            f"malformed {name}: it differs from the replay in {keys}")


def _replayed_stop_reason(scn: Scenario, trace: Trace) -> str:
    """The stop reason `run` gives these steps: `budget` iff they are the
    scenario's step budget, else `quiescence` iff no process is enabled at
    the end.  Raises CorruptTraceError for any other trace."""
    budget = auto_steps(scn, trace.topo, trace.protocol)
    steps = len(trace.records)
    if steps == budget:
        return "budget"
    if steps > budget:
        raise CorruptTraceError(
            f"trace has {steps} steps, above the step budget {budget}")
    if first_enabled_map(trace.configs[-1], trace.protocol, trace.topo):
        raise CorruptTraceError(
            f"trace stops after {steps} steps, below the step budget "
            f"{budget}, with processes still enabled")
    return "quiescence"


def read_trace(path: str) -> tuple[Scenario, LiveTrace]:
    """Load and replay a trace file into a `LiveTrace`, analyzed as the
    replay goes.

    Every line must be the JSON value that `write_trace` writes in its
    place: the header and config line for the header's scenario
    (`_parse_ends`), each step line for the replayed step, the footer for
    the replayed trace.  Replay re-executes every recorded selection
    through the engine and holds it to the header daemon's rule
    (`DaemonPolicy.refusal`); after the last step it decides the header's
    stop reason (`_replayed_stop_reason`).  A number's type counts (5.0 is
    not 5, nor true 1); whitespace and key order do not (see
    `_json_text`).  Any divergence, truncation or malformed line raises
    CorruptTraceError, the first in file order, except that a footer that
    is no footer line comes first and the stop reason after the steps.

    The footer, the file's last non-blank line, is read first
    (`_last_line`); then the file is read once, one line ahead of the
    replay, so the footer never reaches it.  A step evaluates the guards
    of the selected processes only, unless the daemon's rule reads the
    enabled set (`synchronous`): then it fires the hits found.
    """
    try:
        footer_text = _last_line(path)
        with open(path, encoding="utf-8") as fh:
            # each non-blank line but the last, one line ahead
            lines = (line for line, _ in
                     itertools.pairwise(filter(str.strip, fh)))
            head = list(itertools.islice(lines, 2))
            if len(head) < 2:
                raise CorruptTraceError(
                    "trace is truncated or missing header/footer")
            scn, trace, footer = _parse_ends(*head, footer_text)
            _replay(scn, trace, lines)
    except OSError as exc:
        raise CorruptTraceError(f"cannot read trace {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise CorruptTraceError(f"malformed trace line: {exc}") from exc
    stop = _replayed_stop_reason(scn, trace)
    if trace.stop_reason != stop:
        raise CorruptTraceError(
            f"header says stop_reason {trace.stop_reason!r}, the replay "
            f"stops on {stop!r}")
    _check_line("footer", footer, _encode_footer(trace))
    return scn, trace


def _replay(scn: Scenario, trace: LiveTrace, step_lines) -> None:
    """Replay the step lines of a trace for scenario `scn` onto `trace`,
    which holds the initial configuration, holding each to the header
    daemon's rule and to `_encode_step` of the replayed step."""
    proto, topo = trace.protocol, trace.topo
    daemon = DaemonPolicy(scn.daemon, scn.seed, scn.rho, scn.p_select)
    n = topo.node_count
    cfg = trace.configs[0]
    hits: dict = {}

    def enabled():  # the enabled set of `cfg`, kept as the step's hits
        hits.update(first_enabled_map(cfg, proto, topo))
        return hits

    for i, text in enumerate(step_lines):
        line, selected = _decode_step(text, i, n)
        hits.clear()
        refusal = daemon.refusal(selected, topo, enabled)
        if refusal:
            raise CorruptTraceError(f"step {i} {refusal}")
        try:
            cfg, rec = step(cfg, selected, proto, topo, hits)
        except Exception as exc:
            raise CorruptTraceError(
                f"replay failed at step {i}: {exc}") from exc
        replayed = _encode_step(i, rec)
        # `==` takes 5.0 for 5 and true for 1.  Outside the events each
        # value is a str or an int `_decode_step` checked, and repr tells
        # an event's numbers apart; any doubt is settled key by key.
        if line != replayed or repr(line["events"]) != repr(
                replayed["events"]):
            if keys := _differing_keys(line, replayed):
                raise CorruptTraceError(
                    f"malformed step {i}: the replay at step {i} "
                    f"differs in {keys}")
        trace.append(cfg, rec)


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
        trace = run_scenario(scn, tmp)
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
    """One sweep row, read off `CSV_HEADER` from the scenario and its
    report; absent and None values are blank, and cell failures are
    recorded, not raised."""
    try:
        report = analyze(scn, run_scenario(scn))
    except Exception as exc:  # noqa: BLE001 - per-row failure capture
        report = {"violations": f"error: {type(exc).__name__}"}
    row = {**vars(scn), "plugin": scn.proto, **report}
    return ["" if row.get(key) is None else row[key] for key in CSV_HEADER]


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
            with ProcessPoolExecutor(min(args.jobs, len(cells))) as pool:
                rows = list(pool.map(_sweep_cell, cells))
        else:
            rows = [_sweep_cell(scn) for scn in cells]
        with open(tmp, "w", newline="", encoding="utf-8") if tmp \
                else contextlib.nullcontext(sys.stdout) as out:
            writer = csv.writer(out)
            writer.writerow(CSV_HEADER)
            writer.writerows(rows)
    violations = CSV_HEADER.index("violations")
    return 1 if any(row[violations] != 0 for row in rows) else 0


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
        code = args.func(args)
        sys.stdout.flush()  # a closed reader shows here, not at exit
        return code
    except (ScenarioError, CorruptTraceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader closed stdout early (`rhosync check t.jsonl | head`).
        # Drop the rest of the output and exit as a process that SIGPIPE
        # ends does in a shell: 128 + 13.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
