"""Span tracing of rhosync from outside the program.

`install` replaces every binding of the layer functions listed in SPANNED
(in the defining module, in each rhosync module that imports the name, and
in the package namespace) with a wrapper that records a span: name, start,
end, parent.  Spans stay in memory until the benchmark writes them out.
`uninstall` restores the originals, so untraced iterations run the program
as shipped.

Hot helpers that run inside these functions (guards, `enabled`, `d_K`,
`ball`, `delay_2rho`, the compat functions) get no span: one per call would
cost more than the work it measures.  Their time counts as self time of the
nearest spanned caller.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import statistics
import sys
import time

LAYERS = ("topology", "kernel", "unison", "causality", "infimum",
          "layerclock", "lra", "cli")

# Layer boundary functions, by defining module.  "Class.method" patches the
# class attribute.
SPANNED = {
    "topology": ("generate", "parse_edge_list", "load_topology",
                 "greatest_hole", "graph_params"),
    "kernel": ("run", "round_count", "random_configuration",
               "uniform_configuration", "Trace.suffix"),
    "unison": ("build_ss_ws", "is_wu", "is_wu0", "lift"),
    "causality": ("build_event_graph", "EventGraph.ancestors",
                  "cut_for_level", "is_coherent", "check_wavelet"),
    "infimum": ("make_infimum", "attach_infimum", "verify_ball_infimum"),
    "layerclock": ("build_ss_dc", "stabilization_indices",
                   "verify_delay_agreement"),
    "lra": ("make_lra_plugin", "greedy_distance_coloring",
            "lra_monitor_start", "extract_cs_records", "monitor_safety",
            "monitor_liveness", "metrics"),
    "cli": ("scenario_from", "expand_grid", "make_topology",
            "build_protocol", "make_init", "run_scenario",
            "ss_ws_stabilization_index", "check_wavelet_levels", "analyze",
            "write_trace", "read_trace", "main"),
}


class Tracer:
    """Spans and counters of one process.

    A span is [name, start, end, parent, guards_at_start, guards_at_end];
    its id is its index in `spans`, and parent is an id or None.  `guards`
    counts evaluations of the guards of protocols built through
    `cli.build_protocol`.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.guards = 0

    def reset(self) -> None:
        self.spans.clear()
        self.stack.clear()
        self.counts.clear()
        self.guards = 0

    def add(self, key: str, n: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def span(self, name: str, fn, after=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, clock(), None, stack[-1] if stack else None,
                   self.guards, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                rec[5] = self.guards
                stack.pop()
            if after is not None:
                result = after(self, result, args)
            return result

        return functools.update_wrapper(traced, fn)

    def counter(self, key: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        return functools.update_wrapper(counted, fn)


# ---------------------------------------------------------------------------
# Counters taken from results


def _count_guards(tracer: Tracer, proto, _args):
    """Wrap each action guard of a freshly built protocol with a counter."""

    def wrap(guard):
        def counted(view):
            tracer.guards += 1
            return guard(view)
        return counted

    actions = tuple(dataclasses.replace(a, guard=wrap(a.guard))
                    for a in proto.actions)
    return dataclasses.replace(proto, actions=actions)


def _adder(key: str, measure):
    def after(tracer: Tracer, result, args):
        tracer.add(key, measure(result, args))
        return result
    return after


AFTER = {
    "kernel.run": _adder("kernel.steps", lambda r, a: len(r.records)),
    "causality.build_event_graph": _adder(
        "causality.events",
        lambda r, a: sum(len(ts) for ts in r.events_by_process.values())),
    "causality.EventGraph.ancestors": _adder(
        "causality.ancestor_visits", lambda r, a: len(r)),
    "infimum.verify_ball_infimum": _adder(
        "infimum.phases", lambda r, a: r.phases_checked),
    "layerclock.verify_delay_agreement": _adder(
        "layerclock.delay_pairs", lambda r, a: r.pairs_checked),
    "lra.extract_cs_records": _adder("lra.cs_records", lambda r, a: len(r)),
    "cli.write_trace": _adder("cli.trace_bytes",
                              lambda r, a: os.path.getsize(a[0])),
    "cli.build_protocol": _count_guards,
}


# ---------------------------------------------------------------------------
# Installing and removing the wrappers


def _patch(patches: list, owner, attr: str, wrapper) -> None:
    patches.append((owner, attr, getattr(owner, attr)))
    setattr(owner, attr, wrapper)


def _rebind(original, wrapper, patches: list) -> None:
    """Point every rhosync module binding of `original` at `wrapper`."""
    for modname, module in list(sys.modules.items()):
        if modname != "rhosync" and not modname.startswith("rhosync."):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                _patch(patches, module, key, wrapper)


def install(tracer: Tracer, span_dir: str) -> list:
    """Wrap the layer functions; returns the patch list for `uninstall`.

    A traced name missing from the program raises AttributeError: its
    metrics would otherwise read 0, which looks like a saving.  Sweep pool
    workers write their spans under `span_dir`.
    """
    patches: list = []
    for layer, names in SPANNED.items():
        module = sys.modules[f"rhosync.{layer}"]
        for dotted in names:
            *path, attr = dotted.split(".")
            owner = functools.reduce(getattr, path, module)
            original = getattr(owner, attr)
            name = f"{layer}.{dotted}"
            wrapper = tracer.span(name, original, AFTER.get(name))
            if owner is module:
                _rebind(original, wrapper, patches)
            else:
                _patch(patches, owner, attr, wrapper)
    cli = sys.modules["rhosync.cli"]
    # `step` gets a span only where rhosync.cli binds it: there it is the
    # replay in `read_trace`.  Inside `kernel.run` a span per step would
    # double the trace and feed no metric.
    _patch(patches, cli, "step", tracer.span("kernel.step", cli.step))
    # Counted, not spanned: called thousands of times per analysis.
    lifted = sys.modules["rhosync.unison"].LiftedTrace
    _patch(patches, lifted, "level_time",
           tracer.counter("unison.level_time_calls", lifted.level_time))
    _WORKER.update(tracer=tracer, original=cli._sweep_cell, dir=span_dir,
                   pid=os.getpid())
    _patch(patches, cli, "_sweep_cell", sweep_cell)
    return patches


def uninstall(patches: list) -> None:
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# Sweep pool workers
#
# `cli.main(["sweep", ...])` maps `cli._sweep_cell` over a process pool.
# Workers are forked while the wrappers are installed, so they inherit them
# and the tracer.  `sweep_cell` replaces `_sweep_cell` (pool workers find it
# by module and name when unpickling): it records the cell's spans in the
# worker and appends them to a per-worker file the parent merges afterwards.

_WORKER: dict = {}


def sweep_cell(scn):
    tracer: Tracer = _WORKER["tracer"]
    if _WORKER["pid"] != os.getpid():
        # First cell in a freshly forked worker: the inherited span stack
        # top is the parent's open sweep span.
        _WORKER["root"] = tracer.stack[-1] if tracer.stack else None
        _WORKER["pid"] = os.getpid()
    tracer.reset()
    row = tracer.span("cli._sweep_cell", _WORKER["original"])(scn)
    line = {"root": _WORKER["root"], "spans": tracer.spans,
            "counts": tracer.counts}
    path = os.path.join(_WORKER["dir"], f"{os.getpid()}.jsonl")
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(line) + "\n")
    tracer.reset()
    return row


def collect_sweep_spans(span_dir: str) -> tuple[list[list], dict]:
    """Sweep cells' spans as [worker pid, root span id, spans] groups, and
    their counters summed."""
    groups: list[list] = []
    counts: dict[str, int] = {}
    for name in sorted(os.listdir(span_dir)):
        with open(os.path.join(span_dir, name), encoding="utf-8") as fh:
            for line in fh:
                cell = json.loads(line)
                groups.append([name.split(".")[0], cell["root"],
                               cell["spans"]])
                for key, n in cell["counts"].items():
                    counts[key] = counts.get(key, 0) + n
    return groups, counts


# ---------------------------------------------------------------------------
# Per-layer metrics from spans


def _self_times(spans: list[list], remote: dict | None = None) -> list[float]:
    """Span duration minus the time its children cover.

    `remote` maps a span id to the intervals of its children in other
    processes (sweep cells); those run in parallel, so their union counts.
    """
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[3] is not None:
            child[rec[3]] += rec[2] - rec[1]
    for i, intervals in (remote or {}).items():
        end = float("-inf")
        for lo, hi in sorted(intervals):
            lo = max(lo, end)
            if hi > lo:
                child[i] += hi - lo
                end = hi
    return [rec[2] - rec[1] - child[i] for i, rec in enumerate(spans)]


def layer_metrics(main_spans: list[list], worker_groups: list[list],
                  counts: dict, wall: float) -> dict[str, float]:
    """Per-layer metrics of one traced iteration.

    `main_spans` are the benchmark process's spans; `worker_groups` hold
    the spans of each sweep cell run in a pool worker.  Times sum over all
    processes.  `wall` is the wall time of the timed regions.
    """
    remote: dict[int, list] = {}
    for _pid, root, spans in worker_groups:
        if root is not None:
            remote.setdefault(root, []).extend(
                (rec[1], rec[2]) for rec in spans if rec[3] is None)
    groups = [main_spans] + [spans for _pid, _root, spans in worker_groups]
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    self_s = {layer: 0.0 for layer in LAYERS}
    replay_s, replay_n, run_guards, scan_s = 0.0, 0, 0, 0.0
    cells: list[float] = []
    scan = ("unison.is_wu", "unison.is_wu0")
    # Root spans are the rhosync.cli entry points the timed regions call, so
    # they cover the wall time by construction.  Coverage counts only the
    # part of them that spans below account for.
    below = 0.0
    for spans in groups:
        owns = _self_times(spans, remote if spans is main_spans else None)
        if spans is main_spans:
            below = sum(rec[2] - rec[1] - own for rec, own in zip(spans, owns)
                        if rec[3] is None)
        for rec, own in zip(spans, owns):
            name, start, end, parent = rec[:4]
            dur = end - start
            self_s[name.split(".", 1)[0]] += own
            calls[name] = calls.get(name, 0) + 1
            above = spans[parent][0] if parent is not None else None
            if above != name:
                total[name] = total.get(name, 0.0) + dur
            if name in scan and above not in scan:
                scan_s += dur
            if name == "kernel.run":
                run_guards += rec[5] - rec[4]
            elif name == "kernel.step":
                replay_s += dur
                replay_n += 1
            elif name == "cli._sweep_cell":
                cells.append(dur)
    run_s = total.get("kernel.run", 0.0)
    steps = counts.get("kernel.steps", 0)
    out = {
        "kernel.run_s": run_s,
        "kernel.steps": steps,
        "kernel.steps_per_s": steps / run_s if run_s else 0.0,
        "kernel.guard_evals": run_guards,
        "kernel.guard_evals_per_step": run_guards / steps if steps else 0.0,
        "kernel.replay_step_s": replay_s,
        "kernel.replay_steps": replay_n,
        "kernel.suffix_s": total.get("kernel.Trace.suffix", 0.0),
        "kernel.round_count_s": total.get("kernel.round_count", 0.0),
        "unison.lift_s": total.get("unison.lift", 0.0),
        "unison.lift_calls": calls.get("unison.lift", 0),
        "unison.level_time_calls": counts.get("unison.level_time_calls", 0),
        "unison.stab_scan_s": scan_s,
        "causality.build_event_graph_s":
            total.get("causality.build_event_graph", 0.0),
        "causality.events": counts.get("causality.events", 0),
        "causality.check_wavelet_s": total.get("causality.check_wavelet", 0.0),
        "causality.ancestors_calls":
            calls.get("causality.EventGraph.ancestors", 0),
        "causality.ancestor_visits": counts.get("causality.ancestor_visits", 0),
        "infimum.verify_s": total.get("infimum.verify_ball_infimum", 0.0),
        "infimum.phases": counts.get("infimum.phases", 0),
        "layerclock.stab_indices_s":
            total.get("layerclock.stabilization_indices", 0.0),
        "layerclock.delay_agreement_s":
            total.get("layerclock.verify_delay_agreement", 0.0),
        "layerclock.delay_pairs": counts.get("layerclock.delay_pairs", 0),
        "lra.monitor_start_s": total.get("lra.lra_monitor_start", 0.0),
        "lra.safety_s": total.get("lra.monitor_safety", 0.0),
        "lra.liveness_s": total.get("lra.monitor_liveness", 0.0),
        "lra.metrics_s": total.get("lra.metrics", 0.0),
        "lra.cs_records": counts.get("lra.cs_records", 0),
        "topology.graph_params_s": total.get("topology.graph_params", 0.0),
        "cli.build_protocol_s": total.get("cli.build_protocol", 0.0),
        "cli.sweep_cell_s.p50": _quantile(cells, 50),
        "cli.sweep_cell_s.p90": _quantile(cells, 90),
        "cli.write_trace_s": total.get("cli.write_trace", 0.0),
        "cli.trace_bytes": counts.get("cli.trace_bytes", 0),
        "cli.read_trace_s": total.get("cli.read_trace", 0.0),
        "cli.analyze_s": total.get("cli.analyze", 0.0),
        "trace.span_coverage": below / wall if wall else 0.0,
        "trace.spans": sum(len(spans) for spans in groups),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_s[layer]
    return out


def _quantile(values: list[float], pct: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100)[pct - 1]


def write_spans(path: str, main_spans: list[list],
                worker_groups: list[list]) -> None:
    """One JSON object per span: id, parent, name, start, end."""
    pid = os.getpid()
    with open(path, "w", encoding="utf-8") as fh:
        for i, (name, start, end, parent, *_g) in enumerate(main_spans):
            fh.write(json.dumps({
                "id": f"{pid}:{i}", "name": name, "start": start, "end": end,
                "parent": None if parent is None else f"{pid}:{parent}"}) + "\n")
        for cell, (wpid, root, spans) in enumerate(worker_groups):
            for i, (name, start, end, parent, *_g) in enumerate(spans):
                if parent is None:
                    up = None if root is None else f"{pid}:{root}"
                else:
                    up = f"{wpid}.{cell}:{parent}"
                fh.write(json.dumps({
                    "id": f"{wpid}.{cell}:{i}", "name": name, "start": start,
                    "end": end, "parent": up}) + "\n")
