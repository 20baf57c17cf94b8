"""Local resource allocation at distance rho on top of the layer clock:
the clock-then-value election ordering, the mutual-exclusion / group /
readers-writers plugins, and the post-hoc safety, liveness, and cost
monitors.

Candidates are (slave clock value, requested value) pairs.  Each phase every
process folds the candidates over its rho-ball; the process(es) holding the
fold result win the privilege at the next phase boundary.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Any, Callable

from .kernel import RegisterSpec, Trace, View, int_range
from .layerclock import CondPlugin, delay_2rho
from .topology import Topology
from .unison import LiftedTrace

__all__ = [
    "lra_monitor_start",
    "lra_oplus",
    "greedy_distance_coloring",
    "make_lra_plugin",
    "CsRecord",
    "extract_cs_records",
    "monitor_safety",
    "monitor_liveness",
    "metrics",
    "Metrics",
    "compat_lme",
    "compat_gme",
    "compat_rw",
]


def lra_oplus(x: tuple[int, Any], y: tuple[int, Any], K2: int, rho: int,
              sigma_leq: Callable[[Any, Any], bool]) -> tuple[int, Any]:
    """The election fold: the order-smaller of two candidates.

    x precedes y when its clock is strictly older (positive 2*rho delay
    from x to y), or the clocks are equal and its value is sigma-smaller.
    An incomparable clock pair degrades to picking x (pre-stabilization
    garbage must not crash the run).
    """
    d = delay_2rho(x[0], y[0], K2, rho)
    if d is None or d > 0:
        return x
    if d < 0:
        return y
    return x if sigma_leq(x[1], y[1]) else y


def greedy_distance_coloring(topo: Topology, radius: int) -> list[int]:
    """Color nodes so that any two within `radius` hops differ."""
    colors = [-1] * topo.node_count
    for p in topo.nodes:
        used = {colors[q] for q in topo.nodes
                if q != p and topo.dist[p][q] <= radius and colors[q] >= 0}
        c = 0
        while c in used:
            c += 1
        colors[p] = c
    return colors


# Readers-writers request encoding: the free value ranks above every
# writer claim, writer claims rank by id.
_FREE = ("F",)


def _rw_encode(request: str, node_id: int):
    return ("W", node_id) if request == "W" else _FREE


def _rw_leq(v, v2) -> bool:
    if v[0] == "F":
        return v2[0] == "F"
    if v2[0] == "F":
        return True
    return v[1] <= v2[1]


def make_lra_plugin(kind: str, topo: Topology, rho: int, K2: int, *,
                    group_count: int = 3,
                    request_seed: int = 0) -> CondPlugin:
    """Build the lme / gme / rw plugin.

    lme: values are a greedy 2*rho-distance coloring.  gme: values are
    seeded random group ids under the natural total order.  rw: each
    process draws a request from {N,R,W} per phase (seeded random stream);
    values encode free/writer claims.  The plugin carries the kind's
    compatibility relation, which the safety monitor checks.
    """

    def elected(view: View) -> bool:
        return (view.get("r2"), view.get("v")) == view.get("res2")

    extra: tuple[RegisterSpec, ...] = ()
    if kind == "lme":
        cols = greedy_distance_coloring(topo, 2 * rho)
        compat = compat_lme
        sigma_leq = lambda a, b: a <= b
        draw = lambda p, phase: {"v": cols[p]}
        top = max(cols) + 1
        values = int_range(0, top)
        sampler = lambda rng: rng.randrange(0, top)
        cond = elected
        critical_section = lambda view, emit: emit("cs", {"v": view.p})
    elif kind == "gme":
        grp = [random.Random(request_seed + p).randrange(group_count)
               for p in topo.nodes]
        compat = compat_gme
        sigma_leq = lambda a, b: a <= b
        draw = lambda p, phase: {"v": grp[p]}
        top = max(max(grp), 1) + 1
        values = int_range(0, top)
        sampler = lambda rng: rng.randrange(0, top)
        # group match alone is unsafe while slave offsets persist: two
        # overlapping balls may crown different groups.  Requiring the
        # clock component too makes concurrent winners provably share a
        # group; ties on equal (clock, group) still admit the whole group.
        cond = elected
        critical_section = lambda view, emit: emit("cs", {"v": view.get("v")})
    elif kind == "rw":
        def draw(p: int, phase: int) -> dict[str, Any]:
            # string seed: stable across processes, unlike tuple hashing
            rng = random.Random(f"req:{request_seed}:{p}:{phase}")
            req = rng.choices("NRW", weights=(2, 5, 3))[0]
            return {"v": _rw_encode(req, p), "req": req}

        compat = compat_rw
        sigma_leq = _rw_leq
        sampler = lambda rng: _rw_encode(rng.choice("NRW"),
                                         rng.randrange(topo.node_count))
        ids = int_range(0, topo.node_count)
        values = lambda v: v == _FREE or (type(v) is tuple and len(v) == 2
                                          and v[0] == "W" and ids(v[1]))

        def cond(view: View) -> bool:
            # match on the elected candidate
            rw, vw = view.get("res2")
            if rw != view.get("r2"):
                return False
            if vw == _FREE:
                return True
            if view.get("req") == "N":
                return True
            return (view.get("r2"), view.get("v")) == (rw, vw)

        def critical_section(view: View, emit) -> None:
            req = view.get("req")
            if req == "R":
                emit("cs", {"v": ("R",)})
            elif req == "W":
                emit("cs", {"v": view.get("v")})
            # req == "N": no resource use; the barrier still advances

        extra = (RegisterSpec("req", "N", lambda rng: rng.choice("NRW"),
                              lambda x: x in ("N", "R", "W")),)
    else:
        raise ValueError(f"unknown lra kind {kind!r}")

    def fold(view: View) -> Any:
        own = (view.get("r2"), view.get("v"))
        acc = own
        r1 = view.get("r1")
        for q in view.neighbors:
            # Neighbors one master tick ahead already folded this stage:
            # take their previous-stage result.
            slot = "res2" if view.nget(q, "r1") == r1 else "res1"
            acc = lra_oplus(acc, view.nget(q, slot), K2, rho, sigma_leq)
        return acc

    def computation(view: View, emit) -> dict[str, Any]:
        return {"res1": view.get("res2"), "res2": fold(view)}

    def initialization(view: View, emit, r2_after: int) -> dict[str, Any]:
        phase = view.get("u") + 1
        drawn = draw(view.p, phase)
        cand = (r2_after, drawn["v"])
        return {"u": phase, "res1": cand, "res2": cand, **drawn}

    def cond1(view: View) -> bool:
        return view.get("r2") == view.get("res2")[0]

    # A candidate pairs a slave clock with a value; NA draws and folds
    # candidates only while the slave is locally correct, on its ring.
    slave = int_range(0, K2)
    candidates = lambda x: (type(x) is tuple and len(x) == 2
                            and slave(x[0]) and values(x[1]))
    v0 = draw(0, 0)["v"]
    regs = (
        RegisterSpec("v", v0, sampler, values),
        RegisterSpec("res1", (0, v0),
                     lambda rng: (rng.randrange(K2), sampler(rng)), candidates),
        RegisterSpec("res2", (0, v0),
                     lambda rng: (rng.randrange(K2), sampler(rng)), candidates),
        RegisterSpec("u", 0, lambda rng: rng.randrange(0, 4), int_range(0)),
    ) + extra
    return CondPlugin(
        name=kind,
        registers=regs,
        cond=cond,
        cond1=cond1,
        initialization=initialization,
        computation=computation,
        critical_section=critical_section,
        compat=compat,
    )


# ---------------------------------------------------------------------------
# Monitors


def lra_monitor_start(lt1: LiftedTrace) -> int:
    """First position in the lifted master register `lt1` (a stabilized
    trace) whose election outcomes derive entirely from post-stabilization
    initializations.

    Right after the clocks stabilize, res registers still hold arbitrary
    pre-stabilization values; guarantees apply once every process has begun
    a phase whose whole rho-ball initialized after stabilization, plus one
    full phase for the pipeline to recompute.
    """
    delta = lt1.trace.protocol.meta["delta"]
    target = lt1.first_phase_level(delta) + delta
    for t, row in enumerate(lt1.values):
        if min(row) >= target:
            return t
    return len(lt1.trace.records)


@dataclass(frozen=True)
class CsRecord:
    process: int
    resource: Any
    entry: int
    exit: int  # step index of the process's next action (half-open interval)


def extract_cs_records(trace: Trace) -> list[CsRecord]:
    """Critical-section intervals from the cs events of a trace, sorted by
    (entry, process).

    A privilege lasts from its entry step until the holder's next action
    (or the end of the trace).  Steps are record positions in `trace`.
    """
    fires: dict[int, list[int]] = {p: [] for p in trace.topo.nodes}
    for step, rec in enumerate(trace.records):
        for p in rec.fired:
            fires[p].append(step)
    records: list[CsRecord] = []
    end = len(trace.records)
    for step, rec in enumerate(trace.records):
        for ev in rec.events:
            if ev.kind != "cs":
                continue
            p = ev.process
            i = bisect_right(fires[p], step)
            records.append(CsRecord(
                process=p, resource=ev.payload.get("v"),
                entry=step, exit=fires[p][i] if i < len(fires[p]) else end))
    return records


def compat_lme(a: Any, b: Any) -> bool:
    return a == b


compat_gme = compat_lme


def compat_rw(a: Any, b: Any) -> bool:
    return a == ("R",) and b == ("R",)


def monitor_safety(records: list[CsRecord], topo: Topology, rho: int,
                   compat: Callable[[Any, Any], bool],
                   ) -> list[tuple[CsRecord, CsRecord]]:
    """Pairs of overlapping privileges within distance rho holding
    incompatible resources (empty means safe).

    Interval sweep over entry-sorted records; the active set stays small
    (at most one open privilege per process), so the scan is near-linear.
    """
    violations = []
    active: list[CsRecord] = []
    for b in sorted(records, key=lambda r: (r.entry, r.process)):
        active = [a for a in active if a.exit > b.entry]
        for a in active:
            if a.process == b.process:
                continue
            if topo.dist[a.process][b.process] > rho:
                continue
            if not compat(a.resource, b.resource):
                violations.append((a, b))
        active.append(b)
    return violations


def _entries(records: list[CsRecord], nodes) -> dict[int, list[int]]:
    """Each process's entry steps, in record order (ascending for records
    sorted by entry)."""
    entries: dict[int, list[int]] = {p: [] for p in nodes}
    for r in records:
        entries[r.process].append(r.entry)
    return entries


@dataclass
class LivenessReport:
    cs_counts: dict[int, int]
    max_gap: int
    potentials: list[list[int]]  # sampled Pot_p trajectories
    potential_bound: int

    @property
    def min_count(self) -> int:
        return min(self.cs_counts.values())


def monitor_liveness(lt2: LiftedTrace,
                     records: list[CsRecord]) -> LivenessReport:
    """Per-process privilege counts plus the slave-delay potential
    trajectory witnessing no-starvation (bounded by n*D), sampled at every
    tenth configuration, over the trace of the lifted slave register `lt2`
    and its privileges `records`."""
    topo = lt2.trace.topo
    entries = _entries(records, topo.nodes)
    max_gap = 0
    for es in entries.values():
        for a, b in zip(es, es[1:]):
            max_gap = max(max_gap, b - a)
    # sum(row[q] - row[p] for q) in O(n) per row
    n = topo.node_count
    potentials = []
    for row in lt2.values[::10]:
        tot = sum(row)
        potentials.append([tot - n * row[p] for p in topo.nodes])
    return LivenessReport(
        cs_counts={p: len(es) for p, es in entries.items()}, max_gap=max_gap,
        potentials=potentials, potential_bound=n * topo.diameter)


@dataclass
class Metrics:
    fairness_index: int | None
    service_time: int | None
    comms_per_phase: list[int]
    cs_total: int
    partial: bool = False


def _per_pair_fairness(entries: dict[int, list[int]]
                       ) -> tuple[int | None, int | None]:
    fairness = None
    service = None
    for p, es in entries.items():
        for a, b in zip(es, es[1:]):
            others_total = 0
            for q, eq in entries.items():
                if q == p:
                    continue
                cnt = bisect_left(eq, b) - bisect_right(eq, a)
                fairness = cnt if fairness is None else max(fairness, cnt)
                others_total += cnt
            service = others_total if service is None else max(service, others_total)
    return fairness, service


def metrics(lt1: LiftedTrace, records: list[CsRecord]) -> Metrics:
    """Fairness index, service time and per-phase communication counts over
    the trace of the lifted master register `lt1` and its privileges
    `records`."""
    fairness, service = _per_pair_fairness(
        _entries(records, lt1.trace.topo.nodes))
    comms = _comms_per_phase(lt1)
    return Metrics(
        fairness_index=fairness, service_time=service,
        comms_per_phase=comms, cs_total=len(records),
        partial=fairness is None or len(comms) == 0)


def _comms_per_phase(lt1: LiftedTrace) -> list[int]:
    """Distinct neighbors read per complete master phase.

    Each fired action's reads are attributed to its actor's own master
    phase; a phase total is reported once every process has completed that
    phase.  The reads are derived, not recorded: the action runs again on a
    tracking View of its step's pre-state, which gives the reads of the
    original firing because actions are deterministic.  Only steps of a
    reported phase are re-run, and the statement only while the guard has
    read fewer than all neighbors (reads reach neighbors only, so it could
    add none).
    """
    trace = lt1.trace
    topo = trace.topo
    delta = trace.protocol.meta["delta"]
    first = lt1.first_phase_level(delta) // delta
    counts = [0] * max(min(lt1.values[-1]) // delta - first, 0)
    actions = {a.label: a for a in trace.protocol.actions}
    for row, rec, cfg in zip(lt1.values, trace.records, trace.configs):
        for p, label in rec.fired.items():
            i = row[p] // delta - first  # row[p]: lifted value before the step
            if not 0 <= i < len(counts):
                continue
            view = View(cfg, topo, p, track=True)
            action = actions[label]
            action.guard(view)
            read = {q for q, _ in view.reads}
            if len(read) < len(topo.adjacency[p]):
                action.statement(view, lambda kind, payload: None)
                read = {q for q, _ in view.reads}
            counts[i] += len(read)
    return counts
