"""Causal DAG reconstruction from traces, cuts and coherence, and the
wavelet checker.

Events are (process, time) pairs: (p, 0) for every process, plus (p, t+1)
for every action p fires in the transition config[t] -> config[t+1].
Edges follow the two causal rules: same-process predecessor, and each
neighbor's most recent strictly earlier event.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from .kernel import Trace
from .topology import Topology, ball
from .unison import LiftedTrace

__all__ = [
    "Event",
    "EventGraph",
    "Cut",
    "build_event_graph",
    "cut_for_level",
    "is_coherent",
    "cut_leq",
    "check_wavelet",
    "WaveletVerdict",
]

Event = tuple[int, int]


@dataclass
class EventGraph:
    """The causal DAG of a trace, held as each process's sorted event
    times.  An event's predecessors are derived on demand (`preds`)."""

    topo: Topology
    events_by_process: dict[int, list[int]]  # sorted event times per process

    def has_event(self, e: Event) -> bool:
        p, t = e
        times = self.events_by_process.get(p)
        if not times:
            return False
        i = bisect_left(times, t)
        return i < len(times) and times[i] == t

    def preds(self, e: Event) -> tuple[Event, ...]:
        """The immediate causal predecessors of event e: the previous
        event of its process, then each neighbor's most recent strictly
        earlier event.  () for a time-0 event and for a non-event."""
        p, t = e
        times = self.events_by_process.get(p)
        if not times or t <= 0:
            return ()
        i = bisect_left(times, t)
        if i == len(times) or times[i] != t:
            return ()
        ps: list[Event] = [(p, times[i - 1])]
        for q in self.topo.adjacency[p]:
            qtimes = self.events_by_process[q]
            ps.append((q, qtimes[bisect_left(qtimes, t) - 1]))
        return tuple(ps)

    def ancestors(self, e: Event) -> set[Event]:
        """All events strictly or reflexively below e (includes e)."""
        seen = {e}
        stack = [e]
        while stack:
            cur = stack.pop()
            for pr in self.preds(cur):
                if pr not in seen:
                    seen.add(pr)
                    stack.append(pr)
        return seen


def build_event_graph(trace: Trace) -> EventGraph:
    """Apply the two causal rules to a completed trace: collect each
    process's event times, from which `EventGraph.preds` derives every
    edge."""
    events_by_process: dict[int, list[int]] = {p: [0] for p in trace.topo.nodes}
    for t, rec in enumerate(trace.records, start=1):
        for p in rec.fired:
            events_by_process[p].append(t)
    return EventGraph(topo=trace.topo, events_by_process=events_by_process)


Cut = dict[int, int]


def cut_for_level(lifted: LiftedTrace, k: int) -> Cut:
    """Per process, the earliest event time where the lifted register equals
    level k.  Raises if some process never reaches the level in the trace."""
    cut: Cut = {}
    topo = lifted.trace.topo
    for p in topo.nodes:
        t = lifted.level_time(p, k)
        if t is None:
            raise ValueError(
                f"process {p} never holds lifted level {k} within the trace")
        cut[p] = t
    return cut


def is_coherent(g: EventGraph, cut: Cut) -> bool:
    """A cut is coherent iff the past of every cut event stays inside the
    cut's past: (q,t') <= (p, t_p) implies t' <= t_q.

    Raises ValueError if some (p, cut[p]) is not an event.  The test is
    edge-local (no message crosses the cut backwards): every predecessor
    (q, t) of a cut event (p, cut[p]) must have t <= cut[q].  The own
    predecessor always does; by induction over the predecessors, the events
    at or before the cut are then closed under the causal order.
    """
    for p, tp in cut.items():
        if not g.has_event((p, tp)):
            raise ValueError(f"({p},{tp}) is not an event")
    for p, tp in cut.items():
        for q, t in g.preds((p, tp)):
            if t > cut[q]:
                return False
    return True


def cut_leq(c1: Cut, c2: Cut) -> bool:
    return all(c1[p] <= c2[p] for p in c1)


@dataclass
class WaveletVerdict:
    ok: bool
    decide_count: int
    violation: tuple[Event, frozenset[int]] | None = None

    def __bool__(self) -> bool:
        return self.ok


def check_wavelet(g: EventGraph, c1: Cut, c2: Cut, rho: int,
                  decides: set[Event]) -> WaveletVerdict:
    """Verify that [c1, c2] is a rho-wavelet for the given decide events.

    Requires coherent, ordered cuts.  Checks (a) at least one decide event
    lies in the segment and (b) each decide's past restricted to the segment
    covers its rho-ball.  Returns the first violating decide otherwise.

    The past of a decide d in the segment meets process q inside the
    segment iff the frontier event (q, c1[q]) is <= d.  So one walk over
    the events from min(c1) to the latest decide, in time order, gives
    each event the bitmask of frontier events below it: the OR over its
    predecessors, plus its own bit if it is a frontier event.
    """
    if not cut_leq(c1, c2):
        raise ValueError("cuts are not ordered c1 <= c2")
    if not is_coherent(g, c1) or not is_coherent(g, c2):
        raise ValueError("cuts must be coherent")
    inside = sorted(d for d in decides
                    if g.has_event(d) and c1[d[0]] <= d[1] <= c2[d[0]])
    if not inside:
        return WaveletVerdict(False, 0, None)
    lo = min(c1.values())
    hi = max(t for _, t in inside)
    window = sorted(
        (t, p) for p, times in g.events_by_process.items()
        for t in times[bisect_left(times, lo):bisect_right(times, hi)])
    masks: dict[Event, int] = {}
    for t, p in window:
        mask = 1 << p if t == c1[p] else 0
        for pr in g.preds((p, t)):
            mask |= masks.get(pr, 0)
        masks[(p, t)] = mask
    for d in inside:
        mask = masks[d]
        needed = ball(g.topo, d[0], rho)
        missing = frozenset(q for q in needed if not mask >> q & 1)
        if missing:
            return WaveletVerdict(False, len(inside), (d, missing))
    return WaveletVerdict(True, len(inside), None)
