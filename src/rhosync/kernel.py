"""Guarded-action execution engine.

Configurations, atomic composite steps, daemon policies, rounds,
neutralization, and the closure monitor.

A protocol is a list of actions in priority order; when several actions of
one process are enabled in the same step, the first (highest-priority) one
fires.  All statements of a step are evaluated against the shared pre-state
and applied together (composite atomicity).
"""

from __future__ import annotations

import itertools
import random
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from .topology import Topology

__all__ = [
    "Configuration",
    "RegisterSpec",
    "int_range",
    "Action",
    "ProtocolDef",
    "View",
    "DAEMONS",
    "DaemonPolicy",
    "HookEvent",
    "TransitionRecord",
    "DroppedConfiguration",
    "DroppedEvents",
    "HeldConfigs",
    "Trace",
    "EngineFault",
    "first_enabled_map",
    "step",
    "run",
    "RoundCounter",
    "rounds",
    "round_count",
    "check_closure",
    "random_configuration",
    "uniform_configuration",
]


class EngineFault(RuntimeError):
    """A contract violation inside the engine (not a protocol outcome)."""


Configuration = tuple[dict[str, Any], ...]


@dataclass(frozen=True)
class RegisterSpec:
    """Declares one per-process register: its default, a corruption sampler
    and its domain.

    The sampler draws an arbitrary in-domain value; it is what a transient
    fault (random initial configuration) may write.  `contains` is the
    domain's membership predicate: it holds for the default and for every
    sampled value, and a configuration loaded from a file must satisfy it
    at every register.
    """

    name: str
    default: Any
    sampler: Callable[[random.Random], Any]
    contains: Callable[[Any], bool]


def int_range(lo: int, hi: int | None = None) -> Callable[[Any], bool]:
    """Membership in the ints of [lo, hi), unbounded above when `hi` is
    None.  A bool is not an int here."""
    def contains(x: Any) -> bool:
        return type(x) is int and lo <= x and (hi is None or x < hi)
    return contains


@dataclass(frozen=True)
class Action:
    """One guarded action.

    guard(view) -> bool; statement(view, emit) -> dict of register updates
    for the acting process.
    """

    label: str
    guard: Callable[["View"], bool]
    statement: Callable[["View", Callable[[str, Any], None]], dict[str, Any]]


@dataclass(frozen=True)
class ProtocolDef:
    """A named protocol: actions in priority order plus register declarations.

    clock_registers maps register name -> the incrementing system driving it
    (consumed by the unison/layerclock predicates); meta carries the phase
    modulus `delta` = rho+1 and, for `ss_dc`, the `plugin`; an `ss_ws`
    with an infimum attached carries its operator as `infimum`.
    """

    name: str
    actions: tuple[Action, ...]
    registers: tuple[RegisterSpec, ...]
    clock_registers: dict[str, Any] = field(default_factory=dict)
    meta: dict[str, Any] = field(default_factory=dict)

    def default_state(self) -> dict[str, Any]:
        return {r.name: r.default for r in self.registers}

    def sample_state(self, rng: random.Random) -> dict[str, Any]:
        return {r.name: r.sampler(rng) for r in self.registers}


class View:
    """Read access to the pre-state as seen by one process.

    `get` reads an own register; `nget` reads a neighbor's register and
    refuses any other process.  Guards must go through a View so the
    engine can enforce the locality contract.

    `memo` maps a register name to a result derived from this view (the
    clock layer's status of that register).  A memoized result stays valid
    for any configuration in which the states of `p` and of its neighbors
    are the very same objects as in `cfg`: the engine never mutates a
    state, it replaces it.
    """

    __slots__ = ("cfg", "topo", "p", "memo")

    def __init__(self, cfg: Configuration, topo: Topology, p: int):
        self.cfg = cfg
        self.topo = topo
        self.p = p
        self.memo: dict[str, Any] = {}

    @property
    def neighbors(self) -> frozenset[int]:
        return self.topo.adjacency[self.p]

    def get(self, reg: str) -> Any:
        return self.cfg[self.p][reg]

    def nget(self, q: int, reg: str) -> Any:
        if q not in self.topo.adjacency[self.p]:
            raise EngineFault(
                f"process {self.p} read register {reg!r} of non-neighbor {q}")
        return self.cfg[q][reg]


@dataclass(frozen=True, slots=True)
class HookEvent:
    """An event emitted by a protocol hook during a statement (e.g. a decide
    or critical-section entry), with an arbitrary payload snapshot."""

    process: int
    kind: str
    payload: Any


@dataclass(slots=True)
class TransitionRecord:
    """One step.  `fired` maps every selected process, in ascending order,
    to the label of the action it fired; a record's step number is its
    position in a trace.  The state the step writes lives only in the
    trace's next configuration, what a fired action read follows from the
    trace's previous one, and which processes the step neutralized follows
    from both (see `rounds`).

    A trace's records with equal `fired` maps hold one dict (see
    `Trace.append`), so a `fired` map must never be mutated.  A record
    whose events a live trace dropped (`del rec.events`) raises
    DroppedEvents where they are read."""

    fired: dict[int, str]
    events: tuple[HookEvent, ...] = ()

    def __getattr__(self, name: str):  # an attribute that is not set
        if name == "events":
            raise DroppedEvents("a live trace dropped the events of this step")
        raise AttributeError(name)


class DroppedConfiguration(LookupError):
    """A trace that keeps only some configurations was asked for another."""


class DroppedEvents(LookupError):
    """A record was asked for the events it dropped."""


class HeldConfigs(Sequence):
    """The configurations of a trace that keeps only the first and the
    last.

    Its length counts every configuration of the trace.  Reading one that
    is not kept raises DroppedConfiguration, never another value; an index
    out of range raises IndexError, as a list does.  A slice (step 1) keeps
    what this one keeps in its range, renumbered from the slice's start.
    """

    def __init__(self, first: Configuration):
        self._len = 1
        self._whole: dict[int, Configuration] = {0: first}

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, i):
        if isinstance(i, slice):
            span = range(self._len)[i]
            if span.step != 1:
                raise ValueError("HeldConfigs slices take no step")
            out = HeldConfigs.__new__(HeldConfigs)
            out._len = len(span)
            out._whole = {t - span.start: cfg for t, cfg in self._whole.items()
                          if t in span}
            return out
        t = range(self._len)[i]
        try:
            return self._whole[t]
        except KeyError:
            raise DroppedConfiguration(
                f"configuration {t} of {self._len} was not kept") from None

    def append(self, cfg: Configuration) -> None:
        """Make `cfg` the last configuration, dropping the previous last
        unless it is the first."""
        if self._len > 1:
            self._whole.pop(self._len - 1, None)
        self._whole[self._len] = cfg
        self._len += 1


@dataclass
class Trace:
    """A run: its configurations, a list or `HeldConfigs`, and one record
    per step between two of them."""

    protocol: ProtocolDef
    topo: Topology
    configs: list[Configuration]
    records: list[TransitionRecord]
    stop_reason: str = "incomplete"
    # Each distinct `fired` map appended so far, keyed by its processes
    # followed by its labels: one flat tuple, which tells maps apart because
    # processes are ints and labels strs.
    _fired_maps: dict[tuple, dict[int, str]] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def append(self, cfg: Configuration, rec: TransitionRecord) -> None:
        """Add a step: the record `rec` and the configuration it produced.

        A record whose `fired` map equals an earlier record's takes that
        very dict, so a run holds one map per distinct set of fired
        actions: the few that recur under the central daemons, and one for
        all the stabilized steps of a synchronous run.
        """
        fired = rec.fired
        rec.fired = self._fired_maps.setdefault(
            (*fired, *fired.values()), fired)
        self.configs.append(cfg)
        self.records.append(rec)

    def suffix(self, start: int) -> "Trace":
        """A trace beginning at configuration index `start`.

        The records are shared, not copied; a record's step number is its
        position in the trace that holds it.
        """
        return Trace(self.protocol, self.topo, self.configs[start:],
                     self.records[start:], stop_reason=self.stop_reason)

    def prefix(self, end: int) -> "Trace":
        """The first `end` transitions: configurations 0 to `end`."""
        return Trace(self.protocol, self.topo, self.configs[:end + 1],
                     self.records[:end])


def _first_enabled(c: Configuration, p: int, proto: ProtocolDef,
                   topo: Topology) -> tuple[Action, View] | None:
    view = View(c, topo, p)
    for a in proto.actions:
        if a.guard(view):
            return a, view
    return None


def first_enabled_map(c: Configuration, proto: ProtocolDef,
                      topo: Topology) -> dict[int, tuple[Action, View]]:
    """Each enabled process's first (highest-priority) enabled action, with
    the View its guard held on."""
    return {p: hit for p in topo.nodes
            if (hit := _first_enabled(c, p, proto, topo)) is not None}


def step(c: Configuration, selection: Iterable[int], proto: ProtocolDef,
         topo: Topology,
         first_enabled: dict[int, tuple[Action, View]] | None = None,
         ) -> tuple[Configuration, TransitionRecord]:
    """Fire the highest-priority enabled action of every selected process.

    All statements read the shared pre-state; updates apply atomically.
    Selecting a non-enabled process is an engine fault.

    `first_enabled` holds the caller's cached hits: a process's first
    enabled action in `c` and the View its guard held on (see
    `first_enabled_map`).  A cached statement runs on its held View, so
    its guard is not evaluated again; a selected process without a hit
    has its guards evaluated up to the first that holds.  A held View must
    see the very states of `c` in the process's closed neighborhood, which
    is when both the guard's verdict and the View's memo still hold;
    otherwise the cache is stale and the step raises EngineFault.  The
    step leaves the cache as it was; the scheduler, `run`, refreshes it
    over the fired neighborhood.
    """
    selection = sorted(set(selection))
    if not selection:
        raise EngineFault("empty selection")
    cached = first_enabled or {}
    fired: dict[int, str] = {}
    events: list[HookEvent] = []
    new_states = list(c)

    for p in selection:
        hit = cached.get(p)
        if hit is None:
            hit = _first_enabled(c, p, proto, topo)
            if hit is None:
                raise EngineFault(f"selected process {p} has no enabled action")
        action, view = hit
        held = view.cfg
        if held is not c and (held[p] is not c[p] or any(
                held[q] is not c[q] for q in topo.adjacency[p])):
            raise EngineFault(
                f"stale enabled map: {action.label} at {p} was enabled on "
                f"other neighborhood states")

        def emit(kind: str, payload: Any, _p: int = p) -> None:
            events.append(HookEvent(process=_p, kind=kind, payload=payload))

        updates = action.statement(view, emit)
        for reg in updates:
            if reg not in c[p]:
                raise EngineFault(f"{action.label} at {p} wrote unknown register {reg!r}")
        fired[p] = action.label
        if updates:
            new_states[p] = {**c[p], **updates}
    return tuple(new_states), TransitionRecord(fired=fired,
                                               events=tuple(events))


def _fired_neighborhood(fired: dict[int, str], topo: Topology) -> set[int]:
    ball = set(fired)
    for p in fired:
        ball |= topo.adjacency[p]
    return ball


def _refresh_enabled(first_enabled: dict[int, tuple[Action, View]],
                    c_next: Configuration, fired: dict[int, str],
                    proto: ProtocolDef, topo: Topology) -> None:
    """Update a first-enabled map in place for the configuration a step
    with these fired processes produced.

    The update is exact by the locality contract (a guard reads only its
    own and its neighbors' registers, through a View): only the closed
    neighborhood of the fired processes can change status, so only it is
    re-evaluated, stopping at the first guard that holds.
    """
    for p in _fired_neighborhood(fired, topo):
        hit = _first_enabled(c_next, p, proto, topo)
        if hit is not None:
            first_enabled[p] = hit
        else:
            first_enabled.pop(p, None)


# ---------------------------------------------------------------------------
# Daemons


DAEMONS = ("synchronous", "central", "rho_central", "distributed_random",
           "adversarial")


@dataclass(frozen=True)
class DaemonPolicy:
    """A scheduling adversary, one of DAEMONS: `scheduler` draws a
    non-empty subset of the enabled processes at each step, and `refusal`
    states the rule every such selection obeys."""

    kind: str
    seed: int = 0
    rho: int = 1
    p_select: float = 0.5

    def __post_init__(self):
        if self.kind not in DAEMONS:
            raise ValueError(f"unknown daemon kind {self.kind!r}")

    def scheduler(self, topo: Topology
                  ) -> Callable[[list[int], int], list[int]]:
        """A fresh draw over `topo`: select(enabled, step_index) picks from
        the ascending, non-empty list of enabled processes."""
        rng, kind = random.Random(self.seed), self.kind
        if kind == "synchronous":
            return lambda enabled, i: list(enabled)
        if kind == "central":
            return lambda enabled, i: [rng.choice(enabled)]
        if kind == "distributed_random":
            return lambda enabled, i: (
                [p for p in enabled if rng.random() < self.p_select]
                or [rng.choice(enabled)])
        if kind == "rho_central":
            def select(enabled: list[int], i: int) -> list[int]:
                pool, chosen = list(enabled), []
                rng.shuffle(pool)  # then greedily, pairwise beyond rho
                for p in pool:
                    if all(topo.dist[p][q] > self.rho for q in chosen):
                        chosen.append(p)
                return chosen
            return select
        last_acted = dict.fromkeys(topo.nodes, -1)

        def starve(enabled: list[int], i: int) -> list[int]:
            # adversarial (unfair): one process, never the most recent
            # actor while any other process is enabled
            victim = max(enabled, key=last_acted.__getitem__)
            others = [p for p in enabled if p != victim]
            pick = rng.choice(others) if others else victim
            last_acted[pick] = i
            return [pick]
        return starve

    def refusal(self, selection: list[int], topo: Topology,
                enabled: Callable[[], Iterable[int]]) -> str | None:
        """Why this daemon cannot make `selection` (ascending, non-empty),
        or None.  Only the synchronous rule calls `enabled()`, the enabled
        processes.  That a selected process is enabled is the step's
        check, so any selection passes the distributed_random rule."""
        kind = self.kind
        if kind in ("central", "adversarial") and len(selection) != 1:
            return (f"selects {len(selection)} processes; the {kind} daemon "
                    f"selects one")
        if kind == "rho_central":
            for p, q in itertools.combinations(selection, 2):
                if topo.dist[p][q] <= self.rho:
                    return (f"selects processes {p} and {q} at distance "
                            f"{topo.dist[p][q]}, within rho={self.rho}")
        if kind == "synchronous" and selection != (want := sorted(enabled())):
            return (f"selects {selection}; the synchronous daemon selects "
                    f"every enabled process, {want}")
        return None


# ---------------------------------------------------------------------------
# Runs


def uniform_configuration(proto: ProtocolDef, topo: Topology) -> Configuration:
    """All processes at their register defaults."""
    return tuple(proto.default_state() for _ in topo.nodes)


def random_configuration(proto: ProtocolDef, topo: Topology,
                         rng: random.Random) -> Configuration:
    """Arbitrary in-domain register values: the transient-fault adversary."""
    return tuple(proto.sample_state(rng) for _ in topo.nodes)


def run(proto: ProtocolDef, topo: Topology, daemon: DaemonPolicy,
        init: Configuration, *, max_steps: int,
        stop_predicate: Callable[[Configuration], bool] | None = None,
        trace: Trace | None = None) -> Trace:
    """Execute until quiescence, the stop predicate, or the step budget.

    Deterministic for a fixed daemon seed.  Budget exhaustion is reported
    via Trace.stop_reason == 'budget', not raised.  The steps go to
    `trace`, which must end in `init`, or else to a new Trace that keeps
    every configuration; it is returned.
    """
    if trace is None:
        trace = Trace(proto, topo, [init], [])
    select = daemon.scheduler(topo)
    cfg = init
    first = first_enabled_map(cfg, proto, topo)
    if stop_predicate is not None and stop_predicate(cfg):
        trace.stop_reason = "predicate"
        return trace
    for i in range(max_steps):
        if not first:
            trace.stop_reason = "quiescence"
            return trace
        selection = select(sorted(first), i)
        cfg, rec = step(cfg, selection, proto, topo, first)
        _refresh_enabled(first, cfg, rec.fired, proto, topo)
        trace.append(cfg, rec)
        if stop_predicate is not None and stop_predicate(cfg):
            trace.stop_reason = "predicate"
            return trace
    trace.stop_reason = "budget"
    return trace


class RoundCounter:
    """The round boundaries of a run, found as its steps arrive.

    A round starts at the configuration after the last boundary; it ends,
    at a new boundary, once every process enabled at its start has acted
    or been neutralized.  A process still pending at step j is enabled in
    configuration j, so the step neutralizes it iff it did not fire and is
    disabled in configuration j+1.  By the locality contract only the
    closed neighborhood of the fired processes can change status, so only
    the pending processes in it are evaluated.  Counting stops for good at
    a round start where no process is enabled.
    """

    def __init__(self, proto: ProtocolDef, topo: Topology):
        self.proto, self.topo = proto, topo
        self.boundaries: list[int] = []
        # The processes pending in the open round; None when none is open.
        # It stays empty after a round start where none is enabled.
        self._pending: set[int] | None = None

    def step(self, i: int, rec: TransitionRecord, cfg: Configuration,
             nxt: Configuration) -> None:
        """Take step i: `rec`, which took `cfg` to `nxt`."""
        proto, topo = self.proto, self.topo
        if self._pending is None:
            self._pending = set(first_enabled_map(cfg, proto, topo))
        pending = self._pending
        if not pending:
            return
        fired = rec.fired
        pending.difference_update(fired)
        for p in pending & _fired_neighborhood(fired, topo):
            if _first_enabled(nxt, p, proto, topo) is None:
                pending.discard(p)
        if not pending:
            self.boundaries.append(i + 1)
            self._pending = None


def rounds(t: Trace) -> list[int]:
    """Round boundary indices of a trace (see `RoundCounter`).

    Returns indices i such that configuration i ends a round: every process
    enabled at the round start has acted or been neutralized by step i.
    """
    counter = RoundCounter(t.protocol, t.topo)
    configs = t.configs
    for i, rec in enumerate(t.records):
        counter.step(i, rec, configs[i], configs[i + 1])
    return counter.boundaries


def round_count(t: Trace, upto: int | None = None) -> int:
    """Number of complete rounds in the first `upto` transitions."""
    return len(rounds(t if upto is None else t.prefix(upto)))


# ---------------------------------------------------------------------------
# Predicate monitors


@dataclass
class ClosureVerdict:
    closed: bool
    samples_checked: int
    counterexample: tuple[Configuration, tuple[int, ...], Configuration] | None = None


def check_closure(pred: Callable[[Configuration], bool],
                  proto: ProtocolDef, topo: Topology,
                  sampler: Callable[[random.Random], Configuration],
                  *, samples: int = 200, steps_per_sample: int = 5,
                  seed: int = 0) -> ClosureVerdict:
    """Randomized closure check: run each sampled pred-satisfying
    configuration for up to `steps_per_sample` steps under a
    `distributed_random` daemon, reporting the first escape from pred."""
    rng = random.Random(seed)
    escaped = lambda c: not pred(c)
    checked = 0
    for _ in range(samples):
        cfg = sampler(rng)
        if not pred(cfg):
            continue
        daemon = DaemonPolicy("distributed_random", seed=rng.getrandbits(32))
        tr = run(proto, topo, daemon, cfg, max_steps=steps_per_sample,
                 stop_predicate=escaped)
        checked += len(tr.records)
        if tr.stop_reason == "predicate":
            return ClosureVerdict(False, checked, (
                tr.configs[-2], tuple(tr.records[-1].fired), tr.configs[-1]))
    return ClosureVerdict(True, checked, None)
