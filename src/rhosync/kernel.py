"""Guarded-action execution engine.

Configurations, atomic composite steps, daemon policies, rounds,
neutralization, and the closure/attractor monitors.

A protocol is a list of actions in priority order; when several actions of
one process are enabled in the same step, the first (highest-priority) one
fires.  All statements of a step are evaluated against the shared pre-state
and applied together (composite atomicity).
"""

from __future__ import annotations

import random
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
    "DaemonPolicy",
    "HookEvent",
    "TransitionRecord",
    "Trace",
    "EngineFault",
    "enabled",
    "first_enabled_map",
    "step",
    "run",
    "rounds",
    "round_count",
    "check_closure",
    "check_attractor",
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
    modulus `delta` = rho+1 and, for `ss_dc`, the `plugin`.
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

    `get` reads an own register; `nget` reads a neighbor's register and,
    when tracking is on, records the (neighbor, register) access.  Guards
    must go through a View so the engine can enforce the locality contract.

    `memo` maps a register name to a result derived from this view (the
    clock layer's status of that register).  A memoized result stays valid
    for any configuration in which the states of `p` and of its neighbors
    are the very same objects as in `cfg`: the engine never mutates a
    state, it replaces it.
    """

    __slots__ = ("cfg", "topo", "p", "reads", "memo")

    def __init__(self, cfg: Configuration, topo: Topology, p: int,
                 track: bool = False):
        self.cfg = cfg
        self.topo = topo
        self.p = p
        self.reads: set[tuple[int, str]] | None = set() if track else None
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
        if self.reads is not None:
            self.reads.add((q, reg))
        return self.cfg[q][reg]


@dataclass(frozen=True)
class HookEvent:
    """An event emitted by a protocol hook during a statement (e.g. a decide
    or critical-section entry), with an arbitrary payload snapshot."""

    process: int
    kind: str
    payload: Any


@dataclass
class TransitionRecord:
    """One step.  `fired` maps every selected process, in ascending order,
    to the label of the action it fired; a record's step number is its
    position in a trace.  The state the step writes lives only in the
    trace's next configuration, and what a fired action read follows from
    the trace's previous one."""

    fired: dict[int, str]
    neutralized: tuple[int, ...]
    events: tuple[HookEvent, ...] = ()


@dataclass
class Trace:
    protocol: ProtocolDef
    topo: Topology
    configs: list[Configuration]
    records: list[TransitionRecord]
    stop_reason: str = "incomplete"

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


def enabled(c: Configuration, p: int, proto: ProtocolDef,
            topo: Topology) -> list[str]:
    """Labels of actions whose guards hold at p, in priority order."""
    view = View(c, topo, p)
    return [a.label for a in proto.actions if a.guard(view)]


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
         topo: Topology, first_enabled: dict[int, tuple[Action, View]],
         ) -> tuple[Configuration, TransitionRecord]:
    """Fire the highest-priority enabled action of every selected process.

    All statements read the shared pre-state; updates apply atomically.
    Selecting a non-enabled process is an engine fault.

    `first_enabled` maps each process enabled in `c` to its first enabled
    action and the View that action's guard held on (see
    `first_enabled_map`); the step updates it in place for the new
    configuration.  Each statement runs on its process's held View, so no
    guard of a selected process is evaluated again.  The held View must
    see the very states of `c` in the process's closed neighborhood, which
    is when both the guard's verdict and the View's memo still hold;
    otherwise the map is stale and the step raises EngineFault.

    The update is exact by the locality contract (a guard reads only its
    own and its neighbors' registers, through a View): only the closed
    neighborhood of the fired processes can change status, so only it is
    re-evaluated, stopping at the first guard that holds.  Neutralized =
    (enabled before & that neighborhood) - fired - enabled after.
    """
    selection = sorted(set(selection))
    if not selection:
        raise EngineFault("empty selection")
    fired: dict[int, str] = {}
    events: list[HookEvent] = []
    new_states = list(c)

    for p in selection:
        hit = first_enabled.get(p)
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
    c_next = tuple(new_states)

    dirty = set(fired)
    for p in fired:
        dirty |= topo.adjacency[p]
    neutralized = []
    for p in dirty:
        hit = _first_enabled(c_next, p, proto, topo)
        if hit is not None:
            first_enabled[p] = hit
        elif first_enabled.pop(p, None) is not None and p not in fired:
            neutralized.append(p)

    rec = TransitionRecord(fired=fired,
                           neutralized=tuple(sorted(neutralized)),
                           events=tuple(events))
    return c_next, rec


# ---------------------------------------------------------------------------
# Daemons


@dataclass(frozen=True)
class DaemonPolicy:
    """A scheduling adversary: picks a non-empty subset of enabled processes.

    kinds: synchronous | central | rho_central | distributed_random |
    adversarial.
    """

    kind: str
    seed: int = 0
    rho: int = 1
    p_select: float = 0.5


class _DaemonState:
    def __init__(self, policy: DaemonPolicy, topo: Topology):
        self.policy = policy
        self.topo = topo
        self.rng = random.Random(policy.seed)
        self.last_acted: dict[int, int] = {p: -1 for p in topo.nodes}

    def select(self, enabled_procs: list[int], step_index: int) -> list[int]:
        if not enabled_procs:
            raise EngineFault("daemon invoked with no enabled process")
        kind = self.policy.kind
        if kind == "synchronous":
            return list(enabled_procs)
        if kind == "central":
            return [self.rng.choice(enabled_procs)]
        if kind == "rho_central":
            pool = list(enabled_procs)
            self.rng.shuffle(pool)
            chosen: list[int] = []
            for p in pool:
                if all(self.topo.dist[p][q] > self.policy.rho for q in chosen):
                    chosen.append(p)
            return chosen
        if kind == "distributed_random":
            chosen = [p for p in enabled_procs
                      if self.rng.random() < self.policy.p_select]
            if not chosen:
                chosen = [self.rng.choice(enabled_procs)]
            return chosen
        if kind == "adversarial":
            # Greedily starve the most recently active process: never select
            # it while any other process is enabled.
            victim = max(enabled_procs, key=lambda p: self.last_acted[p])
            others = [p for p in enabled_procs if p != victim]
            pick = self.rng.choice(others) if others else victim
            self.last_acted[pick] = step_index
            return [pick]
        raise EngineFault(f"unknown daemon kind {self.policy.kind!r}")


def make_daemon(policy: DaemonPolicy, topo: Topology) -> _DaemonState:
    return _DaemonState(policy, topo)


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
        ) -> Trace:
    """Execute until quiescence, the stop predicate, or the step budget.

    Deterministic for a fixed daemon seed.  Budget exhaustion is reported
    via Trace.stop_reason == 'budget', not raised.
    """
    trace = Trace(proto, topo, [init], [])
    dstate = make_daemon(daemon, topo)
    cfg = init
    first = first_enabled_map(cfg, proto, topo)
    if stop_predicate is not None and stop_predicate(cfg):
        trace.stop_reason = "predicate"
        return trace
    for i in range(max_steps):
        if not first:
            trace.stop_reason = "quiescence"
            return trace
        selection = dstate.select(sorted(first), i)
        cfg, rec = step(cfg, selection, proto, topo, first_enabled=first)
        trace.configs.append(cfg)
        trace.records.append(rec)
        if stop_predicate is not None and stop_predicate(cfg):
            trace.stop_reason = "predicate"
            return trace
    trace.stop_reason = "budget"
    return trace


def rounds(t: Trace) -> list[int]:
    """Round boundary indices of a trace.

    Returns indices i such that configuration i ends a round: every process
    enabled at the round start has acted or been neutralized by step i.
    """
    boundaries: list[int] = []
    i = 0
    total = len(t.records)
    while i < total:
        remaining = set(first_enabled_map(t.configs[i], t.protocol, t.topo))
        if not remaining:
            break
        j = i
        while remaining and j < total:
            rec = t.records[j]
            remaining -= set(rec.fired)
            remaining -= set(rec.neutralized)
            j += 1
        if remaining:
            break  # trace ends mid-round
        boundaries.append(j)
        i = j
    return boundaries


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
    """Randomized closure check: sample pred-satisfying configurations and
    fire many one-step successors under random selections, reporting any
    escape from pred."""
    rng = random.Random(seed)
    checked = 0
    for _ in range(samples):
        cfg = sampler(rng)
        if not pred(cfg):
            continue
        first = first_enabled_map(cfg, proto, topo)
        for _ in range(steps_per_sample):
            if not first:
                break
            pool = sorted(first)
            k = rng.randrange(1, len(pool) + 1)
            selection = tuple(sorted(rng.sample(pool, k)))
            nxt, _rec = step(cfg, selection, proto, topo, first_enabled=first)
            checked += 1
            if not pred(nxt):
                return ClosureVerdict(False, checked, (cfg, selection, nxt))
            cfg = nxt
    return ClosureVerdict(True, checked, None)


@dataclass
class AttractorVerdict:
    converged: bool
    hit_indices: list[int | None]
    round_counts: list[int | None]


def check_attractor(p_pred: Callable[[Configuration], bool] | None,
                    q_pred: Callable[[Configuration], bool],
                    proto: ProtocolDef, topo: Topology,
                    daemon: DaemonPolicy,
                    sampler: Callable[[random.Random], Configuration],
                    *, runs: int = 10, budget: int = 2000,
                    seed: int = 0) -> AttractorVerdict:
    """For runs starting in p_pred, report the first index where q_pred holds
    (None on budget exhaustion) and the round count up to that index."""
    rng = random.Random(seed)
    hits: list[int | None] = []
    round_counts: list[int | None] = []
    for r in range(runs):
        init = sampler(rng)
        if p_pred is not None and not p_pred(init):
            continue
        dpol = DaemonPolicy(kind=daemon.kind, seed=daemon.seed + r,
                            rho=daemon.rho, p_select=daemon.p_select)
        tr = run(proto, topo, dpol, init, max_steps=budget,
                 stop_predicate=q_pred)
        if tr.stop_reason == "predicate" or (tr.configs and q_pred(tr.configs[-1])):
            idx = len(tr.records)
            hits.append(idx)
            round_counts.append(round_count(tr, idx))
        else:
            hits.append(None)
            round_counts.append(None)
    return AttractorVerdict(all(h is not None for h in hits), hits, round_counts)
