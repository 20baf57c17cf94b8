"""Infimum operators and the rho-ball infimum computation layered on the
wave stream.

Each phase starts at a decide cut: v0 is (re)initialized there, and one
pipeline step per clock tick folds neighbor values so that k ticks after the
phase start v2 holds the infimum over the k-ball.  The decide hook of the
next phase boundary observes the completed rho-ball infimum before
re-initializing.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Any, Callable

from .kernel import (Configuration, RegisterSpec, TransitionRecord, View,
                     int_range)
from .topology import ball
from .unison import LiftedTrace

__all__ = [
    "InfimumOp",
    "InfimumAxiomError",
    "make_infimum",
    "attach_infimum",
    "pipeline_step",
    "verify_ball_infimum",
    "BallInfimumCheck",
    "InfimumVerdict",
]


class InfimumAxiomError(ValueError):
    """The candidate operator violates an infimum axiom."""


@dataclass(frozen=True)
class InfimumOp:
    """Associative, commutative, idempotent binary operator with a greatest
    identity element, over the domain that `contains` decides."""

    name: str
    op: Callable[[Any, Any], Any]
    identity: Any
    sample: Callable[[random.Random], Any]
    contains: Callable[[Any], bool]

    def fold(self, values) -> Any:
        acc = self.identity
        for v in values:
            acc = self.op(acc, v)
        return acc


def _check_axioms(cand: InfimumOp, *, trials: int = 200, seed: int = 7) -> None:
    rng = random.Random(seed)
    op = cand.op
    if not cand.contains(cand.identity):
        raise InfimumAxiomError(
            f"{cand.name}: identity {cand.identity!r} outside the domain")
    for _ in range(trials):
        x, y, z = cand.sample(rng), cand.sample(rng), cand.sample(rng)
        if not cand.contains(x):
            raise InfimumAxiomError(f"{cand.name}: sample {x!r} outside the "
                                    f"domain")
        if op(x, x) != x:
            raise InfimumAxiomError(f"{cand.name}: not idempotent at {x!r}")
        if op(x, y) != op(y, x):
            raise InfimumAxiomError(f"{cand.name}: not commutative at {x!r},{y!r}")
        if op(op(x, y), z) != op(x, op(y, z)):
            raise InfimumAxiomError(
                f"{cand.name}: not associative at {x!r},{y!r},{z!r}")
        if op(x, cand.identity) != x:
            raise InfimumAxiomError(f"{cand.name}: identity fails at {x!r}")


_SET_UNIVERSE = frozenset(range(8))
_INTS = int_range(-1000, 1000)
_PAIR_PART = int_range(-50, 50)
_PAIR_TOP = (math.inf, math.inf)


def make_infimum(kind: str, *,
                 custom: InfimumOp | None = None) -> InfimumOp:
    """Build a verified infimum operator.

    Kinds: min_int, max_int, set_intersection (over subsets of a small
    universe), lex_pair (componentwise-lexicographic pair minimum), or
    'custom' with a caller-supplied candidate.  Axioms are probed with
    random triples at construction; violators are refused.  Each kind's
    domain holds its identity and what its sampler draws.
    """
    if kind == "min_int":
        cand = InfimumOp("min_int", min, math.inf,
                         lambda rng: rng.randrange(-1000, 1000),
                         lambda x: x == math.inf or _INTS(x))
    elif kind == "max_int":
        cand = InfimumOp("max_int", max, -math.inf,
                         lambda rng: rng.randrange(-1000, 1000),
                         lambda x: x == -math.inf or _INTS(x))
    elif kind == "set_intersection":
        cand = InfimumOp(
            "set_intersection", lambda a, b: a & b, _SET_UNIVERSE,
            lambda rng: frozenset(x for x in _SET_UNIVERSE if rng.random() < 0.5),
            lambda x: isinstance(x, frozenset) and x <= _SET_UNIVERSE)
    elif kind == "lex_pair":
        cand = InfimumOp(
            "lex_pair", min, _PAIR_TOP,
            lambda rng: (rng.randrange(-50, 50), rng.randrange(-50, 50)),
            lambda x: x == _PAIR_TOP or (type(x) is tuple and len(x) == 2
                                         and all(map(_PAIR_PART, x))))
    elif kind == "custom":
        if custom is None:
            raise ValueError("kind 'custom' requires a candidate operator")
        cand = custom
    else:
        raise ValueError(f"unknown infimum kind {kind!r}")
    _check_axioms(cand)
    return cand


InputSource = Callable[[int, int], Any]


def attach_infimum(op: InfimumOp, input_source: InputSource) -> dict[str, Any]:
    """The rho-ball infimum computation, as `build_ss_ws` keyword arguments.

    input_source(p, phase_counter) supplies the fresh v0 each phase.
    Returns the decide hook (phase boundaries: report, then re-initialize),
    the computation hook (every other normal step), the payload registers
    and the operator as meta entry `infimum`, so
    `build_ss_ws(rho, K, alpha, gp, **attach_infimum(...))` builds the wave
    stream with the infimum attached.
    """

    def computation(view: View, emit) -> dict[str, Any]:
        return pipeline_step(view, "r", op.op,
                             op.op(op.identity, view.get("v0")), "v1", "v2")

    def initialization(view: View, emit) -> dict[str, Any]:
        # At the boundary step the pipeline has been idle since the last
        # computation: v2 is the completed rho-ball infimum of the ending
        # phase, v1 the (rho-1)-ball one.
        emit("decide", {"v1": view.get("v1"), "v2": view.get("v2")})
        phase = view.get("u") + 1
        v0 = input_source(view.p, phase)
        return {"u": phase, "v0": v0, "v1": v0, "v2": v0}

    payload = (
        RegisterSpec("v0", op.identity, op.sample, op.contains),
        RegisterSpec("v1", op.identity, op.sample, op.contains),
        RegisterSpec("v2", op.identity, op.sample, op.contains),
        RegisterSpec("u", 0, lambda rng: rng.randrange(0, 4), int_range(0)),
    )
    return {"decide_hook": initialization, "cs1_hook": computation,
            "payload_registers": payload, "meta": {"infimum": op}}


def pipeline_step(view: View, clock: str, op: Callable[[Any, Any], Any],
                  acc: Any, prev: str, cur: str) -> dict[str, Any]:
    """One pipeline stage, shared by the infimum and the LRA election: fold
    `acc` with each neighbour's `cur` slot, or its `prev` slot when that
    neighbour's `clock` is one tick ahead (it has folded this stage), then
    shift the process's own `cur` into `prev`."""
    cfg, own = view.cfg, view.cfg[view.p]  # local by the View's adjacency
    for q in view.topo.adjacency[view.p]:
        st = cfg[q]
        acc = op(acc, st[cur] if st[clock] == own[clock] else st[prev])
    return {prev: own[cur], cur: acc}


@dataclass
class InfimumVerdict:
    ok: bool
    phases_checked: int
    mismatches: list[tuple[int, int, int, str, Any, Any]]
    # entries: (phase_level, k, process, register, got, expected)


# The phases the ball-infimum check judges, from the first phase level on.
PHASES = 20


class BallInfimumCheck:
    """The rho-ball infimum check of a lifted stabilized trace, fed each
    step once the lifting holds it.

    With delta = rho + 1, phase j spans the levels k0 = start + j * delta
    to k0 + delta, from start = `lt.first_phase_level(delta)`.  When a
    process reaches a level of one of the first PHASES phases, `feed`
    keeps the one value read there: its v0 at k0 (the phase-start
    snapshot), its v1 and v2 at each inner level k0 + k, and the payload
    of its decide in the step that took it to k0 + delta.  Every process
    starts below `start`, so it reaches each of these levels by a move, in
    order: once the row of level k0 + delta is full, every process has
    passed the phase, and it is judged.  At k0 + k, v1 and v2 must be the
    fold of the snapshot over the (k-1)- and k-balls, and the decide
    payload must hold the (rho-1)- and rho-ball ones.  So only the phases
    in flight are held, as register values.
    """

    def __init__(self, lt: LiftedTrace, op: InfimumOp, rho: int):
        if rho < 1:
            raise ValueError(f"rho must be >= 1, got {rho}")
        topo = lt.trace.topo
        self._lt, self._op, self._rho, self._nodes = lt, op, rho, topo.nodes
        # balls[radius][p]: the same for every phase, so built once.
        self._balls = [[ball(topo, p, radius) for p in topo.nodes]
                       for radius in range(rho + 1)]
        self._k0 = lt.first_phase_level(rho + 1)  # the next phase to judge
        self._stop = self._k0 + PHASES * (rho + 1)  # the last level read
        # level -> each process's (v0, decide payload) at a phase boundary,
        # or its (v1, v2) at an inner level; None until it reaches the level
        self._held: dict[int, list] = {}
        self._phases = 0
        self._mismatches: list[tuple[int, int, int, str, Any, Any]] = []

    def feed(self, i: int, rec: TransitionRecord, cfg: Configuration,
             nxt: Configuration) -> None:
        """Read step i of the lifted trace, where `rec` took `cfg` to `nxt`:
        the level that each fired process whose register rose reaches;
        then judge the phase whose last row that fills."""
        if self._phases == PHASES:
            return
        lt, reg, delta = self._lt, self._lt.reg, self._rho + 1
        for p in rec.fired:
            if cfg[p][reg] == nxt[p][reg]:
                continue
            k = lt.value(i + 1, p)
            if not self._k0 <= k <= self._stop:
                continue
            st = nxt[p]
            if (k - self._k0) % delta:
                value = (st["v1"], st["v2"])
            else:
                value = (st["v0"], next(
                    (ev.payload for ev in rec.events
                     if ev.process == p and ev.kind == "decide"), None))
            row = self._held.setdefault(k, [None] * len(self._nodes))
            row[p] = value
            if k == self._k0 + delta and None not in row:
                self._judge()

    def _judge(self) -> None:
        """Judge the phase from level `_k0` and drop what only it read."""
        k0, rho, op, held = self._k0, self._rho, self._op, self._held
        snapshot = [v0 for v0, _payload in held.pop(k0)]
        # expect[radius][p]: the fold of the snapshot over p's radius-ball
        expect = [[op.fold(snapshot[q] for q in b) for b in balls]
                  for balls in self._balls]
        out = self._mismatches
        for k in range(1, rho + 1):
            for p, (v1, v2) in enumerate(held.pop(k0 + k)):
                exp1, exp2 = expect[k - 1][p], expect[k][p]
                if v1 != exp1:
                    out.append((k0, k, p, "v1", v1, exp1))
                if v2 != exp2:
                    out.append((k0, k, p, "v2", v2, exp2))
        for p, (_v0, payload) in enumerate(held[k0 + rho + 1]):
            if payload is None:
                out.append((k0, rho + 1, p, "decide", None, "payload"))
                continue
            exp1, exp2 = expect[rho - 1][p], expect[rho][p]
            if payload["v1"] != exp1:
                out.append((k0, rho + 1, p, "v1", payload["v1"], exp1))
            if payload["v2"] != exp2:
                out.append((k0, rho + 1, p, "v2", payload["v2"], exp2))
        self._phases += 1
        self._k0 += rho + 1

    def verdict(self) -> InfimumVerdict:
        """The phases judged so far and their mismatches, in phase order."""
        return InfimumVerdict(not self._mismatches, self._phases,
                              list(self._mismatches))


def verify_ball_infimum(lt: LiftedTrace, op: InfimumOp,
                        rho: int) -> InfimumVerdict:
    """Check the first PHASES phases of a lifted stabilized trace that
    holds every configuration (see `BallInfimumCheck`), against the
    brute-force fold of each phase-start v0 snapshot over the balls."""
    check = BallInfimumCheck(lt, op, rho)
    configs = lt.trace.configs
    for i, rec in enumerate(lt.trace.records):
        check.feed(i, rec, configs[i], configs[i + 1])
    return check.verdict()
