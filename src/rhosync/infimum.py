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

from .kernel import RegisterSpec, Trace, View, int_range
from .topology import ball
from .unison import LiftedTrace

__all__ = [
    "InfimumOp",
    "InfimumAxiomError",
    "make_infimum",
    "attach_infimum",
    "pipeline_step",
    "verify_ball_infimum",
    "oracle_levels",
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
    own = view.get(clock)
    for q in view.neighbors:
        slot = cur if view.nget(q, clock) == own else prev
        acc = op(acc, view.nget(q, slot))
    return {prev: view.get(cur), cur: acc}


@dataclass
class InfimumVerdict:
    ok: bool
    phases_checked: int
    mismatches: list[tuple[int, int, int, str, Any, Any]]
    # entries: (phase_level, k, process, register, got, expected)


# The phases `verify_ball_infimum` checks, from the first phase level on.
PHASES = 20


def oracle_levels(lt: LiftedTrace, delta: int) -> range:
    """The levels at which `verify_ball_infimum` reads a process's state:
    those of its PHASES phases.  It reads p's state at level k in the
    configuration `lt.level_time(p, k)`."""
    first = lt.first_phase_level(delta)
    return range(first, first + PHASES * delta)


def verify_ball_infimum(lt: LiftedTrace, op: InfimumOp,
                        rho: int) -> InfimumVerdict:
    """Compare the first PHASES phases of a lifted stabilized trace against
    the brute-force oracle: at each intermediate cut, v1/v2 must equal the
    fold of the phase-start v0 snapshot over the (k-1)- and k-balls, and
    the phase-end decide payload must hold the rho-ball infimum.
    """
    if rho < 1:
        raise ValueError(f"rho must be >= 1, got {rho}")
    trace = lt.trace
    topo = trace.topo
    delta = rho + 1
    start = lt.first_phase_level(delta)
    top = lt.top_level()
    mismatches: list[tuple[int, int, int, str, Any, Any]] = []
    # balls[radius][p]: the same for every phase, so built once.
    balls = [[ball(topo, p, radius) for p in topo.nodes]
             for radius in range(rho + 1)]
    phases = 0
    k0 = start
    while k0 + delta <= top and phases < PHASES:
        # Each process climbs from below start to top: no level is skipped.
        snapshot = {p: trace.state(lt.level_time(p, k0), p)["v0"]
                    for p in topo.nodes}

        def oracle(p: int, radius: int) -> Any:
            return op.fold(snapshot[q] for q in balls[radius][p])

        for k in range(1, rho + 1):
            for p in topo.nodes:
                t = lt.level_time(p, k0 + k)
                st = trace.state(t, p)
                exp1, exp2 = oracle(p, k - 1), oracle(p, k)
                if st["v1"] != exp1:
                    mismatches.append((k0, k, p, "v1", st["v1"], exp1))
                if st["v2"] != exp2:
                    mismatches.append((k0, k, p, "v2", st["v2"], exp2))
        for p in topo.nodes:
            t = lt.level_time(p, k0 + delta)
            payload = _decide_payload(trace, p, t)
            if payload is None:
                mismatches.append((k0, delta, p, "decide", None, "payload"))
                continue
            exp1, exp2 = oracle(p, rho - 1), oracle(p, rho)
            if payload["v1"] != exp1:
                mismatches.append((k0, delta, p, "v1", payload["v1"], exp1))
            if payload["v2"] != exp2:
                mismatches.append((k0, delta, p, "v2", payload["v2"], exp2))
        phases += 1
        k0 += delta
    return InfimumVerdict(not mismatches, phases, mismatches)


def _decide_payload(trace: Trace, p: int, config_index: int):
    rec = trace.records[config_index - 1]
    for ev in rec.events:
        if ev.process == p and ev.kind == "decide":
            return ev.payload
    return None
