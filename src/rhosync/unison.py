"""The incrementing clock system, the self-stabilizing wave-stream protocol,
its legitimacy predicates, delay machinery, and the integer lifting of
stabilized traces.

Clock domain: chi = {-alpha, ..., 0, ..., period-1} with successor
phi(x) = (x+1) mod period for x >= 0, x+1 otherwise.  tail = {-alpha..0} is
the convergence ramp, ring = {0..period-1} the cyclic operating range.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass
from typing import Any, Callable

from .kernel import (Action, Configuration, ProtocolDef, RegisterSpec, Trace,
                     View)
from .topology import GraphParams, Topology

__all__ = [
    "IncrementingSystem",
    "d_K",
    "ominus",
    "is_wu",
    "is_wu0",
    "intrinsic_delays",
    "build_ss_ws",
    "LiftedTrace",
    "lift",
    "SizingError",
    "LiftError",
]


class SizingError(ValueError):
    """A clock parameter constraint does not hold."""


class LiftError(RuntimeError):
    """A clock register changed by other than one increment after WU0.

    WU0 is closed, so this is a fault of the trace or of the protocol, not
    a trace that is merely unliftable: it is deliberately not a ValueError.
    """


@dataclass(frozen=True)
class IncrementingSystem:
    """Finite incrementing system (chi, phi) with tail depth alpha and the
    given ring period."""

    alpha: int
    period: int

    def __post_init__(self):
        if self.alpha < 0 or self.period < 1:
            raise SizingError(
                f"need alpha >= 0 and period >= 1, got alpha={self.alpha}, "
                f"period={self.period}")

    def phi(self, x: int) -> int:
        if x >= 0:
            return (x + 1) % self.period
        return x + 1

    def contains(self, x: Any) -> bool:
        """The register domain chi: an int in [-alpha, period)."""
        return type(x) is int and -self.alpha <= x < self.period

    def in_ring(self, x: int) -> bool:
        return 0 <= x < self.period

    def sample(self, rng: random.Random) -> int:
        return rng.randrange(-self.alpha, self.period)

    @property
    def reset_value(self) -> int:
        return -self.alpha


def d_K(a: int, b: int, K: int) -> int:
    """Torus distance min((a-b) mod K, (b-a) mod K) on [0, K-1]."""
    if not (0 <= a < K and 0 <= b < K):
        raise ValueError(f"values must lie in [0,{K - 1}], got {a}, {b}")
    return min((a - b) % K, (b - a) % K)


def ominus(b: int, a: int, K: int) -> int | None:
    """Signed unit difference b - a of two ring values, or None when they
    are not locally comparable (torus distance above 1)."""
    if d_K(a, b, K) > 1:
        return None
    if a == b:
        return 0
    return 1 if (b - a) % K == 1 else -1


def is_wu(c: Configuration, topo: Topology, sysm: IncrementingSystem,
          reg: str = "r") -> bool:
    """All clocks in the ring and neighboring clocks locally comparable."""
    for p in topo.nodes:
        rp = c[p][reg]
        if not sysm.in_ring(rp):
            return False
        for q in topo.adjacency[p]:
            rq = c[q][reg]
            if not sysm.in_ring(rq) or d_K(rp, rq, sysm.period) > 1:
                return False
    return True


def intrinsic_delays(c: Configuration, topo: Topology,
                     sysm: IncrementingSystem, reg: str = "r"
                     ) -> list[int] | None:
    """Delays from process 0 if the configuration is in WU0, else None.

    WU0 holds when every clock is in the ring, every edge is locally
    comparable, and the delay is path-independent: the delays along a BFS
    tree from process 0 then agree with `ominus` on every edge, so the
    delay around every fundamental cycle is zero.
    """
    period = sysm.period
    vals = [c[p][reg] for p in topo.nodes]
    if not all(0 <= v < period for v in vals):
        return None
    delays = [0] * topo.node_count
    seen = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for u in frontier:
            for v in topo.adjacency[u]:
                if v not in seen:
                    d = ominus(vals[v], vals[u], period)
                    if d is None:
                        return None
                    seen.add(v)
                    delays[v] = delays[u] + d
                    nxt.append(v)
        frontier = nxt
    for u, v in topo.edges:
        if delays[v] - delays[u] != ominus(vals[v], vals[u], period):
            return None
    return delays


def is_wu0(c: Configuration, topo: Topology, sysm: IncrementingSystem,
           reg: str = "r") -> bool:
    """WU plus an intrinsic (path-independent) delay."""
    return intrinsic_delays(c, topo, sysm, reg) is not None


# ---------------------------------------------------------------------------
# The wave-stream protocol

Hook = Callable[[View, Callable[[str, Any], None]], dict[str, Any]]


def _no_hook(view: View, emit: Callable[[str, Any], None]) -> dict[str, Any]:
    return {}


def check_sizing(rho: int, K: int, alpha: int, gp: GraphParams) -> int:
    """Check the clock sizing rules on a topology with parameters `gp` and
    return the period (rho+1)*K.

    The tail depth alpha must reach the greatest-hole bound T_G
    (convergence), and the period must exceed the cyclomatic bound C_G
    (liveness).
    """
    if rho < 1:
        raise SizingError(f"rho must be >= 1, got {rho}")
    period = (rho + 1) * K
    if alpha < gp.t_g:
        raise SizingError(f"alpha={alpha} violates alpha >= T_G bound ({gp.t_g})")
    if period <= gp.c_g_bound:
        raise SizingError(
            f"(rho+1)*K={period} violates (rho+1)*K > C_G bound ({gp.c_g_bound})")
    return period


# The status of one clock register at one process (see `clock_layer`).
_WAIT, _RESET, _CONVERGE, _CORRECT, _NORMAL = range(5)


def clock_layer(reg: str, sysm: IncrementingSystem
                ) -> tuple[Action, Action, Callable[[View], bool],
                           Callable[[View], bool]]:
    """One self-stabilizing clock on register `reg`.

    Returns (RA, CA, normal_step, locally_correct): the reset action (a
    locally incorrect value outside the tail resets to -alpha), the
    convergence action (climb the tail behind all neighbors), and the two
    guards a protocol combines into its normal action.  Labels carry the
    register suffix: RA/CA for `r`, RA1/CA1 for `r1`.

    All four guards read one status of `reg`, found by a single pass over
    the neighbors on the first guard call and kept in `View.memo`:
      ring value: locally incorrect (_RESET, or _WAIT at 0, which is also
          the tail's top), locally correct (_CORRECT) or normal (_NORMAL);
      tail value below 0: convergence-enabled (_CONVERGE) or _WAIT;
      outside chi: _RESET.
    The pass stops at the first neighbor that breaks local correctness
    (ring) or convergence (tail), where each guard stated alone would
    stop, so a tracking View records the reads of the firing guard alone.
    """
    alpha, period = sysm.alpha, sysm.period

    def classify(view: View) -> int:
        # Walks the View's own adjacency: local by construction, so the
        # reads skip `nget`'s neighbor check.
        cfg, reads = view.cfg, view.reads
        rp = cfg[view.p][reg]
        nbrs = view.topo.adjacency[view.p]
        if 0 <= rp < period:
            nxt, prv = (rp + 1) % period, (rp - 1) % period
            status = _NORMAL
            for q in nbrs:
                if reads is not None:
                    reads.add((q, reg))
                rq = cfg[q][reg]
                if rq == rp or rq == nxt:
                    continue
                if rq != prv:
                    status = _RESET if rp else _WAIT
                    break
                status = _CORRECT
        elif -alpha <= rp < 0:
            status = _CONVERGE
            for q in nbrs:
                if reads is not None:
                    reads.add((q, reg))
                if not rp <= cfg[q][reg] <= 0:
                    status = _WAIT
                    break
        else:
            status = _RESET
        view.memo[reg] = status
        return status

    def status_in(*statuses: int) -> Callable[[View], bool]:
        def guard(view: View) -> bool:
            s = view.memo.get(reg)
            return (classify(view) if s is None else s) in statuses
        return guard

    reset_init = status_in(_RESET)
    convergence_step = status_in(_CONVERGE)
    normal_step = status_in(_NORMAL)
    locally_correct = status_in(_CORRECT, _NORMAL)

    ra = Action(f"RA{reg[1:]}", reset_init,
                lambda view, emit: {reg: sysm.reset_value})
    ca = Action(f"CA{reg[1:]}", convergence_step,
                lambda view, emit: {reg: sysm.phi(view.get(reg))})
    return ra, ca, normal_step, locally_correct


def build_ss_ws(rho: int, K: int, alpha: int, gp: GraphParams,
                *, decide_hook: Hook | None = None,
                cs1_hook: Hook | None = None,
                payload_registers: tuple[RegisterSpec, ...] = ()
                ) -> ProtocolDef:
    """Build the wave-stream protocol with phase modulus delta = rho+1 and
    period delta*K.

    Three actions per process, in reset-first priority order:
      RA: locally incorrect ring value -> reset to -alpha;
      CA: climb the tail behind all neighbors;
      NA: normal step -- the decide hook when r = delta-1 mod delta,
          else the cs1 hook; then increment.

    A phase spans delta clock ticks: one boundary (decide + re-init) step
    followed by rho computation steps, so the next boundary observes the
    completed rho-stage pipeline.

    Sizing (`check_sizing`, always enforced): alpha >= greatest-hole bound
    (convergence), delta*K > cyclomatic bound (liveness) of the topology
    with parameters `gp`.
    """
    period = check_sizing(rho, K, alpha, gp)
    delta = rho + 1
    sysm = IncrementingSystem(alpha=alpha, period=period)
    cs1 = cs1_hook or _no_hook
    cs2 = decide_hook or _no_hook
    ra, ca, normal_step, _correct = clock_layer("r", sysm)

    def na_body(view: View, emit) -> dict[str, Any]:
        rp = view.get("r")
        if rp % delta == delta - 1:
            updates = cs2(view, emit)
        else:
            updates = cs1(view, emit)
        updates["r"] = sysm.phi(rp)
        return updates

    registers = ((RegisterSpec("r", 0, sysm.sample, sysm.contains),)
                 + payload_registers)
    return ProtocolDef(
        name="ss_ws",
        actions=(ra, ca, Action("NA", normal_step, na_body)),
        registers=registers,
        clock_registers={"r": sysm},
        meta={"delta": delta},
    )


# ---------------------------------------------------------------------------
# Lifting


@dataclass
class LiftedTrace:
    """Virtual integer clock registers over a trace whose first configuration
    is in WU0.  values[t][p] is the lifted register of p in configuration t;
    base is the minimal initial lifted value (bottom_0)."""

    trace: Trace
    reg: str
    base: int
    values: list[list[int]]

    def level_time(self, p: int, k: int) -> int | None:
        """Earliest configuration index at which p's lifted value is >= k
        and exactly k (None if the level is skipped or never reached).
        A lifted column never decreases, so a binary search finds it."""
        t = bisect_left(self.values, k, key=lambda row: row[p])
        if t < len(self.values) and self.values[t][p] == k:
            return t
        return None

    def first_phase_level(self, delta: int) -> int:
        """The first phase-boundary level (a multiple of delta) strictly
        above every initial lifted value: base + D + 1 rounded up.  No
        process holds it initially, so every phase from there on starts
        with initializations taken within the trace across its rho-ball."""
        first = self.base + self.trace.topo.diameter + 1
        return first + (-first) % delta

    def suffix(self, i: int) -> "LiftedTrace":
        """The lifting of trace.suffix(i), sharing this lifting's rows.

        It equals lift(trace.suffix(i)) up to one multiple of the period
        added to every value, which no level difference, `level // delta`
        against `first_phase_level`, or `value % period` can see.
        """
        values = self.values[i:]
        return LiftedTrace(trace=self.trace.suffix(i), reg=self.reg,
                           base=min(values[0]), values=values)


def lift(trace: Trace, reg: str = "r") -> LiftedTrace:
    """Lift ring clock values of a WU0-initial trace to the integers.

    The minimal process (by precedence, ties to the lowest index) anchors
    bottom_0; each concrete ring increment, read off two consecutive
    configurations, bumps the virtual register by one.  Raises ValueError
    if the first configuration is not in WU0, and LiftError on any other
    change of the register.
    """
    proto, topo = trace.protocol, trace.topo
    sysm = proto.clock_registers[reg]
    c0 = trace.configs[0]
    delays = intrinsic_delays(c0, topo, sysm, reg)
    if delays is None:
        raise ValueError("first configuration of the trace is not in WU0")
    # Anchor at a minimal process so the lifted values stay congruent to the
    # concrete ring values modulo the period.
    p_min = min(topo.nodes, key=lambda p: (delays[p], p))
    base = c0[p_min][reg]
    current = [base + delays[p] - delays[p_min] for p in topo.nodes]
    values = [list(current)]
    configs = trace.configs
    for i, rec in enumerate(trace.records):
        cfg, nxt = configs[i], configs[i + 1]
        for p in rec.fired:
            old, new = cfg[p][reg], nxt[p][reg]
            if new == old:
                continue
            if sysm.in_ring(old) and new == sysm.phi(old):
                current[p] += 1
            else:
                raise LiftError(
                    f"step {i}: process {p} changed {reg} from "
                    f"{old} to {new}, not by one increment")
        values.append(list(current))
    return LiftedTrace(trace=trace, reg=reg, base=base, values=values)
