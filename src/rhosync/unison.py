"""The incrementing clock system, the self-stabilizing wave-stream protocol,
its legitimacy predicates, delay machinery, and the integer lifting of
stabilized traces.

Clock domain: chi = {-alpha, ..., 0, ..., period-1} with successor
phi(x) = (x+1) mod period for x >= 0, x+1 otherwise.  tail = {-alpha..0} is
the convergence ramp, ring = {0..period-1} the cyclic operating range.
"""

from __future__ import annotations

import random
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from typing import Any, Callable

from .kernel import (Action, Configuration, ProtocolDef, RegisterSpec, Trace,
                     TransitionRecord, View)
from .topology import GraphParams, Topology

__all__ = [
    "IncrementingSystem",
    "delay",
    "is_wu",
    "is_wu0",
    "is_stable",
    "intrinsic_delays",
    "auto_sizes",
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


def delay(a: int, b: int, K: int, window: int) -> int | None:
    """Signed delay from ring value a to b (both in [0, K)): the forward
    distance if it is at most `window`, else minus the backward distance
    if that is, else None.  Window 1 is local comparability of neighbour
    clocks; window 2*rho the slave comparison within distance 2*rho."""
    fwd = (b - a) % K
    if fwd <= window:
        return fwd
    bwd = (a - b) % K
    return -bwd if bwd <= window else None


def is_wu(c: Configuration, topo: Topology, sysm: IncrementingSystem,
          reg: str = "r") -> bool:
    """All clocks in the ring and neighboring clocks locally comparable."""
    for p in topo.nodes:
        rp = c[p][reg]
        if not sysm.in_ring(rp):
            return False
        for q in topo.adjacency[p]:
            rq = c[q][reg]
            if not sysm.in_ring(rq) or delay(rp, rq, sysm.period, 1) is None:
                return False
    return True


def intrinsic_delays(c: Configuration, topo: Topology,
                     sysm: IncrementingSystem, reg: str = "r"
                     ) -> list[int] | None:
    """Delays from process 0 if the configuration is in WU0, else None.

    WU0 holds when every clock is in the ring, every edge is locally
    comparable, and the delay is path-independent: the delays along a BFS
    tree from process 0 then agree with `delay` on every edge, so the
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
                    d = delay(vals[u], vals[v], period, 1)
                    if d is None:
                        return None
                    seen.add(v)
                    delays[v] = delays[u] + d
                    nxt.append(v)
        frontier = nxt
    for u, v in topo.edges:
        if delays[v] - delays[u] != delay(vals[u], vals[v], period, 1):
            return None
    return delays


def is_wu0(c: Configuration, topo: Topology, sysm: IncrementingSystem,
           reg: str = "r") -> bool:
    """WU plus an intrinsic (path-independent) delay."""
    return intrinsic_delays(c, topo, sysm, reg) is not None


def is_stable(c: Configuration, proto: ProtocolDef, topo: Topology) -> bool:
    """Whether the analysis of a run starts at `c`: every clock register
    of `proto` is in WU0, as `lift` requires.  WU0 implies WU; WU implies
    WU0 only for a period above the cyclomatic characteristic C_G (with a
    slave period K2 <= C_G the slave can stay wound around a cycle, in WU
    but never in WU0)."""
    return all(is_wu0(c, topo, sysm, reg)
               for reg, sysm in proto.clock_registers.items())


# ---------------------------------------------------------------------------
# The wave-stream protocol

Hook = Callable[[View, Callable[[str, Any], None]], dict[str, Any]]


def _no_hook(view: View, emit: Callable[[str, Any], None]) -> dict[str, Any]:
    return {}


# ---------------------------------------------------------------------------
# Sizing: the one statement of the clock sizes and of their floors


def auto_sizes(rho: int, gp: GraphParams) -> tuple[int, int, int]:
    """The sizes (alpha, K, K2) that `auto` stands for on a topology with
    parameters `gp`: the tail depth T_G, the master period (rho+1)*K with
    K = C_G bound + 1, and the slave period K2 = max(4*rho + 1,
    C_G bound + 1).  They pass `check_sizing` and `check_slave_sizing`."""
    return gp.t_g, gp.c_g_bound + 1, max(4 * rho + 1, gp.c_g_bound + 1)


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


def check_slave_sizing(rho: int, K2: int, gp: GraphParams) -> None:
    """Check the slave period of the layer clock: K2 >= max(4*rho + 1,
    C_G bound - 1).  The 4*rho + 1 term lets the window-2*rho `delay`
    tell every pair within distance 2*rho apart."""
    floor = max(4 * rho + 1, gp.c_g_bound - 1)
    if K2 < floor:
        raise SizingError(f"K2={K2} violates K2 >= {floor}")


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
    stop, so it reads only the neighbors the firing guard needs.
    """
    alpha, period = sysm.alpha, sysm.period

    def classify(view: View) -> int:
        # Walks the View's own adjacency: local by construction, so the
        # reads skip `nget`'s neighbor check.
        cfg = view.cfg
        rp = cfg[view.p][reg]
        nbrs = view.topo.adjacency[view.p]
        if 0 <= rp < period:
            nxt, prv = (rp + 1) % period, (rp - 1) % period
            status = _NORMAL
            for q in nbrs:
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
                payload_registers: tuple[RegisterSpec, ...] = (),
                meta: dict[str, Any] | None = None) -> ProtocolDef:
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
    with parameters `gp`.  `meta` adds entries to the protocol's meta.
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
        meta={"delta": delta, **(meta or {})},
    )


# ---------------------------------------------------------------------------
# Lifting


@dataclass
class LiftedTrace:
    """Virtual integer clock registers over a trace whose first configuration
    is in WU0; base is the minimal initial lifted value (bottom_0).  A
    lifted register counts its clock's moves: `start[p]` is p's value in
    configuration 0, and `moves[p]` the ascending int64 `array('q')` of the
    configuration indices at which it rises by one.  `lift` builds one
    over the steps a trace holds, and `extend` adds each later step."""

    trace: Trace
    reg: str
    base: int
    start: list[int]
    moves: list[array]

    def __post_init__(self):
        self._period = self.trace.protocol.clock_registers[self.reg].period

    def value(self, t: int, p: int) -> int:
        """p's lifted register in configuration t."""
        return self.start[p] + bisect_right(self.moves[p], t)

    def row(self, t: int) -> list[int]:
        """Every process's lifted register in configuration t."""
        return [s + bisect_right(m, t) for s, m in zip(self.start, self.moves)]

    def top_level(self) -> int:
        """The highest level every process reaches within the trace."""
        return min(s + len(m) for s, m in zip(self.start, self.moves))

    def level_time(self, p: int, k: int) -> int | None:
        """Earliest configuration index at which p's lifted value is k
        (None if the level is below p's start or never reached)."""
        j = k - self.start[p]
        if 0 < j <= len(self.moves[p]):
            return self.moves[p][j - 1]
        return 0 if j == 0 else None

    def first_phase_level(self, delta: int) -> int:
        """The first phase-boundary level (a multiple of delta) strictly
        above every initial lifted value: base + D + 1 rounded up.  No
        process holds it initially, so every phase from there on starts
        with initializations taken within the trace across its rho-ball."""
        first = self.base + self.trace.topo.diameter + 1
        return first + (-first) % delta

    def suffix(self, i: int) -> "LiftedTrace":
        """The lifting of trace.suffix(i), from this lifting's columns.

        It equals lift(trace.suffix(i)) up to one multiple of the period
        added to every value, which no level difference, `level // delta`
        against `first_phase_level`, or `value % period` can see.
        """
        start = self.row(i)
        moves = [array("q", [t - i for t in m[bisect_right(m, i):]])
                 for m in self.moves]
        return LiftedTrace(self.trace.suffix(i), self.reg, min(start),
                           start, moves)

    def extend(self, i: int, rec: TransitionRecord, cfg: Configuration,
               nxt: Configuration) -> None:
        """Add step i of the trace, where `rec` took `cfg` to `nxt`: one
        move of each fired process whose register rose by one increment.
        Raises LiftError on any other change."""
        reg, moves, period = self.reg, self.moves, self._period
        for p in rec.fired:
            old, new = cfg[p][reg], nxt[p][reg]
            if new == old:
                continue
            if not 0 <= old < period or new != (old + 1) % period:
                raise LiftError(
                    f"step {i}: process {p} changed {reg} from {old} to "
                    f"{new}, not by one increment")
            moves[p].append(i + 1)


def lift(trace: Trace, reg: str = "r") -> LiftedTrace:
    """Lift ring clock values of a WU0-initial trace to the integers.

    The minimal process (by precedence, ties to the lowest index) anchors
    bottom_0; each concrete ring increment, read off two consecutive
    configurations, is one move of the virtual register
    (`LiftedTrace.extend`, which also takes later steps as they come).
    Raises ValueError if the first configuration is not in WU0, and
    LiftError on any other change of the register.
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
    start = [base + delays[p] - delays[p_min] for p in topo.nodes]
    lt = LiftedTrace(trace, reg, base, start, [array("q") for _ in topo.nodes])
    configs = trace.configs
    for i, rec in enumerate(trace.records):
        lt.extend(i, rec, configs[i], configs[i + 1])
    return lt
