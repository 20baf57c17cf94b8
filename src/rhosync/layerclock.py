"""The two-layer clock: a master wave-stream clock gating a slave clock
through a pluggable condition, both built from `unison.clock_layer`.

The master period is delta*K with delta = rho+1: each master phase spans
delta ticks, leaving rho pipeline (computation) steps between consecutive
phase boundaries, so a phase-boundary election sees the full rho-ball.
The slave register advances only at phase boundaries, when the plugin's
conditions allow, which realizes a barrier synchronization at distance rho.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from .kernel import Action, ProtocolDef, RegisterSpec, Trace, View
from .topology import GraphParams
from .unison import (IncrementingSystem, LiftedTrace, SizingError,
                     check_sizing, clock_layer, is_wu, is_wu0)

__all__ = [
    "CondPlugin",
    "build_ss_dc",
    "delay_2rho",
    "verify_delay_agreement",
    "DelayAgreementVerdict",
    "stabilization_indices",
    "trivial_plugin",
]


@dataclass(frozen=True)
class CondPlugin:
    """Problem-specific behavior attached to the layer clock.

    cond gates the critical section at phase boundaries and must never read
    the master register r1; cond1 further gates the slave increment.
    initialization runs at every phase boundary (it receives the slave value
    after a possible increment); computation runs at every other master
    step.  critical_section runs when cond holds and may emit cs events.
    compat says which resource pairs may be held within distance rho at
    once (the safety monitor's relation; by default every pair).
    """

    name: str
    registers: tuple[RegisterSpec, ...] = ()
    cond: Callable[[View], bool] = lambda view: True
    cond1: Callable[[View], bool] = lambda view: True
    initialization: Callable[[View, Callable, int], dict[str, Any]] = \
        lambda view, emit, r2_after: {}
    computation: Callable[[View, Callable], dict[str, Any]] = \
        lambda view, emit: {}
    critical_section: Callable[[View, Callable], None] = lambda view, emit: None
    compat: Callable[[Any, Any], bool] = lambda a, b: True


def trivial_plugin() -> CondPlugin:
    """cond = cond1 = true: the slave ticks once per master phase everywhere."""
    return CondPlugin(
        name="trivial",
        critical_section=lambda view, emit: emit("cs", {"v": None}),
    )


def build_ss_dc(rho: int, gp: GraphParams, *, K: int, K2: int, alpha: int,
                plugin: CondPlugin) -> ProtocolDef:
    """Build the layer-clock protocol from two instances of the wave-stream
    clock layer (`unison.clock_layer`): the master r1 (period (rho+1)*K)
    gates the slave r2 (period K2).

    Actions in priority order RA2, RA1, CA2, CA1, NA.  NA is the master's
    normal step, taken only while the slave is locally correct; at a phase
    boundary it runs the plugin's critical section and slave increment when
    the slave's normal step and cond hold.

    Sizing, always enforced on the topology with parameters `gp`: both
    clocks share the tail depth alpha >= greatest-hole bound
    (`check_sizing`), delta*K > cyclomatic bound, and K2 >= max(4*rho+1,
    cyclomatic bound - 1).
    """
    period1 = check_sizing(rho, K, alpha, gp)
    delta = rho + 1
    floor = max(4 * rho + 1, gp.c_g_bound - 1)
    if K2 < floor:
        raise SizingError(f"K2={K2} violates K2 >= {floor}")
    sys1 = IncrementingSystem(alpha=alpha, period=period1)
    sys2 = IncrementingSystem(alpha=alpha, period=K2)
    ra1, ca1, normal1, _correct1 = clock_layer("r1", sys1)
    ra2, ca2, normal2, correct2 = clock_layer("r2", sys2)

    def na_guard(view: View) -> bool:
        return normal1(view) and correct2(view)

    def na_body(view: View, emit) -> dict[str, Any]:
        r1 = view.get("r1")
        updates: dict[str, Any] = {}
        if r1 % delta == delta - 1:
            if normal2(view) and plugin.cond(view):
                plugin.critical_section(view, emit)
                if plugin.cond1(view):
                    updates["r2"] = sys2.phi(view.get("r2"))
            r2_after = updates.get("r2", view.get("r2"))
            updates.update(plugin.initialization(view, emit, r2_after))
        else:
            updates.update(plugin.computation(view, emit))
        updates["r1"] = sys1.phi(r1)
        return updates

    registers = (
        RegisterSpec("r1", 0, sys1.sample, sys1.contains),
        RegisterSpec("r2", 0, sys2.sample, sys2.contains),
    ) + plugin.registers
    return ProtocolDef(
        name="ss_dc",
        actions=(ra2, ra1, ca2, ca1, Action("NA", na_guard, na_body)),
        registers=registers,
        clock_registers={"r1": sys1, "r2": sys2},
        meta={"delta": delta, "plugin": plugin},
    )


def delay_2rho(a: int, b: int, K2: int, rho: int) -> int | None:
    """Signed slave-clock delay from a to b for processes within distance
    2*rho, or None when neither residue fits the 2*rho window."""
    fwd = (b - a) % K2
    if fwd <= 2 * rho:
        return fwd
    bwd = (a - b) % K2
    if bwd <= 2 * rho:
        return -bwd
    return None


def stabilization_indices(trace: Trace) -> tuple[int | None, int | None]:
    """First configuration indices where WU1 holds and where both clock
    registers are in WU0, as `lift` requires.  WU implies WU0 only for a
    period above the cyclomatic characteristic C_G: with K2 <= C_G the slave
    can stay wound around a cycle, in WU but never in WU0."""
    proto, topo = trace.protocol, trace.topo
    sys1 = proto.clock_registers["r1"]
    sys2 = proto.clock_registers["r2"]
    first_wu1 = first_wu = None
    for i, cfg in enumerate(trace.configs):
        w1 = is_wu(cfg, topo, sys1, "r1")
        if w1 and first_wu1 is None:
            first_wu1 = i
        if w1 and is_wu0(cfg, topo, sys2, "r2") \
                and is_wu0(cfg, topo, sys1, "r1"):
            first_wu = i
            break
    return first_wu1, first_wu


@dataclass
class DelayAgreementVerdict:
    ok: bool
    pairs_checked: int
    disagreements: list[tuple[int, int, int, int | None, int]]
    # entries: (config_index, p, q, computed, true_delay)


def verify_delay_agreement(lt2: LiftedTrace, rho: int,
                           *, k2_override: int | None = None,
                           sample_every: int = 1) -> DelayAgreementVerdict:
    """Check the 2*rho-local comparison against the lifted slave delay.

    For every sampled configuration of the lifted slave register and every
    pair within distance 2*rho, delay_2rho on the r2 ring values must equal
    the intrinsic slave delay.  k2_override re-encodes the lifted values modulo
    an alternative period (the undersized negative control: the same run
    with a too-small slave ring, where the window argument breaks down).
    """
    topo = lt2.trace.topo
    k2 = k2_override if k2_override is not None else \
        lt2.trace.protocol.clock_registers[lt2.reg].period
    pairs = [(p, q) for p in topo.nodes for q in topo.nodes
             if p < q and topo.dist[p][q] <= 2 * rho]
    checked = 0
    bad: list[tuple[int, int, int, int | None, int]] = []
    for t in range(0, len(lt2.values), sample_every):
        row = lt2.values[t]
        for p, q in pairs:
            true_delay = row[q] - row[p]
            a, b = row[p] % k2, row[q] % k2
            got = delay_2rho(a, b, k2, rho)
            checked += 1
            if got != true_delay:
                bad.append((t, p, q, got, true_delay))
    return DelayAgreementVerdict(not bad, checked, bad)
