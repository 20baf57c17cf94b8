"""Exhaustive guard check: on tiny instances, `enabled` must list exactly
the actions that a reference statement of the RA/CA/NA guards allows, in
priority order, for every configuration of the clock registers."""

import itertools

import pytest

from rhosync import enabled, generate, trivial_plugin
from conftest import make_dc, make_ws


def reference_clock(sysm):
    """The guards of one clock register, stated from the definitions:
    chi = {-alpha..period-1}, tail = {-alpha..0}, ring = {0..period-1}."""
    alpha, period = sysm.alpha, sysm.period

    def in_ring(x):
        return 0 <= x < period

    def in_tail(x):
        return -alpha <= x <= 0

    def succ(x):
        return (x + 1) % period if x >= 0 else x + 1

    def correct(rp, rqs):
        # own and neighbor values in the ring, at torus distance <= 1
        return in_ring(rp) and all(
            in_ring(rq) and min((rp - rq) % period, (rq - rp) % period) <= 1
            for rq in rqs)

    def reset(rp, rqs):
        return not correct(rp, rqs) and not in_tail(rp)

    def converge(rp, rqs):
        return -alpha <= rp < 0 and all(in_tail(rq) and rp <= rq
                                        for rq in rqs)

    def normal(rp, rqs):
        return in_ring(rp) and all(rq in (rp, succ(rp)) for rq in rqs)

    domain = range(-alpha, period)
    return domain, reset, converge, normal, correct


@pytest.mark.parametrize("kind,n,count", [("path", 3, 1000),
                                          ("ring", 3, 729)])
def test_ss_ws_guards_exhaustive(kind, n, count):
    topo = generate(kind, n=n)
    proto = make_ws(topo, 1)
    domain, reset, converge, normal, _ = \
        reference_clock(proto.clock_registers["r"])
    seen = set()
    configs = 0
    for values in itertools.product(domain, repeat=n):
        configs += 1
        c = tuple({"r": v} for v in values)
        for p in topo.nodes:
            rp = values[p]
            rqs = [values[q] for q in topo.adjacency[p]]
            expect = [label for label, holds in (
                ("RA", reset(rp, rqs)),
                ("CA", converge(rp, rqs)),
                ("NA", normal(rp, rqs))) if holds]
            assert enabled(c, p, proto, topo) == expect, (values, p)
            seen.update(expect)
    assert configs == count
    assert seen == {"RA", "CA", "NA"}


def test_ss_dc_guards_exhaustive():
    topo = generate("path", n=2)
    proto = make_dc(topo, 1, trivial_plugin())
    dom1, reset1, converge1, normal1, _ = \
        reference_clock(proto.clock_registers["r1"])
    dom2, reset2, converge2, _, correct2 = \
        reference_clock(proto.clock_registers["r2"])
    states = list(itertools.product(dom1, dom2))
    seen = set()
    configs = 0
    for pair in itertools.product(states, repeat=2):
        configs += 1
        c = tuple({"r1": r1, "r2": r2} for r1, r2 in pair)
        for p in topo.nodes:
            a1, a2 = pair[p]
            r1s = [pair[q][0] for q in topo.adjacency[p]]
            r2s = [pair[q][1] for q in topo.adjacency[p]]
            expect = [label for label, holds in (
                ("RA2", reset2(a2, r2s)),
                ("RA1", reset1(a1, r1s)),
                ("CA2", converge2(a2, r2s)),
                ("CA1", converge1(a1, r1s)),
                ("NA", normal1(a1, r1s) and correct2(a2, r2s))) if holds]
            assert enabled(c, p, proto, topo) == expect, (pair, p)
            seen.update(expect)
    assert configs == 3136
    assert seen == {"RA2", "RA1", "CA2", "CA1", "NA"}
