"""Exhaustive guard check: on tiny instances, the guards that hold must be
exactly the actions that a reference statement of the RA/CA/NA guards
allows, in priority order, for every configuration of the clock
registers; and the first enabled guard, evaluated alone on a fresh View as
`step` does, must read exactly the neighbor registers that guard needs on
its own."""

import itertools
from types import SimpleNamespace

import pytest

from rhosync import generate, trivial_plugin
from conftest import enabled_labels, make_dc, make_ws, neighbor_reads


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

    def pair_ok(rp, rq):
        # a neighbor value in the ring, at torus distance <= 1
        return in_ring(rq) and min((rp - rq) % period, (rq - rp) % period) <= 1

    def correct(rp, rqs):
        return in_ring(rp) and all(pair_ok(rp, rq) for rq in rqs)

    def reset(rp, rqs):
        return not correct(rp, rqs) and not in_tail(rp)

    def converge(rp, rqs):
        return -alpha <= rp < 0 and all(in_tail(rq) and rp <= rq
                                        for rq in rqs)

    def normal(rp, rqs):
        return in_ring(rp) and all(rq in (rp, succ(rp)) for rq in rqs)

    return SimpleNamespace(domain=range(-alpha, period), reset=reset,
                           converge=converge, normal=normal,
                           correct=correct, pair_ok=pair_ok)


def reset_reads(ref, reg, rp, nbrs, value_of):
    """RA's reads: the neighbors in adjacency order, up to and including
    the first one that breaks local correctness."""
    reads = set()
    for q in nbrs:
        reads.add((q, reg))
        if not ref.pair_ok(rp, value_of(q)):
            break
    return reads


def first_guard_reads(proto, c, p, topo, label):
    action = next(a for a in proto.actions if a.label == label)
    holds, reads = neighbor_reads(action.guard, c, topo, p)
    assert holds
    return reads


@pytest.mark.parametrize("kind,n,count", [("path", 3, 1000),
                                          ("ring", 3, 729)])
def test_ss_ws_guards_exhaustive(kind, n, count):
    topo = generate(kind, n=n)
    proto = make_ws(topo, 1)
    ref = reference_clock(proto.clock_registers["r"])
    seen = set()
    partial_reset = False
    configs = 0
    for values in itertools.product(ref.domain, repeat=n):
        configs += 1
        c = tuple({"r": v} for v in values)
        for p in topo.nodes:
            rp = values[p]
            nbrs = list(topo.adjacency[p])
            rqs = [values[q] for q in nbrs]
            expect = [label for label, holds in (
                ("RA", ref.reset(rp, rqs)),
                ("CA", ref.converge(rp, rqs)),
                ("NA", ref.normal(rp, rqs))) if holds]
            assert enabled_labels(c, p, proto, topo) == expect, (values, p)
            seen.update(expect)
            if not expect:
                continue
            if expect[0] == "RA":
                want = reset_reads(ref, "r", rp, nbrs, values.__getitem__)
                partial_reset |= len(want) < len(nbrs)
            else:
                want = {(q, "r") for q in nbrs}
            assert first_guard_reads(proto, c, p, topo, expect[0]) == want, \
                (values, p)
    assert configs == count
    assert seen == {"RA", "CA", "NA"}
    # some RA stops before its last neighbor: the early stop is exercised
    assert partial_reset


def test_ss_dc_guards_exhaustive():
    topo = generate("path", n=2)
    proto = make_dc(topo, 1, trivial_plugin())
    ref1 = reference_clock(proto.clock_registers["r1"])
    ref2 = reference_clock(proto.clock_registers["r2"])
    states = list(itertools.product(ref1.domain, ref2.domain))
    seen = set()
    configs = 0
    for pair in itertools.product(states, repeat=2):
        configs += 1
        c = tuple({"r1": r1, "r2": r2} for r1, r2 in pair)
        for p in topo.nodes:
            a1, a2 = pair[p]
            nbrs = list(topo.adjacency[p])
            r1s = [pair[q][0] for q in nbrs]
            r2s = [pair[q][1] for q in nbrs]
            expect = [label for label, holds in (
                ("RA2", ref2.reset(a2, r2s)),
                ("RA1", ref1.reset(a1, r1s)),
                ("CA2", ref2.converge(a2, r2s)),
                ("CA1", ref1.converge(a1, r1s)),
                ("NA", ref1.normal(a1, r1s) and ref2.correct(a2, r2s)))
                if holds]
            assert enabled_labels(c, p, proto, topo) == expect, (pair, p)
            seen.update(expect)
            if not expect:
                continue
            label = expect[0]
            if label == "RA2":
                want = reset_reads(ref2, "r2", a2, nbrs, lambda q: pair[q][1])
            elif label == "RA1":
                want = reset_reads(ref1, "r1", a1, nbrs, lambda q: pair[q][0])
            elif label == "NA":
                want = {(q, reg) for q in nbrs for reg in ("r1", "r2")}
            else:  # CA2 or CA1: every neighbor's value of that register
                want = {(q, "r" + label[-1]) for q in nbrs}
            assert first_guard_reads(proto, c, p, topo, label) == want, \
                (pair, p)
    assert configs == 3136
    assert seen == {"RA2", "RA1", "CA2", "CA1", "NA"}
