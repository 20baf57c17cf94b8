"""Resource allocation: election order, colorings, privilege extraction,
and the safety / liveness / cost monitors with their negative controls."""

import dataclasses
import math
import random
from bisect import bisect_left

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rhosync import (CsRecord, auto_sizes, compat_gme, compat_lme,
                     compat_rw, delay, extract_cs_records, graph_params,
                     greedy_distance_coloring, lra_monitor_start, lra_oplus,
                     lift, make_lra_plugin, metrics, monitor_liveness,
                     monitor_safety, trivial_plugin)
from rhosync.lra import _entries, _per_pair_fairness, _rw_leq
from conftest import ADVERSARIAL, make_dc, stabilized_dc


def make_lra(topo, rho, kind, **kw):
    _, _, k2 = auto_sizes(rho, graph_params(topo))
    return make_dc(topo, rho, make_lra_plugin(kind, topo, rho, k2, **kw)), k2


INT_LEQ = lambda a, b: a <= b


def lifted_from(tr, wu):
    """The liftings of r1 and r2 over the suffix from index wu."""
    suffix = tr.suffix(wu)
    return lift(suffix, "r1"), lift(suffix, "r2")


# -- order and fold --------------------------------------------------------


def test_order_clock_dominates_value():
    # delay from x's clock to y's clock is +2: x is older, x precedes
    assert lra_oplus((0, 9), (2, 0), 9, 2, INT_LEQ) == (0, 9)
    assert lra_oplus((2, 0), (0, 9), 9, 2, INT_LEQ) == (0, 9)


def test_order_ties_break_on_value():
    assert lra_oplus((3, 1), (3, 2), 9, 2, INT_LEQ) == (3, 1)
    assert lra_oplus((3, 2), (3, 1), 9, 2, INT_LEQ) == (3, 1)
    assert lra_oplus((3, 2), (3, 2), 9, 2, INT_LEQ) == (3, 2)


def _reference_oplus(x, y, K2, rho, sigma_leq):
    """x precedes y: its clock is strictly older within the 2*rho window,
    or the clocks are equal and its value is sigma-smaller.  An
    incomparable clock pair keeps x."""
    d = delay(x[0], y[0], K2, 2 * rho)
    if d is None:
        return x
    precedes = d > 0 or (d == 0 and sigma_leq(x[1], y[1]))
    return x if precedes else y


_RW_VALUES = st.one_of(st.just(("F",)),
                       st.tuples(st.just("W"), st.integers(0, 5)))


@settings(max_examples=300, deadline=None)
@given(data=st.data(), rho=st.integers(1, 3), extra=st.integers(0, 6),
       rw=st.booleans())
def test_oplus_matches_reference_order(data, rho, extra, rw):
    # K2 above 4*rho leaves clock pairs outside both windows: incomparable
    K2 = 4 * rho + 1 + extra
    values = _RW_VALUES if rw else st.integers(0, 5)
    leq = _rw_leq if rw else INT_LEQ
    x = (data.draw(st.integers(0, K2 - 1)), data.draw(values))
    y = (data.draw(st.integers(0, K2 - 1)), data.draw(values))
    assert lra_oplus(x, y, K2, rho, leq) is _reference_oplus(x, y, K2, rho,
                                                           leq)


def test_oplus_picks_smaller_and_degrades():
    assert lra_oplus((0, 9), (2, 0), 9, 2, INT_LEQ) == (0, 9)
    assert lra_oplus((3, 2), (3, 1), 9, 2, INT_LEQ) == (3, 1)
    assert lra_oplus((0, 0), (5, 0), 11, 2, INT_LEQ) == (0, 0)


def test_rw_value_order():
    leq = _rw_leq
    free = ("F",)
    assert leq(free, free)
    assert leq(("W", 1), free) and not leq(free, ("W", 1))
    assert leq(("W", 1), ("W", 2)) and not leq(("W", 2), ("W", 1))


# -- colorings -------------------------------------------------------------


@pytest.mark.parametrize("radius", [1, 2, 4])
def test_greedy_coloring_valid(ring8, radius):
    cols = greedy_distance_coloring(ring8, radius)
    for p in ring8.nodes:
        for q in ring8.nodes:
            if p != q and ring8.dist[p][q] <= radius:
                assert cols[p] != cols[q]


def test_unknown_kind_refused(ring8):
    with pytest.raises(ValueError):
        make_lra_plugin("dining", ring8, 1, 9)


def test_plugin_carries_its_compat(ring8):
    for kind, compat in (("lme", compat_lme), ("gme", compat_gme),
                         ("rw", compat_rw)):
        assert make_lra_plugin(kind, ring8, 1, 9).compat is compat
    anything = trivial_plugin().compat
    for a, b in ((None, None), (0, 1), (("W", 1), ("W", 2)), ("x", ("R",))):
        assert anything(a, b)
    # the relations differ where the kinds differ
    assert compat_rw(("R",), ("R",)) and not compat_rw(("W", 1), ("W", 1))
    assert compat_lme(3, 3) and not compat_lme(3, 4)


# -- privilege extraction and monitors on synthetic data -------------------


def test_extract_cs_records_against_fire_times(ring8):
    proto, _ = make_lra(ring8, 1, "lme")
    tr, wu = stabilized_dc(proto, ring8, "central", seed=6, max_steps=40000)
    recs = extract_cs_records(tr)
    assert any(r.entry >= wu for r in recs)
    fires = {p: [i for i, r in enumerate(tr.records) if p in r.fired]
             for p in ring8.nodes}
    for r in recs:
        # the privilege opens at a step where the holder acted
        assert r.entry in fires[r.process]
        i = bisect_left(fires[r.process], r.entry) + 1
        expect_exit = (fires[r.process][i] if i < len(fires[r.process])
                       else len(tr.records))
        assert r.exit == expect_exit
    # on a suffix, steps are positions within the suffix
    shifted = [(r.process, r.entry + wu, r.exit + wu)
               for r in extract_cs_records(tr.suffix(wu))]
    assert shifted == [(r.process, r.entry, r.exit) for r in recs
                       if r.entry >= wu]


def test_extract_cs_records_sorted_by_entry_then_process(ring8):
    # synchronous: every process fires every step, so several processes
    # enter at the same step and the process order within a step shows
    proto = make_dc(ring8, 1, trivial_plugin())
    tr, wu = stabilized_dc(proto, ring8, "synchronous", seed=4)
    recs = extract_cs_records(tr.suffix(wu))
    keys = [(r.entry, r.process) for r in recs]
    assert keys == sorted(keys)
    per_step = {}
    for r in recs:
        per_step[r.entry] = per_step.get(r.entry, 0) + 1
    assert max(per_step.values()) >= 2


def brute_safety(recs, topo, rho, compat):
    out = set()
    for i, a in enumerate(recs):
        for b in recs[i + 1:]:
            if a.process == b.process:
                continue
            if topo.dist[a.process][b.process] > rho:
                continue
            if a.entry < b.exit and b.entry < a.exit \
                    and not compat(a.resource, b.resource):
                out.add(frozenset([(a.process, a.entry), (b.process, b.entry)]))
    return out


def test_monitor_safety_matches_brute_force(ring8):
    rng = random.Random(3)
    recs = []
    for _ in range(120):
        p = rng.randrange(8)
        e = rng.randrange(200)
        recs.append(CsRecord(process=p, resource=rng.randrange(2),
                             entry=e, exit=e + rng.randrange(1, 8)))
    viol = monitor_safety(recs, ring8, 2, lambda a, b: a == b)
    got = {frozenset([(a.process, a.entry), (b.process, b.entry)])
           for a, b in viol}
    assert got == brute_safety(recs, ring8, 2, lambda a, b: a == b)


def test_per_pair_fairness_matches_brute_force(ring8):
    rng = random.Random(9)
    recs = []
    for _ in range(150):
        p = rng.randrange(8)
        e = rng.randrange(300)
        recs.append(CsRecord(process=p, resource=0, entry=e, exit=e + 1))
    recs.sort(key=lambda r: (r.entry, r.process))
    fairness, service = _per_pair_fairness(_entries(recs, ring8.nodes))
    entries = {p: sorted(r.entry for r in recs if r.process == p)
               for p in ring8.nodes}
    bf = bs = None
    for p in ring8.nodes:
        es = entries[p]
        for a, b in zip(es, es[1:]):
            tot = 0
            for q in ring8.nodes:
                if q == p:
                    continue
                cnt = sum(1 for x in entries[q] if a < x < b)
                bf = cnt if bf is None else max(bf, cnt)
                tot += cnt
            bs = tot if bs is None else max(bs, tot)
    assert (fairness, service) == (bf, bs)


# -- end-to-end guarantees -------------------------------------------------


COMPAT = {"lme": compat_lme, "gme": compat_gme, "rw": compat_rw}


@pytest.mark.parametrize("kind", ["lme", "gme", "rw"])
@pytest.mark.parametrize("daemon", ["synchronous", "central", ADVERSARIAL])
def test_safety_after_stabilization(ring8, kind, daemon):
    proto, _ = make_lra(ring8, 2, kind)
    tr, wu = stabilized_dc(proto, ring8, daemon, seed=13, max_steps=40000)
    start = wu + lra_monitor_start(lift(tr.suffix(wu), "r1"))
    assert start < len(tr.records)
    recs = extract_cs_records(tr.suffix(start))
    assert recs, "no privileges granted after the monitor start"
    assert monitor_safety(recs, ring8, 2, COMPAT[kind]) == []


def test_break_cond_violates_safety(ring8):
    _, _, k2 = auto_sizes(2, graph_params(ring8))
    plugin = dataclasses.replace(make_lra_plugin("lme", ring8, 2, k2),
                                 cond=lambda view: True)
    proto = make_dc(ring8, 2, plugin)
    tr, wu = stabilized_dc(proto, ring8, "central", seed=13, max_steps=40000)
    start = wu + lra_monitor_start(lift(tr.suffix(wu), "r1"))
    viol = monitor_safety(extract_cs_records(tr.suffix(start)), ring8, 2,
                          compat_lme)
    assert viol


@pytest.mark.parametrize("kind", ["lme", "gme", "rw"])
def test_liveness_every_process_served(ring8, kind):
    proto, _ = make_lra(ring8, 2, kind)
    tr, wu = stabilized_dc(proto, ring8, "central", seed=21, max_steps=60000)
    start = wu + lra_monitor_start(lift(tr.suffix(wu), "r1"))
    report = monitor_liveness(extract_cs_records(tr.suffix(start)), ring8)
    assert report.min_count >= 1


def test_lifted_suffix_matches_fresh_lift(ring8):
    # LiftedTrace.suffix(i) must agree with lift(trace.suffix(i)) up to one
    # multiple of the period, and the monitors must not see the difference.
    proto, _ = make_lra(ring8, 1, "lme")
    tr, wu = stabilized_dc(proto, ring8, "central", seed=7, max_steps=6000)
    lt1, lt2 = lifted_from(tr, wu)
    suffix = tr.suffix(wu)
    n = len(suffix.records)
    shifted = False
    for i in (0, 1, lra_monitor_start(lt1), n // 3, n // 2, n - 1, n):
        sub = suffix.suffix(i)
        fresh1, fresh2 = lift(sub, "r1"), lift(sub, "r2")
        for sliced, fresh in ((lt1.suffix(i), fresh1),
                              (lt2.suffix(i), fresh2)):
            assert sliced.trace.configs == sub.configs
            steps = range(len(sub.configs))
            offsets = {a - b for t in steps
                       for a, b in zip(sliced.row(t), fresh.row(t))}
            assert len(offsets) == 1
            offset = offsets.pop()
            assert offset % proto.clock_registers[sliced.reg].period == 0
            assert sliced.base - fresh.base == offset
            shifted = shifted or offset != 0
        recs = extract_cs_records(sub)
        assert lra_monitor_start(lt1.suffix(i)) == lra_monitor_start(fresh1)
        assert metrics(lt1.suffix(i), recs) == metrics(fresh1, recs)
    assert shifted, "no suffix exercised a nonzero offset"


def test_metrics_bounds_and_comms(ring8):
    rho = 2
    proto, _ = make_lra(ring8, rho, "lme")
    tr, wu = stabilized_dc(proto, ring8, "synchronous", seed=2,
                           max_steps=40000)
    lt1, _lt2 = lifted_from(tr, wu)
    lt1 = lt1.suffix(lra_monitor_start(lt1))
    m = metrics(lt1, extract_cs_records(lt1.trace))
    assert m.cs_total > 0
    assert m.fairness_index <= math.ceil(ring8.diameter / rho)
    n = ring8.node_count
    assert m.service_time <= math.ceil(n * (n - 1) / rho)
    # synchronous: every process reads both neighbor registers every step
    assert m.comms_per_phase
    for c in m.comms_per_phase:
        assert c == 2 * (rho + 1) * ring8.edge_count


def test_metrics_on_suffix_shorter_than_a_phase_is_partial(ring8):
    proto, _ = make_lra(ring8, 1, "lme")
    tr, wu = stabilized_dc(proto, ring8, "central", seed=5, max_steps=40000)
    lt1, _lt2 = lifted_from(tr, wu)
    short = lt1.suffix(len(lt1.trace.configs) - 3)
    m = metrics(short, extract_cs_records(short.trace))
    assert m.comms_per_phase == []
