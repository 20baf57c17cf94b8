"""Infimum operators and the rho-ball aggregation pipeline."""

import dataclasses
import math
import random
from functools import reduce

import pytest

from rhosync import (DaemonPolicy, InfimumAxiomError, InfimumOp, Trace, View,
                     attach_infimum, ball, generate, int_range, lift,
                     make_infimum, pipeline_step, run, uniform_configuration,
                     verify_ball_infimum)
from conftest import ADVERSARIAL, make_ws, stabilized_suffix


def input_source(seed):
    def src(p, phase):
        return random.Random(f"ti:{seed}:{p}:{phase}").randrange(-999, 999)
    return src


def pair_source(seed):
    def src(p, phase):
        rng = random.Random(f"tp:{seed}:{p}:{phase}")
        return (rng.randrange(-40, 40), rng.randrange(-40, 40))
    return src


def set_source(seed):
    def src(p, phase):
        rng = random.Random(f"ts:{seed}:{p}:{phase}")
        return frozenset(x for x in range(8) if rng.random() < 0.6)
    return src


SOURCES = {"min_int": input_source, "max_int": input_source,
           "lex_pair": pair_source, "set_intersection": set_source}


# -- operators -------------------------------------------------------------


@pytest.mark.parametrize("kind,identity", [
    ("min_int", math.inf), ("max_int", -math.inf),
    ("set_intersection", frozenset(range(8))),
    ("lex_pair", (math.inf, math.inf)),
])
def test_builtin_operators(kind, identity):
    op = make_infimum(kind)
    assert op.identity == identity
    rng = random.Random(0)
    xs = [op.sample(rng) for _ in range(10)]
    assert op.fold(xs) == reduce(op.op, xs, op.identity)
    assert op.fold([]) == identity


def test_unknown_kind_and_missing_custom():
    with pytest.raises(ValueError):
        make_infimum("median")
    with pytest.raises(ValueError):
        make_infimum("custom")


def test_axiom_violations_refused():
    naturals = int_range(0)
    sub = InfimumOp("sub", lambda a, b: a - b, 0,
                    lambda rng: rng.randrange(10), naturals)
    with pytest.raises(InfimumAxiomError):
        make_infimum("custom", custom=sub)
    add = InfimumOp("add", lambda a, b: a + b, 0,
                    lambda rng: rng.randrange(1, 10), naturals)  # not idempotent
    with pytest.raises(InfimumAxiomError):
        make_infimum("custom", custom=add)
    # gcd is a genuine infimum (divisibility order)
    gcd = InfimumOp("gcd", math.gcd, 0, lambda rng: rng.randrange(1, 600),
                    naturals)
    assert make_infimum("custom", custom=gcd).name == "gcd"
    # ... but not over a domain that misses its identity or its samples
    for domain in (int_range(1), int_range(0, 10)):
        with pytest.raises(InfimumAxiomError, match="outside the domain"):
            make_infimum("custom", custom=dataclasses.replace(
                gcd, contains=domain))


# -- pipeline exactness ----------------------------------------------------


@pytest.mark.parametrize("daemon", ["synchronous", "central",
                                    "distributed_random", ADVERSARIAL])
@pytest.mark.parametrize("kind", ["min_int", "set_intersection"])
def test_pipeline_exact_on_ring(ring8, daemon, kind):
    op = make_infimum(kind)
    rho = 2
    proto = make_ws(ring8, rho, **attach_infimum(op, SOURCES[kind](7)))
    suffix, _ = stabilized_suffix(proto, ring8, daemon, seed=8,
                                  max_steps=12000)
    verdict = verify_ball_infimum(lift(suffix), op, rho)
    assert verdict.ok, verdict.mismatches[:5]
    assert verdict.phases_checked >= 4


def test_pipeline_exact_wave_case():
    topo = generate("path", n=5)
    rho = 4  # >= D: each decide sees the whole graph
    op = make_infimum("min_int")
    proto = make_ws(topo, rho, **attach_infimum(op, input_source(2)))
    suffix, _ = stabilized_suffix(proto, topo, "central", seed=3,
                                  max_steps=15000)
    verdict = verify_ball_infimum(lift(suffix), op, rho)
    assert verdict.ok and verdict.phases_checked >= 3


def test_verifier_catches_tampering(ring8):
    op = make_infimum("min_int")
    rho = 1
    proto = make_ws(ring8, rho, **attach_infimum(op, input_source(4)))
    suffix, _ = stabilized_suffix(proto, ring8, "synchronous", seed=5,
                                  max_steps=2000)
    lt = lift(suffix)
    verdict = verify_ball_infimum(lt, op, rho)
    assert verdict.ok
    # corrupt process 3's v2 at a mid-phase level the verifier samples
    delta = rho + 1
    first = lt.base + ring8.diameter + 1
    start = first + (-first) % delta
    t = lt.level_time(3, start + 1)
    tampered = [list(c) for c in suffix.configs]
    st = dict(tampered[t][3])
    st["v2"] = st["v2"] - 1
    tampered[t][3] = st
    bad = Trace(suffix.protocol, suffix.topo,
                [tuple(c) for c in tampered], suffix.records,
                stop_reason=suffix.stop_reason)
    assert not verify_ball_infimum(lift(bad), op, rho).ok


def test_degenerate_radius_refused(ring8):
    # every builder refuses rho < 1, so no trace has a radius-0 pipeline
    op = make_infimum("min_int")
    proto = make_ws(ring8, 1, **attach_infimum(op, input_source(6)))
    good = Trace(proto, ring8,
                 [tuple({"r": 0, "v0": 5, "v1": 5, "v2": 5, "u": 0}
                        for _ in ring8.nodes)], [])
    with pytest.raises(ValueError):
        verify_ball_infimum(lift(good), op, 0)


def test_decide_payload_matches_ball_oracle(ring8):
    # lock-step run from a legitimate uniform start: all phase counters
    # stay equal, so decide payloads can be checked against brute force
    op = make_infimum("min_int")
    rho = 2
    src = input_source(9)
    proto = make_ws(ring8, rho, **attach_infimum(op, src))
    tr = run(proto, ring8, DaemonPolicy(kind="synchronous"),
             uniform_configuration(proto, ring8), max_steps=400)
    seen = 0
    for i, rec in enumerate(tr.records):
        for ev in rec.events:
            if ev.kind != "decide":
                continue
            p = ev.process
            phase = tr.configs[i][p]["u"]
            if phase < 1:
                continue  # phase 0 aggregates the identity defaults
            expect = op.fold(src(q, phase) for q in ball(ring8, p, rho))
            assert ev.payload["v2"] == expect
            seen += 1
    assert seen >= 10


@pytest.mark.parametrize("clock, prev, cur", [("r", "v1", "v2"),
                                              ("r1", "res1", "res2")])
def test_pipeline_step_takes_the_stage_each_neighbour_is_at(clock, prev, cur):
    # path:3, seen from the middle process 1: neighbour 0 is at the same
    # tick and gives its cur slot, neighbour 2 is one tick ahead (it has
    # folded this stage) and gives its prev slot
    topo = generate("path", n=3)
    cfg = tuple({clock: tick, prev: f"prev{p}", cur: f"cur{p}"}
                for p, tick in enumerate((5, 5, 6)))
    union = lambda acc, x: acc | {x}
    out = pipeline_step(View(cfg, topo, 1), clock, union, frozenset({"own"}),
                        prev, cur)
    assert out == {prev: "cur1", cur: frozenset({"own", "cur0", "prev2"})}
    # an end of the path folds its one neighbour
    assert pipeline_step(View(cfg, topo, 0), clock, union, frozenset(),
                         prev, cur) == {prev: "cur0", cur: frozenset({"cur1"})}
