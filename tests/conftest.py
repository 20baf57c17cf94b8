"""Shared helpers: small topologies, run-to-stabilization utilities,
stored runs and replays of CLI scenarios, and observers of guards and of
the reads they make."""

import contextlib
import random
from unittest import mock

import pytest

from rhosync import (DaemonPolicy, InfimumVerdict, TransitionRecord, View,
                     auto_sizes, ball, build_ss_dc, build_ss_ws, cli,
                     generate, graph_params, kernel, random_configuration,
                     run, stabilization_indices)
from rhosync.infimum import PHASES


ACCEPTANCE_LINES = []

# The adversarial daemon as a test parameter.  Its id names the daemon as
# the paper does, an unfair adversary, and keeps the test names stable.
ADVERSARIAL = pytest.param("adversarial", id="adversarial_unfair")


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def ring8():
    return generate("ring", n=8)


@pytest.fixture(scope="session")
def path6():
    return generate("path", n=6)


@pytest.fixture(scope="session")
def grid23():
    return generate("grid", rows=2, cols=3)


def make_ws(topo, rho, **kw):
    gp = graph_params(topo)
    alpha, K, _ = auto_sizes(rho, gp)
    return build_ss_ws(rho, K, alpha, gp, **kw)


def make_dc(topo, rho, plugin, **kw):
    """The layer clock at the auto sizes; a `K2` keyword replaces the
    slave's."""
    gp = graph_params(topo)
    alpha, K, K2 = auto_sizes(rho, gp)
    kw.setdefault("K2", K2)
    return build_ss_dc(rho, gp, K=K, alpha=alpha, plugin=plugin, **kw)


def stabilized_dc(proto, topo, daemon_kind="synchronous", seed=0,
                  max_steps=8000, init_seed=None):
    """Run a layer-clock protocol from a random configuration and return
    (full trace, first stable index: both layers in WU0)."""
    init = random_configuration(proto, topo,
                                random.Random(init_seed if init_seed is not None
                                              else seed))
    tr = run(proto, topo, DaemonPolicy(kind=daemon_kind, seed=seed),
             init, max_steps=max_steps)
    _w1, wu = stabilization_indices(tr)
    if wu is None:
        raise AssertionError(
            f"both layers never reached WU0 within {max_steps} steps "
            f"({daemon_kind})")
    return tr, wu


def stabilized_suffix(proto, topo, daemon_kind="synchronous", seed=0,
                      max_steps=6000, init_seed=None):
    """Run from a random configuration and return the trace suffix starting
    at the first stable configuration, every clock register in WU0, and its
    index (fails the test if never reached).  A rho_central daemon takes
    the protocol's rho."""
    init = random_configuration(proto, topo,
                                random.Random(init_seed if init_seed is not None
                                              else seed))
    daemon = DaemonPolicy(kind=daemon_kind, seed=seed,
                          rho=proto.meta["delta"] - 1)
    tr = run(proto, topo, daemon, init, max_steps=max_steps)
    _w1, stab = stabilization_indices(tr)
    if stab is None:
        raise AssertionError(
            f"no WU0 configuration within {max_steps} steps ({daemon_kind})")
    return tr.suffix(stab), stab


def stored_run(scn):
    """The run that `cli.run_scenario(scn)` makes, as the stored `Trace` of
    every configuration that `kernel.run` returns by default."""
    topo = cli.make_topology(scn.topo)
    proto = cli.build_protocol(scn, topo)
    init = cli.make_init(scn, proto, topo)
    daemon = DaemonPolicy(scn.daemon, scn.seed, scn.rho, scn.p_select)
    return run(proto, topo, daemon, init,
               max_steps=cli.auto_steps(scn, topo, proto))


def naive_ball_infimum(lt, op, rho):
    """The ball-infimum check of `verify_ball_infimum`, written post hoc
    over a lifting of a stored trace: for each of the first PHASES phases
    that every process completes, read each process's state at each of the
    phase's levels and its decide event at the phase end, and compare them
    with the fold of the phase-start v0 snapshot over the balls."""
    if rho < 1:
        raise ValueError(f"rho must be >= 1, got {rho}")
    trace = lt.trace
    topo = trace.topo
    delta = rho + 1
    start = lt.first_phase_level(delta)
    top = lt.top_level()
    mismatches = []
    phases = 0
    k0 = start
    while k0 + delta <= top and phases < PHASES:
        snapshot = {p: trace.configs[lt.level_time(p, k0)][p]["v0"]
                    for p in topo.nodes}

        def oracle(p, radius):
            return op.fold(snapshot[q] for q in ball(topo, p, radius))

        for k in range(1, rho + 1):
            for p in topo.nodes:
                st = trace.configs[lt.level_time(p, k0 + k)][p]
                exp1, exp2 = oracle(p, k - 1), oracle(p, k)
                if st["v1"] != exp1:
                    mismatches.append((k0, k, p, "v1", st["v1"], exp1))
                if st["v2"] != exp2:
                    mismatches.append((k0, k, p, "v2", st["v2"], exp2))
        for p in topo.nodes:
            t = lt.level_time(p, k0 + delta)
            payload = None
            for ev in trace.records[t - 1].events:
                if ev.process == p and ev.kind == "decide":
                    payload = ev.payload
                    break
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


@contextlib.contextmanager
def replayed_steps():
    """Yield a list that collects the steps the engine takes within the
    block (its `kernel.step` calls), as the run inside `cli.read_trace`
    does: the configuration each produced, and a copy of its record,
    events included, taken before the live trace may drop them."""
    steps = []
    step = kernel.step

    def recording(*args, **kwargs):
        cfg, rec = step(*args, **kwargs)
        steps.append((cfg, TransitionRecord(rec.fired, rec.events)))
        return cfg, rec

    with mock.patch.object(kernel, "step", recording):
        yield steps


def enabled_labels(c, p, proto, topo):
    """Labels of the actions whose guards hold at p in c, in priority
    order."""
    view = View(c, topo, p)
    return [a.label for a in proto.actions if a.guard(view)]


class _LoggedState(dict):
    """A process state that logs (process, register) for each register
    read from it."""

    def __init__(self, state, q, log):
        super().__init__(state)
        self.q, self.log = q, log

    def __getitem__(self, reg):
        self.log.add((self.q, reg))
        return super().__getitem__(reg)


def neighbor_reads(fn, c, topo, p):
    """Run fn on a View of process p over configuration c whose states log
    every register read.  Returns fn's result and the set of (q, register)
    reads of processes other than p.  The log sees every read, whether it
    goes through `View.get`/`View.nget` or walks `view.cfg` directly, as
    the clock layer's classifier does."""
    log = set()
    result = fn(View(tuple(_LoggedState(st, q, log) for q, st in enumerate(c)),
                     topo, p))
    return result, {(q, reg) for q, reg in log if q != p}
