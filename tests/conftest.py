"""Shared helpers: small topologies and run-to-stabilization utilities."""

import random

import pytest

from rhosync import (DaemonPolicy, build_ss_dc, build_ss_ws, generate,
                     graph_params, is_wu0, random_configuration, run,
                     stabilization_indices)


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
    return build_ss_ws(rho, gp.c_g_bound + 1, gp.t_g, gp, **kw)


def make_dc(topo, rho, plugin, **kw):
    gp = graph_params(topo)
    kw.setdefault("K2", max(4 * rho + 1, gp.c_g_bound + 1))
    return build_ss_dc(rho, gp, K=gp.c_g_bound + 1, alpha=gp.t_g,
                       plugin=plugin, **kw)


def stabilized_dc(proto, topo, daemon_kind="synchronous", seed=0,
                  max_steps=8000, init_seed=None):
    """Run a layer-clock protocol from a random configuration and return
    (full trace, first index where both layers are in WU)."""
    init = random_configuration(proto, topo,
                                random.Random(init_seed if init_seed is not None
                                              else seed))
    tr = run(proto, topo, DaemonPolicy(kind=daemon_kind, seed=seed),
             init, max_steps=max_steps)
    _w1, wu = stabilization_indices(tr)
    if wu is None:
        raise AssertionError(
            f"both layers never reached WU within {max_steps} steps "
            f"({daemon_kind})")
    return tr, wu


def stabilized_suffix(proto, topo, daemon_kind="synchronous", seed=0,
                      max_steps=6000, init_seed=None):
    """Run from a random configuration and return the trace suffix starting
    at the first WU0 configuration (fails the test if never reached).  A
    rho_central daemon takes the protocol's rho."""
    init = random_configuration(proto, topo,
                                random.Random(init_seed if init_seed is not None
                                              else seed))
    daemon = DaemonPolicy(kind=daemon_kind, seed=seed,
                          rho=proto.meta["delta"] - 1)
    tr = run(proto, topo, daemon, init, max_steps=max_steps)
    sysm = proto.clock_registers[next(iter(proto.clock_registers))]
    reg = next(iter(proto.clock_registers))
    for i, cfg in enumerate(tr.configs):
        if is_wu0(cfg, topo, sysm, reg):
            return tr.suffix(i), i
    raise AssertionError(
        f"no WU0 configuration within {max_steps} steps ({daemon_kind})")
