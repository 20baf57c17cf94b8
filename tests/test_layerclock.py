"""Two-layer clock: sizing, slave-delay comparison, stabilization order,
and delay agreement."""

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rhosync import (DaemonPolicy, SizingError, build_ss_dc, delay_2rho,
                     graph_params, lift, run, stabilization_indices,
                     trivial_plugin, uniform_configuration,
                     verify_delay_agreement)
from conftest import ADVERSARIAL, make_dc, stabilized_dc


# -- sizing ----------------------------------------------------------------


def test_build_rejects_bad_rho(ring8):
    with pytest.raises(SizingError):
        make_dc(ring8, 0, trivial_plugin())


def test_build_rejects_small_alpha(ring8):
    gp = graph_params(ring8)
    with pytest.raises(SizingError):
        build_ss_dc(2, gp, K=gp.c_g_bound + 1, K2=9, alpha=gp.t_g - 1,
                    plugin=trivial_plugin())
    # a topology with a lower T_G bound admits the same tail depth
    proto = build_ss_dc(2, replace(gp, t_g=gp.t_g - 1), K=gp.c_g_bound + 1,
                        K2=9, alpha=gp.t_g - 1, plugin=trivial_plugin())
    assert proto.clock_registers["r2"].alpha == gp.t_g - 1


def test_build_rejects_small_master_period(ring8):
    gp = graph_params(ring8)
    with pytest.raises(SizingError):
        build_ss_dc(1, gp, K=gp.c_g_bound // 2, K2=9, alpha=gp.t_g,
                    plugin=trivial_plugin())


def test_build_rejects_small_k2_unless_allowed(ring8):
    # rho = 2 on ring:8: the floor is max(4*rho+1, C_G bound - 1) = 9
    with pytest.raises(SizingError):
        make_dc(ring8, 2, trivial_plugin(), K2=2 * 2 + 1)
    with pytest.raises(SizingError):
        make_dc(ring8, 2, trivial_plugin(), K2=8)
    proto = make_dc(ring8, 2, trivial_plugin(), K2=9)
    assert proto.clock_registers["r2"].period == 9


def test_meta_and_registers(ring8):
    plugin = trivial_plugin()
    proto = make_dc(ring8, 2, plugin)
    assert proto.meta["delta"] == 3
    assert proto.meta["plugin"] is plugin
    names = [r.name for r in proto.registers]
    assert names[:2] == ["r1", "r2"]


# -- slave-delay comparison ------------------------------------------------


@settings(max_examples=120, deadline=None)
@given(a=st.integers(0, 22), d=st.integers(-11, 11), rho=st.integers(1, 3))
def test_delay_2rho_recovers_true_delay(a, d, rho):
    # K2 = 4*rho + 3 leaves residues outside both windows
    K2 = 4 * rho + 3
    a %= K2
    b = (a + d) % K2
    got = delay_2rho(a, b, K2, rho)
    if abs(d) <= 2 * rho:
        assert got == d
    elif abs(d) <= K2 // 2:
        assert got is None


def test_delay_2rho_window_edges():
    assert delay_2rho(0, 4, 9, 1) is None  # fwd 4, bwd 5: both exceed 2
    assert delay_2rho(0, 2, 9, 1) == 2
    assert delay_2rho(2, 0, 9, 1) == -2
    assert delay_2rho(3, 3, 9, 1) == 0


# -- stabilization and agreement -------------------------------------------


@pytest.mark.parametrize("daemon", ["synchronous", "central", ADVERSARIAL])
def test_staircase_master_before_slave(ring8, daemon):
    proto = make_dc(ring8, 2, trivial_plugin())
    tr, wu = stabilized_dc(proto, ring8, daemon, seed=11, max_steps=30000)
    w1, w = stabilization_indices(tr)
    assert w == wu and w1 is not None
    assert w1 <= wu  # the master layer settles first


def test_delay_agreement_on_stabilized_run(ring8):
    rho = 2
    proto = make_dc(ring8, rho, trivial_plugin())
    tr, wu = stabilized_dc(proto, ring8, "central", seed=3, max_steps=30000)
    verdict = verify_delay_agreement(lift(tr.suffix(wu), "r2"), rho,
                                     sample_every=5)
    assert verdict.ok
    pairs = sum(1 for p in ring8.nodes for q in ring8.nodes
                if p < q and ring8.dist[p][q] <= 2 * rho)
    cfgs = len(range(0, len(tr.configs) - wu, 5))
    assert verdict.pairs_checked == pairs * cfgs


def test_delay_agreement_undersized_control(ring8):
    rho = 2
    proto = make_dc(ring8, rho, trivial_plugin())
    # central daemon: slave delays stay nonzero, the short ring misreads them
    tr, wu = stabilized_dc(proto, ring8, "central", seed=4, max_steps=30000)
    verdict = verify_delay_agreement(lift(tr.suffix(wu), "r2"), rho,
                                     k2_override=2 * rho + 1)
    assert not verdict.ok
    t, p, q, got, true = verdict.disagreements[0]
    assert got != true


def test_trivial_plugin_one_tick_per_phase(ring8):
    proto = make_dc(ring8, 1, trivial_plugin())
    delta = proto.meta["delta"]
    tr = run(proto, ring8, DaemonPolicy(kind="synchronous"),
             uniform_configuration(proto, ring8), max_steps=12 * delta)
    lt2 = lift(tr, reg="r2")
    for p in ring8.nodes:
        col = [lt2.values[t][p] for t in range(len(lt2.values))]
        # exactly one slave increment per delta master steps
        assert col[-1] - col[0] == (len(col) - 1) // delta


def test_cs_events_every_phase_for_trivial(ring8):
    proto = make_dc(ring8, 2, trivial_plugin())
    delta = proto.meta["delta"]
    steps = 10 * delta
    tr = run(proto, ring8, DaemonPolicy(kind="synchronous"),
             uniform_configuration(proto, ring8), max_steps=steps)
    cs = [ev for rec in tr.records for ev in rec.events if ev.kind == "cs"]
    assert len(cs) == ring8.node_count * (steps // delta)

