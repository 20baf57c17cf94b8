"""Two-layer clock: sizing, slave-delay comparison, stabilization order,
and delay agreement."""

import itertools
import json
import random
from dataclasses import replace

import pytest

from rhosync import (DaemonPolicy, SizingError, auto_sizes, build_ss_dc,
                     cli, delay, graph_params, lift, run,
                     stabilization_indices, trivial_plugin,
                     uniform_configuration, verify_delay_agreement)
from conftest import ADVERSARIAL, make_dc, stabilized_dc


# -- sizing ----------------------------------------------------------------


def test_build_rejects_bad_rho(ring8):
    with pytest.raises(SizingError):
        make_dc(ring8, 0, trivial_plugin())


def test_build_rejects_small_alpha(ring8):
    gp = graph_params(ring8)
    _, K, _ = auto_sizes(2, gp)
    with pytest.raises(SizingError):
        build_ss_dc(2, gp, K=K, K2=9, alpha=gp.t_g - 1,
                    plugin=trivial_plugin())
    # a topology with a lower T_G bound admits the same tail depth
    proto = build_ss_dc(2, replace(gp, t_g=gp.t_g - 1), K=K, K2=9,
                        alpha=gp.t_g - 1, plugin=trivial_plugin())
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


def test_delay_2rho_recovers_true_delay():
    # The slave comparison is `delay` with window 2*rho.  Above period
    # 4*rho it reads every true delay within the window; at K2 = 4*rho + 3
    # the residues outside both windows read None.
    for rho in (1, 2, 3):
        for K2 in range(4 * rho + 1, 16):
            for a, d in itertools.product(range(K2),
                                          range(-2 * rho, 2 * rho + 1)):
                assert delay(a, (a + d) % K2, K2, 2 * rho) == d
        K2 = 4 * rho + 3
        for a, d in itertools.product(range(K2), range(2 * rho + 1,
                                                       K2 // 2 + 1)):
            assert delay(a, (a + d) % K2, K2, 2 * rho) is None
            assert delay(a, (a - d) % K2, K2, 2 * rho) is None


def test_delay_2rho_window_edges():
    assert delay(0, 4, 9, 2) is None  # fwd 4, bwd 5: both exceed 2
    assert delay(0, 2, 9, 2) == 2
    assert delay(2, 0, 9, 2) == -2
    assert delay(3, 3, 9, 2) == 0


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
        col = [lt2.value(t, p) for t in range(len(tr.configs))]
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



# -- a slave wound once around an odd ring -----------------------------------


def _wound_slave_run(tmp_path, k2):
    """The report of `lme` on ring:7 at rho 1 under the synchronous daemon,
    from a slave wound once around the ring: r2 = p at each process p and
    every other register at its default; and the slave's period."""
    params = {"proto": "lme", "topo": "ring:7", "rho": "1",
              "daemon": "synchronous", "k2": k2}
    scn = cli.scenario_from({}, params)
    topo = cli.make_topology(scn.topo)
    default = cli.build_protocol(scn, topo).default_state()
    init = tmp_path / "wound.json"
    init.write_text(json.dumps([dict(default, r2=p) for p in topo.nodes]))
    scn = cli.scenario_from({}, {**params, "init": f"adversarial_file:{init}"})
    trace = cli.run_scenario(scn)
    return (cli.analyze(scn, trace),
            trace.protocol.clock_registers["r2"].period)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="auto sizing gives the slave a period of C_G = 7 "
                   "on ring:7, and a wound slave then never unwinds "
                   "(ROADMAP item 2)")
def test_auto_sizing_unwinds_a_wound_slave_on_an_odd_ring(tmp_path):
    report, period = _wound_slave_run(tmp_path, "auto")
    assert period == 7
    assert report["stab_index"] is not None, report.get("notes")


def test_a_slave_period_above_the_ring_unwinds_a_wound_slave(tmp_path):
    report, period = _wound_slave_run(tmp_path, "8")
    assert period == 8
    assert report["stab_index"] == 13 and report["violations"] == 0
