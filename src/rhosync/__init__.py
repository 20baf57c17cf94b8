"""Simulation library for self-stabilizing clock-synchronization protocols
and rho-local coordination on anonymous graphs.

Layers, bottom up: topology (graphs, balls, sizing parameters), kernel
(guarded-action engine, daemons, traces), unison (incrementing clocks, the
wave-stream protocol, lifting), causality (event DAGs, cuts, wavelets),
infimum (rho-ball aggregation), layerclock (the two-layer clock), lra
(resource-allocation plugins and monitors), cli (command-line front end).
"""

from .topology import (GraphParams, Topology, TopologyError, ball,
                       cyclomatic_bound, generate, graph_params,
                       greatest_hole, load_topology, parse_edge_list)
from .kernel import (Action, Configuration, DaemonPolicy, EngineFault,
                     HookEvent, ProtocolDef, RegisterSpec, Trace,
                     TransitionRecord, View, check_attractor, check_closure,
                     enabled, first_enabled_map, int_range,
                     random_configuration, round_count, rounds, run, step,
                     uniform_configuration)
from .unison import (IncrementingSystem, LiftedTrace, LiftError,
                     SizingError, build_ss_ws, d_K, intrinsic_delays, is_wu,
                     is_wu0, lift, ominus)
from .causality import (Cut, Event, EventGraph, WaveletVerdict,
                        build_event_graph, check_wavelet, cut_for_level,
                        cut_leq, is_coherent)
from .infimum import (InfimumAxiomError, InfimumOp, InfimumVerdict,
                      attach_infimum, make_infimum, verify_ball_infimum)
from .layerclock import (CondPlugin, DelayAgreementVerdict, build_ss_dc,
                         delay_2rho, stabilization_indices, trivial_plugin,
                         verify_delay_agreement)
from .lra import (CsRecord, Metrics, compat_gme, compat_lme, compat_rw,
                  extract_cs_records, greedy_distance_coloring,
                  lra_monitor_start, lra_oplus, make_lra_plugin, metrics,
                  monitor_liveness, monitor_safety)

__version__ = "0.1.0"
