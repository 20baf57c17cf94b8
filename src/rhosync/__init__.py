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
from .kernel import (DAEMONS, Action, Configuration, DaemonPolicy,
                     DroppedConfiguration, DroppedEvents, EngineFault,
                     HeldConfigs, HookEvent, ProtocolDef, RegisterSpec,
                     RoundCounter, Trace, TransitionRecord, View,
                     check_attractor, check_closure, first_enabled_map,
                     int_range, random_configuration, round_count, rounds,
                     run, step, uniform_configuration)
from .unison import (IncrementingSystem, LiftedTrace, LiftError,
                     SizingError, auto_sizes, build_ss_ws, delay,
                     intrinsic_delays, is_stable, is_wu, is_wu0, lift)
from .causality import (Cut, Event, EventGraph, WaveletVerdict,
                        build_event_graph, check_wavelet, cut_for_level,
                        cut_leq, is_coherent)
from .infimum import (BallInfimumCheck, InfimumAxiomError, InfimumOp,
                      InfimumVerdict, attach_infimum, make_infimum,
                      pipeline_step, verify_ball_infimum)
from .layerclock import (CondPlugin, DelayAgreementVerdict, build_ss_dc,
                         stabilization_indices, trivial_plugin,
                         verify_delay_agreement)
from .lra import (CsRecord, Metrics, compat_gme, compat_lme, compat_rw,
                  extract_cs_records, greedy_distance_coloring,
                  lra_monitor_start, lra_oplus, make_lra_plugin, metrics,
                  monitor_liveness, monitor_safety)

__version__ = "0.1.0"
