"""Simulation library for self-stabilizing clock-synchronization protocols
and rho-local coordination on anonymous graphs.

Layers, bottom up: topology (graphs, balls, sizing parameters), kernel
(guarded-action engine, daemons, traces), unison (incrementing clocks, the
wave-stream protocol, lifting), causality (event DAGs, cuts, wavelets),
infimum (rho-ball aggregation), layerclock (the two-layer clock), lra
(resource-allocation plugins and monitors), cli (command-line front end).
"""

from .topology import *
from .kernel import *
from .unison import *
from .causality import *
from .infimum import *
from .layerclock import *
from .lra import *

__version__ = "0.1.0"
