"""Simulation and certificate checking for delay-coupled dynamical networks.

The package integrates networks of identical nodes whose links act on
delayed, measure-weighted history ("discrete plus distributed delays"),
checks quadratic contraction certificates by sampling, derives the
exponential growth envelope those certificates imply, and reports
synchronization statistics.  Scenario JSON files drive the same machinery
from the command line (``delaynet run|check-quad|validate|version``).
"""

from . import certificates, diagnostics, dynamics, history, integrator, kernels, scenario
from .kernels import *  # noqa: F401,F403
from .history import *  # noqa: F401,F403
from .dynamics import *  # noqa: F401,F403
from .integrator import *  # noqa: F401,F403
from .certificates import *  # noqa: F401,F403
from .diagnostics import *  # noqa: F401,F403
from .scenario import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = (kernels.__all__ + history.__all__ + dynamics.__all__ + integrator.__all__
           + certificates.__all__ + diagnostics.__all__ + scenario.__all__)
