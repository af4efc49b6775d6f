"""Simulation and certificate checking for delay-coupled dynamical networks.

The package integrates networks of identical nodes whose links act on
delayed, measure-weighted history ("discrete plus distributed delays"),
checks quadratic contraction certificates by sampling, derives the
exponential growth envelope those certificates imply, and reports
synchronization statistics.  Scenario JSON files drive the same machinery
from the command line (``delaynet run|check-quad|validate|version``).
"""

from .kernels import (
    DelayKernel,
    QuadraturePlan,
    build_quadrature,
    dirac,
    exponential,
    make_kernel,
    mixture,
    uniform,
)
from .history import (
    HistoryFunction,
    Trajectory,
    sup_history_deviation,
    write_trajectory_csv,
)
from .dynamics import (
    AssumptionCheck,
    AssumptionReport,
    CouplingSchedule,
    DelaySchedule,
    NetworkModel,
    NodeDynamics,
    OutputFunction,
    check_assumptions,
    chua_node,
    identity_output,
    linear_node,
    linear_output,
    make_example,
    make_node,
    named_topology,
    tanh_hopfield_node,
    time_varying_linear_output,
)
from .integrator import (
    BLOWUP_THRESHOLD,
    BlowUpError,
    IntegratorConfig,
    integrate,
)
from .certificates import (
    ProofConstants,
    QuadCertificate,
    QuadCheckResult,
    check_quad,
    compute_eta,
    delta_from_cert,
    estimate_envelope_constants,
    format_certificate_report,
    lipschitz_certificate,
)
from .diagnostics import (
    EnvelopeReport,
    SyncReport,
    check_envelope,
    p_norm,
    sync_report,
    write_envelope_csv,
    write_sync_csv,
)
from .scenario import (
    Scenario,
    ScenarioError,
    load_scenario,
    run_scenario,
    scenario_from_dict,
    scenario_schema,
)

__version__ = "0.1.0"

__all__ = [
    "AssumptionCheck",
    "AssumptionReport",
    "BLOWUP_THRESHOLD",
    "BlowUpError",
    "CouplingSchedule",
    "DelayKernel",
    "DelaySchedule",
    "EnvelopeReport",
    "HistoryFunction",
    "IntegratorConfig",
    "NetworkModel",
    "NodeDynamics",
    "OutputFunction",
    "ProofConstants",
    "QuadCertificate",
    "QuadCheckResult",
    "QuadraturePlan",
    "Scenario",
    "ScenarioError",
    "SyncReport",
    "Trajectory",
    "build_quadrature",
    "check_assumptions",
    "check_envelope",
    "check_quad",
    "chua_node",
    "compute_eta",
    "delta_from_cert",
    "dirac",
    "estimate_envelope_constants",
    "exponential",
    "format_certificate_report",
    "identity_output",
    "integrate",
    "linear_node",
    "linear_output",
    "lipschitz_certificate",
    "load_scenario",
    "make_example",
    "make_kernel",
    "make_node",
    "mixture",
    "named_topology",
    "p_norm",
    "run_scenario",
    "scenario_from_dict",
    "scenario_schema",
    "sup_history_deviation",
    "sync_report",
    "tanh_hopfield_node",
    "time_varying_linear_output",
    "uniform",
    "write_envelope_csv",
    "write_sync_csv",
    "write_trajectory_csv",
]
