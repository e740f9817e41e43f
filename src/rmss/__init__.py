"""Risk-managed steady-state analysis of power grids under stochastic resources.

Pipeline: parse a case, tag its stochastic (essential) components, solve
the AC power flow, obtain metric sensitivities by adjoint analysis,
construct closed-form worst-case bounds and dispatches, count voltage
violations, and validate everything against a seeded Monte Carlo oracle.
"""

__version__ = "0.1.0"

from .exceptions import RmssError
from .matpower import parse_case, write_case
from .model import (
    Branch,
    Bus,
    BusKind,
    Generator,
    GridCase,
    Load,
    ValidationReport,
    tag_essential,
    validate_case,
)
from .montecarlo import (
    ComparisonReport,
    McReport,
    SampleBatch,
    mae_compare,
    run_monte_carlo,
    sample_parameters,
)
from .parameters import Axis, ParameterEntry, StochasticParameterSet
from .powerflow import (
    AdmittanceMatrix,
    Metric,
    MetricKind,
    MetricSpec,
    NewtonOptions,
    PowerFlowEngine,
    PowerFlowSolution,
    build_admittance,
    default_metric_spec,
    evaluate_metrics,
    solve_power_flow,
)
from .sensitivity import (
    SensitivityMatrix,
    adjoint_sensitivities,
    finite_difference_sensitivities,
    hybrid_sensitivities,
)
from .sobol import SobolIndices, sobol_first_order
from .worstcase import (
    RmssReport,
    SweepGrid,
    ViolationReport,
    count_violations,
    run_rmss,
    worst_case_metric,
    worst_case_parameters,
)

__all__ = [
    "AdmittanceMatrix",
    "Axis",
    "Branch",
    "Bus",
    "BusKind",
    "ComparisonReport",
    "Generator",
    "GridCase",
    "Load",
    "McReport",
    "Metric",
    "MetricKind",
    "MetricSpec",
    "NewtonOptions",
    "ParameterEntry",
    "PowerFlowEngine",
    "PowerFlowSolution",
    "RmssError",
    "RmssReport",
    "SampleBatch",
    "SensitivityMatrix",
    "SobolIndices",
    "StochasticParameterSet",
    "SweepGrid",
    "ValidationReport",
    "ViolationReport",
    "adjoint_sensitivities",
    "build_admittance",
    "count_violations",
    "default_metric_spec",
    "evaluate_metrics",
    "finite_difference_sensitivities",
    "hybrid_sensitivities",
    "mae_compare",
    "parse_case",
    "run_monte_carlo",
    "run_rmss",
    "sample_parameters",
    "sobol_first_order",
    "solve_power_flow",
    "tag_essential",
    "validate_case",
    "worst_case_metric",
    "worst_case_parameters",
    "write_case",
]
