"""First-order metric sensitivities w.r.t. essential component injections.

Primary path is adjoint analysis at the converged operating point: the
network Jacobian is factorized once and each metric costs one right-hand
side of a single transposed-system solve, so the parameter count never
enters the linear algebra. Central finite differences serve as the independent cross-check
and as the nonlinearity detector for the statistical fallback.
"""

from __future__ import annotations

import itertools
import logging
import warnings
from dataclasses import dataclass

import numpy as np

from .exceptions import (
    ModelEvaluationError,
    NonConvergence,
    NotConverged,
    TopologyError,
    ZeroStep,
)
from .model import BusKind, GridCase
from .parameters import Axis, StochasticParameterSet
# build_admittance, evaluate_metrics and solve_power_flow are unused here but stay
# importable: perfbench/layers.py traces them under this module.
from .powerflow import (  # noqa: F401
    MetricSpec,
    NewtonOptions,
    PowerFlowEngine,
    PowerFlowSolution,
    build_admittance,
    engine_for,
    evaluate_metrics,
    metric_positions,
    solve_power_flow,
)
from .sobol import sobol_rescaled_slopes

logger = logging.getLogger(__name__)

METHOD_ADJOINT = "adjoint"
METHOD_FD = "finite-difference"
METHOD_SOBOL = "sobol-rescaled"

_FD_TOLERANCE = 1e-12  # perturbed solves need slack below the FD step


@dataclass(eq=False)
class SensitivityMatrix:
    """d(metric)/d(parameter) rows per metric, with a method tag per row."""

    values: np.ndarray  # (n_metrics, d) pu/pu
    metric_buses: tuple[int, ...]
    parameter_labels: tuple[str, ...]
    methods: tuple[str, ...]
    adjoint_solves: int = 0

    def to_csv(self, path) -> None:
        # Imported here: reportio imports worstcase, which imports this module.
        from .reportio import atomic_write_text

        header = "metric_bus,method," + ",".join(self.parameter_labels)
        lines = [header]
        for i, bus in enumerate(self.metric_buses):
            row = ",".join(repr(float(v)) for v in self.values[i])
            lines.append(f"{bus},{self.methods[i]},{row}")
        atomic_write_text(path, "\n".join(lines) + "\n")


def _require_pq_parameters(case: GridCase, params: StochasticParameterSet) -> np.ndarray:
    """Host bus position of each parameter; every host must be a PQ bus."""
    buses = params.bus_map(case)
    for entry, i in zip(params.entries, buses):
        bus = case.buses[i]
        if bus.kind is not BusKind.PQ:
            raise TopologyError(
                f"parameter {entry.component}.{entry.axis.value} sits on non-PQ bus {bus.id}"
            )
    return buses


def adjoint_sensitivities(
    case: GridCase | PowerFlowEngine,
    sol: PowerFlowSolution,
    params: StochasticParameterSet,
    spec: MetricSpec,
) -> SensitivityMatrix:
    """Gradient of every metric via one multi-right-hand-side transposed solve.

    The residual at the solution is differentiated in-place: injection
    parameters enter only the excitation side of the network equations, so
    each gradient entry is an inner product of the adjoint vector with the
    two local current-derivative terms of the host bus. ``case`` may be an
    engine already built for the case.
    """
    if not sol.converged:
        raise NotConverged("adjoint analysis requires a converged solution")
    engine = engine_for(case)
    buses = _require_pq_parameters(engine.case, params)

    lu = engine.factorize_at(sol, *params.apply(engine.case, params.means))

    e, f = sol.v.real, sol.v.imag
    d = e * e + f * f
    axes = np.array([entry.axis is Axis.P for entry in params.entries])

    # dF/dparam columns: only the host bus current rows are nonzero.
    dfr = np.where(axes, e[buses], f[buses]) / d[buses]
    dfi = np.where(axes, f[buses], -e[buses]) / d[buses]

    metric_buses = spec.buses
    k = metric_positions(sol.bus_ids, spec)
    mag = np.hypot(e[k], f[k])
    live = mag > 1e-9
    for bus in np.asarray(metric_buses)[~live]:
        warnings.warn(
            f"metric bus {bus} voltage near origin; gradient set to zero", stacklevel=2
        )
    rows, k, mag = np.flatnonzero(live), k[live], mag[live]

    # One right-hand side d|V_k|/dx per live metric, all solved in one call.
    g = np.zeros((engine.dim, len(rows)))
    cols = np.arange(len(rows))
    g[2 * k, cols] = e[k] / mag
    g[2 * k + 1, cols] = f[k] / mag
    values = np.zeros((len(spec), len(params)))
    if len(rows):
        lam = lu.solve(g, trans="T")
        values[rows] = -(lam[2 * buses].T * dfr + lam[2 * buses + 1].T * dfi)

    return SensitivityMatrix(
        values=values,
        metric_buses=metric_buses,
        parameter_labels=params.labels(),
        methods=(METHOD_ADJOINT,) * len(spec),
        adjoint_solves=len(rows),
    )


def finite_difference_sensitivities(
    case: GridCase | PowerFlowEngine,
    sol: PowerFlowSolution,
    params: StochasticParameterSet,
    spec: MetricSpec,
    step: float = 1e-6,
    columns: np.ndarray | None = None,
) -> SensitivityMatrix:
    """Central-difference estimate, two solves warm-started from ``sol`` per parameter.

    Every +/-step probe is one row of a single engine block. ``columns``
    restricts the differencing to a subset of parameters (others stay
    zero); used by the hybrid probe. ``case`` may be an engine already
    built for the case.
    """
    if step <= 0:
        raise ZeroStep(f"finite-difference step must be positive, got {step}")
    if not sol.converged:
        raise NotConverged("finite differences require a converged base solution")
    engine = engine_for(case)
    opts = NewtonOptions(tolerance=_FD_TOLERANCE, max_iter=60)

    cols = np.arange(len(params)) if columns is None else np.asarray(columns)
    signs = (+1.0, -1.0)
    probes = np.tile(params.means, (2 * len(cols), 1))
    for r, (j, sign) in enumerate(itertools.product(cols, signs)):
        probes[r, j] += sign * step
    result = engine.solve(*params.injections(engine.case, probes), start=sol, options=opts)
    failed = np.flatnonzero(~result.converged)
    if len(failed):
        r = int(failed[0])
        raise NonConvergence(
            f"perturbed solve diverged at {params.labels()[cols[r // 2]]} "
            f"{'+' if signs[r % 2] > 0 else '-'}{step}",
            solution=result.solution(r),
        )
    shifted = np.abs(result.v[:, metric_positions(engine.bus_ids, spec)])

    values = np.zeros((len(spec), len(params)))
    values[:, cols] = ((shifted[0::2] - shifted[1::2]) / (2.0 * step)).T
    return SensitivityMatrix(
        values=values,
        metric_buses=spec.buses,
        parameter_labels=params.labels(),
        methods=(METHOD_FD,) * len(spec),
        adjoint_solves=0,
    )


def _probe_columns(d: int, limit: int = 4) -> np.ndarray:
    if d <= max(limit, 6):
        return np.arange(d)
    return np.unique(np.linspace(0, d - 1, limit).round().astype(int))


def _powerflow_evaluator(engine, params, spec, base_sol):
    """Batched parameter-matrix -> metric-matrix evaluator for Sobol runs."""

    opts = NewtonOptions()
    positions = metric_positions(engine.bus_ids, spec)

    def evaluate(x: np.ndarray) -> np.ndarray:
        result = engine.solve(*params.injections(engine.case, x), start=base_sol, options=opts)
        failed = np.flatnonzero(~result.converged)
        if len(failed):
            raise ModelEvaluationError("power flow diverged", sample_index=int(failed[0]))
        return np.abs(result.v[:, positions])

    return evaluate


def hybrid_sensitivities(
    case: GridCase | PowerFlowEngine,
    sol: PowerFlowSolution,
    params: StochasticParameterSet,
    spec: MetricSpec,
    nonlinearity_threshold: float = 0.02,
    fd_step: float = 1e-6,
    sobol_n_base: int = 256,
    seed: int = 0,
) -> SensitivityMatrix:
    """Adjoint rows by default, statistical re-estimation where they misbehave.

    Each adjoint row is probed against central finite differences on a
    small parameter subset; rows whose relative disagreement exceeds the
    threshold are flagged highly nonlinear, re-estimated from a Saltelli
    sample as signed index-rescaled slopes, and tagged accordingly. With
    correlated parameters (nonzero off-diagonal covariance) that estimator
    does not apply: flagged rows keep their adjoint values and a warning
    names their buses. One
    engine serves the adjoint, the probe and the Saltelli solves; ``case``
    may be an engine already built for the case.
    """
    engine = engine_for(case)
    adj = adjoint_sensitivities(engine, sol, params, spec)
    cols = _probe_columns(len(params))
    probe = finite_difference_sensitivities(
        engine, sol, params, spec, step=fd_step, columns=cols
    )

    diff = np.abs(adj.values[:, cols] - probe.values[:, cols]).max(axis=1)
    scale = np.maximum(np.abs(probe.values[:, cols]).max(axis=1), 1e-9)
    nonlinear = diff / scale > nonlinearity_threshold
    if not np.any(nonlinear):
        return adj

    flagged = np.flatnonzero(nonlinear)
    # The Sobol estimator assumes independent inputs.
    correlated = np.count_nonzero(params.sigma - np.diag(np.diag(params.sigma))) > 0
    logger.warning(
        "metrics at buses %s are highly nonlinear (adjoint/FD disagreement > %.3g); %s",
        [spec.buses[i] for i in flagged],
        nonlinearity_threshold,
        "the parameters are correlated, so their adjoint rows are kept"
        if correlated
        else "re-estimating statistically",
    )
    if correlated:
        return adj
    sub_spec = MetricSpec(tuple(spec.entries[i] for i in flagged))
    model = _powerflow_evaluator(engine, params, sub_spec, sol)
    slopes = sobol_rescaled_slopes(model, params, n_base=sobol_n_base, seed=seed)

    values = adj.values.copy()
    methods = list(adj.methods)
    for row, i in enumerate(flagged):
        values[i] = slopes[row]
        methods[i] = METHOD_SOBOL
    return SensitivityMatrix(
        values=values,
        metric_buses=adj.metric_buses,
        parameter_labels=adj.parameter_labels,
        methods=tuple(methods),
        adjoint_solves=adj.adjoint_solves,
    )
