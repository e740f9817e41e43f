"""First-order metric sensitivities w.r.t. essential component injections.

Primary path is adjoint analysis at the converged operating point: the
transposed network Jacobian is factorized once and each metric costs one
right-hand side of a single solve, so the parameter count never enters
the linear algebra. Central finite differences serve as the independent
cross-check and as a probe that tags adjoint rows which disagree with them.
"""

from __future__ import annotations

import itertools
import logging
import warnings
from dataclasses import dataclass

import numpy as np

from .exceptions import NonConvergence, NotConverged, ZeroStep
from .model import GridCase
from .parameters import Axis, Injector, StochasticParameterSet
# build_admittance, evaluate_metrics and solve_power_flow are unused here but stay
# importable: perfbench/layers.py traces them under this module.
from .powerflow import (  # noqa: F401
    MetricSpec,
    NewtonOptions,
    PowerFlowSolution,
    build_admittance,
    engine_for,
    evaluate_metrics,
    metric_positions,
    solve_power_flow,
)

logger = logging.getLogger(__name__)

METHOD_ADJOINT = "adjoint"
METHOD_FD = "finite-difference"
METHOD_NONLINEAR = "adjoint-nonlinear"  # adjoint row that the FD probe disagrees with

_FD_TOLERANCE = 1e-12  # perturbed solves need slack below the FD step
_FD_STEP = 1e-6
_NONLINEARITY_THRESHOLD = 0.02  # relative adjoint/FD disagreement that flags a row


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


def _injector(
    case: GridCase, params: StochasticParameterSet, inject: Injector | None
) -> Injector:
    """``inject``, or the parameters' injector on the case's engine injections."""
    if inject is None:
        inject = params.injector(case, engine_for(case).case_injections)
    return inject


def adjoint_sensitivities(
    case: GridCase,
    sol: PowerFlowSolution,
    params: StochasticParameterSet,
    spec: MetricSpec,
    inject: Injector | None = None,
) -> SensitivityMatrix:
    """Gradient of every metric via one multi-right-hand-side solve on the factored J^T.

    The residual at the solution is differentiated in-place: injection
    parameters enter only the excitation side of the network equations, so
    each gradient entry is an inner product of the adjoint vector with the
    two local current-derivative terms of the host bus. ``inject`` is
    ``params.injector`` on ``case``, for a caller that already built it.
    """
    if not sol.converged:
        raise NotConverged("adjoint analysis requires a converged solution")
    engine = engine_for(case)
    inject = _injector(case, params, inject)
    buses = inject.bus
    params.check_pq_hosts(case, buses)

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
        p, q = inject(params.means)
        lam = engine.solve_transposed(sol, p[0], q[0], g)
        values[rows] = -(lam[2 * buses].T * dfr + lam[2 * buses + 1].T * dfi)

    return SensitivityMatrix(
        values=values,
        metric_buses=metric_buses,
        parameter_labels=params.labels,
        methods=(METHOD_ADJOINT,) * len(spec),
        adjoint_solves=len(rows),
    )


def finite_difference_sensitivities(
    case: GridCase,
    sol: PowerFlowSolution,
    params: StochasticParameterSet,
    spec: MetricSpec,
    step: float = _FD_STEP,
    columns: np.ndarray | None = None,
    inject: Injector | None = None,
) -> SensitivityMatrix:
    """Central-difference estimate, two solves warm-started from ``sol`` per parameter.

    Every +/-step probe is one row of a single engine block, solved by
    chord steps on the Jacobian at ``sol``; a row they do not settle is
    solved by full Newton, and one that fails there is named. ``columns``
    restricts the differencing to a subset of parameters (others stay
    zero); used by the hybrid probe. ``inject`` is as for
    :func:`adjoint_sensitivities`.
    """
    if step <= 0:
        raise ZeroStep(f"finite-difference step must be positive, got {step}")
    if not sol.converged:
        raise NotConverged("finite differences require a converged base solution")
    engine = engine_for(case)
    opts = NewtonOptions(tolerance=_FD_TOLERANCE, max_iter=60)

    cols = np.arange(len(params)) if columns is None else np.asarray(columns)
    signs = (+1.0, -1.0)
    probes = np.tile(params.means, (2 * len(cols) + 1, 1))  # the last row stays at the means
    for r, (j, sign) in enumerate(itertools.product(cols, signs)):
        probes[r, j] += sign * step
    p, q = _injector(case, params, inject)(probes)
    result = engine.chord_solve(p[:-1], q[:-1], sol, (p[-1], q[-1]), opts)
    failed = np.flatnonzero(~result.converged)
    if len(failed):
        r = int(failed[0])
        raise NonConvergence(
            f"perturbed solve diverged at {params.labels[cols[r // 2]]} "
            f"{'+' if signs[r % 2] > 0 else '-'}{step}",
            solution=result.solution(r),
        )
    shifted = np.abs(result.v[:, metric_positions(engine.bus_ids, spec)])

    values = np.zeros((len(spec), len(params)))
    values[:, cols] = ((shifted[0::2] - shifted[1::2]) / (2.0 * step)).T
    return SensitivityMatrix(
        values=values,
        metric_buses=spec.buses,
        parameter_labels=params.labels,
        methods=(METHOD_FD,) * len(spec),
        adjoint_solves=0,
    )


def _probe_columns(d: int, limit: int = 4) -> np.ndarray:
    if d <= max(limit, 6):
        return np.arange(d)
    return np.unique(np.linspace(0, d - 1, limit).round().astype(int))


def hybrid_sensitivities(
    case: GridCase,
    sol: PowerFlowSolution,
    params: StochasticParameterSet,
    spec: MetricSpec,
    inject: Injector | None = None,
) -> SensitivityMatrix:
    """Adjoint rows, each probed against central finite differences.

    The probe differences a small parameter subset. A row whose relative
    disagreement exceeds 2% keeps its adjoint values, is tagged
    ``adjoint-nonlinear``, and one warning names its bus. Below the
    probe's own resolution (its solve tolerance over the step) a row is
    scaled by that resolution, so rounding noise on a row the network
    pins, such as a PV bus voltage, flags nothing. ``inject`` is as for
    :func:`adjoint_sensitivities`; both calls share it.
    """
    inject = _injector(case, params, inject)
    adj = adjoint_sensitivities(case, sol, params, spec, inject)
    cols = _probe_columns(len(params))
    probe = finite_difference_sensitivities(
        case, sol, params, spec, step=_FD_STEP, columns=cols, inject=inject
    )

    diff = np.abs(adj.values[:, cols] - probe.values[:, cols]).max(axis=1)
    scale = np.maximum(np.abs(probe.values[:, cols]).max(axis=1), _FD_TOLERANCE / _FD_STEP)
    nonlinear = diff / scale > _NONLINEARITY_THRESHOLD
    if not nonlinear.any():
        return adj

    logger.warning(
        "metrics at buses %s are highly nonlinear (adjoint/FD disagreement > %.3g); "
        "their adjoint rows are kept",
        [bus for bus, bad in zip(spec.buses, nonlinear) if bad],
        _NONLINEARITY_THRESHOLD,
    )
    adj.methods = tuple(
        METHOD_NONLINEAR if bad else method for method, bad in zip(adj.methods, nonlinear)
    )
    return adj
