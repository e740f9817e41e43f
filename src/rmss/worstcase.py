"""Worst-case bound construction, dispatch recovery, and violation counting.

Given first-order sensitivities and a normal parameter model, the
worst-case value of each metric is an inverse-normal quantile excursion
around its nominal value, and the most probable dispatch achieving that
excursion has a closed form: the minimum-Mahalanobis-distance point on
the hyperplane of dispatches consistent with the excursion. For metric i
every such dispatch lies on one line through the parameter means, along
Sigma lambda_i / (lambda_i' Sigma lambda_i), so a report stores one
direction per metric and derives the dispatches from it.
"""

from __future__ import annotations

import base64
import logging
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import ndtri

from .exceptions import (
    DegenerateDirection,
    InvalidProbability,
    MissingLimits,
    NonConvergence,
    SchemaError,
)
from .model import GridCase
from .parameters import StochasticParameterSet
# build_admittance is unused here but stays importable: perfbench/layers.py
# traces it under this module.
from .powerflow import (  # noqa: F401
    MetricSpec,
    PowerFlowEngine,
    PowerFlowSolution,
    build_admittance,
    default_metric_spec,
    evaluate_metrics,
    solve_power_flow,
)
from .sensitivity import hybrid_sensitivities

logger = logging.getLogger(__name__)

DEGENERATE_TOLERANCE = 1e-14
SCHEMA_VERSION = 4  # version of the RmssReport.to_dict layout

FRACTION = "fraction"  # sigma_c as a fraction of each metric's nominal value
ABSOLUTE = "pu"  # sigma_c as an absolute pu value shared by all metrics
PROPAGATED = "propagated"  # sigma_c from first-order propagation of the parameter covariance


def _quantile(rho: float) -> float:
    if not 0.0 < rho < 1.0:
        raise InvalidProbability(f"confidence level must be in (0, 1), got {rho}")
    return float(ndtri(rho))


def _bounds(c_nom, sigma_c, z: float) -> np.ndarray:
    """Quantile bounds [c_nom + z*sigma_c, c_nom - z*sigma_c], stacked on a new last axis."""
    t = z * np.asarray(sigma_c, dtype=float)
    return np.stack([c_nom + t, c_nom - t], axis=-1)


def _linearization(
    sigma: np.ndarray, lam: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """First-order variance, dispatch direction and degeneracy of each metric row of ``lam``.

    Returns ``variance`` (m,) = lambda_i' Sigma lambda_i, ``degenerate`` (m,)
    where that variance is numerically zero, and ``directions`` with one row
    Sigma lambda_i / variance_i per non-degenerate metric: the parameter
    deviation of the most probable dispatch that moves metric i by one unit.
    """
    lam = np.atleast_2d(np.asarray(lam, dtype=float))
    sig_lam = lam @ sigma  # Sigma is symmetric
    variance = np.einsum("md,md->m", lam, sig_lam)
    degenerate = variance <= DEGENERATE_TOLERANCE
    keep = ~degenerate
    return variance, degenerate, sig_lam[keep] / variance[keep, None]


def worst_case_parameters(
    params: StochasticParameterSet,
    lam: np.ndarray,
    c_wc: float,
    c_nom: float,
) -> np.ndarray:
    """Closed-form most-probable dispatch on the hyperplane lam . (E - eta) = c_wc - c_nom."""
    variance, degenerate, directions = _linearization(params.sigma, lam)
    if degenerate[0]:
        raise DegenerateDirection(
            "metric insensitive to all varying parameters "
            f"(lambda'Sigma lambda = {variance[0]:.3e})"
        )
    return params.means + (c_wc - c_nom) * directions[0]


@dataclass(frozen=True, eq=False)
class SweepGrid:
    """Metric standard deviations to sweep when the true value is unknown."""

    values: tuple[float, ...]
    unit: str = FRACTION

    def __post_init__(self):
        if self.unit not in (FRACTION, ABSOLUTE):
            raise ValueError(f"unknown sweep unit {self.unit!r}")
        vals = tuple(float(v) for v in self.values)
        if not vals or any(v <= 0 for v in vals):
            raise ValueError("sweep values must be positive")
        if any(b <= a for a, b in zip(vals, vals[1:])):
            raise ValueError("sweep values must be strictly increasing")
        object.__setattr__(self, "values", vals)

    @classmethod
    def default(cls) -> "SweepGrid":
        # 20 log-spaced points between 0.1% and 5% of each nominal metric.
        return cls(tuple(np.geomspace(0.001, 0.05, 20)), FRACTION)


@dataclass(eq=False)
class SweepPoint:
    label: float | str  # swept value in `unit` terms, or "propagated"
    sigma_abs: np.ndarray  # (m,) per-metric absolute sigma_c, pu
    results: np.ndarray  # (m, 2) rows of [c_wc_ub, c_wc_lb] in metric order, pu

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "sigma_abs": self.sigma_abs.tolist(),
            "results": self.results.tolist(),
        }


@dataclass(eq=False)
class PointViolations:
    """Violation tallies at one sweep point."""

    sigma_label: float | str
    ub_total: int
    lb_total: int
    per_bus: dict[int, int]
    worst_violator: int | None

    def to_dict(self) -> dict:
        return {
            "sigma": self.sigma_label,
            "ub_total": self.ub_total,
            "lb_total": self.lb_total,
            "per_bus": {str(k): v for k, v in sorted(self.per_bus.items())},
            "worst_violator": self.worst_violator,
        }


@dataclass(eq=False)
class ViolationReport:
    points: tuple[PointViolations, ...]
    per_bus_total: dict[int, int]
    worst_violator: int | None  # max tally across the sweep, ties to lowest bus id
    v_min: np.ndarray  # (m,) per-metric voltage limits, pu
    v_max: np.ndarray

    def to_dict(self) -> dict:
        return {
            "v_min": self.v_min.tolist(),
            "v_max": self.v_max.tolist(),
            "points": [p.to_dict() for p in self.points],
            "per_bus_total": {str(k): v for k, v in sorted(self.per_bus_total.items())},
            "worst_violator": self.worst_violator,
        }


def _overshoot(bounds: np.ndarray, limit: np.ndarray) -> np.ndarray:
    """Excursion of each [c_wc_ub, c_wc_lb] pair beyond its [v_max, v_min] limit, pu."""
    return (bounds - limit) * np.array([1.0, -1.0])


def _tallies(bus_ids: np.ndarray, counts: np.ndarray) -> tuple[dict[int, int], int | None]:
    """Nonzero per-bus counts, and the bus with the most (ties to the lowest id) or None."""
    per_bus = {b: t for b, t in zip(bus_ids.tolist(), counts.tolist()) if t}
    if not per_bus:
        return per_bus, None
    return per_bus, int(bus_ids[np.argmax(counts)])  # ids ascend: argmax takes the lowest


def limit_arrays(
    limits: dict[int, tuple[float, float]] | float | str,
    case: GridCase,
    buses: Sequence[int],
    c_nom: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-metric (v_min, v_max) arrays from ``"case"``, a band fraction or a bus map.

    ``"case"`` takes each bus's own limits, a float ``band`` builds
    c_nom * (1 -/+ band), and a dict maps bus id to (v_min, v_max).
    """
    if limits == "case":
        limits = {
            b.id: (b.v_min, b.v_max)
            for b in case.buses
            if b.v_min is not None and b.v_max is not None
        }
    if not isinstance(limits, dict):
        band = float(limits)
        return c_nom * (1 - band), c_nom * (1 + band)
    missing = [b for b in buses if b not in limits]
    if missing:
        raise MissingLimits(f"bus {missing[0]} has no voltage limits")
    pairs = np.array([limits[b] for b in buses], dtype=float).reshape(-1, 2)
    return pairs[:, 0], pairs[:, 1]


def count_violations(
    labels: Sequence[float | str],
    buses: Sequence[int],
    bounds: np.ndarray,
    v_min: np.ndarray,
    v_max: np.ndarray,
) -> ViolationReport:
    """Tally bound excursions beyond per-metric voltage limits.

    ``bounds`` has shape (P, m, 2): one [c_wc_ub, c_wc_lb] row per metric at
    each of the P sweep points named by ``labels``.
    """
    limit = np.stack([v_max, v_min], axis=-1)  # (m, 2), aligned with the bound sides
    hits = _overshoot(bounds, limit) > 0
    bus_ids, bus_of = np.unique(np.asarray(buses, dtype=int), return_inverse=True)
    point_of, metric_of, _ = np.nonzero(hits)
    n = len(bus_ids)
    per_point = np.bincount(
        point_of * n + bus_of[metric_of], minlength=len(labels) * n
    ).reshape(len(labels), n)
    side_totals = hits.sum(axis=1).tolist()  # (P, 2) UB and LB counts

    points = tuple(
        PointViolations(label, ub, lb, *_tallies(bus_ids, counts))
        for label, (ub, lb), counts in zip(labels, side_totals, per_point)
    )
    totals = _tallies(bus_ids, per_point.sum(axis=0))
    return ViolationReport(points, *totals, v_min=limit[:, 1], v_max=limit[:, 0])


@dataclass(eq=False)
class RmssReport:
    """Everything the risk-managed analysis produced for one case.

    Worst-case dispatches are not stored: at sweep point k the dispatches of
    metric i are means +/- z(rho) * sigma_abs[i] * direction[i], derived by
    :meth:`dispatches` from one direction per non-degenerate metric. The JSON
    of :meth:`to_dict` holds the directions as base64 of their row-major
    little-endian float64 bytes; :meth:`from_dict` decodes them.
    """

    case_name: str
    rho: float
    metric_buses: tuple[int, ...]
    parameter_labels: tuple[str, ...]
    parameter_means: np.ndarray
    parameter_stdevs: np.ndarray
    c_nom: np.ndarray  # (m,)
    degenerate: np.ndarray  # (m,) bool: metric insensitive to every parameter, no dispatch
    dispatch_directions: np.ndarray  # (m - n_degenerate, d), non-degenerate metrics in order
    sigma_mode: str  # "known" | "sweep" | "propagated"
    sigma_unit: str
    points: tuple[SweepPoint, ...]
    violations: ViolationReport
    sensitivity_methods: tuple[str, ...]
    runtime_s: float

    def _deviations(self, k: int) -> np.ndarray:
        scale = _quantile(self.rho) * self.points[k].sigma_abs[~self.degenerate]
        return scale[:, None] * self.dispatch_directions

    def dispatches(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """UB and LB worst-case dispatches at sweep point k, one row per non-degenerate metric."""
        deviation = self._deviations(k)
        return self.parameter_means + deviation, self.parameter_means - deviation

    def within_ci(self, k: int) -> np.ndarray:
        """Whether each dispatch coordinate at point k lies inside its parameter's rho-interval."""
        half = _quantile(self.rho) * self.parameter_stdevs
        return np.abs(self._deviations(k)) <= half * (1 + 1e-12)

    def parameter_envelope(self, k: int) -> tuple[np.ndarray | None, np.ndarray | None]:
        """Per-parameter extremes across the worst-case dispatches at point k."""
        ub, lb = self.dispatches(k)
        if not len(ub):
            return None, None
        return ub.max(axis=0), lb.min(axis=0)

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "case": self.case_name,
            "rho": self.rho,
            "metric_buses": list(self.metric_buses),
            "parameters": {
                "labels": list(self.parameter_labels),
                "means": self.parameter_means.tolist(),
                "stdevs": self.parameter_stdevs.tolist(),
            },
            "c_nom": self.c_nom.tolist(),
            "degenerate": self.degenerate.tolist(),
            "dispatch_directions": _encode_rows(self.dispatch_directions),
            "sigma_mode": self.sigma_mode,
            "sigma_unit": self.sigma_unit,
            "points": [p.to_dict() for p in self.points],
            "violations": self.violations.to_dict(),
            "sensitivity_methods": list(self.sensitivity_methods),
            "runtime_s": self.runtime_s,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RmssReport":
        """Rebuild a report written by :meth:`to_dict`; anything else is a SchemaError."""
        schema = data.get("schema") if isinstance(data, dict) else None
        if schema != SCHEMA_VERSION:
            raise SchemaError(
                f"rmss report schema {schema!r} is not supported (expected {SCHEMA_VERSION})"
            )
        try:
            params, stored = data["parameters"], data["violations"]
            d = len(params["labels"])
            metric_buses = tuple(data["metric_buses"])
            degenerate = np.array(data["degenerate"], dtype=bool)
            directions = _decode_rows(data["dispatch_directions"], d)
            points = tuple(
                SweepPoint(
                    p["label"],
                    np.array(p["sigma_abs"], dtype=float),
                    np.array(p["results"], dtype=float).reshape(-1, 2),
                )
                for p in data["points"]
            )
            v_min = np.array(stored["v_min"], dtype=float)
            v_max = np.array(stored["v_max"], dtype=float)
            c_nom = np.array(data["c_nom"], dtype=float)
            means = np.array(params["means"], dtype=float)
            stdevs = np.array(params["stdevs"], dtype=float)
            m = len(metric_buses)
            if (
                degenerate.shape != (m,)
                or c_nom.shape != (m,)
                or len(directions) != m - degenerate.sum()
                or any(p.results.shape != (m, 2) or p.sigma_abs.shape != (m,) for p in points)
                or v_min.shape != (m,)
                or v_max.shape != (m,)
            ):
                raise SchemaError(f"rmss report arrays do not match its {m} metric buses")
            if means.shape != (d,) or stdevs.shape != (d,):
                raise SchemaError(f"rmss report parameter arrays do not match its {d} labels")
            # The tallies the bounds and limits give must be the stored ones.
            bounds = np.array([p.results for p in points]).reshape(len(points), m, 2)
            violations = count_violations(
                [p.label for p in points], metric_buses, bounds, v_min, v_max
            )
            if violations.to_dict() != stored:
                raise SchemaError("rmss report violation tallies disagree with its bounds")
            return cls(
                case_name=data["case"],
                rho=data["rho"],
                metric_buses=metric_buses,
                parameter_labels=tuple(params["labels"]),
                parameter_means=means,
                parameter_stdevs=stdevs,
                c_nom=c_nom,
                degenerate=degenerate,
                dispatch_directions=directions,
                sigma_mode=data["sigma_mode"],
                sigma_unit=data["sigma_unit"],
                points=points,
                violations=violations,
                sensitivity_methods=tuple(data["sensitivity_methods"]),
                runtime_s=data["runtime_s"],
            )
        except (KeyError, TypeError, ValueError) as exc:  # binascii.Error is a ValueError
            raise SchemaError(f"malformed rmss report: {exc!r}") from exc


def _encode_rows(array: np.ndarray) -> str:
    """Base64 of a 2-D array's row-major little-endian float64 bytes.

    Exact, and several times cheaper to encode and parse than the ``repr``
    of every float.
    """
    return base64.b64encode(np.ascontiguousarray(array, dtype="<f8").tobytes()).decode("ascii")


def _decode_rows(text: str, cols: int) -> np.ndarray:
    """The (rows, cols) array that :func:`_encode_rows` wrote.

    Anything else raises ValueError (bad base64 or length) or TypeError.
    """
    raw = base64.b64decode(text, validate=True)
    return np.frombuffer(raw, dtype="<f8").reshape(-1, cols).astype(float)


def _resolve_sigma_points(
    sigma_c, c_nom: np.ndarray, propagated_abs: np.ndarray
) -> tuple[str, str, list[float | str], np.ndarray]:
    """Map the sigma_c argument onto (mode, unit, point labels, (P, m) absolute sigma)."""
    if sigma_c is None:
        sigma_c = SweepGrid.default()
    if isinstance(sigma_c, str):
        if sigma_c != PROPAGATED:
            raise ValueError(f"unknown sigma_c mode {sigma_c!r}")
        return PROPAGATED, ABSOLUTE, [PROPAGATED], propagated_abs[None, :]
    if isinstance(sigma_c, SweepGrid):
        mode = "sweep" if len(sigma_c.values) > 1 else "known"
        scale = c_nom if sigma_c.unit == FRACTION else np.ones_like(c_nom)
        return mode, sigma_c.unit, list(sigma_c.values), np.outer(sigma_c.values, scale)
    value = float(sigma_c)
    if value < 0:
        raise ValueError(f"sigma_c must be nonnegative, got {value}")
    return "known", ABSOLUTE, [value], np.full((1, len(c_nom)), value)


def nominal_solution(engine: PowerFlowEngine, params: StochasticParameterSet) -> PowerFlowSolution:
    """The power flow at the parameter means, or :class:`NonConvergence` with its history."""
    # Through this module's solve_power_flow, the name perfbench/layers.py traces.
    sol = solve_power_flow(engine, injections=params.apply(engine.case, params.means))
    if not sol.converged:
        raise NonConvergence(
            "nominal power flow did not converge "
            f"(mismatch history: {[f'{m:.3e}' for m in sol.mismatch_history]})",
            solution=sol,
        )
    return sol


def run_rmss(
    case: GridCase,
    params: StochasticParameterSet,
    spec: MetricSpec | None = None,
    rho: float = 0.975,
    sigma_c: SweepGrid | float | str | None = None,
    limits: dict[int, tuple[float, float]] | float | str = "case",
    seed: int = 0,
) -> RmssReport:
    """Full risk-managed analysis: nominal solve, sensitivities, bounds, violations.

    ``sigma_c`` may be a known absolute value, a :class:`SweepGrid`,
    ``"propagated"`` to take each metric's first-order standard deviation
    from the parameter covariance, or None for the default sweep.
    ``limits`` is ``"case"`` for the per-bus limits carried by the case, a
    float band fraction applied around each nominal metric value, or an
    explicit ``{bus: (v_min, v_max)}`` map. ``seed`` is unused: nothing in
    the analysis is random.
    """
    t0 = time.perf_counter()
    z = _quantile(rho)

    engine = PowerFlowEngine(case)
    sol = nominal_solution(engine, params)
    spec = spec if spec is not None else default_metric_spec(case)
    buses = spec.buses
    c_nom = evaluate_metrics(sol, spec)

    sens = hybrid_sensitivities(engine, sol, params, spec)
    variance, degenerate, directions = _linearization(params.sigma, sens.values)
    if degenerate.any():
        logger.warning(
            "metric buses %s: direction degenerate, dispatch skipped",
            [b for b, deg in zip(buses, degenerate) if deg],
        )

    mode, unit, labels, sigma_abs = _resolve_sigma_points(
        sigma_c, c_nom, np.sqrt(np.clip(variance, 0.0, None))
    )
    bounds = _bounds(c_nom, sigma_abs, z)  # (P, m, 2)
    v_min, v_max = limit_arrays(limits, case, buses, c_nom)

    return RmssReport(
        case_name=case.name,
        rho=rho,
        metric_buses=buses,
        parameter_labels=params.labels(),
        parameter_means=params.means,
        parameter_stdevs=params.stdevs,
        c_nom=c_nom,
        degenerate=degenerate,
        dispatch_directions=directions,
        sigma_mode=mode,
        sigma_unit=unit,
        points=tuple(SweepPoint(*point) for point in zip(labels, sigma_abs, bounds)),
        violations=count_violations(labels, buses, bounds, v_min, v_max),
        sensitivity_methods=sens.methods,
        runtime_s=time.perf_counter() - t0,
    )
