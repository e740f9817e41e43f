"""Seeded Monte Carlo power-flow oracle and accuracy/runtime comparison.

Samples are drawn once up front from the seeded generator. Each worker
solves a contiguous run of whole blocks of ``BLOCK_SIZE`` consecutive
samples in one lockstep Newton run of the case's power-flow engine: the
first block starts at once, and before each iteration in which fewer
than ``BLOCK_SIZE`` rows would step the next block joins them, so a slow
or failing sample steps alongside fresh ones. Each sample's solve is a pure function of
(case, sample), whatever rows it steps with, so the worker count cannot
change a single bit of the statistics. A sample that diverges or meets a
singular Jacobian fails alone: it is in ``failed_indices``, and in the
iteration histogram at its stop. Blocks overlap, so a block's wall time
runs from the previous block's last row stopping to its own.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .exceptions import (
    AllSamplesFailed, ConfigError, DimensionMismatch, ExcessiveFailureRate, SchemaError
)
from .model import GridCase
from .parameters import StochasticParameterSet
# build_admittance, evaluate_metrics and solve_power_flow are unused here but
# stay importable: perfbench/layers.py traces them under this module.
from .powerflow import (  # noqa: F401
    MetricSpec,
    PowerFlowEngine,
    PowerFlowSolution,
    build_admittance,
    evaluate_metrics,
    metric_positions,
    solve_power_flow,
)
from .reportio import atomic_write_text
from .worstcase import RmssReport, _quantile, nominal_solution

_Z95 = _quantile(0.975)
_MAX_FAILURE_RATE = 0.01  # beyond this the comparison is unrepresentative

BLOCK_SIZE = 64  # samples per lockstep Newton block

CI_PERCENTILE = "percentile"  # empirical 2.5/97.5 percentiles of the metric distribution


@dataclass(eq=False)
class SampleBatch:
    """Reproducible i.i.d. multivariate-normal parameter draws."""

    values: np.ndarray  # (n, d) pu
    seed: int


def sample_parameters(params: StochasticParameterSet, n: int, seed: int) -> SampleBatch:
    """Draw n joint samples via a symmetric factor of the covariance."""
    if n < 0:
        raise ConfigError(f"sample count must be nonnegative, got {n}")
    factor = params.factor()
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, len(params)))
    return SampleBatch(values=params.means + z @ factor.T, seed=seed)


@dataclass(eq=False)
class _Solved:
    """Per-sample outcome of a run of consecutive samples."""

    metrics: np.ndarray  # (k, m), NaN rows for failed samples
    converged: np.ndarray  # (k,) bool
    iterations: np.ndarray  # (k,) Newton iterations per sample
    block_seconds: list[float]  # wall time of each block
    block_sizes: list[int]


def _solve_samples(
    engine: PowerFlowEngine,
    params: StochasticParameterSet,
    spec: MetricSpec,
    samples: np.ndarray,
    start: PowerFlowSolution,
) -> _Solved:
    """Solve consecutive samples in one refilled lockstep run from ``start``.

    The samples enter :meth:`PowerFlowEngine.solve_blocks` one block of
    ``BLOCK_SIZE`` at a time, and a block's injections and states are
    built only when it is admitted: whenever fewer than a block's worth of
    rows still iterate. Each row that stops has its metrics, converged flag
    and iteration count written at its sample index. A sample with a
    singular Jacobian fails alone, like one that diverges.

    Blocks overlap, so a block's time is the wall time from the previous
    block's last row stopping to its own (blocks finishing together share
    that time); the times sum to the whole solve.
    """
    positions = metric_positions(engine.bus_ids, spec)
    inject = params.injector(engine.case)
    starts = np.arange(0, len(samples), BLOCK_SIZE)
    out = _Solved(
        metrics=np.full((len(samples), len(spec)), np.nan),
        converged=np.zeros(len(samples), dtype=bool),
        iterations=np.zeros(len(samples), dtype=int),
        block_seconds=[],
        block_sizes=np.diff([*starts, len(samples)]).tolist(),
    )
    stopped_at = np.empty(len(samples))  # wall time at which each sample stopped
    t0 = time.perf_counter()
    blocks = (inject(samples[lo : lo + BLOCK_SIZE]) for lo in starts)
    for rows, part in engine.solve_blocks(blocks, start=start):
        ok = part.converged
        out.metrics[rows[ok]] = np.abs(part.v[ok][:, positions])
        out.converged[rows] = ok
        out.iterations[rows] = part.iterations
        stopped_at[rows] = time.perf_counter()
    finished = np.maximum.reduceat(stopped_at, starts)  # each block's last stop
    times, at, together = np.unique(finished, return_inverse=True, return_counts=True)
    out.block_seconds = (np.diff(times, prepend=t0)[at] / together[at]).tolist()
    return out


@dataclass(eq=False)
class McReport:
    """Metric statistics over converged sampled solves, plus runtimes."""

    case_name: str
    metric_buses: tuple[int, ...]
    parameter_labels: tuple[str, ...]
    n_samples: int
    n_failed: int
    seed: int
    metric_mean: np.ndarray
    metric_stdev: np.ndarray
    metric_ci_lb: np.ndarray
    metric_ci_ub: np.ndarray
    param_mean: np.ndarray
    param_stdev: np.ndarray
    param_ci_lb: np.ndarray
    param_ci_ub: np.ndarray
    total_runtime_s: float
    per_solve_mean_s: float
    per_solve_min_s: float
    per_solve_p50_s: float | None = None  # None in a report written before they existed
    per_solve_p95_s: float | None = None
    workers: int = 1
    metric_samples: np.ndarray | None = field(default=None, repr=False)
    failed_indices: np.ndarray = field(  # sample indices whose solve failed, ascending
        default_factory=lambda: np.zeros(0, dtype=int), repr=False
    )
    newton_iterations: dict[int, int] = field(default_factory=dict)  # iterations -> samples

    def samples_to_csv(self, path) -> None:
        """Per-sample metric values for external analysis (NaN = failed solve)."""
        if self.metric_samples is None:
            raise ConfigError("run with keep_samples=True to retain per-sample metrics")
        header = "sample," + ",".join(f"bus{b}" for b in self.metric_buses)
        lines = [header]
        for i, row in enumerate(self.metric_samples):
            lines.append(f"{i}," + ",".join(repr(float(v)) for v in row))
        atomic_write_text(path, "\n".join(lines) + "\n")

    def statistics_dict(self) -> dict:
        """The deterministic part of the report: identical for a fixed seed."""
        return {
            "n_samples": self.n_samples,
            "n_failed": self.n_failed,
            "seed": self.seed,
            "ci_method": CI_PERCENTILE,
            "metrics": {
                "buses": list(self.metric_buses),
                "mean": self.metric_mean.tolist(),
                "stdev": self.metric_stdev.tolist(),
                "ci_lb": self.metric_ci_lb.tolist(),
                "ci_ub": self.metric_ci_ub.tolist(),
            },
            "parameters": {
                "labels": list(self.parameter_labels),
                "mean": self.param_mean.tolist(),
                "stdev": self.param_stdev.tolist(),
                "ci_lb": self.param_ci_lb.tolist(),
                "ci_ub": self.param_ci_ub.tolist(),
            },
        }

    def to_dict(self) -> dict:
        return {
            "case": self.case_name,
            "statistics": self.statistics_dict(),
            "diagnostics": {
                "failed_indices": self.failed_indices.tolist(),
                "newton_iterations": {
                    str(k): v for k, v in sorted(self.newton_iterations.items())
                },
            },
            "timing": {
                "total_runtime_s": self.total_runtime_s,
                "per_solve_mean_s": self.per_solve_mean_s,
                "per_solve_min_s": self.per_solve_min_s,
                "per_solve_p50_s": self.per_solve_p50_s,
                "per_solve_p95_s": self.per_solve_p95_s,
            },
            "workers": self.workers,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "McReport":
        """Rebuild a report written by :meth:`to_dict`; missing fields are a SchemaError.

        So is a metric or parameter array whose length differs from its
        ``buses`` or ``labels`` list. The ``diagnostics`` block and the
        per-solve quantiles are optional, so reports written before them
        still load. A report whose intervals are not the sampled
        percentiles is refused: the worst-case bounds are quantiles, and
        ``mae_compare`` can score them against quantiles only.
        """
        try:
            stats, timing = data["statistics"], data["timing"]
            metrics, params = stats["metrics"], stats["parameters"]
            diagnostics = data.get("diagnostics", {})
            if stats["ci_method"] != CI_PERCENTILE:
                raise SchemaError(
                    f"Monte Carlo report intervals are {stats['ci_method']!r}, "
                    f"not {CI_PERCENTILE!r} quantiles"
                )
            arrays = {}
            for prefix, block, names in (("metric", metrics, "buses"), ("param", params, "labels")):
                for key in ("mean", "stdev", "ci_lb", "ci_ub"):
                    values = np.array(block[key])
                    if values.shape != (len(block[names]),):
                        raise SchemaError(
                            f"Monte Carlo report {prefix} {key} does not match its {names}"
                        )
                    arrays[f"{prefix}_{key}"] = values
            return cls(
                case_name=data["case"],
                metric_buses=tuple(metrics["buses"]),
                parameter_labels=tuple(params["labels"]),
                n_samples=stats["n_samples"],
                n_failed=stats["n_failed"],
                seed=stats["seed"],
                **arrays,
                total_runtime_s=timing["total_runtime_s"],
                per_solve_mean_s=timing["per_solve_mean_s"],
                per_solve_min_s=timing["per_solve_min_s"],
                per_solve_p50_s=timing.get("per_solve_p50_s"),
                per_solve_p95_s=timing.get("per_solve_p95_s"),
                workers=data.get("workers", 1),
                failed_indices=np.array(diagnostics.get("failed_indices", []), dtype=int),
                newton_iterations={
                    int(k): v for k, v in diagnostics.get("newton_iterations", {}).items()
                },
            )
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise SchemaError(f"malformed Monte Carlo report: missing or bad field {exc}") from exc


def run_monte_carlo(
    case: GridCase,
    params: StochasticParameterSet,
    spec: MetricSpec,
    n: int,
    seed: int,
    workers: int = 1,
    keep_samples: bool = False,
) -> McReport:
    """One deterministic solve per sample; statistics over converged solves.

    Statistics depend only on (seed, n, params, case): the worker count
    merely decides which process solves each fixed block of samples, and
    the rows a sample steps with change none of its bits.
    """
    t0 = time.perf_counter()

    engine = PowerFlowEngine(case)
    nominal = nominal_solution(engine, params)

    batch = sample_parameters(params, n, seed)
    n_blocks = -(-n // BLOCK_SIZE)
    jobs = min(workers, n_blocks)
    solve = partial(_solve_samples, engine, params, spec, start=nominal)
    if jobs <= 1:
        parts = [solve(batch.values)]
    else:
        # Contiguous runs of whole blocks, one run per worker.
        edges = [BLOCK_SIZE * blocks[0] for blocks in np.array_split(range(n_blocks), jobs)]
        chunks = [batch.values[a:b] for a, b in zip(edges, edges[1:] + [n])]
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            parts = list(pool.map(solve, chunks))
    metrics = np.concatenate([part.metrics for part in parts])
    converged = np.concatenate([part.converged for part in parts])
    iterations = np.bincount(np.concatenate([part.iterations for part in parts]))
    block_seconds = [t for part in parts for t in part.block_seconds]
    block_sizes = [k for part in parts for k in part.block_sizes]
    per_solve = np.divide(block_seconds, block_sizes) if n else np.zeros(1)

    failed = np.flatnonzero(~converged)
    good = metrics[converged]
    if n > 0 and len(good) == 0:
        raise AllSamplesFailed(f"all {n} sampled solves diverged")

    if len(good):
        mean = good.mean(axis=0)
        stdev = good.std(axis=0, ddof=1) if len(good) > 1 else np.zeros(len(spec))
        ci_lb = np.percentile(good, 2.5, axis=0)
        ci_ub = np.percentile(good, 97.5, axis=0)
    else:
        mean = stdev = ci_lb = ci_ub = np.full(len(spec), np.nan)

    total = time.perf_counter() - t0
    return McReport(
        case_name=case.name,
        metric_buses=spec.buses,
        parameter_labels=params.labels(),
        n_samples=n,
        n_failed=len(failed),
        seed=seed,
        metric_mean=mean,
        metric_stdev=stdev,
        metric_ci_lb=ci_lb,
        metric_ci_ub=ci_ub,
        param_mean=params.means,
        param_stdev=params.stdevs,
        param_ci_lb=params.means - _Z95 * params.stdevs,
        param_ci_ub=params.means + _Z95 * params.stdevs,
        total_runtime_s=total,
        per_solve_mean_s=sum(block_seconds) / n if n else 0.0,
        per_solve_min_s=float(per_solve.min()),
        per_solve_p50_s=float(np.percentile(per_solve, 50)),
        per_solve_p95_s=float(np.percentile(per_solve, 95)),
        workers=workers,
        metric_samples=metrics if keep_samples else None,
        failed_indices=failed,
        newton_iterations={k: int(c) for k, c in enumerate(iterations) if c},
    )


@dataclass(eq=False)
class ComparisonReport:
    """Mean absolute error between worst-case bounds and the sampled intervals."""

    mae_c_ub: float  # pu
    mae_c_lb: float
    mae_e_ub: float
    mae_e_lb: float
    speedup: float  # MC runtime / analysis runtime
    sigma_label: float | str  # sweep point used (best c-side fit)
    per_point: tuple[tuple[float | str, float, float], ...]  # (label, mae_c_ub, mae_c_lb)

    @property
    def mae_pct(self) -> dict[str, float]:
        return {
            "c_ub": 100.0 * self.mae_c_ub,
            "c_lb": 100.0 * self.mae_c_lb,
            "e_ub": 100.0 * self.mae_e_ub,
            "e_lb": 100.0 * self.mae_e_lb,
        }

    def to_dict(self) -> dict:
        return {
            "mae_pu": {
                "c_ub": self.mae_c_ub,
                "c_lb": self.mae_c_lb,
                "e_ub": self.mae_e_ub,
                "e_lb": self.mae_e_lb,
            },
            "mae_pct": self.mae_pct,
            "speedup": self.speedup,
            "sigma_label": self.sigma_label,
            "per_point": [
                {"sigma": label, "mae_c_ub": a, "mae_c_lb": b}
                for label, a, b in self.per_point
            ],
        }


def mae_compare(rmss: RmssReport, mc: McReport) -> ComparisonReport:
    """Mean absolute error per bound, plus the wall-clock speedup ratio.

    With a swept report the point whose metric bounds best fit the sampled
    interval is selected and reported; parameter bounds are the
    per-parameter envelope of the worst-case dispatches at that point.
    """
    if tuple(rmss.metric_buses) != tuple(mc.metric_buses):
        raise DimensionMismatch(
            f"metric buses differ: {rmss.metric_buses} vs {mc.metric_buses}"
        )
    if tuple(rmss.parameter_labels) != tuple(mc.parameter_labels):
        raise DimensionMismatch(
            f"parameter orderings differ: {rmss.parameter_labels} vs {mc.parameter_labels}"
        )
    if mc.n_samples > 0 and mc.n_failed / mc.n_samples > _MAX_FAILURE_RATE:
        raise ExcessiveFailureRate(
            f"{mc.n_failed}/{mc.n_samples} sampled solves failed; comparison unrepresentative"
        )

    per_point = [
        (
            point.label,
            float(np.mean(np.abs(point.results[:, 0] - mc.metric_ci_ub))),
            float(np.mean(np.abs(point.results[:, 1] - mc.metric_ci_lb))),
        )
        for point in rmss.points
    ]
    best = int(np.argmin([a + b for _, a, b in per_point]))
    label, mae_c_ub, mae_c_lb = per_point[best]

    env_ub, env_lb = rmss.parameter_envelope(best)
    if env_ub is None:
        mae_e_ub = mae_e_lb = float("nan")
    else:
        mae_e_ub = float(np.mean(np.abs(env_ub - mc.param_ci_ub)))
        mae_e_lb = float(np.mean(np.abs(env_lb - mc.param_ci_lb)))

    return ComparisonReport(
        mae_c_ub=mae_c_ub,
        mae_c_lb=mae_c_lb,
        mae_e_ub=mae_e_ub,
        mae_e_lb=mae_e_lb,
        speedup=mc.total_runtime_s / rmss.runtime_s,
        sigma_label=label,
        per_point=tuple(per_point),
    )
