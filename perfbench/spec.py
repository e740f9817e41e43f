"""What the benchmark runs and what it prints; BENCHMARK.json lists the same names.

Standard library only: worker.py reads it before its set-up timer starts.
"""

from dataclasses import dataclass

SIGMA_P = 0.02  # parameter stdev as a fraction of each mean, as `--sigma-p 2%`


@dataclass(frozen=True)
class Size:
    run_reps: int  # `rmss run` paths per pass
    mc_samples: int  # samples of the one `rmss mc` path per pass


@dataclass(frozen=True)
class Workload:
    case: str
    essential: str
    sigma_c: str | None  # None: the default 20-point sweep
    limits: float | str  # a float is a band around nominal, as `--limits band:2%`
    sizes: dict[str, Size]
    fixed_sample_seed: int | None = None  # seed-independent Monte Carlo spot check
    compare: bool = False


WORKLOADS = {
    # The 20-point sweep builds 1,920 result objects and a 26 MB report:
    # worstcase and reportio do nearly all the work. Its Monte Carlo part is
    # a 50-sample spot check on fixed samples, there only so that every
    # end-to-end metric exists on every workload.
    "run-118-all-sweep": Workload(
        case="case118_stoch",
        essential="all",
        sigma_c=None,
        limits=0.02,
        sizes={"full": Size(1, 50), "tiny": Size(1, 50)},
        fixed_sample_seed=0,
    ),
    # The paper's Table-1 protocol: the scalar Monte Carlo loop on a small
    # grid is about 90% of the time and no sample fails.
    "validate-14-solar": Workload(
        case="case14_stoch",
        essential="all-solar",
        sigma_c="propagated",
        limits="case",
        sizes={"full": Size(100, 10_000), "tiny": Size(2, 200)},
        compare=True,
    ),
    # 118 buses, 2-6 Newton iterations per converged sample, and a few
    # samples per thousand that run all 50 iterations without converging.
    # 6,000 samples give every reference seed at least 10 failures.
    "mc-118-stressed": Workload(
        case="case118_stoch",
        essential="all",
        sigma_c="propagated",
        limits="case",
        sizes={"full": Size(30, 6_000), "tiny": Size(2, 300)},
    ),
}

END_TO_END = {
    "setup_s": "s",
    "run_s.p50": "s",
    "run_s.tail": "s",
    "mc_solves_per_s": "1/s",
    "mc_converged_frac": "ratio",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "setup.import_s": "s",
    "matpower.parse_case.s": "s",
    "model.tag_validate.s": "s",
    "powerflow.solve.calls": "count",
    "powerflow.solve.s": "s",
    "powerflow.solve.p50_ms": "ms",
    "powerflow.solve.p95_ms": "ms",
    "powerflow.newton_iters": "count",
    "powerflow.build_admittance.calls": "count",
    "powerflow.solve.failed": "count",
    "powerflow.solve.failed_s": "s",
    "powerflow.solve.useful_ratio": "ratio",
    "parameters.apply.s": "s",
    "montecarlo.run_monte_carlo.self_s": "s",
    "montecarlo.evaluate_metrics.s": "s",
    "montecarlo.sample_parameters.s": "s",
    "sensitivity.hybrid.s": "s",
    "sensitivity.adjoint.s": "s",
    "sensitivity.adjoint_solves": "count",
    "sensitivity.fd_probe.s": "s",
    "sensitivity.fd_probe.solves": "count",
    "sensitivity.flagged_rows": "count",
    "sensitivity.fd_probe.yield": "rows/solve",
    "worstcase.run_rmss.self_s": "s",
    "worstcase.results": "count",
    "worstcase.count_violations.s": "s",
    "worstcase.violations": "count",
    "worstcase.to_dict.s": "s",
    "reportio.write_json.s": "s",
    "reportio.write_csv.s": "s",
    "reportio.bytes": "bytes",
    "trace.overhead_frac": "ratio",
}

# Per-pass counts from the traced run; each must repeat exactly.
EXACT_COUNTS = (
    "powerflow.solve.calls",
    "powerflow.newton_iters",
    "powerflow.solve.failed",
    "powerflow.build_admittance.calls",
    "sensitivity.adjoint_solves",
    "sensitivity.fd_probe.solves",
    "sensitivity.flagged_rows",
    "worstcase.results",
    "worstcase.violations",
    "reportio.bytes",
)

SETUP_LAYERS = ("setup.import_s", "matpower.parse_case.s", "model.tag_validate.s")
