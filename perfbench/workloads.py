"""Workload definitions, the operations one pass runs, and their output checks.

A pass runs the ``rmss mc`` path (``run_monte_carlo`` plus its report
write) between two halves of ``run_reps`` ``rmss run`` paths (``run_rmss``
plus the three report writes), then, for the Table-1 protocol,
``rmss compare``.
Every pass of a run repeats the same inputs, so per-pass counts repeat
exactly. Every operation's output is checked against ``reference/``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from rmss import montecarlo, reportio, worstcase

from spec import WORKLOADS

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"
MC_REFERENCE = REFERENCE_DIR / "mc_statistics.json"

# The sample seed is --seed mod SAMPLE_SEEDS, so every run's Monte Carlo
# statistics can be checked against a reference stored for that seed.
SAMPLE_SEEDS = 10
MC_TOLERANCE_PU = 1e-6
CSV_TOLERANCE_PU = 1e-12
MAX_MAE_PCT = 2.0  # acceptance criterion 3
REDUCED_MC_DIVISOR = 20  # the warm-up pass runs 1/20 of a pass's samples


class CheckFailed(Exception):
    """An output differs from the reference or breaks an accuracy criterion."""


@dataclass
class PassResult:
    duration_s: float = 0.0
    run_s: list[float] = field(default_factory=list)
    mc_s: float = 0.0
    mc_attempted: int = 0
    mc_failed: int = 0
    operations: int = 0


class Runner:
    """One workload at one scale and seed, with its loaded case."""

    def __init__(self, name, scale, seed, case, params, spec, out_dir, reference=None):
        self.name = name
        self.workload = WORKLOADS[name]
        self.size = self.workload.sizes[scale]
        self.scale = scale
        w = self.workload
        self.sample_seed = (
            w.fixed_sample_seed if w.fixed_sample_seed is not None else seed % SAMPLE_SEEDS
        )
        self.case, self.params, self.spec = case, params, spec
        self.out = Path(out_dir)
        self.out.mkdir(parents=True, exist_ok=True)
        self.reference = reference

    # -- operations ---------------------------------------------------------

    def run_path(self):
        """``rmss run``: analysis plus the three report files."""
        w = self.workload
        t0 = perf_counter()
        report = worstcase.run_rmss(
            self.case, self.params, self.spec,
            sigma_c=w.sigma_c, limits=w.limits, seed=self.sample_seed,
        )
        reportio.write_json(self.out / "rmss_report.json", report.to_dict())
        reportio.write_violations_csv(self.out / "violations.csv", report)
        reportio.write_worst_violator_csv(self.out / "worst_violator.csv", report)
        return report, perf_counter() - t0

    def mc_path(self, n: int):
        """``rmss mc``: the seeded oracle, timed without its report write."""
        t0 = perf_counter()
        mc = montecarlo.run_monte_carlo(
            self.case, self.params, self.spec, n=n, seed=self.sample_seed, workers=1
        )
        elapsed = perf_counter() - t0
        reportio.write_json(self.out / "mc_report.json", mc.to_dict())
        return mc, elapsed

    def compare_path(self, report, mc):
        """``rmss compare``: MAE of the bounds against the sampled intervals."""
        comp = montecarlo.mae_compare(report, mc)
        reportio.write_json(self.out / "comparison.json", comp.to_dict())
        return comp

    def run_pass(self, run_reps: int, mc_samples: int, check: bool) -> PassResult:
        """Run paths split around the Monte Carlo path, so run_s samples two windows."""
        res = PassResult(operations=run_reps + 1)
        t0 = perf_counter()
        report = self._run_paths(run_reps - run_reps // 2, res, check)
        mc, res.mc_s = self.mc_path(mc_samples)
        res.mc_attempted, res.mc_failed = mc.n_samples, mc.n_failed
        if check:
            self.check_mc(mc)
        self._run_paths(run_reps // 2, res, check)
        if self.workload.compare:
            comp = self.compare_path(report, mc)
            res.operations += 1
            if check:
                check_accuracy(comp)
        res.duration_s = perf_counter() - t0
        return res

    def _run_paths(self, count: int, res: PassResult, check: bool):
        report = None
        for _ in range(count):
            report, elapsed = self.run_path()
            res.run_s.append(elapsed)
            if check:
                self.check_run_outputs()
        return report

    def reduced_pass(self) -> PassResult:
        """Every operation once, Monte Carlo at a fraction of its size; unchecked."""
        n = max(1, self.size.mc_samples // REDUCED_MC_DIVISOR)
        return self.run_pass(1, n, check=False)

    def measure(self, seconds: float, tracer=None) -> list[PassResult]:
        """The number of whole checked passes expected to end closest to ``seconds``.

        Another pass runs while it would end nearer to ``seconds`` than now,
        so a pass count does not flip when a pass takes about seconds/2.
        With a tracer, pass i's spans get run id ``pass-i``.
        """
        passes: list[PassResult] = []
        t0 = perf_counter()
        while True:
            if tracer is not None:
                tracer.run_id = f"pass-{len(passes)}"
            passes.append(self.run_pass(self.size.run_reps, self.size.mc_samples, check=True))
            if perf_counter() - t0 + passes[-1].duration_s / 2 >= seconds:
                return passes

    # -- checks -------------------------------------------------------------

    def check_run_outputs(self) -> None:
        ref_dir = REFERENCE_DIR / self.name
        got = (self.out / "violations.csv").read_bytes()
        if got != (ref_dir / "violations.csv").read_bytes():
            raise CheckFailed(f"{self.name}: violations.csv differs from the reference")
        compare_worst_violator(
            (self.out / "worst_violator.csv").read_text(),
            (ref_dir / "worst_violator.csv").read_text(),
        )

    def check_mc(self, mc) -> None:
        key = reference_key(self.name, self.scale, self.sample_seed)
        ref = (self.reference or {}).get(key)
        if ref is None:
            raise CheckFailed(f"no Monte Carlo reference for {key}")
        got = mc_statistics(mc)
        for count in ("n_samples", "n_failed"):
            if got[count] != ref[count]:
                raise CheckFailed(f"{key}: {count} {got[count]} != reference {ref[count]}")
        for stat in ("mean", "stdev", "ci_lb", "ci_ub"):
            diff = np.max(np.abs(np.asarray(got[stat]) - np.asarray(ref[stat])))
            if not diff <= MC_TOLERANCE_PU:
                raise CheckFailed(f"{key}: metric {stat} differs from reference by {diff:.3e} pu")
        if self.workload.compare and mc.n_failed:
            raise CheckFailed(f"{key}: {mc.n_failed} Table-1 samples failed")


def reference_key(name: str, scale: str, sample_seed: int) -> str:
    return f"{name}/{scale}/{sample_seed}"


def mc_statistics(mc) -> dict:
    """Converged-sample statistics, rounded far below the check tolerance."""
    return {
        "n_samples": mc.n_samples,
        "n_failed": mc.n_failed,
        "mean": [round(float(v), 10) for v in mc.metric_mean],
        "stdev": [round(float(v), 10) for v in mc.metric_stdev],
        "ci_lb": [round(float(v), 10) for v in mc.metric_ci_lb],
        "ci_ub": [round(float(v), 10) for v in mc.metric_ci_ub],
    }


def load_reference() -> dict:
    return json.loads(MC_REFERENCE.read_text())


def compare_worst_violator(got: str, ref: str) -> None:
    """Same rows, labels and buses; bound values within CSV_TOLERANCE_PU."""
    got_rows = [line.split(",") for line in got.splitlines()]
    ref_rows = [line.split(",") for line in ref.splitlines()]
    if len(got_rows) != len(ref_rows) or got_rows[:1] != ref_rows[:1]:
        raise CheckFailed("worst_violator.csv shape differs from the reference")
    for g, r in zip(got_rows[1:], ref_rows[1:]):
        if g[:2] != r[:2] or len(g) != len(r):
            raise CheckFailed(f"worst_violator.csv row {g[:2]} != reference {r[:2]}")
        for a, b in zip(g[2:], r[2:]):
            if not abs(float(a) - float(b)) <= CSV_TOLERANCE_PU:
                raise CheckFailed(f"worst_violator.csv value {a} != reference {b}")


def check_accuracy(comp) -> None:
    bad = {k: v for k, v in comp.mae_pct.items() if not v <= MAX_MAE_PCT}
    if bad:
        raise CheckFailed(f"Table-1 MAE above {MAX_MAE_PCT}%: {bad}")


def tail(values: list[float]) -> tuple[float, float]:
    """The sample with exactly 10 samples above it, and its percentile.

    With 10 or fewer samples no such percentile exists; the maximum is
    returned with percentile 100.
    """
    xs = sorted(values)
    if len(xs) <= 10:
        return xs[-1], 100.0
    k = len(xs) - 11
    return xs[k], 100.0 * (k + 1) / len(xs)


def end_to_end(passes: list[PassResult]) -> tuple[dict[str, float], dict]:
    run_s = [t for p in passes for t in p.run_s]
    tail_value, tail_pct = tail(run_s)
    attempted = sum(p.mc_attempted for p in passes)
    failed = sum(p.mc_failed for p in passes)
    metrics = {
        "run_s.p50": float(np.median(run_s)),
        "run_s.tail": tail_value,
        "mc_solves_per_s": attempted / sum(p.mc_s for p in passes),
        "mc_converged_frac": (attempted - failed) / attempted,
    }
    info = {
        "passes": len(passes),
        "run_s_samples": len(run_s),
        "run_s_tail_percentile": round(tail_pct, 1),
        "mc_samples": attempted,
        "mc_failed_samples": failed,
        "measured_s": round(sum(p.duration_s for p in passes), 3),
    }
    return metrics, info

