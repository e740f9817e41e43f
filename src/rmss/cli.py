"""Command-line front end for the risk-managed steady-state pipeline.

Exit codes: 0 success, 2 solver failure, 3 bad configuration or input,
including a command line that does not parse; an error's base class in
:mod:`rmss.exceptions` decides its code. All report files are
JSON/CSV written atomically, and every run leaves a manifest echoing the
resolved configuration (with ``mc``'s seed) and versions.
"""

from __future__ import annotations

import json
import os
import sys
from contextlib import contextmanager
from pathlib import Path

import click
import numpy as np

from . import cases
from .exceptions import ConfigError, InputError, SolverError
from .matpower import parse_case
from .model import GridCase, tag_essential, validate_case
from .montecarlo import McReport, mae_compare, run_monte_carlo
from .parameters import Axis, StochasticParameterSet
from .powerflow import MetricSpec, default_metric_spec, engine_for
from .reportio import (
    write_json,
    write_manifest,
    write_violations_csv,
    write_worst_violator_csv,
)
from .sensitivity import hybrid_sensitivities
from .worstcase import (
    ABSOLUTE, FRACTION, PROPAGATED, RmssReport, SweepGrid, nominal_solution, run_rmss
)


def _manifest_config(**resolved) -> dict:
    """The invoking command's options, echoed into its manifest, updated with ``resolved``."""
    return {**click.get_current_context().params, **resolved}


def _resolve_seed(seed: int | None) -> int:
    if seed is not None:
        return seed
    try:
        return int(os.environ.get("RMSS_SEED", "0"))
    except ValueError:
        raise ConfigError(f"RMSS_SEED must be an integer, got {os.environ['RMSS_SEED']!r}")


def _resolve_case_path(case: str) -> Path:
    p = Path(case)
    if p.is_file():
        return p
    try:
        return cases.case_path(case)
    except FileNotFoundError:
        raise ConfigError(f"case file not found: {case}")


def _load_case(case: str, essential: str | None) -> GridCase:
    grid = parse_case(_resolve_case_path(case))
    if essential:
        selector = essential if "," not in essential else [s.strip() for s in essential.split(",")]
        grid = tag_essential(grid, selector)
    report = validate_case(grid)
    errors = [e for e in report.entries if e.severity == "error"]
    if errors:
        raise ConfigError("case failed validation:\n" + "\n".join(
            f"  {e.component}: {e.message}" for e in errors))
    for e in report.entries:
        if e.severity != "error":
            click.echo(f"warning: {e.component}: {e.message}", err=True)
    return grid


def _parse_percent(text: str) -> tuple[float, bool]:
    """Value plus whether it carried a % suffix (fraction-of-nominal units).

    The one parser of the numeric flags. It refuses what is not a finite
    number; each range rule lives with the library code that uses the value.
    """
    t = text.strip()
    is_frac = t.endswith("%")
    try:
        value = float(t[:-1] if is_frac else t)
    except ValueError:
        value = np.nan  # not a number at all: refused with the non-finite ones
    if not np.isfinite(value):
        raise ConfigError(f"not a finite number or percentage: {text!r}")
    return (value / 100.0 if is_frac else value), is_frac


def _load_inputs(case, essential, axes, sigma_p, correlation, metrics):
    """The case, its parameter model and the metric spec from the shared input options."""
    grid = _load_case(case, essential)
    value, is_frac = _parse_percent(sigma_p)
    axis_map = {"p": (Axis.P,), "q": (Axis.Q,), "pq": (Axis.P, Axis.Q)}
    corr = None
    if correlation:
        try:
            corr = np.loadtxt(correlation, delimiter=",", ndmin=2)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read correlation matrix {correlation}: {exc}")
    params = StochasticParameterSet.from_case(
        grid,
        sigma_frac=value if is_frac else None,
        sigma_abs=None if is_frac else value,
        axes=axis_map[axes],
        correlation=corr,
    )
    if metrics == "all":
        spec = default_metric_spec(grid)
        if len(spec) == 0:
            raise ConfigError("case has no nonzero-injection PQ bus to monitor")
        return grid, params, spec
    try:
        ids = [int(b) for b in metrics.split(",")]
    except ValueError:
        raise ConfigError(f"--metrics must be 'all' or comma-separated bus ids, got {metrics!r}")
    unknown = sorted(set(ids) - {b.id for b in grid.buses})
    if unknown:
        raise ConfigError(f"--metrics names buses absent from the case: {unknown}")
    return grid, params, MetricSpec.voltages_at(ids)


def _out_dir(path: str | Path) -> Path:
    out_dir = Path(path)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out_dir}: {exc}")
    return out_dir


def _parse_sweep_spec(spec: str) -> SweepGrid:
    parts = spec.split(":")
    if len(parts) != 3:
        raise ConfigError(f"sweep spec must be lo:hi:count, got {spec!r}")
    lo, lo_frac = _parse_percent(parts[0])
    hi, hi_frac = _parse_percent(parts[1])
    if lo_frac != hi_frac:
        raise ConfigError("sweep endpoints must use the same units (both % or both pu)")
    try:
        count = int(parts[2])
    except ValueError:
        raise ConfigError(f"bad sweep count {parts[2]!r}")
    if count < 1 or lo <= 0 or hi <= lo and count > 1:
        raise ConfigError(f"bad sweep spec {spec!r}")
    values = np.geomspace(lo, hi, count) if count > 1 else np.array([lo])
    return SweepGrid(tuple(values), FRACTION if lo_frac else ABSOLUTE)


def _resolve_sigma_c(sigma_c: str | None, sweep: str | None):
    if sigma_c and sweep:
        raise ConfigError("--sigma-c and --sweep are mutually exclusive")
    if sigma_c:
        if sigma_c in ("auto", PROPAGATED):
            return PROPAGATED
        value, is_frac = _parse_percent(sigma_c)
        return SweepGrid((value,), FRACTION) if is_frac else value
    if sweep:
        return _parse_sweep_spec(sweep)
    return None  # default sweep


def _resolve_limits(limits: str):
    if limits == "case":
        return "case"
    if limits.startswith("band:"):
        return _parse_percent(limits[len("band:"):])[0]
    raise ConfigError(f"--limits must be 'case' or 'band:<pct>', got {limits!r}")


_INPUT_OPTIONS = (
    click.option("--case", required=True, help="Case file path or bundled case name."),
    click.option("--essential", required=True,
                 help="all-solar | all-wind | all-renewable | all | comma-separated ids."),
    click.option("--axes", default="p", type=click.Choice(["p", "q", "pq"]), show_default=True),
    click.option("--sigma-p", default="2%", show_default=True,
                 help="Parameter stdev: % of each mean, or absolute pu."),
    click.option("--correlation", default=None,
                 help="CSV file with a parameter correlation matrix."),
    click.option("--metrics", default="all", show_default=True,
                 help="'all' nonzero-injection PQ buses, or comma-separated bus ids."),
)


def _input_options(command):
    """Case, parameter-model and metric options shared by run, mc and sensitivity."""
    for option in reversed(_INPUT_OPTIONS):
        command = option(command)
    return command


class _Group(click.Group):
    """Click's command group, but each error exits with the code its class decides.

    A usage error exits as an :class:`InputError`, not with click's 2 (a
    :class:`SolverError`'s); a package error prints ``error: ...``.
    """

    def make_context(self, *args, **kwargs):
        with _exit_codes():
            return super().make_context(*args, **kwargs)

    def invoke(self, ctx):
        with _exit_codes():
            return super().invoke(ctx)


@contextmanager
def _exit_codes():
    try:
        yield
    except click.UsageError as exc:
        exc.exit_code = InputError.exit_code  # this error only; the class keeps click's 2
        raise
    except (SolverError, InputError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(exc.exit_code)


@click.group(cls=_Group)
def main():
    """Risk-managed steady-state analysis of power grids."""


@main.command("run")
@_input_options
@click.option("--rho", default=0.975, show_default=True, help="One-sided confidence level.")
@click.option("--sigma-c", default=None,
              help="Known metric stdev (% of nominal or pu), or 'auto' to propagate.")
@click.option("--sweep", default=None, help="Metric-stdev sweep lo:hi:count (log spacing).")
@click.option("--limits", default="case", show_default=True,
              help="'case' per-bus limits or band:<pct> around nominal voltages.")
@click.option("--out", default=".", show_default=True)
def cmd_rmss(case, essential, axes, sigma_p, correlation, metrics, rho, sigma_c, sweep, limits,
             out):
    """Run the full risk-managed analysis and write its report files."""
    config = _manifest_config()
    out_dir = _out_dir(out)
    grid, params, spec = _load_inputs(case, essential, axes, sigma_p, correlation, metrics)
    report = run_rmss(
        grid, params, spec, rho=rho, sigma_c=_resolve_sigma_c(sigma_c, sweep),
        limits=_resolve_limits(limits),
    )
    write_json(out_dir / "rmss_report.json", report.to_dict())
    write_violations_csv(out_dir / "violations.csv", report)
    write_worst_violator_csv(out_dir / "worst_violator.csv", report)
    write_manifest(out_dir / "run_manifest.json", "run", config)
    total = sum(p.ub_total + p.lb_total for p in report.violations.points)
    click.echo(
        f"{len(report.metric_buses)} metrics x {len(report.points)} sigma point(s), "
        f"{total} violation(s), worst violator: {report.violations.worst_violator}, "
        f"runtime {report.runtime_s:.3f}s"
    )
    click.echo(f"reports written to {out_dir}")


@main.command("mc")
@_input_options
@click.option("--samples", required=True, type=int)
@click.option("--seed", default=None, type=int, help="Falls back to RMSS_SEED, then 0.")
@click.option("--workers", default=1, show_default=True, type=int)
@click.option("--sample-csv", default=None,
              help="Also dump every sample's metric values to this CSV.")
@click.option("--out", default=".", show_default=True)
def cmd_mc(case, essential, axes, sigma_p, correlation, metrics, samples, seed, workers,
           sample_csv, out):
    """Monte Carlo reference run; records wall-clock timing for speedups."""
    config = _manifest_config(seed=_resolve_seed(seed))
    out_dir = _out_dir(out)
    if sample_csv is not None:
        _out_dir(Path(sample_csv).parent)
    grid, params, spec = _load_inputs(case, essential, axes, sigma_p, correlation, metrics)
    report = run_monte_carlo(
        grid, params, spec, n=samples, seed=config["seed"], workers=workers,
        keep_samples=sample_csv is not None,
    )
    if sample_csv is not None:
        report.samples_to_csv(sample_csv)
    write_json(out_dir / "mc_report.json", report.to_dict())
    write_manifest(out_dir / "mc_manifest.json", "mc", config)
    click.echo(
        f"{report.n_samples} samples ({report.n_failed} failed) in "
        f"{report.total_runtime_s:.2f}s ({report.per_solve_mean_s * 1e3:.2f} ms/solve)"
    )
    click.echo(f"report written to {out_dir / 'mc_report.json'}")


def _read_report(path: Path) -> dict:
    if not path.is_file():
        raise ConfigError(f"report file not found: {path}")
    try:
        return json.loads(path.read_text())
    except ValueError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}")


@main.command("compare")
@click.argument("rmss_report", type=click.Path())
@click.argument("mc_report", type=click.Path())
@click.option("--out", default=".", show_default=True)
def cmd_compare(rmss_report, mc_report, out):
    """Mean-absolute-error table and speedup between the two report files."""
    rmss = RmssReport.from_dict(_read_report(Path(rmss_report)))
    mc = McReport.from_dict(_read_report(Path(mc_report)))
    comp = mae_compare(rmss, mc)
    out_dir = _out_dir(out)
    write_json(out_dir / "comparison.json", comp.to_dict())
    click.echo("MAE (%):")
    for key, value in comp.mae_pct.items():
        click.echo(f"  {key}  {value:.4f}")
    click.echo(f"speedup: {comp.speedup:.1f}x (sigma point: {comp.sigma_label})")


@main.command("sensitivity")
@_input_options
@click.option("--out", default="lambda.csv", show_default=True)
def cmd_sensitivity(case, essential, axes, sigma_p, correlation, metrics, out):
    """Dump the metric/parameter sensitivity matrix as CSV."""
    _out_dir(Path(out).parent)
    grid, params, spec = _load_inputs(case, essential, axes, sigma_p, correlation, metrics)
    inject = params.injector(grid, engine_for(grid).case_injections)
    sens = hybrid_sensitivities(grid, nominal_solution(grid, inject), params, spec, inject)
    sens.to_csv(out)
    click.echo(f"{len(sens.metric_buses)}x{len(sens.parameter_labels)} matrix "
               f"written to {out}")


@main.command("validate")
@click.option("--case", required=True)
def cmd_validate(case):
    """Check a case file against the model invariants (report only)."""
    grid = parse_case(_resolve_case_path(case))
    report = validate_case(grid)
    click.echo(str(report))


if __name__ == "__main__":
    main()
