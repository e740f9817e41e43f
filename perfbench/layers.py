"""Which pipeline names the traced run wraps, and the per-layer metrics from their spans.

Each target is the name a caller resolves at call time: a module global
such as ``rmss.montecarlo.solve_power_flow`` (one binding per importing
module) or a class attribute such as ``StochasticParameterSet.apply``.
"""

from __future__ import annotations

import json
import os
from collections import defaultdict

import numpy as np

from rmss import montecarlo, parameters, powerflow, reportio, sensitivity, worstcase

from spec import EXACT_COUNTS, PER_LAYER, SETUP_LAYERS
from tracer import END, NAME, NOTE, RUN, START, ancestor_names, self_times
from workloads import CheckFailed

# Report fields holding wall-clock times; their digits are left out of
# reportio.bytes so that the count repeats exactly.
_TIMING_FIELDS = ("runtime_s", "timing", "speedup")


def _solve_note(sol, args, kwargs):
    return [sol.iterations, bool(sol.converged)]


def _flagged_rows(sens, args, kwargs):
    return sum(method != sensitivity.METHOD_ADJOINT for method in sens.methods)


def _adjoint_solves(sens, args, kwargs):
    return sens.adjoint_solves


def _run_rmss_note(report, args, kwargs):
    results = sum(len(p.results) for p in report.points)
    violations = sum(p.ub_total + p.lb_total for p in report.violations.points)
    return [results, violations]


def _csv_bytes(_, args, kwargs):
    return os.path.getsize(args[0])


def _json_bytes(_, args, kwargs):
    obj = args[1]
    timing_digits = 0
    for key in _TIMING_FIELDS:
        value = obj.get(key)
        values = value.values() if isinstance(value, dict) else [value]
        timing_digits += sum(len(json.dumps(v)) for v in values if v is not None)
    return os.path.getsize(args[0]) - timing_digits


def targets() -> list[tuple]:
    out = [(powerflow, "build_admittance", "powerflow.build_admittance", None)]
    for module in (worstcase, sensitivity, montecarlo):
        out += [
            (module, "build_admittance", "powerflow.build_admittance", None),
            (module, "solve_power_flow", "powerflow.solve", _solve_note),
            (module, "evaluate_metrics", "powerflow.evaluate_metrics", None),
        ]
    return out + [
        (parameters.StochasticParameterSet, "apply", "parameters.apply", None),
        (worstcase, "run_rmss", "worstcase.run_rmss", _run_rmss_note),
        (worstcase, "hybrid_sensitivities", "sensitivity.hybrid", _flagged_rows),
        (worstcase, "count_violations", "worstcase.count_violations", None),
        (worstcase.RmssReport, "to_dict", "worstcase.to_dict", None),
        (sensitivity, "adjoint_sensitivities", "sensitivity.adjoint", _adjoint_solves),
        (sensitivity, "finite_difference_sensitivities", "sensitivity.fd_probe", None),
        (montecarlo, "run_monte_carlo", "montecarlo.run_monte_carlo", None),
        (montecarlo, "sample_parameters", "montecarlo.sample_parameters", None),
        (montecarlo, "mae_compare", "montecarlo.mae_compare", None),
        (reportio, "write_json", "reportio.write_json", _json_bytes),
        (reportio, "write_violations_csv", "reportio.write_csv", _csv_bytes),
        (reportio, "write_worst_violator_csv", "reportio.write_csv", _csv_bytes),
    ]


# Span name -> metric that sums its duration.
_DURATION = {
    "powerflow.solve": "powerflow.solve.s",
    "parameters.apply": "parameters.apply.s",
    "montecarlo.sample_parameters": "montecarlo.sample_parameters.s",
    "sensitivity.hybrid": "sensitivity.hybrid.s",
    "sensitivity.adjoint": "sensitivity.adjoint.s",
    "sensitivity.fd_probe": "sensitivity.fd_probe.s",
    "worstcase.count_violations": "worstcase.count_violations.s",
    "worstcase.to_dict": "worstcase.to_dict.s",
    "reportio.write_json": "reportio.write_json.s",
    "reportio.write_csv": "reportio.write_csv.s",
}
# Span name -> metric that sums its self time.
_SELF = {
    "worstcase.run_rmss": "worstcase.run_rmss.self_s",
    "montecarlo.run_monte_carlo": "montecarlo.run_monte_carlo.self_s",
}


def _pass_metrics(spans, own, ancestors, indices) -> dict[str, float]:
    m: dict[str, float] = defaultdict(float)
    for i in indices:
        s = spans[i]
        name, note, duration = s[NAME], s[NOTE], s[END] - s[START]
        if name in _DURATION:
            m[_DURATION[name]] += duration
        if name in _SELF:
            m[_SELF[name]] += own[i]
        if name == "powerflow.solve":
            iterations, converged = note
            m["powerflow.solve.calls"] += 1
            m["powerflow.newton_iters"] += iterations
            if not converged:
                m["powerflow.solve.failed"] += 1
                m["powerflow.solve.failed_s"] += duration
            if "sensitivity.fd_probe" in ancestors[i]:
                m["sensitivity.fd_probe.solves"] += 1
        elif name == "powerflow.build_admittance":
            m["powerflow.build_admittance.calls"] += 1
        elif name == "powerflow.evaluate_metrics":
            if "montecarlo.run_monte_carlo" in ancestors[i]:
                m["montecarlo.evaluate_metrics.s"] += duration
        elif name == "sensitivity.hybrid":
            m["sensitivity.flagged_rows"] += note
        elif name == "sensitivity.adjoint":
            m["sensitivity.adjoint_solves"] += note
        elif name == "worstcase.run_rmss":
            m["worstcase.results"] += note[0]
            m["worstcase.violations"] += note[1]
        elif name.startswith("reportio."):
            m["reportio.bytes"] += note
    calls = m["powerflow.solve.calls"]
    m["powerflow.solve.useful_ratio"] = (calls - m["powerflow.solve.failed"]) / calls if calls else 0.0
    probe = m["sensitivity.fd_probe.solves"]
    m["sensitivity.fd_probe.yield"] = m["sensitivity.flagged_rows"] / probe if probe else 0.0
    return m


def layer_metrics(spans: list[list], run_ids: list[str]) -> tuple[dict[str, float], dict]:
    """Medians over the traced passes; counts must agree between passes."""
    own = self_times(spans)
    ancestors = ancestor_names(spans)
    by_run: dict[str, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        by_run[s[RUN]].append(i)
    passes = [_pass_metrics(spans, own, ancestors, by_run[r]) for r in run_ids]

    counts = {}
    for name in EXACT_COUNTS:
        values = {int(p[name]) for p in passes}
        if len(values) != 1:
            raise CheckFailed(f"{name} differs between identical passes: {sorted(values)}")
        counts[name] = values.pop()

    solve_ms = [
        1e3 * (spans[i][END] - spans[i][START])
        for r in run_ids
        for i in by_run[r]
        if spans[i][NAME] == "powerflow.solve"
    ]
    out: dict[str, float] = {}
    for name in PER_LAYER:
        if name in counts:
            out[name] = counts[name]
        elif name not in SETUP_LAYERS and name != "trace.overhead_frac":
            out[name] = float(np.median([p[name] for p in passes]))
    out["powerflow.solve.p50_ms"] = float(np.percentile(solve_ms, 50)) if solve_ms else 0.0
    out["powerflow.solve.p95_ms"] = float(np.percentile(solve_ms, 95)) if solve_ms else 0.0
    return out, counts
