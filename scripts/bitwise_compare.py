"""Check that two source trees of rmss compute bitwise the same analysis.

Usage: python scripts/bitwise_compare.py OLD_SRC NEW_SRC

Each tree (the directory holding the ``rmss`` package, e.g. ``src``) is
imported in its own subprocess, which writes every compared value to a
pickle; the script then reports each value that differs. Compared on
case14 'all-solar', case118 'all' and case118 'all-renewable' at a 2%
parameter spread:

- ``run_rmss(...).to_dict()`` without ``runtime_s``, with the propagated
  metric sigma and with the default sweep;
- ``finite_difference_sensitivities`` values;
- ``PowerFlowEngine.chord_solve`` on 64 sampled rows at 1x, 10x and 30x
  the spread: which rows converged and their iteration counts, the
  converged rows' ``v``, ``q_pv`` and ``history``, and the indices of the
  rows that failed. A failed row's last iterate is left out: after 50
  diverging steps it magnifies any difference in the last bits.

On case14 'all-solar' and case118 'all' it also compares
``run_monte_carlo`` at 2,000 samples, seed 1: each array of
``statistics_dict()``, ``failed_indices`` and ``newton_iterations``.

After those, each tree runs ``run_rmss`` (both sigma modes) and
``run_monte_carlo`` a second time in the same process on the same case
object, so state an engine carries between calls would show: each
repeat must equal that tree's first run, and is compared across the
trees too.

Meant for refactors that must not change a bit of the results. For a
float array that differs, the largest absolute difference is printed, so
a change in the last bits shows by how much.
"""

from __future__ import annotations

import json
import os
import pickle
import subprocess
import sys
import tempfile

CASES = [("case14_stoch", "all-solar"), ("case118_stoch", "all"), ("case118_stoch", "all-renewable")]
SPREADS = (1, 10, 30)
CHORD_FIELDS = ("v", "q_pv", "converged", "iterations", "history")
CHORD_CONVERGED_ONLY = ("v", "q_pv", "history")
MC_CASES = [("case14_stoch", "all-solar"), ("case118_stoch", "all")]
MC_SAMPLES, MC_SEED = 2_000, 1
REPEAT = "/repeat"  # key suffix of a value from the second run in one process


def dump(path: str) -> None:
    """Write every compared value of the importable ``rmss`` to ``path``."""
    import numpy as np

    import rmss
    from rmss import cases

    def analyses(case, params, spec, key, monte_carlo, suffix=""):
        for sigma_c in ("propagated", None):
            report = rmss.run_rmss(case, params, spec, sigma_c=sigma_c).to_dict()
            del report["runtime_s"]
            out[f"{key}/run_rmss/{sigma_c}{suffix}"] = json.dumps(report, sort_keys=True)
        if monte_carlo:
            mc = rmss.run_monte_carlo(case, params, spec, MC_SAMPLES, seed=MC_SEED)
            stats = mc.statistics_dict()
            for group in ("metrics", "parameters"):
                for stat in ("mean", "stdev", "ci_lb", "ci_ub"):
                    out[f"{key}/mc/{group}/{stat}{suffix}"] = np.array(stats[group][stat])
            out[f"{key}/mc/failed_indices{suffix}"] = mc.failed_indices
            out[f"{key}/mc/newton_iterations{suffix}"] = mc.newton_iterations

    out = {}
    for name, selector in CASES:
        case = rmss.tag_essential(rmss.parse_case(cases.case_path(name)), selector)
        key = f"{name}/{selector}"
        params = rmss.StochasticParameterSet.from_case(case, sigma_frac=0.02)
        spec = rmss.default_metric_spec(case)
        monte_carlo = (name, selector) in MC_CASES
        analyses(case, params, spec, key, monte_carlo)
        engine = rmss.powerflow.engine_for(case)
        base = params.apply(case, params.means)
        sol = rmss.solve_power_flow(case, injections=base)
        out[f"{key}/fd"] = rmss.finite_difference_sensitivities(case, sol, params, spec).values
        for k in SPREADS:
            wide = rmss.StochasticParameterSet.from_case(case, sigma_frac=0.02 * k)
            p, q = params.injections(case, rmss.sample_parameters(wide, 64, seed=3).values)
            got = engine.chord_solve(p, q, sol, base)
            for field in CHORD_FIELDS:
                values = getattr(got, field)
                if field in CHORD_CONVERGED_ONLY:
                    values = values[got.converged]
                out[f"{key}/chord/{k}x/{field}"] = values
            out[f"{key}/chord/{k}x/failed"] = np.flatnonzero(~got.converged)
        analyses(case, params, spec, key, monte_carlo, REPEAT)
    with open(path, "wb") as fh:
        pickle.dump(out, fh)


def _run(src: str, path: str) -> dict:
    env = {**os.environ, "PYTHONPATH": os.path.abspath(src)}
    subprocess.run([sys.executable, __file__, "--dump", path], env=env, check=True)
    with open(path, "rb") as fh:
        return pickle.load(fh)


def _largest_difference(a, b) -> str:
    """How far two differing arrays are apart, for float arrays of one shape."""
    import numpy as np

    if not (isinstance(a, np.ndarray) and isinstance(b, np.ndarray)):
        return ""
    if a.shape != b.shape or a.dtype.kind not in "fc" or b.dtype.kind not in "fc":
        return ""
    finite = np.isfinite(a) & np.isfinite(b)
    if not np.array_equal(a[~finite], b[~finite], equal_nan=True):
        return " (non-finite entries differ)"
    gap = np.abs(a[finite] - b[finite])
    return f" (max |difference| {gap.max():.3g})" if gap.size else ""


def _same(a, b) -> bool:
    import numpy as np

    if isinstance(a, np.ndarray):
        return np.array_equal(a, b, equal_nan=a.dtype.kind in "fc")
    return a == b


def main(old_src: str, new_src: str) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        old = _run(old_src, os.path.join(tmp, "old.pkl"))
        new = _run(new_src, os.path.join(tmp, "new.pkl"))
    differ = sorted(set(old) ^ set(new))
    differ += [key for key in sorted(set(old) & set(new)) if not _same(old[key], new[key])]
    for key in differ:
        print(f"DIFFERS: {key}{_largest_difference(old.get(key), new.get(key))}")
    repeats = 0
    for tree, values in (("old", old), ("new", new)):
        for key in sorted(k for k in values if k.endswith(REPEAT)):
            first, again = values[key.removesuffix(REPEAT)], values[key]
            repeats += 1
            if not _same(first, again):
                differ.append(f"{tree}:{key}")
                print(f"DIFFERS ON REPEAT in {tree}: {key}{_largest_difference(first, again)}")
    failed = {k: len(v) for k, v in new.items() if k.endswith("/failed")}
    print(f"{len(old)} values compared, {repeats} repeats checked, {len(differ)} differ; "
          f"rows failing after the Newton hand-off: {failed}")
    return 1 if differ else 0


if __name__ == "__main__":
    if sys.argv[1] == "--dump":
        dump(sys.argv[2])
    else:
        sys.exit(main(sys.argv[1], sys.argv[2]))
