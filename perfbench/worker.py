"""One benchmark process: ``setup`` times a fresh set-up, ``run`` measures a workload.

Started by run.py with BLAS threads pinned to 1. Only the standard library
is imported before the set-up timer starts, so ``setup_s`` includes the
whole ``import rmss``. The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

from spec import SIGMA_P, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PROBE_PAIRS = 6
PROBE_SAMPLES = 100


def timed_setup(workload: str):
    """What every CLI call pays before analysis: import, parse, tag, validate, build."""
    case_name, essential = WORKLOADS[workload].case, WORKLOADS[workload].essential
    t0 = perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import rmss
    from rmss.cases import case_path

    t1 = perf_counter()
    case = rmss.parse_case(case_path(case_name))
    t2 = perf_counter()
    case = rmss.tag_essential(case, essential)
    errors = [e for e in rmss.validate_case(case).entries if e.severity == "error"]
    t3 = perf_counter()
    params = rmss.StochasticParameterSet.from_case(case, sigma_frac=SIGMA_P)
    spec = rmss.default_metric_spec(case)
    t4 = perf_counter()
    if Path(rmss.__file__).resolve().parent != ROOT / "src" / "rmss":
        raise SystemExit(f"imported rmss from {rmss.__file__}, not from {ROOT / 'src'}")
    if errors:
        raise SystemExit(f"{case_name} failed validation: {errors}")
    timings = {
        "setup_s": t4 - t0,
        "setup.import_s": t1 - t0,
        "matpower.parse_case.s": t2 - t1,
        "model.tag_validate.s": t3 - t2,
    }
    return (case, params, spec), timings


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def run(args) -> dict:
    loaded, setup = timed_setup(args.workload)
    # Imported after the set-up timer: these import only what rmss already did.
    import layers
    import workloads
    from tracer import Tracer

    out_dir = HERE / "out" / args.workload
    runner = workloads.Runner(
        args.workload, args.scale, args.seed, *loaded,
        out_dir=out_dir, reference=workloads.load_reference(),
    )
    runner.reduced_pass()  # warm-up, excluded from every metric
    result = {"setup": setup, "info": {"sample_seed": runner.sample_seed, **environment()}}

    if not args.trace:
        passes = runner.measure(args.seconds)
        metrics, info = workloads.end_to_end(passes)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["info"].update(info)
    else:
        tracer = Tracer()
        probe_t0 = perf_counter()
        overhead = overhead_probe(runner, tracer, layers.targets())
        budget = args.seconds - (perf_counter() - probe_t0)
        tracer.install(layers.targets())
        try:
            passes = runner.measure(budget, tracer)
        finally:
            tracer.uninstall()
        run_ids = [f"pass-{i}" for i in range(len(passes))]
        metrics, counts = layers.layer_metrics(tracer.spans, run_ids)
        metrics["trace.overhead_frac"] = overhead
        tracer.dump(out_dir / "spans.jsonl")
        result["info"].update(
            {"traced_passes": len(run_ids), "spans": len(tracer.spans), "counts": counts}
        )
    result["metrics"] = metrics
    result["operations"] = sum(p.operations for p in passes)
    return result


def overhead_probe(runner, tracer, targets) -> float:
    """Median ratio of adjacent traced and untraced Monte Carlo paths, minus 1.

    The Monte Carlo path has the densest spans, so this bounds a pass's
    tracing overhead from above. Each pair swaps its order, and adjacent
    runs share the machine's state, which varies over seconds here.
    """
    ratios = []
    for i in range(PROBE_PAIRS):
        seconds = {}
        for traced in (False, True) if i % 2 == 0 else (True, False):
            if traced:
                tracer.install(targets)
                tracer.run_id = f"probe-{i}"
            try:
                seconds[traced] = runner.mc_path(PROBE_SAMPLES)[1]
            finally:
                tracer.uninstall()
        ratios.append(seconds[True] / seconds[False])
    return statistics.median(ratios) - 1.0


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    args = parser.parse_args()
    if args.mode == "setup":
        result = {"setup": timed_setup(args.workload)[1]}
    else:
        result = run(args)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
