"""rmss benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Set-up is timed in fresh processes (the
median of several), then one more fresh process warms up and runs whole
passes of the workload for about S seconds. With ``--trace 0`` the last
line holds the end-to-end metrics; with ``--trace 1`` the per-layer
metrics from a traced run. A failed output check exits non-zero without
printing a result. See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from spec import END_TO_END, PER_LAYER, SETUP_LAYERS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROCESSES = {"full": 3, "tiny": 1}  # plus the measuring process's own set-up
# numpy links threaded OpenBLAS; on a 2-core machine threads only add noise.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
DEADLINE_S = 170.0


def child(args: list[str], env: dict, deadline: float) -> dict:
    """Run worker.py to completion and return its last output line as JSON."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        env=env,
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=max(1.0, deadline - perf_counter()),
    )
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"benchmark process {args[:3]} failed with exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> None:
    start = perf_counter()
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: few samples and one set-up process, for tests")
    args = parser.parse_args()

    package = ROOT / "src" / "rmss"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"no rmss package at {package}")
    # Byte-compile once so that no timed import pays for compilation.
    compileall.compile_dir(package, quiet=1)

    env = {**os.environ, **THREAD_ENV}
    deadline = start + DEADLINE_S
    common = ["--workload", args.workload]
    setups = [
        child(["setup", *common], env, deadline)["setup"]
        for _ in range(SETUP_PROCESSES[args.scale])
    ]
    result = child(
        ["run", *common, "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", str(args.trace), "--scale", args.scale],
        env, deadline,
    )
    setups.append(result["setup"])

    metrics = dict(result["metrics"])
    names = PER_LAYER if args.trace else END_TO_END
    for name in ("setup_s", *SETUP_LAYERS):
        if name in names:
            metrics[name] = statistics.median(s[name] for s in setups)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "setup_processes": len(setups),
        **result["info"],
    }
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": True,
        "attempted": result["operations"],
        "failed": 0,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in names.items()},
    }))


if __name__ == "__main__":
    main()
