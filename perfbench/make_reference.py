"""Regenerate perfbench/reference/ from the rmss source next to this directory.

    python3 perfbench/make_reference.py

Writes each workload's violations.csv and worst_violator.csv, and the
Monte Carlo statistics for every sample seed at both scales. Run it only
when a change is meant to alter the program's outputs; the benchmark
checks every run against these files.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"})

from worker import ROOT, timed_setup  # noqa: E402

sys.path.insert(0, str(ROOT / "src"))
import workloads  # noqa: E402


def main() -> None:
    reference = {}
    for name, workload in workloads.WORKLOADS.items():
        loaded, _ = timed_setup(name)
        ref_dir = workloads.REFERENCE_DIR / name
        ref_dir.mkdir(parents=True, exist_ok=True)
        seeds = (
            [workload.fixed_sample_seed]
            if workload.fixed_sample_seed is not None
            else range(workloads.SAMPLE_SEEDS)
        )
        for scale, size in workload.sizes.items():
            for seed in seeds:
                runner = workloads.Runner(
                    name, scale, seed, *loaded, out_dir=workloads.HERE / "out" / name
                )
                if scale == "full" and seed == seeds[0]:
                    runner.run_path()
                    for csv in ("violations.csv", "worst_violator.csv"):
                        shutil.copyfile(runner.out / csv, ref_dir / csv)
                mc, elapsed = runner.mc_path(size.mc_samples)
                key = workloads.reference_key(name, scale, runner.sample_seed)
                reference[key] = workloads.mc_statistics(mc)
                print(f"{key}: {mc.n_failed}/{mc.n_samples} failed, {elapsed:.1f}s", flush=True)
    lines = [f"{json.dumps(key)}: {json.dumps(value)}" for key, value in reference.items()]
    workloads.MC_REFERENCE.write_text("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    main()
