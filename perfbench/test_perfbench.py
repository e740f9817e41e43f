"""The benchmark's own tests, at a tiny size.

Each workload runs end to end and prints exactly the metrics BENCHMARK.json
names; traced counts repeat exactly between two runs on one seed; a
corrupted reference or a missing program makes the command fail.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
sys.path.insert(0, str(HERE))
from spec import END_TO_END, EXACT_COUNTS, PER_LAYER  # noqa: E402


def bench(root: Path, workload: str, trace: int, seed: int = 3):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--scale", "tiny"],
        cwd=root, capture_output=True, text=True, timeout=300,
    )


def result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["attempted"] >= 1 and out["failed"] == 0
    return out


def units(out: dict) -> dict:
    return {name: m["unit"] for name, m in out["metrics"].items()}


def test_metric_tables_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == PER_LAYER


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_are_named_and_nonzero(workload):
    out = result(bench(ROOT, workload, trace=0))
    assert units(out) == END_TO_END
    assert all(m["value"] > 0 for m in out["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    runs = [result(bench(ROOT, workload, trace=1)) for _ in range(2)]
    assert units(runs[0]) == PER_LAYER
    counts = [{n: r["metrics"][n]["value"] for n in EXACT_COUNTS} for r in runs]
    assert counts[0] == counts[1]
    assert counts[0]["powerflow.solve.calls"] > 0


def _copy_with_program(tmp_path: Path) -> Path:
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copyfile(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    (tmp_path / "src").symlink_to(ROOT / "src", target_is_directory=True)
    return tmp_path


def _shift_mean(ref_dir: Path) -> None:
    path = ref_dir / "mc_statistics.json"
    ref = json.loads(path.read_text())
    ref["validate-14-solar/tiny/3"]["mean"][0] += 1e-5
    path.write_text(json.dumps(ref))


def _flip_violation_count(ref_dir: Path) -> None:
    path = ref_dir / "validate-14-solar" / "violations.csv"
    path.write_text(path.read_text().replace(",0,", ",1,", 1))


@pytest.mark.parametrize("corrupt", [_shift_mean, _flip_violation_count])
def test_corrupted_reference_fails_the_run(tmp_path, corrupt):
    root = _copy_with_program(tmp_path)
    corrupt(root / "perfbench" / "reference")
    proc = bench(root, "validate-14-solar", trace=0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_missing_program_fails_without_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copyfile(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = bench(tmp_path, "validate-14-solar", trace=0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
