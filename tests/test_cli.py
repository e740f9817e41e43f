"""Command-line surface: exit codes, report files, manifests, determinism."""

import json
import os
import stat
import subprocess
import sys

import pytest
from click.testing import CliRunner

from rmss.cli import main
from rmss.montecarlo import BLOCK_SIZE

OVERLOADED = """\
function mpc = overload
mpc.baseMVA = 100;
mpc.bus = [
  1 3 0   0 0 0 1 1.0 0 100 1 1.1 0.9;
  2 1 600 0 0 0 1 1.0 0 100 1 1.1 0.9;
];
mpc.gen = [
  1 0 0 999 -999 1.0 100 1 999 -999;
];
mpc.branch = [
  1 2 0 0.1 0 0 0 0 0 0 1;
];
"""


@pytest.fixture
def runner():
    return CliRunner()


def test_run_happy_path_writes_reports(runner, tmp_path):
    result = runner.invoke(main, [
        "run", "--case", "case14_stoch", "--essential", "all-solar",
        "--sigma-p", "2%", "--sweep", "0.1%:5%:20", "--out", str(tmp_path),
    ])
    assert result.exit_code == 0, result.output
    for name in ("rmss_report.json", "violations.csv", "worst_violator.csv",
                 "run_manifest.json"):
        assert (tmp_path / name).is_file()
    report = json.loads((tmp_path / "rmss_report.json").read_text())
    assert len(report["points"]) == 20
    manifest = json.loads((tmp_path / "run_manifest.json").read_text())
    assert manifest["command"] == "run"
    assert manifest["config"]["sigma_p"] == "2%"
    assert "numpy" in manifest["versions"]
    csv = (tmp_path / "violations.csv").read_text().splitlines()
    assert csv[0] == "sigma,ub_violations,lb_violations,total"
    assert len(csv) == 21


def test_run_missing_case_exits_3(runner, tmp_path):
    result = runner.invoke(main, [
        "run", "--case", "nope_missing.m", "--essential", "all",
        "--out", str(tmp_path),
    ])
    assert result.exit_code == 3
    assert "nope_missing.m" in result.output


def test_run_nominal_divergence_exits_2(runner, tmp_path):
    bad = tmp_path / "overload.m"
    bad.write_text(OVERLOADED)
    result = runner.invoke(main, [
        "run", "--case", str(bad), "--essential", "all", "--out", str(tmp_path),
    ])
    assert result.exit_code == 2
    assert "mismatch history" in result.output


def test_run_conflicting_sigma_flags_exit_3(runner, tmp_path):
    result = runner.invoke(main, [
        "run", "--case", "case2", "--essential", "all",
        "--sigma-c", "1%", "--sweep", "0.1%:5%:5", "--out", str(tmp_path),
    ])
    assert result.exit_code == 3


def test_run_band_limits_accepted(runner, tmp_path):
    result = runner.invoke(main, [
        "run", "--case", "case14_stoch", "--essential", "all-solar",
        "--limits", "band:2%", "--sigma-c", "auto", "--out", str(tmp_path),
    ])
    assert result.exit_code == 0, result.output


@pytest.mark.parametrize("sigma_c", ["0.5%", "0.002"])
def test_run_known_sigma_c_single_point(runner, tmp_path, sigma_c):
    result = runner.invoke(main, [
        "run", "--case", "case2", "--essential", "all",
        "--sigma-c", sigma_c, "--out", str(tmp_path),
    ])
    assert result.exit_code == 0, result.output
    report = json.loads((tmp_path / "rmss_report.json").read_text())
    assert report["sigma_mode"] == "known"
    assert len(report["points"]) == 1


def test_worst_violator_csv_tracks_one_bus(runner, tmp_path):
    result = runner.invoke(main, [
        "run", "--case", "case14_stoch", "--essential", "all-solar",
        "--sweep", "0.1%:5%:8", "--limits", "band:2%", "--out", str(tmp_path),
    ])
    assert result.exit_code == 0, result.output
    rows = (tmp_path / "worst_violator.csv").read_text().strip().splitlines()
    assert rows[0] == "sigma,bus,c_nom,c_wc_ub,c_wc_lb"
    assert len(rows) == 9  # header + one row per swept sigma
    buses = {r.split(",")[1] for r in rows[1:]}
    assert len(buses) == 1


def test_mc_happy_path_and_seed_env(runner, tmp_path, monkeypatch):
    monkeypatch.setenv("RMSS_SEED", "123")
    result = runner.invoke(main, [
        "mc", "--case", "case2", "--essential", "all", "--samples", "50",
        "--out", str(tmp_path),
    ])
    assert result.exit_code == 0, result.output
    stats = json.loads((tmp_path / "mc_report.json").read_text())["statistics"]
    assert stats["seed"] == 123
    assert stats["n_samples"] == 50


def test_mc_sample_csv_dump(runner, tmp_path):
    csv_path = tmp_path / "samples.csv"
    result = runner.invoke(main, [
        "mc", "--case", "case2", "--essential", "all", "--samples", "25",
        "--seed", "1", "--metrics", "2", "--sample-csv", str(csv_path),
        "--out", str(tmp_path),
    ])
    assert result.exit_code == 0, result.output
    rows = csv_path.read_text().strip().splitlines()
    assert rows[0] == "sample,bus2"
    assert len(rows) == 26
    values = [float(r.split(",")[1]) for r in rows[1:]]
    assert all(0.9 < v < 1.1 for v in values)


def test_mc_zero_samples_exit_3(runner, tmp_path):
    result = runner.invoke(main, [
        "mc", "--case", "case2", "--essential", "all", "--samples", "0",
        "--out", str(tmp_path),
    ])
    assert result.exit_code == 3


def test_mc_same_seed_byte_identical_statistics(runner, tmp_path):
    args = ["mc", "--case", "case2", "--essential", "all", "--samples", "60",
            "--seed", "7"]
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    assert runner.invoke(main, args + ["--out", str(a_dir)]).exit_code == 0
    assert runner.invoke(main, args + ["--out", str(b_dir)]).exit_code == 0
    stats_a = json.dumps(json.loads((a_dir / "mc_report.json").read_text())["statistics"])
    stats_b = json.dumps(json.loads((b_dir / "mc_report.json").read_text())["statistics"])
    assert stats_a == stats_b


def test_mc_workers_split_whole_blocks_byte_identically(runner, tmp_path):
    # a partial last block, and more workers than there are blocks
    n = BLOCK_SIZE + 7
    base = ["mc", "--case", "case14_stoch", "--essential", "all-solar",
            "--samples", str(n), "--seed", "11"]
    dirs = {w: tmp_path / f"w{w}" for w in (1, 3)}
    for workers, out in dirs.items():
        result = runner.invoke(main, base + ["--workers", str(workers), "--out", str(out)])
        assert result.exit_code == 0, result.output

    def blocks(path):
        report = json.loads((path / "mc_report.json").read_text())
        return json.dumps(report["statistics"]), json.dumps(report["diagnostics"])

    assert blocks(dirs[1]) == blocks(dirs[3])
    assert json.loads(blocks(dirs[1])[0])["n_samples"] == n


def test_compare_pipeline(runner, tmp_path):
    rmss_args = ["run", "--case", "case2", "--essential", "all",
                 "--sigma-c", "auto", "--out", str(tmp_path)]
    mc_args = ["mc", "--case", "case2", "--essential", "all", "--samples", "400",
               "--seed", "3", "--out", str(tmp_path)]
    assert runner.invoke(main, rmss_args).exit_code == 0
    assert runner.invoke(main, mc_args).exit_code == 0
    result = runner.invoke(main, [
        "compare", str(tmp_path / "rmss_report.json"),
        str(tmp_path / "mc_report.json"), "--out", str(tmp_path),
    ])
    assert result.exit_code == 0, result.output
    assert "speedup" in result.output
    comparison = json.loads((tmp_path / "comparison.json").read_text())
    assert set(comparison["mae_pct"]) == {"c_ub", "c_lb", "e_ub", "e_lb"}
    assert comparison["speedup"] > 0


def test_compare_mismatched_reports_exit_3(runner, tmp_path):
    assert runner.invoke(main, ["run", "--case", "case2", "--essential", "all",
                                "--sigma-c", "auto", "--out", str(tmp_path)]).exit_code == 0
    assert runner.invoke(main, ["mc", "--case", "case14_stoch", "--essential", "all-solar",
                                "--samples", "30", "--out", str(tmp_path)]).exit_code == 0
    result = runner.invoke(main, [
        "compare", str(tmp_path / "rmss_report.json"),
        str(tmp_path / "mc_report.json"), "--out", str(tmp_path),
    ])
    assert result.exit_code == 3


def test_sensitivity_dump(runner, tmp_path):
    out = tmp_path / "lambda.csv"
    result = runner.invoke(main, [
        "sensitivity", "--case", "case14_stoch", "--essential", "all-renewable",
        "--out", str(out),
    ])
    assert result.exit_code == 0, result.output
    header = out.read_text().splitlines()[0]
    assert header.startswith("metric_bus,method,")
    assert "g4.P" in header


def test_validate_reports_cleanly(runner):
    result = runner.invoke(main, ["validate", "--case", "case118_stoch"])
    assert result.exit_code == 0
    assert "well-formed" in result.output


def test_no_temp_files_left_behind(runner, tmp_path):
    runner.invoke(main, ["run", "--case", "case2", "--essential", "all",
                         "--sigma-c", "auto", "--out", str(tmp_path)])
    leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
    assert leftovers == []


def test_reports_are_readable_under_the_umask(runner, tmp_path):
    previous = os.umask(0o022)
    try:
        result = runner.invoke(main, ["run", "--case", "case2", "--essential", "all",
                                      "--sigma-c", "auto", "--out", str(tmp_path)])
    finally:
        os.umask(previous)
    assert result.exit_code == 0, result.output
    for name in ("rmss_report.json", "violations.csv", "run_manifest.json"):
        assert stat.S_IMODE(os.stat(tmp_path / name).st_mode) == 0o644


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats is most of a cold start; only the Sobol fallback needs it
    code = "import sys, rmss; print('scipy.stats' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize("report", [{"case": "x"}, {"schema": 1, "case": "x"}, ["x"]])
def test_compare_malformed_rmss_report_exit_3(runner, tmp_path, report):
    assert runner.invoke(main, ["mc", "--case", "case2", "--essential", "all",
                                "--samples", "20", "--out", str(tmp_path)]).exit_code == 0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(report))
    result = runner.invoke(main, [
        "compare", str(bad), str(tmp_path / "mc_report.json"), "--out", str(tmp_path),
    ])
    assert result.exit_code == 3, result.output
    assert "schema" in result.output


def test_compare_malformed_mc_report_and_bad_json_exit_3(runner, tmp_path):
    assert runner.invoke(main, ["run", "--case", "case2", "--essential", "all",
                                "--sigma-c", "auto", "--out", str(tmp_path)]).exit_code == 0
    rmss_path = str(tmp_path / "rmss_report.json")
    (tmp_path / "mc.json").write_text(json.dumps({"case": "x"}))
    (tmp_path / "broken.json").write_text("{not json")
    for mc_name in ("mc.json", "broken.json"):
        result = runner.invoke(main, ["compare", rmss_path, str(tmp_path / mc_name),
                                      "--out", str(tmp_path)])
        assert result.exit_code == 3, result.output


def test_internal_value_error_is_not_a_config_error(runner, tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("internal bug")

    monkeypatch.setattr("rmss.cli.run_rmss", broken)
    result = runner.invoke(main, ["run", "--case", "case2", "--essential", "all",
                                  "--sigma-c", "auto", "--out", str(tmp_path)])
    assert result.exit_code != 3
    assert isinstance(result.exception, ValueError)


@pytest.mark.parametrize("args", [
    ["--sigma-p", "abc%"],
    ["--metrics", "1,x"],
    ["--metrics", "999"],
    ["--sigma-c", "-1%"],
    ["--sigma-c", "0%"],
    ["--sweep", "0.1%:x:5"],
    ["--correlation", "no_such_correlation.csv"],
])
def test_bad_option_text_exits_3(runner, tmp_path, args):
    result = runner.invoke(main, ["run", "--case", "case2", "--essential", "all",
                                  "--out", str(tmp_path), *args])
    assert result.exit_code == 3, result.output
    assert "error:" in result.output


def test_uncreatable_out_dir_exits_3(runner, tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    result = runner.invoke(main, ["run", "--case", "case2", "--essential", "all",
                                  "--sigma-c", "auto", "--out", str(blocker / "sub")])
    assert result.exit_code == 3, result.output


def test_shared_input_options_on_every_model_command():
    shared = ["case", "essential", "axes", "sigma_p", "correlation", "metrics", "seed"]
    commands = [main.commands[name] for name in ("run", "mc", "sensitivity")]
    for name in shared:
        options = [next(p for p in cmd.params if p.name == name) for cmd in commands]
        assert len({(o.default, o.required, o.help) for o in options}) == 1, name
