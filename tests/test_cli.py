"""Command-line surface: exit codes, report files, manifests, determinism."""

import json
import os
import stat
import subprocess
import sys

import click
import pytest
from click.testing import CliRunner

from rmss import exceptions
from rmss.cli import main
from rmss.montecarlo import BLOCK_SIZE
from rmss.reportio import atomic_write_text

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
    assert "seed" not in manifest and "seed" not in manifest["config"]
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


@pytest.mark.parametrize("args, out", [
    (["run"], "."),
    (["mc", "--samples", "10"], "."),
    (["sensitivity"], "lambda.csv"),
], ids=["run", "mc", "sensitivity"])
def test_nominal_divergence_exits_2(runner, tmp_path, args, out):
    bad = tmp_path / "overload.m"
    bad.write_text(OVERLOADED)
    result = runner.invoke(main, [
        *args, "--case", str(bad), "--essential", "all", "--out", str(tmp_path / out),
    ])
    assert result.exit_code == 2
    assert "mismatch history" in result.output


def test_run_conflicting_sigma_flags_exit_3(runner, tmp_path):
    result = runner.invoke(main, [
        "run", "--case", "case2", "--essential", "all",
        "--sigma-c", "1%", "--sweep", "0.1%:5%:5", "--out", str(tmp_path),
    ])
    assert result.exit_code == 3


@pytest.mark.parametrize("flag", [
    ["--sigma-c", "nan"],
    ["--sigma-c", "inf"],
    ["--sweep", "nan%:5%:3"],
    ["--limits", "band:nan%"],
    ["--sigma-p", "inf%"],
], ids=["sigma-c-nan", "sigma-c-inf", "sweep-nan", "band-nan", "sigma-p-inf"])
def test_run_nonfinite_number_exits_3_without_a_report(runner, tmp_path, flag):
    result = runner.invoke(main, [
        "run", "--case", "case2", "--essential", "all", *flag, "--out", str(tmp_path),
    ])
    assert result.exit_code == 3, result.output
    assert "finite" in result.output
    assert not (tmp_path / "rmss_report.json").exists()


def test_mc_nonfinite_sigma_p_exits_3(runner, tmp_path):
    result = runner.invoke(main, [
        "mc", "--case", "case2", "--essential", "all", "--sigma-p", "inf%", "--samples", "10",
        "--out", str(tmp_path),
    ])
    assert result.exit_code == 3, result.output
    assert "finite" in result.output
    assert not (tmp_path / "mc_report.json").exists()


@pytest.mark.parametrize("command", [["validate"], ["run", "--essential", "all"]],
                         ids=["validate", "run"])
def test_nonfinite_case_column_exits_3(runner, tmp_path, monkeypatch, command):
    monkeypatch.chdir(tmp_path)  # where `run` writes its reports by default
    bad = tmp_path / "nan_load.m"
    bad.write_text(OVERLOADED.replace("  2 1 600 ", "  2 1 nan "))
    result = runner.invoke(main, [*command, "--case", str(bad)])
    assert result.exit_code == 3, result.output
    assert "['Pd'] not a finite number" in result.output
    assert not (tmp_path / "rmss_report.json").exists()


def test_run_band_limits_accepted(runner, tmp_path):
    result = runner.invoke(main, [
        "run", "--case", "case14_stoch", "--essential", "all-solar",
        "--limits", "band:2%", "--sigma-c", "auto", "--out", str(tmp_path),
    ])
    assert result.exit_code == 0, result.output


def test_run_pv_bus_metrics_keep_adjoint_rows(runner, tmp_path):
    # buses 2 and 3 are PV buses: their generators hold the voltage
    result = runner.invoke(main, [
        "run", "--case", "case14_stoch", "--essential", "all-solar",
        "--metrics", "2,3", "--sigma-c", "auto", "--out", str(tmp_path),
    ])
    assert result.exit_code == 0, result.output
    report = json.loads((tmp_path / "rmss_report.json").read_text())
    assert report["sensitivity_methods"] == ["adjoint", "adjoint"]


@pytest.mark.parametrize("args", [
    ["run", "--seed", "1"],
    ["sensitivity", "--seed", "1", "--out", "{dir}/lambda.csv"],
    ["mc", "--samples", "20", "--ci", "mean"],
])
def test_removed_options_are_usage_errors(runner, tmp_path, args):
    result = runner.invoke(main, [a.format(dir=tmp_path) for a in args] + [
        "--case", "case2", "--essential", "all", "--out", str(tmp_path),
    ])
    assert result.exit_code == 3, result.output
    assert "No such option" in result.output


def test_usage_error_exits_3_not_the_solver_code(runner, tmp_path):
    result = runner.invoke(main, ["run", "--case", "case2", "--essential", "all",
                                  "--axes", "x", "--out", str(tmp_path)])
    assert result.exit_code == 3, result.output
    assert "Invalid value for '--axes'" in result.output
    assert click.UsageError.exit_code == 2  # only rmss's own errors change code


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
    manifest = json.loads((tmp_path / "mc_manifest.json").read_text())
    assert manifest["config"]["seed"] == 123


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


def test_mc_sample_csv_creates_its_directory(runner, tmp_path):
    csv_path = tmp_path / "new" / "deeper" / "samples.csv"
    result = runner.invoke(main, [
        "mc", "--case", "case2", "--essential", "all", "--samples", "25",
        "--seed", "1", "--sample-csv", str(csv_path), "--out", str(tmp_path / "out"),
    ])
    assert result.exit_code == 0, result.output
    assert len(csv_path.read_text().splitlines()) == 26
    assert (tmp_path / "out" / "mc_report.json").is_file()


def test_mc_uncreatable_sample_csv_directory_exits_3_before_solving(
    runner, tmp_path, monkeypatch
):
    def no_solve(*args, **kwargs):
        raise AssertionError("Monte Carlo ran before the CSV directory was checked")

    monkeypatch.setattr("rmss.cli.run_monte_carlo", no_solve)
    blocker = tmp_path / "file"
    blocker.write_text("")
    result = runner.invoke(main, [
        "mc", "--case", "case2", "--essential", "all", "--samples", "25",
        "--sample-csv", str(blocker / "sub" / "samples.csv"), "--out", str(tmp_path),
    ])
    assert result.exit_code == 3, result.output
    assert "cannot create output directory" in result.output


@pytest.mark.parametrize("args, name", [
    (["mc", "--case", "case2", "--essential", "all", "--samples", "25",
      "--sample-csv", "{dir}/samples.csv", "--out", "{dir}"], "samples.csv"),
    (["sensitivity", "--case", "case2", "--essential", "all", "--out", "{dir}/lambda.csv"],
     "lambda.csv"),
])
def test_csv_dumps_are_written_atomically(runner, tmp_path, monkeypatch, args, name):
    # A write that fails before the rename leaves the previous file whole.
    target = tmp_path / name
    target.write_text("previous\n")
    replace = os.replace

    def failing_replace(src, dst):
        if os.path.basename(dst) == name:
            raise OSError("disk full")
        replace(src, dst)

    monkeypatch.setattr(os, "replace", failing_replace)
    result = runner.invoke(main, [a.format(dir=tmp_path) for a in args])
    assert str(result.exception) == "disk full"
    assert target.read_text() == "previous\n"
    assert [p for p in tmp_path.iterdir() if p.suffix == ".tmp"] == []


def test_mc_zero_samples_exit_3(runner, tmp_path):
    result = runner.invoke(main, [
        "mc", "--case", "case2", "--essential", "all", "--samples", "0",
        "--out", str(tmp_path),
    ])
    assert result.exit_code == 3, result.output
    assert "at least one sample, got 0" in result.output
    assert not (tmp_path / "mc_report.json").exists()


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_mc_nonpositive_workers_exit_3(runner, tmp_path, workers):
    result = runner.invoke(main, [
        "mc", "--case", "case2", "--essential", "all", "--samples", "20",
        "--workers", workers, "--out", str(tmp_path),
    ])
    assert result.exit_code == 3, result.output
    assert f"worker count must be at least 1, got {workers}" in result.output
    assert not (tmp_path / "mc_report.json").exists()


def test_every_error_has_exactly_one_exit_code_base():
    bases = (exceptions.SolverError, exceptions.InputError)
    exempt = bases + (exceptions.RmssError, exceptions.SingularityWarning)
    errors = [obj for obj in vars(exceptions).values() if isinstance(obj, type)]
    for error in set(errors) - set(exempt):
        assert sum(issubclass(error, base) for base in bases) == 1, error.__name__
    assert (exceptions.SolverError.exit_code, exceptions.InputError.exit_code) == (2, 3)


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


def test_atomic_write_leaves_the_umask_alone(tmp_path, monkeypatch):
    # Setting the umask to read it would leave it 0 for files other threads create.
    def forbidden(mask):
        raise AssertionError("os.umask called")

    monkeypatch.setattr(os, "umask", forbidden)
    atomic_write_text(tmp_path / "out.txt", "text\n")
    assert (tmp_path / "out.txt").read_text() == "text\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats is most of a cold start; only the Sobol index estimator needs it
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


def test_compare_refuses_schema_2_report(runner, tmp_path):
    for command in (["run", "--sigma-c", "auto"], ["mc", "--samples", "20"]):
        result = runner.invoke(main, command + ["--case", "case2", "--essential", "all",
                                                "--out", str(tmp_path)])
        assert result.exit_code == 0, result.output
    data = json.loads((tmp_path / "rmss_report.json").read_text())
    # schema 2 stored every violation record and no per-metric limits
    data["schema"] = 2
    del data["violations"]["v_min"], data["violations"]["v_max"]
    for point in data["violations"]["points"]:
        point["records"] = []
    old = tmp_path / "schema2.json"
    old.write_text(json.dumps(data, indent=2))
    result = runner.invoke(main, ["compare", str(old), str(tmp_path / "mc_report.json"),
                                  "--out", str(tmp_path)])
    assert result.exit_code == 3, result.output
    assert "schema 2" in result.output


def test_compare_refuses_mean_ci_mc_report(runner, tmp_path):
    # bounds are quantiles: scoring them against a CI of the mean is meaningless
    for command in (["run", "--sigma-c", "auto"], ["mc", "--samples", "20"]):
        result = runner.invoke(main, command + ["--case", "case2", "--essential", "all",
                                                "--out", str(tmp_path)])
        assert result.exit_code == 0, result.output
    data = json.loads((tmp_path / "mc_report.json").read_text())
    data["statistics"]["ci_method"] = "mean"
    old = tmp_path / "mean_ci.json"
    old.write_text(json.dumps(data))
    result = runner.invoke(main, ["compare", str(tmp_path / "rmss_report.json"), str(old),
                                  "--out", str(tmp_path)])
    assert result.exit_code == 3, result.output
    assert "'mean'" in result.output


@pytest.fixture(scope="module")
def case14_reports(tmp_path_factory):
    """The JSON text of the rmss and mc reports of case14 all-solar."""
    out = tmp_path_factory.mktemp("case14_reports")
    for command in (["run", "--sigma-c", "auto"], ["mc", "--samples", "100"]):
        result = CliRunner().invoke(main, command + [
            "--case", "case14_stoch", "--essential", "all-solar", "--out", str(out)])
        assert result.exit_code == 0, result.output
    return {name: (out / f"{name}_report.json").read_text() for name in ("rmss", "mc")}


@pytest.mark.parametrize("report, path", [
    ("mc", ("statistics", "metrics", "ci_ub")),
    ("mc", ("statistics", "parameters", "ci_ub")),
    ("rmss", ("parameters", "means")),
], ids=["mc-metric-ci_ub", "mc-parameter-ci_ub", "rmss-parameter-means"])
def test_compare_array_of_the_wrong_length_exits_3(runner, tmp_path, case14_reports,
                                                    report, path):
    data = {name: json.loads(text) for name, text in case14_reports.items()}
    block = data[report]
    for key in path[:-1]:
        block = block[key]
    block[path[-1]] = block[path[-1]][:-1]
    for name, value in data.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(value))
    result = runner.invoke(main, ["compare", str(tmp_path / "rmss.json"),
                                  str(tmp_path / "mc.json"), "--out", str(tmp_path)])
    assert result.exit_code == 3, result.output
    assert "error:" in result.output


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


@pytest.mark.parametrize("entry", ["nan", "1.5"])
def test_bad_correlation_entry_exits_3_naming_its_parameters(runner, tmp_path, entry):
    corr = tmp_path / "corr.csv"
    corr.write_text(entry + "\n")
    result = runner.invoke(main, ["run", "--case", "case2", "--essential", "all",
                                  "--correlation", str(corr), "--out", str(tmp_path)])
    assert result.exit_code == 3, result.output
    assert f"correlation entry (l1.P, l1.P) is {float(entry)!r}" in result.output
    assert not (tmp_path / "rmss_report.json").exists()


def test_uncreatable_out_dir_exits_3(runner, tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    result = runner.invoke(main, ["run", "--case", "case2", "--essential", "all",
                                  "--sigma-c", "auto", "--out", str(blocker / "sub")])
    assert result.exit_code == 3, result.output


def test_shared_input_options_on_every_model_command():
    shared = ["case", "essential", "axes", "sigma_p", "correlation", "metrics"]
    commands = [main.commands[name] for name in ("run", "mc", "sensitivity")]
    for name in shared:
        options = [next(p for p in cmd.params if p.name == name) for cmd in commands]
        assert len({(o.default, o.required, o.help) for o in options}) == 1, name
