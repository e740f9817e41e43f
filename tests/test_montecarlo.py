"""Seeded sampling, deterministic parallel solves, and the MAE comparison."""

import json

import numpy as np
import pytest

from rmss import (
    MetricSpec,
    default_metric_spec,
    mae_compare,
    run_monte_carlo,
    run_rmss,
    sample_parameters,
    tag_essential,
)
from rmss.exceptions import (
    ConfigError,
    DimensionMismatch,
    ExcessiveFailureRate,
    NonConvergence,
    NotPSD,
)
from rmss import montecarlo, powerflow
from rmss.montecarlo import McReport, SampleBatch
from rmss.parameters import Axis, ParameterEntry, StochasticParameterSet
from rmss.powerflow import NewtonOptions, PowerFlowEngine, build_admittance
from rmss.worstcase import nominal_solution

from test_powerflow import two_bus


def pset(means, stdevs, sigma=None):
    entries = tuple(
        ParameterEntry(f"g{i + 1}", Axis.P, m, s)
        for i, (m, s) in enumerate(zip(means, stdevs))
    )
    return StochasticParameterSet(
        entries=entries,
        sigma=np.diag(np.asarray(stdevs, dtype=float) ** 2) if sigma is None else sigma,
    )


@pytest.fixture(scope="module")
def two_bus_stochastic():
    case = tag_essential(two_bus(p_load=1.0), ["l1"])
    params = StochasticParameterSet.from_case(case, sigma_frac=0.02)
    return case, params


class TestSampling:
    def test_zero_samples_gives_empty_batch(self):
        batch = sample_parameters(pset([0.5], [0.01]), 0, seed=1)
        assert batch.values.shape == (0, 1)

    def test_same_seed_same_batch(self):
        params = pset([0.5, 0.3], [0.01, 0.02])
        a = sample_parameters(params, 1000, seed=7)
        b = sample_parameters(params, 1000, seed=7)
        assert np.array_equal(a.values, b.values)

    def test_different_seed_differs(self):
        params = pset([0.5], [0.01])
        a = sample_parameters(params, 100, seed=1)
        b = sample_parameters(params, 100, seed=2)
        assert not np.array_equal(a.values, b.values)

    def test_correlated_draws_reproduce_target_correlation(self):
        rho = 0.5
        stdevs = np.array([0.02, 0.03])
        sigma = np.array([[1.0, rho], [rho, 1.0]]) * np.outer(stdevs, stdevs)
        batch = sample_parameters(pset([0.5, 0.4], stdevs, sigma=sigma), 10_000, seed=11)
        empirical = np.corrcoef(batch.values.T)[0, 1]
        assert empirical == pytest.approx(rho, abs=0.05)

    def test_sample_mean_within_clt_bound(self):
        mean, stdev, n = 0.5, 0.02, 10_000
        batch = sample_parameters(pset([mean], [stdev]), n, seed=5)
        assert abs(batch.values.mean() - mean) <= 4 * stdev / np.sqrt(n)

    def test_negative_sample_count_rejected(self):
        with pytest.raises(ConfigError, match="nonnegative"):
            sample_parameters(pset([0.5], [0.01]), -1, 0)

    @pytest.mark.parametrize(
        "mean, stdev", [(np.nan, 0.01), (np.inf, 0.01), (0.5, np.nan), (0.5, np.inf), (0.5, -0.01)]
    )
    def test_entry_moments_must_be_finite_and_stdev_nonnegative(self, mean, stdev):
        # a hand-built set is refused by the same rule as one from from_case
        with pytest.raises(ConfigError, match="parameter g2.P"):
            pset([0.4, mean], [0.01, stdev])

    @pytest.mark.parametrize(
        "spread", [{"sigma_frac": -0.02}, {"sigma_abs": -0.01}, {"sigma_frac": np.nan}]
    )
    def test_from_case_refuses_a_negative_or_nonfinite_spread(self, two_bus_stochastic, spread):
        case, _ = two_bus_stochastic
        with pytest.raises(ConfigError, match="parameter l1.P"):
            StochasticParameterSet.from_case(case, **spread)

    def test_asymmetric_covariance_rejected(self):
        with pytest.raises(NotPSD):
            pset([0.5, 0.4], [0.01, 0.01], sigma=np.array([[1e-4, 1e-5], [5e-5, 1e-4]]))

    @pytest.mark.parametrize(
        "row, col, value, rule",
        [(0, 2, np.nan, "finite"), (2, 1, -1.5, "finite"), (1, 1, 0.9, "diagonal"),
         (1, 2, 0.4, "transposed")],
    )
    def test_bad_correlation_entry_named_by_its_parameters(self, case14_solar, row, col,
                                                          value, rule):
        corr = np.eye(3)
        corr[[1, 2], [2, 1]] = 0.3
        corr[row, col] = value
        labels = StochasticParameterSet.from_case(case14_solar).labels
        with pytest.raises(ConfigError, match=rule) as err:
            StochasticParameterSet.from_case(case14_solar, correlation=corr)
        assert f"({labels[row]}, {labels[col]})" in str(err.value)

    def test_rounded_sample_correlation_accepted(self, case14_solar):
        rng = np.random.default_rng(0)
        corr = np.corrcoef(rng.standard_normal((3, 50)))
        params = StochasticParameterSet.from_case(case14_solar, correlation=corr)
        assert np.allclose(params.sigma, corr * np.outer(params.stdevs, params.stdevs))

    def test_indefinite_covariance_rejected(self):
        with pytest.raises(NotPSD):
            pset([0.5, 0.4], [0.01, 0.01],
                 sigma=np.array([[1e-4, -2e-4], [-2e-4, 1e-4]]))


class TestRunMonteCarlo:
    def test_zero_spread_collapses_to_nominal(self, two_bus_stochastic):
        case, _ = two_bus_stochastic
        params = StochasticParameterSet.from_case(case, sigma_abs=0.0)
        spec = MetricSpec.voltages_at([2])
        mc = run_monte_carlo(case, params, spec, n=50, seed=3)
        # every sample is bitwise the nominal draw, so the interval is a point
        assert mc.metric_ci_ub[0] == mc.metric_ci_lb[0]
        assert mc.metric_stdev[0] == pytest.approx(0.0, abs=1e-14)
        from rmss import evaluate_metrics, solve_power_flow

        nominal = evaluate_metrics(solve_power_flow(case), spec)
        assert mc.metric_ci_ub[0] == nominal[0]
        assert mc.metric_mean[0] == pytest.approx(nominal[0], abs=1e-14)

    def test_workers_do_not_change_statistics(self, two_bus_stochastic):
        case, params = two_bus_stochastic
        spec = MetricSpec.voltages_at([2])
        serial = run_monte_carlo(case, params, spec, n=120, seed=9, workers=1)
        parallel = run_monte_carlo(case, params, spec, n=120, seed=9, workers=3)
        assert serial.statistics_dict() == parallel.statistics_dict()
        assert np.array_equal(serial.metric_mean, parallel.metric_mean)

    def test_replayed_blocks_give_worker_independent_statistics_on_case118(self, case118):
        # case118 'all' takes 2-6 Newton steps per sample and some fail:
        # every step from the nominal start goes through the replayed LU
        case = tag_essential(case118, "all")
        params = StochasticParameterSet.from_case(case, sigma_frac=0.02)
        spec = default_metric_spec(case)
        serial = run_monte_carlo(case, params, spec, n=2_000, seed=1, workers=1)
        parallel = run_monte_carlo(case, params, spec, n=2_000, seed=1, workers=2)
        assert serial.n_failed > 0
        assert json.dumps(serial.statistics_dict()) == json.dumps(parallel.statistics_dict())
        assert serial.failed_indices.tolist() == parallel.failed_indices.tolist()
        assert serial.newton_iterations == parallel.newton_iterations

    def test_failing_samples_never_step_alone_before_the_last_blocks(self, case118,
                                                                     monkeypatch):
        # The next block joins whenever fewer than BLOCK_SIZE rows still
        # iterate, so a failing sample's 50 steps share each replayed solve
        # with fresh samples; only the chunk's drain may narrow to one row.
        case = tag_essential(case118, "all")
        params = StochasticParameterSet.from_case(case, sigma_frac=0.02)
        widths = []
        replay = powerflow._ReplayLU.solve

        def counted(self, data, rhs):
            widths.append(len(data))
            return replay(self, data, rhs)

        monkeypatch.setattr(powerflow._ReplayLU, "solve", counted)
        mc = run_monte_carlo(case, params, default_metric_spec(case), n=1_000, seed=1)
        assert mc.n_failed and mc.failed_indices[0] < 1_000 - 2 * montecarlo.BLOCK_SIZE
        assert widths.count(1) <= NewtonOptions().max_iter + 1

    def test_results_independent_of_admission(self, case118):
        # 3 blocks and a partial fourth; at a 3% spread samples of the first
        # block fail, so later blocks are admitted while they still iterate
        case = tag_essential(case118, "all")
        params = StochasticParameterSet.from_case(case, sigma_frac=0.03)
        spec = default_metric_spec(case)
        n, seed = 3 * montecarlo.BLOCK_SIZE + 5, 0
        mc = run_monte_carlo(case, params, spec, n=n, seed=seed, keep_samples=True)
        assert 0 < mc.failed_indices[0] < montecarlo.BLOCK_SIZE

        engine = PowerFlowEngine(case)
        nominal = nominal_solution(case, params.injector(case, case.injections()))
        p, q = params.injections(case, sample_parameters(params, n, seed).values)
        positions = powerflow.metric_positions(engine.bus_ids, spec)
        metrics = np.full((n, len(spec)), np.nan)
        iterations = []
        for r in range(n):
            alone = engine.solve(p[r : r + 1], q[r : r + 1], start=nominal)
            if alone.converged[0]:
                metrics[r] = np.abs(alone.v[0, positions])
            iterations.append(int(alone.iterations[0]))
        assert np.array_equal(mc.metric_samples, metrics, equal_nan=True)
        assert mc.failed_indices.tolist() == np.flatnonzero(np.isnan(metrics[:, 0])).tolist()
        histogram = np.bincount(iterations)
        assert mc.newton_iterations == {k: int(c) for k, c in enumerate(histogram) if c}

    def test_nominal_divergence_aborts(self):
        case = tag_essential(two_bus(p_load=6.0), ["l1"])
        params = StochasticParameterSet.from_case(case, sigma_frac=0.02)
        with pytest.raises(NonConvergence, match="nominal"):
            run_monte_carlo(case, params, MetricSpec.voltages_at([2]), n=10, seed=0)

    def test_failed_samples_tallied_not_fatal(self):
        # nominal load sits just under the 5 pu transfer limit, so a fat
        # spread pushes a fraction of the draws past it
        case = tag_essential(two_bus(p_load=4.9), ["l1"])
        params = StochasticParameterSet.from_case(case, sigma_abs=0.08)
        mc = run_monte_carlo(case, params, MetricSpec.voltages_at([2]), n=200, seed=21)
        assert 0 < mc.n_failed < 200
        assert np.isfinite(mc.metric_mean).all()

    def test_singular_jacobian_sample_counts_as_failed(self, monkeypatch):
        # At the flat nominal start of an unloaded bus 2, an injection with
        # |S2| = |Y22| |V2|^2 makes that sample's Jacobian exactly singular.
        case = tag_essential(two_bus(p_load=0.0, x=0.1), ["l1"])
        params = StochasticParameterSet.from_case(case, sigma_abs=0.05)
        spec = MetricSpec.voltages_at([2])
        singular = abs(build_admittance(case)[1, 1])
        regular = np.array([[-0.3], [0.2], [-0.1], [0.4], [-0.2]])

        def run(values):
            monkeypatch.setattr(montecarlo, "sample_parameters",
                                lambda params, n, seed: SampleBatch(values, seed))
            return run_monte_carlo(case, params, spec, n=len(values), seed=0)

        mixed = run(np.insert(regular, 2, singular, axis=0))
        alone = run(regular)
        assert mixed.n_failed == 1
        assert mixed.failed_indices.tolist() == [2]
        assert alone.n_failed == 0
        # the singular sample stops at the first step, the one it could not take
        want = dict(alone.newton_iterations)
        want[1] = want.get(1, 0) + 1
        assert mixed.newton_iterations == want
        for stat in ("metric_mean", "metric_stdev", "metric_ci_lb", "metric_ci_ub"):
            assert np.array_equal(getattr(mixed, stat), getattr(alone, stat))

    def test_sample_csv_needs_kept_samples(self, two_bus_stochastic, tmp_path):
        case, params = two_bus_stochastic
        mc = run_monte_carlo(case, params, MetricSpec.voltages_at([2]), n=10, seed=0)
        with pytest.raises(ConfigError, match="keep_samples=True"):
            mc.samples_to_csv(tmp_path / "samples.csv")

    def test_runtime_accounting(self, two_bus_stochastic):
        case, params = two_bus_stochastic
        mc = run_monte_carlo(case, params, MetricSpec.voltages_at([2]), n=50, seed=1)
        n_converged = mc.n_samples - mc.n_failed
        assert mc.total_runtime_s >= n_converged * mc.per_solve_min_s
        assert mc.per_solve_min_s > 0

    def test_per_solve_quantiles_are_timing_only(self, two_bus_stochastic):
        case, params = two_bus_stochastic
        mc = run_monte_carlo(case, params, MetricSpec.voltages_at([2]), n=300, seed=3)
        assert 0 < mc.per_solve_min_s <= mc.per_solve_p50_s <= mc.per_solve_p95_s
        data = mc.to_dict()
        assert data["timing"]["per_solve_p95_s"] == mc.per_solve_p95_s
        assert "per_solve_p50_s" not in json.dumps(data["statistics"])
        again = McReport.from_dict(data)
        assert (again.per_solve_p50_s, again.per_solve_p95_s) == (
            mc.per_solve_p50_s, mc.per_solve_p95_s
        )
        for key in ("per_solve_p50_s", "per_solve_p95_s"):
            del data["timing"][key]
        older = McReport.from_dict(data)
        assert older.per_solve_p50_s is None and older.per_solve_p95_s is None

    def test_protocol_sample_size_one_thousand(self, two_bus_stochastic):
        # 1,000 here; 10,000 and 100,000 run in the stability test below
        case, params = two_bus_stochastic
        mc = run_monte_carlo(case, params, MetricSpec.voltages_at([2]), n=1_000, seed=4)
        assert mc.n_samples == 1_000
        assert mc.metric_ci_lb[0] < mc.metric_mean[0] < mc.metric_ci_ub[0]

    def test_ci_bounds_stable_across_sample_sizes(self, two_bus_stochastic):
        # the interval at 100k must sit within the 10k interval's half-width
        case, params = two_bus_stochastic
        spec = MetricSpec.voltages_at([2])
        at_10k = run_monte_carlo(case, params, spec, n=10_000, seed=13)
        at_100k = run_monte_carlo(case, params, spec, n=100_000, seed=13)
        half_width = (at_10k.metric_ci_ub - at_10k.metric_ci_lb) / 2
        assert np.all(np.abs(at_100k.metric_ci_ub - at_10k.metric_ci_ub) < half_width)
        assert np.all(np.abs(at_100k.metric_ci_lb - at_10k.metric_ci_lb) < half_width)

    def test_report_dict_round_trip(self, two_bus_stochastic):
        case, params = two_bus_stochastic
        mc = run_monte_carlo(case, params, MetricSpec.voltages_at([2]), n=30, seed=2)
        again = McReport.from_dict(mc.to_dict())
        assert again.statistics_dict() == mc.statistics_dict()
        assert again.total_runtime_s == mc.total_runtime_s


class TestMaeCompare:
    def _reports(self, two_bus_stochastic, offset=0.0):
        case, params = two_bus_stochastic
        spec = MetricSpec.voltages_at([2])
        rmss = run_rmss(case, params, spec, sigma_c="propagated")
        mc = run_monte_carlo(case, params, spec, n=300, seed=8)
        if offset:
            mc.metric_ci_ub = mc.metric_ci_ub + offset
            mc.metric_ci_lb = mc.metric_ci_lb + offset
        return rmss, mc

    def test_identical_bounds_give_zero_mae(self, two_bus_stochastic):
        rmss, mc = self._reports(two_bus_stochastic)
        mc.metric_ci_ub, mc.metric_ci_lb = rmss.points[0].results.T
        env_ub, env_lb = rmss.parameter_envelope(0)
        mc.param_ci_ub, mc.param_ci_lb = env_ub, env_lb
        comp = mae_compare(rmss, mc)
        assert comp.mae_c_ub == comp.mae_c_lb == 0.0
        assert comp.mae_e_ub == comp.mae_e_lb == 0.0

    def test_constant_offset_is_the_mae(self, two_bus_stochastic):
        rmss, mc = self._reports(two_bus_stochastic)
        # align exactly, then shift the sampled interval by 0.01 pu elementwise
        mc.metric_ci_ub, mc.metric_ci_lb = rmss.points[0].results.T + 0.01
        comp = mae_compare(rmss, mc)
        assert comp.mae_c_ub == pytest.approx(0.01, abs=1e-15)
        assert comp.mae_c_lb == pytest.approx(0.01, abs=1e-15)
        assert comp.mae_pct["c_ub"] == pytest.approx(1.0, abs=1e-12)

    def test_speedup_is_runtime_ratio(self, two_bus_stochastic):
        rmss, mc = self._reports(two_bus_stochastic)
        comp = mae_compare(rmss, mc)
        assert comp.speedup == pytest.approx(mc.total_runtime_s / rmss.runtime_s)
        assert comp.speedup > 0

    def test_dimension_mismatch_rejected(self, two_bus_stochastic):
        rmss, mc = self._reports(two_bus_stochastic)
        mc.metric_buses = (2, 3)
        with pytest.raises(DimensionMismatch):
            mae_compare(rmss, mc)

    def test_excessive_failure_rate_aborts(self, two_bus_stochastic):
        rmss, mc = self._reports(two_bus_stochastic)
        mc.n_failed = int(0.05 * mc.n_samples)
        with pytest.raises(ExcessiveFailureRate):
            mae_compare(rmss, mc)

    def test_sweep_comparison_picks_best_fit_point(self, two_bus_stochastic):
        case, params = two_bus_stochastic
        spec = MetricSpec.voltages_at([2])
        rmss = run_rmss(case, params, spec)  # default sweep
        mc = run_monte_carlo(case, params, spec, n=2000, seed=8)
        comp = mae_compare(rmss, mc)
        assert comp.sigma_label in [p.label for p in rmss.points]
        assert len(comp.per_point) == len(rmss.points)
        best = min(a + b for _, a, b in comp.per_point)
        assert comp.mae_c_ub + comp.mae_c_lb == pytest.approx(best)


class TestDiagnostics:
    @pytest.mark.parametrize("workers", [1, 3])
    def test_failed_indices_are_the_nan_rows(self, workers):
        case = tag_essential(two_bus(p_load=4.9), ["l1"])
        params = StochasticParameterSet.from_case(case, sigma_abs=0.08)
        mc = run_monte_carlo(case, params, MetricSpec.voltages_at([2]), n=200, seed=21,
                             workers=workers, keep_samples=True)
        nan_rows = np.flatnonzero(np.isnan(mc.metric_samples).any(axis=1))
        assert 0 < len(nan_rows) < 200
        assert mc.failed_indices.tolist() == nan_rows.tolist()
        assert mc.n_failed == len(nan_rows)
        assert sum(mc.newton_iterations.values()) == 200

    def test_diagnostics_kept_out_of_statistics_and_optional_on_load(self, two_bus_stochastic):
        case, params = two_bus_stochastic
        mc = run_monte_carlo(case, params, MetricSpec.voltages_at([2]), n=30, seed=2)
        data = mc.to_dict()
        assert "diagnostics" not in data["statistics"]
        again = McReport.from_dict(data)
        assert again.newton_iterations == mc.newton_iterations
        assert again.failed_indices.tolist() == mc.failed_indices.tolist() == []
        del data["diagnostics"]
        older = McReport.from_dict(data)
        assert older.statistics_dict() == mc.statistics_dict()
        assert older.newton_iterations == {} and older.failed_indices.tolist() == []
