"""Closed-form worst-case construction, sweeps, and violation counting."""

import base64
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar
from scipy.stats import norm

from rmss import (
    MetricSpec,
    default_metric_spec,
    run_monte_carlo,
    run_rmss,
    tag_essential,
    worst_case_parameters,
)
from rmss.exceptions import (
    ConfigError, DegenerateDirection, InvalidProbability, MissingLimits, SchemaError
)
from rmss.parameters import Axis, ParameterEntry, StochasticParameterSet
from rmss.reportio import write_json
from rmss.sensitivity import adjoint_sensitivities
from rmss.worstcase import (
    FRACTION,
    RmssReport,
    SweepGrid,
    _bounds,
    _overshoot,
    _quantile,
    count_violations,
    limit_arrays,
)

from test_powerflow import two_bus


def bisected_normal_quantile(rho: float) -> float:
    """Independent inverse-CDF oracle built on math.erf only."""
    lo, hi = -10.0, 10.0
    for _ in range(200):
        mid = (lo + hi) / 2
        if 0.5 * (1 + math.erf(mid / math.sqrt(2))) < rho:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def pset(means, stdevs, sigma=None):
    entries = tuple(
        ParameterEntry(f"g{i + 1}", Axis.P, m, s) for i, (m, s) in enumerate(zip(means, stdevs))
    )
    return StochasticParameterSet(
        entries=entries,
        sigma=np.diag(np.asarray(stdevs, dtype=float) ** 2) if sigma is None else sigma,
    )


class TestWorstCaseMetric:
    def test_zero_spread_returns_nominal(self):
        assert _bounds(1.0, 0.0, _quantile(0.975)).tolist() == [1.0, 1.0]

    def test_median_confidence_returns_nominal(self):
        assert _bounds(1.0, 0.01, _quantile(0.5)) == pytest.approx([1.0, 1.0], abs=1e-15)

    def test_975_quantile_against_erf_bisection_oracle(self):
        z = bisected_normal_quantile(0.975)
        assert z == pytest.approx(1.959963985, abs=1e-8)
        assert _quantile(0.975) == pytest.approx(z, abs=1e-9)
        ub, lb = _bounds(1.0, 0.01, _quantile(0.975))
        assert ub == pytest.approx(1.0 + 0.01 * z, abs=1e-9)
        assert lb == pytest.approx(1.0 - 0.01 * z, abs=1e-9)

    def test_invalid_probability(self):
        for rho in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(InvalidProbability):
                _quantile(rho)

    def test_negative_sigma_rejected(self, two_bus_stochastic):
        case, params = two_bus_stochastic
        for sigma_c in (-0.01, math.nan, math.inf):
            with pytest.raises(ConfigError, match="nonnegative and finite"):
                run_rmss(case, params, sigma_c=sigma_c)


class TestWorstCaseParameters:
    def test_zero_deviation_returns_nominal(self):
        params = pset([0.4, 0.2], [0.01, 0.01])
        out = worst_case_parameters(params, np.array([0.3, 0.1]), 1.0, 1.0)
        assert np.array_equal(out, params.means)

    def test_identity_covariance_single_axis(self):
        params = pset([0.0, 0.0], [1.0, 1.0])
        out = worst_case_parameters(params, np.array([1.0, 0.0]), 0.7, 0.0)
        assert np.allclose(out, [0.7, 0.0])

    def test_correlated_covariance_against_bruteforce_minimizer(self):
        sigma = np.array([[1.0, 0.5], [0.5, 1.0]])
        params = pset([0.0, 0.0], [1.0, 1.0], sigma=sigma)
        lam = np.array([1.0, 0.0])
        out = worst_case_parameters(params, lam, 1.0, 0.0)

        # constraint fixes x1 = 1; minimize the normalized distance over x2
        inv = np.linalg.inv(sigma)

        def maha(x2):
            x = np.array([1.0, x2])
            return float(x @ inv @ x)

        best = minimize_scalar(maha, bounds=(-5, 5), method="bounded")
        assert np.allclose(out, [1.0, best.x], atol=1e-6)
        assert np.allclose(out, [1.0, 0.5], atol=1e-9)

    def test_insensitive_metric_raises_degenerate_direction(self):
        params = pset([0.4], [0.01])
        with pytest.raises(DegenerateDirection):
            worst_case_parameters(params, np.array([0.0]), 1.01, 1.0)


@st.composite
def random_direction_instances(draw):
    d = draw(st.integers(min_value=1, max_value=4))
    fl = st.floats(-2.0, 2.0, allow_nan=False)
    a = np.array([[draw(fl) for _ in range(d)] for _ in range(d)])
    sigma = a @ a.T + 0.1 * np.eye(d)
    lam = np.array([draw(st.floats(-3.0, 3.0, allow_nan=False)) for _ in range(d)])
    delta = draw(st.floats(-0.5, 0.5, allow_nan=False))
    means = np.array([draw(st.floats(-1.0, 1.0, allow_nan=False)) for _ in range(d)])
    return means, sigma, lam, delta


class TestClosedFormProperties:
    @settings(max_examples=60, deadline=None)
    @given(random_direction_instances())
    def test_hyperplane_membership(self, instance):
        means, sigma, lam, delta = instance
        if float(lam @ sigma @ lam) < 1e-10:
            return
        params = pset(means, np.sqrt(np.diag(sigma)), sigma=sigma)
        out = worst_case_parameters(params, lam, 1.0 + delta, 1.0)
        assert abs(lam @ (out - means) - delta) <= 1e-10

    @settings(max_examples=30, deadline=None)
    @given(random_direction_instances())
    def test_covariance_scale_cancels(self, instance):
        means, sigma, lam, delta = instance
        if float(lam @ sigma @ lam) < 1e-10:
            return
        params = pset(means, np.sqrt(np.diag(sigma)), sigma=sigma)
        scaled = pset(means, 3.0 * np.sqrt(np.diag(sigma)), sigma=9.0 * sigma)
        a = worst_case_parameters(params, lam, 1.0 + delta, 1.0)
        b = worst_case_parameters(scaled, lam, 1.0 + delta, 1.0)
        assert np.allclose(a, b, rtol=1e-12, atol=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(random_direction_instances(), st.integers(0, 2**31 - 1))
    # In one dimension the hyperplane is a single point, so every random point
    # is the closed-form one and the two radii differ only by rounding: that
    # rounding is absolute for small radii (the projection cancels terms of
    # order one) and relative for large ones (one ulp of the radius).
    @example((np.array([0.0]), np.array([[1.1]]), np.array([0.00021694]), 0.5), 0)
    def test_no_random_hyperplane_point_is_more_probable(self, instance, seed):
        means, sigma, lam, delta = instance
        if float(lam @ sigma @ lam) < 1e-10:
            return
        params = pset(means, np.sqrt(np.diag(sigma)), sigma=sigma)
        out = worst_case_parameters(params, lam, 1.0 + delta, 1.0)
        dev = out - means
        best = float(dev @ np.linalg.solve(sigma, dev))

        rng = np.random.default_rng(seed)
        z = rng.standard_normal((2000, len(means)))
        z += ((delta - z @ lam) / (lam @ lam))[:, None] * lam[None, :]
        maha = np.einsum("nd,nd->n", z, np.linalg.solve(sigma, z.T).T)
        assert np.all(maha >= best - max(1e-9, 1e-12 * best))


class TestSweepGrid:
    def test_default_spans_tenth_to_five_percent(self):
        grid = SweepGrid.default()
        assert len(grid.values) == 20
        assert grid.values[0] == pytest.approx(0.001)
        assert grid.values[-1] == pytest.approx(0.05)
        assert grid.unit == FRACTION

    def test_rejects_unsorted_or_nonpositive(self):
        with pytest.raises(ConfigError, match="increasing"):
            SweepGrid((0.01, 0.005))
        for values in ((0.0, 0.01), (), (math.nan,), (0.01, math.nan), (0.01, math.inf)):
            with pytest.raises(ConfigError, match="positive and finite"):
                SweepGrid(values, FRACTION)
        with pytest.raises(ConfigError, match="unit"):
            SweepGrid((0.01,), unit="percentish")


def one_point(case, rows, limits="case"):
    """(buses, (1, m, 2) bounds, v_min, v_max) of (bus, c_wc_ub, c_wc_lb) rows at one point."""
    buses = [bus for bus, _, _ in rows]
    bounds = np.array([[[ub, lb] for _, ub, lb in rows]])
    return (buses, bounds, *limit_arrays(limits, case, buses, np.ones(len(rows))))


def count_one_point(case, rows, limits="case", label=0.01):
    """Violations of (bus, c_wc_ub, c_wc_lb) rows at a single sweep point."""
    return count_violations([label], *one_point(case, rows, limits))


def overshoot_one_point(case, rows, limits="case"):
    """(m, 2) overshoot of each row's [c_wc_ub, c_wc_lb] beyond its [v_max, v_min], pu."""
    _, bounds, v_min, v_max = one_point(case, rows, limits)
    return _overshoot(bounds[0], np.stack([v_max, v_min], axis=-1))


def overshoot_records(labels, buses, bounds, v_min, v_max):
    """Per point, the excursions that ``_overshoot`` finds, in :func:`count_by_loop`'s form."""
    limit = np.stack([v_max, v_min], axis=-1)
    points = []
    for label, point in zip(labels, bounds):
        margins = _overshoot(point, limit)
        points.append([
            {"sigma": label, "bus": buses[i], "side": ("UB", "LB")[s],
             "value": float(point[i, s]), "limit": float(limit[i, s]),
             "margin": float(margins[i, s])}
            for i, s in zip(*np.nonzero(margins > 0))
        ])
    return points


def report_records(report):
    """:func:`overshoot_records` of a report's stored bounds and limits."""
    return overshoot_records(
        [p.label for p in report.points], report.metric_buses,
        np.stack([p.results for p in report.points]),
        report.violations.v_min, report.violations.v_max,
    )


def count_by_loop(labels, buses, bounds, v_min, v_max):
    """Reference tally: one pass per (point, metric), UB checked before LB."""
    points, total = [], {}
    for k, label in enumerate(labels):
        records, tally, ub_total, lb_total = [], {}, 0, 0
        for i, bus in enumerate(buses):
            ub, lb = bounds[k, i]
            if ub > v_max[i]:
                ub_total += 1
                records.append({"sigma": label, "bus": bus, "side": "UB", "value": float(ub),
                                "limit": float(v_max[i]), "margin": float(ub - v_max[i])})
            if lb < v_min[i]:
                lb_total += 1
                records.append({"sigma": label, "bus": bus, "side": "LB", "value": float(lb),
                                "limit": float(v_min[i]), "margin": float(v_min[i] - lb)})
        for r in records:
            tally[r["bus"]] = tally.get(r["bus"], 0) + 1
            total[r["bus"]] = total.get(r["bus"], 0) + 1
        points.append((label, ub_total, lb_total, tally, records))
    return points, total


class TestCountViolations:
    def test_all_inside_limits(self, case14):
        report = count_one_point(case14, [(4, 1.01, 0.99)])
        assert report.points[0].ub_total == 0
        assert report.points[0].lb_total == 0
        assert report.worst_violator is None

    def test_three_ub_violations_counted(self, case14):
        report = count_one_point(case14, [(b, 1.2, 0.99) for b in (4, 5, 6)])
        point = report.points[0]
        assert point.ub_total == 3
        assert point.lb_total == 0
        assert point.per_bus == {4: 1, 5: 1, 6: 1}
        assert point.ub_total + point.lb_total == sum(point.per_bus.values())
        assert point.worst_violator == 4  # tie broken to the lowest id

    def test_band_limits_violate_only_beyond_two_percent(self, case14):
        setpoints = {4: 1.0, 5: 1.0}
        limits = {b: (s * 0.98, s * 1.02) for b, s in setpoints.items()}
        rows = [(4, 1.019, 0.981), (5, 1.021, 0.985)]  # inside, outside
        report = count_one_point(case14, rows, limits=limits)
        assert report.per_bus_total == {5: 1}
        margins = overshoot_one_point(case14, rows, limits=limits)
        assert (margins > 0).tolist() == [[False, False], [True, False]]  # bus 5 UB only
        assert margins[1, 0] == pytest.approx(0.001)

    def test_missing_limits(self, case14):
        from rmss.model import Bus, BusKind, GridCase

        case = GridCase(
            base_mva=100.0,
            buses=(Bus(1, BusKind.SLACK, v_setpoint=1.0, angle_setpoint=0.0),),
            branches=(),
            generators=(),
            loads=(),
        )
        with pytest.raises(MissingLimits):
            count_one_point(case, [(1, 1.1, 0.9)])
        with pytest.raises(MissingLimits):
            count_one_point(case14, [(4, 1.1, 0.9)], limits={5: (0.9, 1.1)})

    def test_margins_recorded_in_pu(self, case14):
        ((ub, lb),) = overshoot_one_point(case14, [(4, 1.07, 0.93)])
        assert ub == pytest.approx(1.07 - 1.05)
        assert lb == pytest.approx(0.95 - 0.93)

    def test_matches_per_point_per_metric_loop(self, case14_solar):
        # tallies, and the values, limits and margins of the _overshoot
        # excursions, bitwise equal to a loop over (point, metric)
        params = StochasticParameterSet.from_case(case14_solar)
        report = run_rmss(case14_solar, params, limits=0.01)
        bounds = np.stack([p.results for p in report.points])
        v_min, v_max = limit_arrays(0.01, case14_solar, report.metric_buses, report.c_nom)
        labels = [p.label for p in report.points]
        points, total = count_by_loop(labels, report.metric_buses, bounds, v_min, v_max)
        assert sum(len(r) for *_, r in points) > 0
        for got, excursions, (label, ub_total, lb_total, tally, records) in zip(
            report.violations.points, report_records(report), points, strict=True
        ):
            assert (got.sigma_label, got.ub_total, got.lb_total) == (label, ub_total, lb_total)
            assert got.per_bus == tally
            assert excursions == records
        assert report.violations.per_bus_total == total


@pytest.fixture(scope="module")
def two_bus_stochastic():
    case = tag_essential(two_bus(p_load=1.0), ["l1"])
    params = StochasticParameterSet.from_case(case, sigma_frac=0.02)
    return case, params


class TestRunRmss:
    @pytest.mark.parametrize("band", [-0.02, 0.0, math.nan, math.inf])
    def test_band_limits_must_be_positive_and_finite(self, two_bus_stochastic, band):
        case, params = two_bus_stochastic
        with pytest.raises(ConfigError, match="band must be positive and finite"):
            run_rmss(case, params, limits=band)

    def test_zero_sigma_degenerates_to_nominal(self, two_bus_stochastic):
        case, params = two_bus_stochastic
        report = run_rmss(case, params, sigma_c=0.0)
        (point,) = report.points
        assert np.array_equal(point.results[:, 0], report.c_nom)
        assert np.array_equal(point.results[:, 1], report.c_nom)
        assert report.violations.worst_violator is None

    def test_default_sweep_spans_declared_range(self, two_bus_stochastic):
        case, params = two_bus_stochastic
        report = run_rmss(case, params)
        assert report.sigma_mode == "sweep"
        labels = [p.label for p in report.points]
        assert len(labels) == 20
        assert labels[0] == pytest.approx(0.001)
        assert labels[-1] == pytest.approx(0.05)
        # per-metric absolute sigma is the fraction of the nominal value
        first = report.points[0]
        assert first.sigma_abs[0] == pytest.approx(0.001 * report.c_nom[0])

    def test_bound_ordering_and_linear_consistency(self, case14_solar, case14_solution):
        params = StochasticParameterSet.from_case(case14_solar)
        spec = default_metric_spec(case14_solar)
        lam = adjoint_sensitivities(case14_solar, case14_solution, params, spec).values
        report = run_rmss(case14_solar, params, spec, sigma_c="propagated")
        assert len(report.sensitivity_methods) == len(report.metric_buses)
        keep = ~report.degenerate
        for k, point in enumerate(report.points):
            c_ub, c_lb = point.results.T
            assert np.all(c_lb <= report.c_nom) and np.all(report.c_nom <= c_ub)
            # the dispatches really live on the bound hyperplanes
            ub, lb = report.dispatches(k)
            shift_ub = np.einsum("md,md->m", lam[keep], ub - report.parameter_means)
            shift_lb = np.einsum("md,md->m", lam[keep], lb - report.parameter_means)
            assert np.max(np.abs(shift_ub - (c_ub - report.c_nom)[keep])) <= 1e-10
            assert np.max(np.abs(shift_lb - (c_lb - report.c_nom)[keep])) <= 1e-10

    def test_ub_lb_deviations_are_exact_negations(self, case14_solar):
        # both dispatches are means +/- z * sigma_abs * direction from the single
        # stored direction, so the +/- symmetry is bitwise
        params = StochasticParameterSet.from_case(case14_solar)
        report = run_rmss(case14_solar, params, sigma_c="propagated")
        keep = ~report.degenerate
        scale = norm.ppf(report.rho) * report.points[0].sigma_abs[keep]
        deviation = scale[:, None] * report.dispatch_directions
        ub, lb = report.dispatches(0)
        assert np.array_equal(ub, report.parameter_means + deviation)
        assert np.array_equal(lb, report.parameter_means - deviation)

    def test_dispatches_match_scalar_closed_form(self, case14_solar, case14_solution):
        # oracle: every derived dispatch row equals the scalar worst_case_parameters
        params = StochasticParameterSet.from_case(case14_solar)
        spec = default_metric_spec(case14_solar)
        lam = adjoint_sensitivities(case14_solar, case14_solution, params, spec).values
        for sigma_c in ("propagated", SweepGrid((0.001, 0.01, 0.05))):
            report = run_rmss(case14_solar, params, spec, sigma_c=sigma_c)
            rows = np.flatnonzero(~report.degenerate)
            assert len(rows) == len(report.metric_buses)
            for k, point in enumerate(report.points):
                ub, lb = report.dispatches(k)
                for row, i in enumerate(rows):
                    c_ub, c_lb = point.results[i]
                    e_ub = worst_case_parameters(params, lam[i], c_ub, report.c_nom[i])
                    e_lb = worst_case_parameters(params, lam[i], c_lb, report.c_nom[i])
                    assert np.max(np.abs(ub[row] - e_ub)) <= 1e-12
                    assert np.max(np.abs(lb[row] - e_lb)) <= 1e-12

    def test_within_ci_flags_present(self, two_bus_stochastic):
        case, params = two_bus_stochastic
        report = run_rmss(case, params, sigma_c="propagated")
        # single parameter drives the metric fully, so its worst-case value
        # sits exactly on the parameter confidence bound
        assert report.within_ci(0).tolist() == [[True]]

    def test_monotone_violations_over_band_sweep(self, case14_solar):
        params = StochasticParameterSet.from_case(case14_solar)
        report = run_rmss(case14_solar, params, limits=0.02)
        totals = [p.ub_total + p.lb_total for p in report.violations.points]
        assert all(b >= a for a, b in zip(totals, totals[1:]))
        assert totals[-1] > 0  # a 5% sweep tail must breach a 2% band

    def test_report_json_round_trip(self, case14_solar):
        params = StochasticParameterSet.from_case(case14_solar)
        report = run_rmss(case14_solar, params, limits=0.02)
        data = report.to_dict()
        assert data["schema"] == 4
        assert set(data["points"][0]) == {"label", "sigma_abs", "results"}
        blob = json.dumps(data)
        again = RmssReport.from_dict(json.loads(blob))
        assert json.dumps(again.to_dict()) == blob
        assert np.array_equal(again.dispatches(3)[0], report.dispatches(3)[0])

    def test_dispatch_directions_are_exact_little_endian_float64(self, case14_solar):
        params = StochasticParameterSet.from_case(case14_solar)
        report = run_rmss(case14_solar, params, sigma_c="propagated")
        text = report.to_dict()["dispatch_directions"]
        raw = base64.b64decode(text)
        want = report.dispatch_directions
        assert np.frombuffer(raw, dtype="<f8").tobytes() == want.astype("<f8").tobytes()
        got = RmssReport.from_dict(json.loads(json.dumps(report.to_dict()))).dispatch_directions
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_write_json_parses_back_equal(self, case14_solar, tmp_path):
        params = StochasticParameterSet.from_case(case14_solar)
        data = run_rmss(case14_solar, params, limits=0.02).to_dict()
        data["edge_floats"] = [0.1 + 0.2, -0.0, 5e-324, 1.7976931348623157e308, 1 / 3]
        write_json(tmp_path / "report.json", data)
        again = json.loads((tmp_path / "report.json").read_text())
        assert again == data
        assert repr(again) == repr(data)  # floats bitwise, -0.0 included

    def test_case118_sweep_records_rebuilt_from_json(self, case118, tmp_path):
        case = tag_essential(case118, "all")
        report = run_rmss(case, StochasticParameterSet.from_case(case), limits=0.02)
        write_json(tmp_path / "report.json", report.to_dict())
        text = (tmp_path / "report.json").read_text()
        assert '"records"' not in text
        rebuilt = RmssReport.from_dict(json.loads(text))
        again, want = rebuilt.violations, report.violations
        records = report_records(report)
        assert sum(map(len, records)) > 1000
        assert repr(report_records(rebuilt)) == repr(records)
        for got, point in zip(again.points, want.points, strict=True):
            assert got.per_bus == point.per_bus
        assert (again.per_bus_total, again.worst_violator) == (
            want.per_bus_total, want.worst_violator)

    @pytest.mark.parametrize("edit", [
        lambda d: d.pop("schema"),
        lambda d: d.update(schema=1),
        lambda d: d.update(schema=2),
        lambda d: d.update(schema=3, dispatch_directions=[[0.0, 1.0, 2.0]] * 9),
        lambda d: d.update(dispatch_directions=d["dispatch_directions"][:-12]),  # 9 bytes short
        lambda d: d.update(dispatch_directions=d["dispatch_directions"][:-32]),  # a row short
        lambda d: d.update(dispatch_directions="*" + d["dispatch_directions"][1:]),
        lambda d: d.update(dispatch_directions=[[0.0, 1.0, 2.0]] * 9),  # schema-3 layout
        lambda d: d["violations"].pop("v_max"),
        lambda d: d["violations"].update(worst_violator=-1),
        lambda d: d.pop("dispatch_directions"),
        lambda d: d["points"][0].pop("results"),
        lambda d: d["points"][0].update(results=[[1.0, 0.9]]),
        lambda d: d["points"][0].update(sigma_abs=d["points"][0]["sigma_abs"][:-1]),
        lambda d: d.update(c_nom=d["c_nom"][:-1]),
        lambda d: d["parameters"].update(stdevs=d["parameters"]["stdevs"][:-1]),
    ])
    def test_from_dict_rejects_other_layouts(self, case14_solar, edit):
        params = StochasticParameterSet.from_case(case14_solar)
        data = run_rmss(case14_solar, params, sigma_c="propagated").to_dict()
        edit(data)
        with pytest.raises(SchemaError):
            RmssReport.from_dict(data)

    def test_degenerate_metric_keeps_bounds_without_dispatch(self, two_bus_stochastic):
        case, params = two_bus_stochastic
        # the slack voltage is pinned, so its direction is degenerate
        spec = MetricSpec.voltages_at([1, 2])
        report = run_rmss(case, params, spec, sigma_c=0.01)
        assert report.degenerate.tolist() == [True, False]
        assert report.dispatch_directions.shape == (1, len(params))
        ub, lb = report.dispatches(0)
        assert ub.shape == lb.shape == (1, len(params))  # the PQ metric's row only
        slack_ub, slack_lb = report.points[0].results[0]
        assert slack_ub > report.c_nom[0] > slack_lb

    def test_two_bus_bounds_match_monte_carlo_interval(self, two_bus_stochastic):
        # independent oracle: percentile bounds of 10,000 sampled solves
        case, params = two_bus_stochastic
        spec = MetricSpec.voltages_at([2])
        report = run_rmss(case, params, spec, sigma_c="propagated")
        mc = run_monte_carlo(case, params, spec, n=10_000, seed=99)
        (point,) = report.points
        ((c_ub, c_lb),) = point.results
        assert abs(c_ub - mc.metric_ci_ub[0]) < 0.01
        assert abs(c_lb - mc.metric_ci_lb[0]) < 0.01
