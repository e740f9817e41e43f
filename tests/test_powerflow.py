"""Admittance stamping, Newton solver behavior, and metric evaluation."""

import math

import numpy as np
import pytest

from rmss import (
    MetricSpec,
    NewtonOptions,
    PowerFlowEngine,
    StochasticParameterSet,
    build_admittance,
    default_metric_spec,
    evaluate_metrics,
    sample_parameters,
    solve_power_flow,
    tag_essential,
)
from rmss.exceptions import JacobianSingular, NotConverged, SingularityWarning, UnknownBus
from rmss.model import Branch, Bus, BusKind, GridCase, Load
from rmss.powerflow import PowerFlowSolution


def two_bus(p_load=1.0, q_load=0.0, x=0.1, r=0.0, v_slack=1.0, b=0.0):
    return GridCase(
        base_mva=100.0,
        buses=(
            Bus(1, BusKind.SLACK, v_setpoint=v_slack, angle_setpoint=0.0, v_max=1.1, v_min=0.9),
            Bus(2, BusKind.PQ, v_max=1.1, v_min=0.9),
        ),
        branches=(Branch(1, 2, r, x, b_shunt=b),),
        generators=(),
        loads=(Load("l1", 2, -p_load, -q_load),),
    )


class TestAdmittance:
    def test_single_reactance_branch_by_hand(self):
        y = build_admittance(two_bus(x=0.1)).y.toarray()
        expected = np.array([[-10j, 10j], [10j, -10j]])
        assert np.allclose(y, expected, atol=1e-12)

    def test_pi_model_stamp_with_tap_and_charging(self):
        case = GridCase(
            base_mva=100.0,
            buses=(
                Bus(1, BusKind.SLACK, v_setpoint=1.0, angle_setpoint=0.0, v_max=1.1, v_min=0.9),
                Bus(2, BusKind.PQ, v_max=1.1, v_min=0.9),
            ),
            branches=(Branch(1, 2, 0.01, 0.1, b_shunt=0.04, tap=0.98),),
            generators=(),
            loads=(),
        )
        y = build_admittance(case).y.toarray()
        # hand-stamped two-port values
        ys = 1.0 / complex(0.01, 0.1)
        assert y[0, 0] == pytest.approx((ys + 0.02j) / 0.98**2)
        assert y[0, 1] == pytest.approx(-ys / 0.98)
        assert y[1, 0] == pytest.approx(-ys / 0.98)
        assert y[1, 1] == pytest.approx(ys + 0.02j)

    def test_symmetry_without_phase_shifters(self, case14):
        y = build_admittance(case14).y
        assert np.allclose(y.toarray(), y.toarray().T)

    def test_phase_shifter_breaks_symmetry(self, case118):
        y = build_admittance(case118).y
        assert not np.allclose(y.toarray(), y.toarray().T)

    def test_row_pattern_matches_branch_incidence(self, case14):
        y = build_admittance(case14).y
        idx = case14.bus_index()
        dense = y.toarray()
        incident = {(i, i) for i in range(len(case14.buses))}
        for br in case14.branches:
            f, t = idx[br.from_bus], idx[br.to_bus]
            incident |= {(f, t), (t, f)}
        nonzero = set(zip(*np.nonzero(dense)))
        assert nonzero == incident

    def test_isolated_bus_warns(self):
        case = GridCase(
            base_mva=100.0,
            buses=(
                Bus(1, BusKind.SLACK, v_setpoint=1.0, angle_setpoint=0.0, v_max=1.1, v_min=0.9),
                Bus(2, BusKind.PQ, v_max=1.1, v_min=0.9),
                Bus(3, BusKind.PQ, v_max=1.1, v_min=0.9),
            ),
            branches=(Branch(1, 2, 0.01, 0.1),),
            generators=(),
            loads=(),
        )
        with pytest.warns(SingularityWarning, match="bus 3"):
            build_admittance(case)


class TestSolver:
    def test_zero_injection_flat_network_converges_immediately(self):
        sol = solve_power_flow(two_bus(p_load=0.0))
        assert sol.converged
        assert sol.iterations <= 1
        assert np.allclose(sol.v, [1.0, 1.0])

    def test_two_bus_analytic_solution(self):
        # lossless line: sin(2 theta) = 2 P x, |V2| = cos(theta)
        sol = solve_power_flow(two_bus(p_load=1.0, x=0.1))
        assert sol.converged
        theta = math.asin(2 * 1.0 * 0.1) / 2
        assert abs(sol.v[1]) == pytest.approx(math.cos(theta), abs=1e-9)
        assert np.angle(sol.v[1]) == pytest.approx(-theta, abs=1e-9)

    def test_beyond_maximum_transfer_reports_nonconvergence(self):
        # two-bus maximum transfer is 1/(2x) = 5 pu
        sol = solve_power_flow(two_bus(p_load=5.5, x=0.1))
        assert not sol.converged
        assert len(sol.mismatch_history) >= 2
        assert sol.max_mismatch > 0

    def test_slack_voltage_exactly_at_setpoint(self, case14):
        sol = solve_power_flow(case14)
        slack = case14.slack
        idx = case14.bus_index()[slack.id]
        assert sol.v[idx] == complex(slack.v_setpoint, 0.0)

    def test_pv_magnitudes_within_tolerance(self, case14):
        sol = solve_power_flow(case14)
        idx = case14.bus_index()
        for b in case14.buses:
            if b.kind is BusKind.PV:
                assert abs(sol.v[idx[b.id]]) == pytest.approx(b.v_setpoint, abs=1e-8)

    @pytest.mark.parametrize("fixture", ["case14", "case118"])
    def test_power_conservation_at_pq_buses(self, fixture, request):
        case = request.getfixturevalue(fixture)
        sol = solve_power_flow(case)
        assert sol.converged
        y = build_admittance(case).y
        s_calc = sol.v * np.conj(y @ sol.v)
        p_spec, q_spec = case.injections()
        idx = case.bus_index()
        for b in case.buses:
            if b.kind is BusKind.PQ:
                i = idx[b.id]
                assert s_calc[i].real == pytest.approx(p_spec[i], abs=1e-8)
                assert s_calc[i].imag == pytest.approx(q_spec[i], abs=1e-8)

    def test_flat_vs_warm_start_agree(self, case14):
        opts = NewtonOptions(tolerance=1e-8)
        cold = solve_power_flow(case14, opts)
        warm = solve_power_flow(case14, opts, start=cold)
        assert warm.converged
        assert np.max(np.abs(cold.v - warm.v)) < 10 * opts.tolerance

    @pytest.mark.parametrize("fixture", ["case2", "case14", "case118"])
    def test_mismatch_decreases(self, fixture, request):
        sol = solve_power_flow(request.getfixturevalue(fixture))
        assert sol.converged
        assert sol.mismatch_history[-1] <= sol.mismatch_history[0]

    def test_isolated_zero_injection_bus_raises_jacobian_singular(self):
        # bus 3 floats with no equations coupling it; the load at bus 2
        # forces an iteration, so the singular factorization is reached
        case = GridCase(
            base_mva=100.0,
            buses=(
                Bus(1, BusKind.SLACK, v_setpoint=1.0, angle_setpoint=0.0, v_max=1.1, v_min=0.9),
                Bus(2, BusKind.PQ, v_max=1.1, v_min=0.9),
                Bus(3, BusKind.PQ, v_max=1.1, v_min=0.9),
            ),
            branches=(Branch(1, 2, 0.01, 0.1),),
            generators=(),
            loads=(Load("l1", 2, -0.5, 0.0),),
        )
        with pytest.warns(SingularityWarning):
            with pytest.raises(JacobianSingular, match="bus 3"):
                solve_power_flow(case)

    def test_isolated_loaded_bus_cannot_converge(self):
        # the load has nowhere to draw from; the solver must report failure
        case = GridCase(
            base_mva=100.0,
            buses=(
                Bus(1, BusKind.SLACK, v_setpoint=1.0, angle_setpoint=0.0, v_max=1.1, v_min=0.9),
                Bus(2, BusKind.PQ, v_max=1.1, v_min=0.9),
            ),
            branches=(),
            generators=(),
            loads=(Load("l1", 2, -0.5, 0.0),),
        )
        with pytest.warns(SingularityWarning):
            sol = solve_power_flow(case)
        assert not sol.converged

    def test_solver_is_deterministic(self, case118):
        a = solve_power_flow(case118)
        b = solve_power_flow(case118)
        assert np.array_equal(a.v, b.v)
        assert a.mismatch_history == b.mismatch_history


class TestMetrics:
    def test_slack_metric_is_its_setpoint(self):
        sol = solve_power_flow(two_bus(p_load=0.2, v_slack=1.05))
        values = evaluate_metrics(sol, MetricSpec.voltages_at([1]))
        assert values[0] == pytest.approx(1.05)

    def test_magnitude_is_pythagorean(self):
        sol = PowerFlowSolution(
            v=np.array([0.6 + 0.8j]),
            bus_ids=(1,),
            iterations=0,
            max_mismatch=0.0,
            converged=True,
            mismatch_history=(0.0,),
        )
        assert evaluate_metrics(sol, MetricSpec.voltages_at([1]))[0] == pytest.approx(1.0)

    def test_nonconverged_solution_rejected(self):
        sol = solve_power_flow(two_bus(p_load=5.5))
        with pytest.raises(NotConverged):
            evaluate_metrics(sol, MetricSpec.voltages_at([2]))

    def test_unknown_bus(self, case14):
        sol = solve_power_flow(case14)
        with pytest.raises(UnknownBus):
            evaluate_metrics(sol, MetricSpec.voltages_at([999]))

    def test_default_spec_is_nonzero_injection_pq_buses(self, case14):
        spec = default_metric_spec(case14)
        assert spec.buses == (4, 5, 6, 7, 9, 10, 11, 12, 13, 14)
        assert all(v >= 0 for v in evaluate_metrics(solve_power_flow(case14), spec))


def _stochastic(case, selector):
    tagged = tag_essential(case, selector)
    return tagged, StochasticParameterSet.from_case(tagged, sigma_frac=0.02)


class TestEngine:
    @pytest.mark.parametrize("fixture, selector", [("case14", "all-solar"), ("case118", "all")])
    def test_sample_state_independent_of_its_block(self, fixture, selector, request):
        case, params = _stochastic(request.getfixturevalue(fixture), selector)
        engine = PowerFlowEngine(case)
        nominal = solve_power_flow(engine, injections=params.apply(case, params.means))
        p, q = params.injections(case, sample_parameters(params, 9, seed=5).values)

        def solved(rows):
            return engine.solve(p[rows], q[rows], start=nominal)

        others = list(range(1, 9))
        alone = solved([0])
        assert alone.converged[0]
        for got, k in [(solved([0] + others), 0), (solved(others + [0]), 8)]:
            assert np.array_equal(got.v[k], alone.v[0])
            assert np.array_equal(got.q_pv[k], alone.q_pv[0])
            assert got.iterations[k] == alone.iterations[0]
            assert got.solution(k).mismatch_history == alone.solution(0).mismatch_history

    def test_block_rows_balance_power_and_fail_like_scalar_solves(self, case118):
        case, params = _stochastic(case118, "all")
        engine = PowerFlowEngine(case)
        nominal = solve_power_flow(engine, injections=params.apply(case, params.means))
        values = sample_parameters(params, 300, seed=7).values
        p, q = params.injections(case, values)
        block = engine.solve(p, q, start=nominal)

        ok = block.converged
        s_calc = block.v[ok] * np.conj((engine.y @ block.v[ok].T).T)
        tol = NewtonOptions().tolerance
        assert np.abs(s_calc.real - p[ok])[:, engine.nonslack].max() <= tol
        assert np.abs(s_calc.imag - q[ok])[:, engine.pq].max() <= tol

        scalar = [
            solve_power_flow(case, injections=params.apply(case, row), start=nominal)
            for row in values
        ]
        scalar_failed = [i for i, sol in enumerate(scalar) if not sol.converged]
        assert scalar_failed  # the seed reaches the failure path
        assert np.flatnonzero(~ok).tolist() == scalar_failed
