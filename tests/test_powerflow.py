"""Admittance stamping, Newton solver behavior, and metric evaluation."""

import gc
import math
import pickle
import weakref
from dataclasses import replace

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.linalg import splu

from rmss import (
    MetricSpec,
    NewtonOptions,
    PowerFlowEngine,
    StochasticParameterSet,
    build_admittance,
    default_metric_spec,
    engine_for,
    evaluate_metrics,
    run_monte_carlo,
    run_rmss,
    sample_parameters,
    solve_power_flow,
    tag_essential,
)
from rmss.exceptions import (
    JacobianSingular, NotConverged, SingularityWarning, TopologyError, UnknownBus
)
from rmss.model import Branch, Bus, BusKind, GridCase, Load
from rmss import powerflow
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
        y = build_admittance(two_bus(x=0.1)).toarray()
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
        y = build_admittance(case).toarray()
        # hand-stamped two-port values
        ys = 1.0 / complex(0.01, 0.1)
        assert y[0, 0] == pytest.approx((ys + 0.02j) / 0.98**2)
        assert y[0, 1] == pytest.approx(-ys / 0.98)
        assert y[1, 0] == pytest.approx(-ys / 0.98)
        assert y[1, 1] == pytest.approx(ys + 0.02j)

    def test_symmetry_without_phase_shifters(self, case14):
        y = build_admittance(case14)
        assert np.allclose(y.toarray(), y.toarray().T)

    def test_phase_shifter_breaks_symmetry(self, case118):
        y = build_admittance(case118)
        assert not np.allclose(y.toarray(), y.toarray().T)

    def test_row_pattern_matches_branch_incidence(self, case14):
        y = build_admittance(case14)
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

    def test_bus_shunt_closed_form(self):
        # With no load at bus 2, KCL gives V2 = V1 / (1 + j x (gs + j bs)).
        gs, bs, x = 0.05, 0.19, 0.1
        base = two_bus(p_load=0.0, x=x)
        pq = replace(base.buses[1], gs=gs, bs=bs)
        case = replace(base, buses=(base.buses[0], pq))
        expected = build_admittance(base).toarray()
        expected[1, 1] += complex(gs, bs)
        assert np.array_equal(build_admittance(case).toarray(), expected)
        sol = solve_power_flow(case)
        assert sol.converged
        assert abs(sol.v[1] - 1.0 / (1.0 + 1j * x * complex(gs, bs))) <= 1e-10


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
        y = build_admittance(case)
        s_calc = sol.v * np.conj(y @ sol.v)
        p_spec, q_spec = case.injections()
        idx = case.bus_index()
        for b in case.buses:
            if b.kind is BusKind.PQ:
                i = idx[b.id]
                assert s_calc[i].real == pytest.approx(p_spec[i], abs=1e-8)
                assert s_calc[i].imag == pytest.approx(q_spec[i], abs=1e-8)

    def test_flat_vs_warm_start_agree(self, case14):
        engine = PowerFlowEngine(case14)
        cold = solve_power_flow(case14)
        warm = engine.solve(*engine.case_injections, cold).solution(0)
        assert warm.converged
        assert np.max(np.abs(cold.v - warm.v)) < 10 * NewtonOptions().tolerance

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
            engine = engine_for(case)
        with pytest.raises(JacobianSingular, match="bus 3"):
            solve_power_flow(case)
        # A block raises the same error, whether its first row is singular
        # or a regular first row (a load at bus 3 couples it) has fixed the
        # column order and the error comes from a stack.
        p, q = engine.case_injections
        loaded = p.copy()
        loaded[2] = -0.1
        for rows in (np.array([p, p, p]), np.array([loaded, p, p])):
            with pytest.raises(JacobianSingular, match="no equations couple bus 3"):
                engine.solve(rows, np.zeros_like(rows))

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


def _jacobian(engine, data):
    """A fresh CSC Jacobian with the values ``data`` on the engine's pattern."""
    return sparse.csc_matrix((data, engine._indices, engine._indptr), shape=(engine.dim,) * 2)


def _stochastic(case, selector):
    tagged = tag_essential(case, selector)
    return tagged, StochasticParameterSet.from_case(tagged, sigma_frac=0.02)


class TestEngine:
    def test_two_slack_buses_are_refused(self):
        base = two_bus()
        second = replace(base.buses[1], kind=BusKind.SLACK, v_setpoint=1.02, angle_setpoint=0.0)
        with pytest.raises(TopologyError, match="one slack bus, found 2"):
            PowerFlowEngine(replace(base, buses=(base.buses[0], second)))

    @pytest.mark.parametrize("fixture, selector", [("case14", "all-solar"), ("case118", "all")])
    def test_sample_state_independent_of_its_block(self, fixture, selector, request):
        case, params = _stochastic(request.getfixturevalue(fixture), selector)
        engine = PowerFlowEngine(case)
        nominal = solve_power_flow(case, injections=params.apply(case, params.means))
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
        nominal = solve_power_flow(case, injections=params.apply(case, params.means))
        values = sample_parameters(params, 300, seed=7).values
        p, q = params.injections(case, values)
        block = engine.solve(p, q, start=nominal)

        ok = block.converged
        s_calc = block.v[ok] * np.conj((engine.y @ block.v[ok].T).T)
        tol = NewtonOptions().tolerance
        assert np.abs(s_calc.real - p[ok])[:, engine.nonslack].max() <= tol
        assert np.abs(s_calc.imag - q[ok])[:, engine.pq].max() <= tol

        scalar = [engine.solve(p[[r]], q[[r]], nominal).solution(0) for r in range(len(p))]
        scalar_failed = [i for i, sol in enumerate(scalar) if not sol.converged]
        assert scalar_failed  # the seed reaches the failure path
        assert np.flatnonzero(~ok).tolist() == scalar_failed

    @pytest.mark.parametrize(
        "fixture, selector, n, seed, warm",
        [("case118", "all", 300, 7, True), ("case14", "all-solar", 150, 11, False)],
    )
    def test_stacked_steps_match_per_row_factorization(
        self, fixture, selector, n, seed, warm, request
    ):
        # A flat start factors each row on its own, bitwise the per-row
        # loop. From a solved start the replayed LU rounds differently from
        # SuperLU in the last bits, so there the outcomes must agree and the
        # states only to 1e-12 relative.
        case, params = _stochastic(request.getfixturevalue(fixture), selector)
        engine = PowerFlowEngine(case)
        nominal = solve_power_flow(case, injections=params.apply(case, params.means))
        p, q = params.injections(case, sample_parameters(params, n, seed=seed).values)
        start = nominal if warm else None

        # The reference: one splu of each row's own Jacobian, row by row.
        reference = PowerFlowEngine(case)

        def per_row_steps(data, rhs, replay=None):
            return np.array([splu(_jacobian(reference, d)).solve(b) for d, b in zip(data, rhs)])

        reference._steps = per_row_steps
        got, want = engine.solve(p, q, start), reference.solve(p, q, start)

        # case118 'all' reaches the failure path; case14 has PV rows
        assert len(engine.pv) if fixture == "case14" else not want.converged.all()
        assert np.array_equal(got.converged, want.converged)
        assert np.array_equal(got.iterations, want.iterations)
        if warm:
            ok = want.converged
            np.testing.assert_allclose(got.v[ok], want.v[ok], rtol=1e-12, atol=0)
            np.testing.assert_allclose(got.q_pv[ok], want.q_pv[ok], rtol=1e-12, atol=0)
        else:
            assert np.array_equal(got.v, want.v, equal_nan=True)
            assert np.array_equal(got.q_pv, want.q_pv, equal_nan=True)
            assert np.array_equal(got.history, want.history, equal_nan=True)

    @pytest.mark.parametrize("fixture, selector", [("case14", "all-solar"), ("case118", "all")])
    def test_replayed_steps_match_per_row_splu(self, fixture, selector, request):
        case, params = _stochastic(request.getfixturevalue(fixture), selector)
        engine = PowerFlowEngine(case)
        nominal = solve_power_flow(case, injections=params.apply(case, params.means))
        p, q = params.injections(case, sample_parameters(params, 64, seed=2).values)
        solved = engine.solve(p, q, start=nominal)
        # Jacobians at the nominal state and at each sample's own solution
        x = np.concatenate([engine._initial_states(q, nominal), engine._initial_states(q, nominal)])
        x[64:, 0 : 2 * engine.n : 2] = solved.v.real
        x[64:, 1 : 2 * engine.n : 2] = solved.v.imag
        x[64:, 2 * engine.n :] = solved.q_pv
        pp, qq = np.concatenate([p, p]), np.concatenate([q, q])
        e, f, q_eff, _, _ = engine._terms(x, qq)
        data = engine._jacobian_data(e, f, q_eff, pp)
        rhs = np.random.default_rng(0).standard_normal((len(data), engine.dim))

        got, bad = engine._replay_at(nominal).solve(data, rhs)
        assert not bad.any()
        for r in range(len(data)):
            want = splu(_jacobian(engine, data[r])).solve(rhs[r])
            assert np.abs(got[r] - want).max() <= 1e-12 * np.abs(want).max(), r

    def test_row_bits_independent_of_block_size(self, case118):
        case, params = _stochastic(case118, "all")
        engine = PowerFlowEngine(case)
        nominal = solve_power_flow(case, injections=params.apply(case, params.means))
        p, q = params.injections(case, sample_parameters(params, 64, seed=9).values)
        # Backward-solve rows sum more than numpy's 8 unrolled terms, where
        # a reduction's order could depend on the memory layout.
        replay = engine._replay_at(nominal)
        terms = [np.diff(np.append(starts, len(pos))) for _, pos, _, starts in replay.backward]
        assert max(t.max() for t in terms) > 8

        block = engine.solve(p, q, start=nominal)
        for r in range(64):
            pair = [(r + 1) % 64, r]
            alone = engine.solve(p[[r]], q[[r]], nominal)
            paired = engine.solve(p[pair], q[pair], nominal)
            for name in ("v", "q_pv", "iterations", "history"):
                want = getattr(alone, name)[0]
                for got in (getattr(paired, name)[1], getattr(block, name)[r]):
                    assert np.array_equal(got, want, equal_nan=True), (r, name)

    def test_zero_replay_pivot_falls_back_to_the_rows_own_factorization(self, case14):
        case, params = _stochastic(case14, "all-solar")
        engine = PowerFlowEngine(case)
        nominal = solve_power_flow(case, injections=params.apply(case, params.means))
        replay = engine._replay_at(nominal)
        p, q = params.injections(case, sample_parameters(params, 3, seed=1).values)
        e, f, q_eff, _, _ = engine._terms(engine._initial_states(q, nominal), q)
        data = engine._jacobian_data(e, f, q_eff, p)
        rhs = np.random.default_rng(1).standard_normal((3, engine.dim))
        # Zero the entry that is the replay's first pivot in row 1: that
        # Jacobian stays regular, but only with other pivots.
        (first,) = np.flatnonzero(replay.scatter == replay.diag[0])
        data[1, first] = 0.0
        replayed, bad = replay.solve(data, rhs)
        assert bad.tolist() == [False, True, False]

        step = engine._steps(data, rhs, replay)
        assert np.array_equal(step[[0, 2]], replayed[[0, 2]])
        assert np.array_equal(step[1], splu(_jacobian(engine, data[1])).solve(rhs[1]))

    def test_singular_row_on_the_replay_path_fails_alone(self):
        # From the zero-injection solution (the flat state), p = -B, q = 0
        # at bus 2 makes the first Jacobian exactly singular.
        case = two_bus(p_load=0.0)
        engine = PowerFlowEngine(case)
        start = solve_power_flow(case)
        assert start.iterations == 0
        b = engine.y[1, 1].imag
        p = np.array([[0.0, -0.5], [0.0, -b], [0.0, -0.2]])
        q = np.zeros_like(p)
        with pytest.raises(JacobianSingular):  # the flat start still raises
            PowerFlowEngine(case).solve(p[1], q[1])

        block = engine.solve(p, q, start=start)
        assert block.converged.tolist() == [True, False, True]
        singular = block.solution(1)
        assert singular.iterations == 1  # the step it could not take
        assert singular.max_mismatch == np.inf
        for r in (0, 2):
            alone = engine.solve(p[[r]], q[[r]], start)
            for name in ("v", "q_pv", "iterations", "history"):
                want = getattr(alone, name)[0]
                assert np.array_equal(getattr(block, name)[r], want, equal_nan=True), (r, name)

    @pytest.mark.parametrize("fixture, selector", [("case14", "all-solar"), ("case118", "all")])
    def test_chord_rows_independent_of_their_block(self, fixture, selector, request):
        # 10x the 2% spread: on case14 chord steps settle some rows and
        # Newton gets the others; on case118 'all' some rows fail in Newton
        case, params = _stochastic(request.getfixturevalue(fixture), selector)
        engine = PowerFlowEngine(case)
        base = params.apply(case, params.means)
        nominal = solve_power_flow(case, injections=base)
        wide = StochasticParameterSet.from_case(case, sigma_frac=0.2)
        p, q = params.injections(case, sample_parameters(wide, 64, seed=3).values)

        handed, solve = [], engine.solve

        def newton(p, q, *args):  # the rows chord_solve hands to full Newton
            handed.append(len(p))
            return solve(p, q, *args)

        engine.solve = newton
        block = engine.chord_solve(p, q, nominal, base)
        assert len(handed) == 1 and handed[0] > 0
        assert handed[0] < 64 if fixture == "case14" else not block.converged.all()

        for r in range(64):
            alone = engine.chord_solve(p[r : r + 1], q[r : r + 1], nominal, base)
            for name in ("v", "q_pv", "converged", "iterations", "history"):
                got, want = getattr(block, name)[r], getattr(alone, name)[0]
                assert np.array_equal(got, want, equal_nan=True), (r, name)

    def test_singular_row_in_a_stack_raises_like_its_own_solve(self):
        # p = -B, q = 0 at bus 2 makes the flat-start Jacobian exactly
        # singular; the first row is regular and fixes the column order.
        case = two_bus(x=0.1)
        engine = PowerFlowEngine(case)
        b = engine.y[1, 1].imag
        p = np.array([[0.0, -1.0], [0.0, -b], [0.0, -0.5]])
        q = np.zeros_like(p)
        with pytest.raises(JacobianSingular) as alone:
            PowerFlowEngine(case).solve(p[1], q[1])
        with pytest.raises(JacobianSingular) as stacked:
            engine.solve(p, q)
        assert str(stacked.value) == str(alone.value)


class TestEngineFor:
    """One engine per case object, shared by every analysis of it."""

    def test_repeated_analyses_share_one_engine(self, case14, monkeypatch):
        case = tag_essential(case14, "all-solar")  # a new object, without an engine yet
        params = StochasticParameterSet.from_case(case)
        spec = default_metric_spec(case)
        builds = []
        real = powerflow.build_admittance
        monkeypatch.setattr(powerflow, "build_admittance", lambda c: builds.append(c) or real(c))
        for _ in range(2):
            run_rmss(case, params, spec, sigma_c="propagated")
            run_monte_carlo(case, params, spec, n=70, seed=0)
        assert builds == [case]
        assert engine_for(case) is engine_for(case)
        assert engine_for(case).case is case

    def test_tagged_copy_gets_its_own_engine(self, case14):
        tagged = tag_essential(case14, "all-solar")
        assert engine_for(tagged) is not engine_for(case14)
        assert engine_for(tagged).case is tagged and engine_for(case14).case is case14

    def test_engine_lives_as_long_as_its_case(self):
        case = two_bus(p_load=0.3)
        engine = weakref.ref(engine_for(case))
        gc.collect()
        assert engine() is engine_for(case)
        del case
        gc.collect()
        assert engine() is None

    @pytest.mark.parametrize("transposed", [False, True])
    def test_factorizations_do_not_alias(self, case14, transposed):
        engine = engine_for(case14)
        sol = solve_power_flow(case14)
        p, q = engine.case_injections
        a = engine._jacobian_data_at(sol, p, q)
        b = engine._jacobian_data_at(sol, 1.5 * p, 0.5 * q)
        kept = (engine._j.data.copy(), engine._jt.data.copy())
        rhs = np.random.default_rng(0).standard_normal(engine.dim)
        lu_a = engine._factorize(a, transposed)
        x_a = lu_a.solve(rhs)
        lu_b = engine._factorize(b, transposed)
        assert np.array_equal(lu_a.solve(rhs), x_a)
        assert not np.array_equal(lu_b.solve(rhs), x_a)
        want = _jacobian(engine, a)
        assert np.array_equal(x_a, splu(want.T.tocsc() if transposed else want).solve(rhs))
        assert np.array_equal(engine._j.data, kept[0]) and np.array_equal(engine._jt.data, kept[1])

    def test_second_analyses_on_one_case_are_bitwise_the_first(self, case118):
        case = tag_essential(case118, "all")
        params = StochasticParameterSet.from_case(case, sigma_frac=0.03)
        spec = default_metric_spec(case)

        def analyses():
            reports = []
            for sigma_c in ("propagated", None):
                report = run_rmss(case, params, spec, sigma_c=sigma_c).to_dict()
                del report["runtime_s"]
                reports.append(report)
            mc = run_monte_carlo(case, params, spec, n=3 * 64 + 5, seed=0)
            return reports, mc.statistics_dict(), mc.failed_indices, mc.newton_iterations

        first, second = analyses(), analyses()
        assert len(first[2])  # a failing sample: the failure path ran both times
        assert first[0] == second[0] and first[1] == second[1]
        assert np.array_equal(first[2], second[2]) and first[3] == second[3]

    def test_pickled_engine_carries_no_replay(self, case14):
        case, params = _stochastic(case14, "all-solar")
        engine = engine_for(case)
        nominal = solve_power_flow(case, injections=params.apply(case, params.means))
        p, q = params.injections(case, sample_parameters(params, 3, seed=1).values)
        engine.solve(p, q, start=nominal)
        assert engine._replay[0] is nominal
        clone = pickle.loads(pickle.dumps(engine))
        assert clone._replay is None and engine._replay[0] is nominal
        assert vars(clone.case)[powerflow._ENGINE] is clone
        want = engine.solve(p, q, start=nominal)
        got = clone.solve(p, q, start=nominal)
        assert np.array_equal(got.v, want.v)

    def test_run_rmss_builds_base_injections_and_bus_map_once(self, case118, monkeypatch):
        case, params = _stochastic(case118, "all")
        spec = default_metric_spec(case)
        calls = []
        for cls, name in [(GridCase, "injections"), (StochasticParameterSet, "bus_map")]:
            real = getattr(cls, name)
            monkeypatch.setattr(
                cls, name, lambda *a, real=real, name=name: calls.append(name) or real(*a)
            )
        run_rmss(case, params, spec, sigma_c="propagated")
        assert sorted(calls) == ["bus_map", "injections"]
        calls.clear()
        run_rmss(case, params, spec, sigma_c="propagated")
        assert calls == ["bus_map"]  # the engine keeps the base injections
