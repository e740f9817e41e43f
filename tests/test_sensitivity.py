"""Adjoint/finite-difference/hybrid sensitivity machinery."""

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.linalg import splu

from rmss import (
    MetricSpec,
    NewtonOptions,
    PowerFlowEngine,
    default_metric_spec,
    engine_for,
    solve_power_flow,
    tag_essential,
)
from rmss.exceptions import (
    JacobianSingular,
    NonConvergence,
    NotConverged,
    SingularityWarning,
    TopologyError,
    ZeroStep,
)
from rmss.model import Bus, BusKind, GridCase, Load
from rmss.parameters import Axis, ParameterEntry, StochasticParameterSet
from rmss.sensitivity import (
    METHOD_ADJOINT,
    METHOD_NONLINEAR,
    _probe_columns,
    adjoint_sensitivities,
    finite_difference_sensitivities,
    hybrid_sensitivities,
)

from test_powerflow import Branch, two_bus


@pytest.fixture(scope="module")
def two_bus_setup():
    case = tag_essential(two_bus(p_load=1.0, q_load=0.1), ["l1"])
    params = StochasticParameterSet.from_case(case, sigma_abs=0.01, axes=(Axis.P, Axis.Q))
    sol = solve_power_flow(case)
    spec = MetricSpec.voltages_at([2])
    return case, params, sol, spec


def relative_row_error(a, b):
    return np.abs(a - b).max(axis=1) / np.maximum(np.abs(b).max(axis=1), 1e-12)


def test_two_bus_p_and_q_gradients_match_central_differences(two_bus_setup):
    case, params, sol, spec = two_bus_setup
    adj = adjoint_sensitivities(case, sol, params, spec)
    fd = finite_difference_sensitivities(case, sol, params, spec, step=1e-6)
    assert params.labels == ("l1.P", "l1.Q")
    # load injection is negative, so raising it (less demand) raises |V2|
    assert adj.values[0, 0] > 0
    assert adj.values[0, 1] > 0
    assert relative_row_error(adj.values, fd.values).max() < 1e-6


def test_slack_metric_row_is_zero(two_bus_setup):
    case, params, sol, _ = two_bus_setup
    adj = adjoint_sensitivities(case, sol, params, MetricSpec.voltages_at([1]))
    assert np.allclose(adj.values, 0.0, atol=1e-12)


def test_pv_bus_metric_row_is_pinned(case14_solar, case14_solution):
    params = StochasticParameterSet.from_case(case14_solar)
    adj = adjoint_sensitivities(
        case14_solar, case14_solution, params, MetricSpec.voltages_at([2])
    )
    assert np.allclose(adj.values, 0.0, atol=1e-10)


def test_adjoint_solve_count_tracks_metrics_not_parameters(case14_solar, case14_solution):
    one = StochasticParameterSet.from_case(case14_solar, axes=(Axis.P,))
    spec = default_metric_spec(case14_solar)
    a = adjoint_sensitivities(case14_solar, case14_solution, one, spec)
    both = StochasticParameterSet.from_case(
        case14_solar, sigma_abs=0.01, axes=(Axis.P, Axis.Q)
    )
    b = adjoint_sensitivities(case14_solar, case14_solution, both, spec)
    assert len(one) != len(both)
    assert a.adjoint_solves == b.adjoint_solves == len(spec)


def test_adjoint_fd_agreement_on_case14(case14_solar, case14_solution):
    params = StochasticParameterSet.from_case(case14_solar)
    spec = default_metric_spec(case14_solar)
    adj = adjoint_sensitivities(case14_solar, case14_solution, params, spec)
    fd = finite_difference_sensitivities(case14_solar, case14_solution, params, spec)
    assert relative_row_error(adj.values, fd.values).max() <= 1e-4


def test_adjoint_requires_converged_solution(two_bus_setup):
    case, params, _, spec = two_bus_setup
    bad = solve_power_flow(two_bus(p_load=5.5))
    with pytest.raises(NotConverged):
        adjoint_sensitivities(case, bad, params, spec)


@pytest.mark.parametrize("host", [1, 2], ids=["slack", "pv"])
def test_parameters_must_sit_on_pq_buses(case14, case14_solution, host):
    # essential flag forced onto the host bus's generator without re-tagging
    from dataclasses import replace

    case = replace(
        case14,
        generators=tuple(
            replace(g, essential=(g.bus == host)) for g in case14.generators
        ),
    )
    with pytest.raises(TopologyError, match=f"non-PQ bus {host}; re-tag"):
        StochasticParameterSet.from_case(case)
    # The adjoint refuses a set built by hand by the same rule.
    gen = next(g for g in case14.generators if g.bus == host)
    entry = ParameterEntry(gen.id, Axis.P, gen.p, 0.01)
    params = StochasticParameterSet((entry,), np.array([[1e-4]]))
    with pytest.raises(TopologyError, match=f"non-PQ bus {host}; re-tag"):
        adjoint_sensitivities(case14, case14_solution, params, MetricSpec.voltages_at([14]))


def test_fd_zero_step_rejected(two_bus_setup):
    case, params, sol, spec = two_bus_setup
    with pytest.raises(ZeroStep):
        finite_difference_sensitivities(case, sol, params, spec, step=0.0)


def test_fd_constant_metric_is_step_independent(two_bus_setup):
    # the slack voltage is exactly linear (constant) in every parameter,
    # so the central difference is exact at any step size
    case, params, sol, _ = two_bus_setup
    spec = MetricSpec.voltages_at([1])
    coarse = finite_difference_sensitivities(case, sol, params, spec, step=1e-2)
    fine = finite_difference_sensitivities(case, sol, params, spec, step=1e-6)
    assert np.array_equal(coarse.values, fine.values)
    assert np.allclose(coarse.values, 0.0, atol=1e-12)


def test_fd_step_insensitivity_in_smooth_region(two_bus_setup):
    case, params, sol, spec = two_bus_setup
    s1 = finite_difference_sensitivities(case, sol, params, spec, step=1e-5)
    s2 = finite_difference_sensitivities(case, sol, params, spec, step=1e-4)
    assert relative_row_error(s1.values, s2.values).max() < 1e-5


def test_hybrid_smooth_case_keeps_adjoint_everywhere(case14_solar, case14_solution):
    params = StochasticParameterSet.from_case(case14_solar)
    spec = default_metric_spec(case14_solar)
    hyb = hybrid_sensitivities(case14_solar, case14_solution, params, spec)
    assert hyb.methods == (METHOD_ADJOINT,) * len(spec)


def test_hybrid_does_not_flag_voltages_held_by_pv_buses(
    case14_solar, case14_solution, caplog
):
    # A PV generator holds its bus voltage: the adjoint row is ~1e-17 and the
    # FD probe reads only rounding noise, below its own resolution.
    params = StochasticParameterSet.from_case(case14_solar)
    spec = MetricSpec.voltages_at([2, 3])
    with caplog.at_level("WARNING", logger="rmss.sensitivity"):
        hyb = hybrid_sensitivities(case14_solar, case14_solution, params, spec)
    assert hyb.methods == (METHOD_ADJOINT,) * len(spec)
    assert caplog.text == ""


@pytest.mark.parametrize(
    "correlation",
    [None, np.array([[1.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 1.0]])],
    ids=["independent", "correlated"],
)
def test_hybrid_tags_rows_that_disagree_and_keeps_their_adjoint_values(
    case14_solar, case14_solution, monkeypatch, caplog, correlation
):
    params = StochasticParameterSet.from_case(case14_solar, correlation=correlation)
    spec = default_metric_spec(case14_solar)
    adj = adjoint_sensitivities(case14_solar, case14_solution, params, spec)

    import rmss.sensitivity as sens_mod

    real_fd = sens_mod.finite_difference_sensitivities

    def distorted_fd(case, sol, params, spec, step=1e-6, columns=None, inject=None):
        out = real_fd(case, sol, params, spec, step=step, columns=columns, inject=inject)
        out.values[0] *= 1.10  # 10% disagreement on the first metric row
        return out

    monkeypatch.setattr(sens_mod, "finite_difference_sensitivities", distorted_fd)
    with caplog.at_level("WARNING", logger="rmss.sensitivity"):
        hyb = hybrid_sensitivities(case14_solar, case14_solution, params, spec)
    assert hyb.methods == (METHOD_NONLINEAR,) + (METHOD_ADJOINT,) * (len(spec) - 1)
    assert np.array_equal(hyb.values, adj.values)
    assert f"[{spec.buses[0]}]" in caplog.text


def test_sensitivity_csv_dump(tmp_path, case14_solar, case14_solution):
    params = StochasticParameterSet.from_case(case14_solar)
    spec = default_metric_spec(case14_solar)
    sens = adjoint_sensitivities(case14_solar, case14_solution, params, spec)
    out = tmp_path / "lambda.csv"
    sens.to_csv(out)
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "metric_bus,method,g5.P,g6.P,g7.P"
    assert len(lines) == len(spec) + 1
    first = lines[1].split(",")
    assert int(first[0]) == spec.buses[0]
    assert float(first[2]) == sens.values[0, 0]


def test_fd_divergence_names_parameter_and_step_sign():
    # the -step probe pushes the 4.9 pu load past the 5 pu transfer limit
    case = tag_essential(two_bus(p_load=4.9), ["l1"])
    params = StochasticParameterSet.from_case(case, sigma_abs=0.01)
    sol = solve_power_flow(case)
    with pytest.raises(NonConvergence, match=r"l1\.P -0\.2") as err:
        finite_difference_sensitivities(case, sol, params, MetricSpec.voltages_at([2]), step=0.2)
    assert not err.value.solution.converged


def _factor_j_solve_transposed(engine, start, p, q, rhs):
    """The reference adjoint solve: SuperLU of J itself, then ``trans="T"``."""
    p, q = np.atleast_2d(p), np.atleast_2d(q)
    e, f, q_eff, _, _ = engine._terms(engine._initial_states(q, start), q)
    data = engine._jacobian_data(e, f, q_eff, p)[0]
    jac = sparse.csc_matrix((data, engine._indices, engine._indptr), shape=(engine.dim,) * 2)
    return splu(jac).solve(rhs, trans="T")


def _full_newton_probe(engine, p, q, start, base, options=None):
    """The reference probe: every +/-step row solved by full Newton from ``start``."""
    return engine.solve(p, q, start, options)


@pytest.fixture(scope="module")
def nominal_cases(case14, case118):
    """(case, solution, parameters, spec) per case, solved at the parameter means."""
    out = {}
    for name, case, selector in [
        ("case14-all-solar", case14, "all-solar"),
        ("case118-all", case118, "all"),
        ("case118-all-renewable", case118, "all-renewable"),  # keeps PV buses
    ]:
        tagged = tag_essential(case, selector)
        params = StochasticParameterSet.from_case(tagged)
        sol = solve_power_flow(tagged, injections=params.apply(tagged, params.means))
        assert sol.converged
        out[name] = tagged, sol, params, default_metric_spec(tagged)
    return out


@pytest.mark.parametrize("name", ["case14-all-solar", "case118-all", "case118-all-renewable"])
def test_adjoint_on_factored_transpose_matches_transposed_solve(nominal_cases, name, monkeypatch):
    case, sol, params, spec = nominal_cases[name]
    got = adjoint_sensitivities(case, sol, params, spec)
    with monkeypatch.context() as m:
        m.setattr(PowerFlowEngine, "solve_transposed", _factor_j_solve_transposed)
        want = adjoint_sensitivities(case, sol, params, spec)
    assert got.adjoint_solves == want.adjoint_solves == len(spec)
    assert relative_row_error(got.values, want.values).max() <= 1e-12


def test_adjoint_singular_jacobian_names_the_uncoupled_bus():
    # zero injections converge at the flat start, where bus 3 couples to nothing
    case = tag_essential(
        GridCase(
            base_mva=100.0,
            buses=(
                Bus(1, BusKind.SLACK, v_setpoint=1.0, angle_setpoint=0.0, v_max=1.1, v_min=0.9),
                Bus(2, BusKind.PQ, v_max=1.1, v_min=0.9),
                Bus(3, BusKind.PQ, v_max=1.1, v_min=0.9),
            ),
            branches=(Branch(1, 2, 0.01, 0.1),),
            generators=(),
            loads=(Load("l1", 2, 0.0, 0.0),),
        ),
        ["l1"],
    )
    params = StochasticParameterSet.from_case(case, sigma_abs=0.01)
    with pytest.warns(SingularityWarning):
        sol = solve_power_flow(case)
    assert sol.converged and sol.iterations == 0
    with pytest.raises(JacobianSingular, match="no equations couple bus 3"):
        adjoint_sensitivities(case, sol, params, MetricSpec.voltages_at([2]))


@pytest.mark.parametrize("name", ["case14-all-solar", "case118-all", "case118-all-renewable"])
def test_chord_probe_matches_full_newton_probe(nominal_cases, name, monkeypatch):
    case, sol, params, spec = nominal_cases[name]
    cols = _probe_columns(len(params))  # the columns the hybrid probe differences
    got = finite_difference_sensitivities(case, sol, params, spec, columns=cols)
    with monkeypatch.context() as m:
        m.setattr(PowerFlowEngine, "chord_solve", _full_newton_probe)
        want = finite_difference_sensitivities(case, sol, params, spec, columns=cols)
    assert np.abs(got.values - want.values).max() <= 1e-8
    assert not np.array_equal(got.values, want.values)  # the chord path ran


def test_probe_rows_chord_steps_cannot_settle_are_solved_by_newton(monkeypatch):
    # 4.9 pu sits near the 5 pu nose: a 0.05 pu step moves the Jacobian too
    # far for chord steps on the nominal one, so Newton solves both rows
    case = tag_essential(two_bus(p_load=4.9), ["l1"])
    params = StochasticParameterSet.from_case(case, sigma_abs=0.01)
    engine = engine_for(case)
    sol = solve_power_flow(case)
    p, q = params.injections(case, params.means + np.array([[0.05], [-0.05]]))
    opts = NewtonOptions(tolerance=1e-12, max_iter=60)
    got = engine.chord_solve(p, q, sol, params.apply(case, params.means), opts)
    want = engine.solve(p, q, sol, opts)
    assert got.converged.all()
    for field in ("v", "q_pv", "converged", "iterations", "history"):
        assert np.array_equal(getattr(got, field), getattr(want, field), equal_nan=True)

    spec = MetricSpec.voltages_at([2])
    chord = finite_difference_sensitivities(case, sol, params, spec, step=0.05)
    with monkeypatch.context() as m:
        m.setattr(PowerFlowEngine, "chord_solve", _full_newton_probe)
        newton = finite_difference_sensitivities(case, sol, params, spec, step=0.05)
    assert np.array_equal(chord.values, newton.values)
