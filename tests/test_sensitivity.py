"""Adjoint/finite-difference/hybrid sensitivity machinery."""

import numpy as np
import pytest

from rmss import MetricSpec, default_metric_spec, solve_power_flow, tag_essential
from rmss.exceptions import NonConvergence, NotConverged, TopologyError, ZeroStep
from rmss.parameters import Axis, StochasticParameterSet
from rmss.sensitivity import (
    METHOD_ADJOINT,
    METHOD_SOBOL,
    adjoint_sensitivities,
    finite_difference_sensitivities,
    hybrid_sensitivities,
)

from test_powerflow import two_bus


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
    assert params.labels() == ("l1.P", "l1.Q")
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


def test_parameters_must_sit_on_pq_buses(case14, case14_solution):
    # essential flag forced onto the slack generator without re-tagging
    from dataclasses import replace

    case = replace(
        case14,
        generators=tuple(
            replace(g, essential=(g.bus == 1)) for g in case14.generators
        ),
    )
    with pytest.raises(TopologyError, match="non-PQ"):
        StochasticParameterSet.from_case(case)


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


def test_hybrid_reestimates_rows_that_disagree(case14_solar, case14_solution, monkeypatch):
    params = StochasticParameterSet.from_case(case14_solar)
    spec = default_metric_spec(case14_solar)
    true_rows = adjoint_sensitivities(case14_solar, case14_solution, params, spec).values

    import rmss.sensitivity as sens_mod

    real_fd = sens_mod.finite_difference_sensitivities

    def distorted_fd(case, sol, params, spec, step=1e-6, columns=None):
        out = real_fd(case, sol, params, spec, step=step, columns=columns)
        out.values[0] *= 1.10  # 10% disagreement on the first metric row
        return out

    monkeypatch.setattr(sens_mod, "finite_difference_sensitivities", distorted_fd)
    hyb = hybrid_sensitivities(
        case14_solar,
        case14_solution,
        params,
        spec,
        nonlinearity_threshold=0.02,
        sobol_n_base=128,
        seed=3,
    )
    assert hyb.methods[0] == METHOD_SOBOL
    assert all(m == METHOD_ADJOINT for m in hyb.methods[1:])
    assert hyb.values.shape == true_rows.shape
    # the statistical re-estimate of a smooth metric stays close to the truth
    scale = np.abs(true_rows[0]).max()
    assert np.abs(hyb.values[0] - true_rows[0]).max() < 0.15 * scale


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
