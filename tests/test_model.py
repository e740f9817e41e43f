"""Essential tagging and case validation."""

from dataclasses import replace

import numpy as np
import pytest

from rmss import sample_parameters, tag_essential, validate_case
from rmss.exceptions import EmptySelection
from rmss.model import Branch, Bus, BusKind, Generator, GridCase, Load
from rmss.parameters import Axis, StochasticParameterSet


def test_all_solar_flags_exactly_the_solar_units(case14):
    tagged = tag_essential(case14, "all-solar")
    flagged = [c.id for c in tagged.essential_components()]
    assert flagged == ["g5", "g6", "g7"]
    assert all(c.fuel_tag == "solar" for c in tagged.essential_components())


def test_all_renewable_includes_wind(case14):
    tagged = tag_essential(case14, "all-renewable")
    assert [c.id for c in tagged.essential_components()] == ["g4", "g5", "g6", "g7"]


def test_explicit_selector_flags_only_named(case14):
    tagged = tag_essential(case14, ["g7"])
    assert [c.id for c in tagged.essential_components()] == ["g7"]


def test_retagging_clears_previous_flags(case14):
    tagged = tag_essential(tag_essential(case14, "all-solar"), ["g4"])
    assert [c.id for c in tagged.essential_components()] == ["g4"]


def test_original_case_unmodified(case14):
    tag_essential(case14, "all-solar")
    assert not any(c.essential for c in case14.components())


def test_selector_matching_nothing(case2):
    with pytest.raises(EmptySelection):
        tag_essential(case2, "all-wind")


def test_unknown_component_id(case2):
    with pytest.raises(EmptySelection, match="g99"):
        tag_essential(case2, ["g99"])


def test_all_selector_takes_every_component_off_the_slack(case2):
    # the slack generator is the balancing unit, never a stochastic resource
    tagged = tag_essential(case2, "all")
    assert {c.id for c in tagged.essential_components()} == {"l1"}


def _pv_host_case():
    return GridCase(
        base_mva=100.0,
        buses=(
            Bus(1, BusKind.SLACK, v_setpoint=1.0, angle_setpoint=0.0, v_max=1.1, v_min=0.9),
            Bus(2, BusKind.PV, v_setpoint=1.01, v_max=1.1, v_min=0.9),
        ),
        branches=(Branch(1, 2, 0.01, 0.1),),
        generators=(Generator("g1", 2, 0.3, 0.05, fuel_tag="solar"),),
        loads=(),
    )


def test_essential_pv_host_remodeled_as_pq():
    tagged = tag_essential(_pv_host_case(), "all-solar")
    host = tagged.buses[tagged.bus_index()[2]]
    assert host.kind is BusKind.PQ
    assert host.v_setpoint is None
    # dispatch point preserved as the fixed injection
    assert tagged.generators[0].p == 0.3
    assert tagged.generators[0].q == 0.05


def test_validate_well_formed_is_empty(case14):
    assert validate_case(case14).ok


def test_validate_names_both_slack_buses():
    case = GridCase(
        base_mva=100.0,
        buses=(
            Bus(1, BusKind.SLACK, v_setpoint=1.0, angle_setpoint=0.0, v_max=1.1, v_min=0.9),
            Bus(2, BusKind.SLACK, v_setpoint=1.0, angle_setpoint=0.0, v_max=1.1, v_min=0.9),
        ),
        branches=(Branch(1, 2, 0.01, 0.1),),
        generators=(),
        loads=(),
    )
    report = validate_case(case)
    messages = " ".join(e.message for e in report.entries)
    assert "1" in messages and "2" in messages


def test_validate_flags_zero_impedance_branch():
    case = GridCase(
        base_mva=100.0,
        buses=(
            Bus(1, BusKind.SLACK, v_setpoint=1.0, angle_setpoint=0.0, v_max=1.1, v_min=0.9),
            Bus(2, BusKind.PQ, v_max=1.1, v_min=0.9),
        ),
        branches=(Branch(1, 2, 0.0, 0.0),),
        generators=(),
        loads=(),
    )
    report = validate_case(case)
    assert any("impedance" in e.message for e in report.entries)


def test_validate_flags_essential_on_slack():
    case = GridCase(
        base_mva=100.0,
        buses=(
            Bus(1, BusKind.SLACK, v_setpoint=1.0, angle_setpoint=0.0, v_max=1.1, v_min=0.9),
            Bus(2, BusKind.PQ, v_max=1.1, v_min=0.9),
        ),
        branches=(Branch(1, 2, 0.01, 0.1),),
        generators=(),
        loads=(Load("l1", 1, -0.5, 0.0, essential=True),),
    )
    report = validate_case(case)
    assert any(e.severity == "error" and "slack" in e.message for e in report.entries)


def test_validate_flags_bad_limits_and_setpoint():
    case = GridCase(
        base_mva=100.0,
        buses=(
            Bus(1, BusKind.SLACK, v_setpoint=2.0, angle_setpoint=0.0, v_max=0.9, v_min=1.1),
            Bus(2, BusKind.PQ, v_max=1.1, v_min=0.9),
        ),
        branches=(Branch(1, 2, 0.01, 0.1),),
        generators=(),
        loads=(),
    )
    messages = " ".join(e.message for e in validate_case(case).entries)
    assert "v_min" in messages
    assert "outside [0.5, 1.5]" in messages


def test_injections_merge_components_per_bus(case14):
    p, q = case14.injections()
    idx = case14.bus_index()
    # bus 6 hosts both a 30 MW load and the 18 MW wind unit
    assert p[idx[6]] == pytest.approx(-0.30 + 0.18)
    assert q[idx[6]] == pytest.approx(-0.06)


def _apply_one_entry_at_a_time(params, case, row):
    """The per-entry loop the vectorized parameter map must reproduce bit for bit."""
    p, q = case.injections()
    idx = case.bus_index()
    for entry, value in zip(params.entries, row):
        bus = idx[case.component(entry.component).bus]
        target = p if entry.axis is Axis.P else q
        target[bus] += value - entry.mean
    return p, q


def test_parameter_map_matches_per_entry_loop(case14):
    # "all" puts a load and the wind unit on bus 6, so two entries share a bus
    case = tag_essential(case14, "all")
    params = StochasticParameterSet.from_case(case, sigma_frac=0.05, axes=(Axis.P, Axis.Q))
    rows = sample_parameters(params, 20, seed=4).values
    p, q = params.injections(case, rows)
    for k, row in enumerate(rows):
        ref_p, ref_q = _apply_one_entry_at_a_time(params, case, row)
        assert np.array_equal(p[k], ref_p) and np.array_equal(q[k], ref_q)
        one_p, one_q = params.apply(case, row)
        assert np.array_equal(one_p, ref_p) and np.array_equal(one_q, ref_q)


def test_parameter_map_unknown_component_raises_like_lookup(case14):
    params = StochasticParameterSet.from_case(tag_essential(case14, "all-solar"))
    ghost = replace(case14, generators=tuple(g for g in case14.generators if g.id != "g5"))
    with pytest.raises(KeyError, match="g5"):
        ghost.component("g5")
    with pytest.raises(KeyError, match="g5"):
        params.bus_map(ghost)
