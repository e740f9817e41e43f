"""Case-file ingest/export: parsing, schema enforcement, round trips."""

import math
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rmss import cases, parse_case, write_case
from rmss.exceptions import ParseError, SchemaError, TopologyError
from rmss.model import Branch, Bus, BusKind, GridCase, Load, case_fields_equal

MINIMAL = """\
function mpc = mini
mpc.version = '2';
mpc.baseMVA = 100;
mpc.bus = [
  1 3 0   0 0 0 1 1.0 0 100 1 1.1 0.9;
  2 1 100 0 0 0 1 1.0 0 100 1 1.1 0.9;
];
mpc.gen = [
  1 0 0 999 -999 1.0 100 1 999 -999;
];
mpc.branch = [
  1 2 0.01 0.1 0 0 0 0 0 0 1;
];
"""


def write_tmp(tmp_path, text, name="case.m"):
    p = tmp_path / name
    p.write_text(text)
    return p


def test_minimal_two_bus(tmp_path):
    case = parse_case(write_tmp(tmp_path, MINIMAL))
    assert len(case.buses) == 2
    assert len(case.branches) == 1
    assert case.buses[0].kind is BusKind.SLACK
    assert case.buses[1].kind is BusKind.PQ


def test_per_unit_conversion_is_value_over_base(tmp_path):
    case = parse_case(write_tmp(tmp_path, MINIMAL))
    (load,) = case.loads
    # 100 MW on a 100 MVA base is 1.0 pu, stored as a negative injection
    assert load.p == -1.0
    assert abs(load.p) == 100 / case.base_mva


def test_branch_to_absent_bus_is_topology_error(tmp_path):
    bad = MINIMAL.replace("1 2 0.01 0.1", "1 99 0.01 0.1")
    with pytest.raises(TopologyError, match="99"):
        parse_case(write_tmp(tmp_path, bad))


def test_gen_on_absent_bus_is_topology_error(tmp_path):
    bad = MINIMAL.replace("1 0 0 999", "7 0 0 999")
    with pytest.raises(TopologyError, match="7"):
        parse_case(write_tmp(tmp_path, bad))


def test_zero_slack_is_topology_error(tmp_path):
    bad = MINIMAL.replace("1 3 0 ", "1 1 0 ")
    with pytest.raises(TopologyError, match="slack"):
        parse_case(write_tmp(tmp_path, bad))


@pytest.mark.parametrize("row, bad_row, line, column", [
    ("2 1 100 0", "2 1 nan 0", 6, "Pd"),
    ("1 2 0.01 0.1 0 0 0 0 0 0 1", "1 2 0.01 0.1 0 0 0 0 NaN 0 1", 12, "ratio"),
    ("1 2 0.01 0.1 0 0 0 0 0 0 1", "1 2 0.01 Inf 0 0 0 0 0 0 1", 12, "x"),
], ids=["Pd-nan", "ratio-nan", "x-inf"])
def test_nonfinite_value_in_a_read_column_is_parse_error(tmp_path, row, bad_row, line, column):
    bad = MINIMAL.replace(row, bad_row)
    assert bad != MINIMAL
    with pytest.raises(ParseError, match=rf"^line {line}: .*\['{column}'\]"):
        parse_case(write_tmp(tmp_path, bad))
    # a column the parser ignores (gen Qmax, Qmin) may still hold Inf
    parse_case(write_tmp(tmp_path, MINIMAL.replace("1 0 0 999 -999", "1 0 0 Inf -Inf")))


def test_duplicate_bus_id_rejected(tmp_path):
    bad = MINIMAL.replace("2 1 100", "1 1 100")
    with pytest.raises(TopologyError, match="duplicate"):
        parse_case(write_tmp(tmp_path, bad))


def test_missing_table_is_schema_error(tmp_path):
    bad = MINIMAL.replace("mpc.gen", "mpc.nogen")
    with pytest.raises(SchemaError, match="mpc.gen"):
        parse_case(write_tmp(tmp_path, bad))


def test_missing_column_is_schema_error(tmp_path):
    # drop Vmax/Vmin off every bus row
    bad = MINIMAL.replace(" 1.1 0.9;", ";")
    with pytest.raises(SchemaError, match="Vm"):
        parse_case(write_tmp(tmp_path, bad))


def test_missing_basemva_is_schema_error(tmp_path):
    bad = MINIMAL.replace("mpc.baseMVA = 100;", "")
    with pytest.raises(SchemaError, match="baseMVA"):
        parse_case(write_tmp(tmp_path, bad))


@pytest.mark.parametrize("value", ["0", "-100", "NaN", "Inf"])
def test_basemva_must_be_positive_and_finite(tmp_path, value):
    bad = MINIMAL.replace("mpc.baseMVA = 100;", f"mpc.baseMVA = {value};")
    with pytest.raises(SchemaError, match="baseMVA must be positive and finite"):
        parse_case(write_tmp(tmp_path, bad))


def test_bad_token_is_parse_error_with_line(tmp_path):
    bad = MINIMAL.replace("2 1 100 0", "2 1 1x0 0")
    with pytest.raises(ParseError, match=r"line \d+"):
        parse_case(write_tmp(tmp_path, bad))


def test_out_of_service_branch_dropped(tmp_path):
    text = MINIMAL.replace(
        "mpc.branch = [\n  1 2 0.01 0.1 0 0 0 0 0 0 1;",
        "mpc.branch = [\n  1 2 0.01 0.1 0 0 0 0 0 0 1;\n  1 2 0.02 0.2 0 0 0 0 0 0 0;",
    )
    case = parse_case(write_tmp(tmp_path, text))
    assert len(case.branches) == 1


def test_out_of_service_gen_dropped_and_fuel_aligned(tmp_path):
    text = MINIMAL.replace(
        "mpc.gen = [\n  1 0 0 999 -999 1.0 100 1 999 -999;",
        "mpc.gen = [\n"
        "  1 0 0 999 -999 1.0 100 1 999 -999;\n"
        "  2 10 0 999 -999 1.0 100 0 999 -999;\n"
        "  2 15 0 999 -999 1.0 100 1 999 -999;",
    )
    text += "mpc.genfuel = {\n  'ng';\n  'coal';\n  'solar';\n};\n"
    case = parse_case(write_tmp(tmp_path, text))
    assert [g.id for g in case.generators] == ["g1", "g2"]
    # fuel rows align with file rows, so the dropped coal unit is skipped
    assert [g.fuel_tag for g in case.generators] == ["ng", "solar"]


def test_comments_and_ratio_defaults(tmp_path):
    text = MINIMAL.replace(
        "  1 2 0.01 0.1 0 0 0 0 0 0 1;",
        "  1 2 0.01 0.1 0 0 0 0 0 0 1; % tap column zero means nominal\n",
    )
    case = parse_case(write_tmp(tmp_path, text))
    assert case.branches[0].tap == 1.0
    assert case.branches[0].phase_shift == 0.0


def test_parse_is_deterministic(tmp_path):
    p = write_tmp(tmp_path, MINIMAL)
    assert case_fields_equal(parse_case(p), parse_case(p))


@pytest.mark.parametrize("name", ["case2", "case14_stoch", "case118_stoch"])
def test_bundled_cases_round_trip(name, tmp_path):
    case = parse_case(cases.case_path(name))
    out = tmp_path / "echo.m"
    write_case(case, out)
    assert case_fields_equal(case, parse_case(out))


def chain_case(demands_mw, branch_params):
    """A slack bus and a chain of PQ buses, one per (Pd, Qd) demand in MW.

    A demand that is zero in per unit gets no load: write_case cannot
    represent such a load (see test_zero_load_is_not_written).
    """
    buses = [Bus(id=1, kind=BusKind.SLACK, v_setpoint=1.02, angle_setpoint=0.0,
                 v_max=1.1, v_min=0.9)]
    loads = []
    for i, (pd, qd) in enumerate(demands_mw, start=2):
        buses.append(Bus(id=i, kind=BusKind.PQ, v_max=1.1, v_min=0.9))
        p, q = -pd / 100.0, -qd / 100.0
        if p or q:
            loads.append(Load(id=f"l{len(loads) + 1}", bus=i, p=p, q=q))
    branches = [
        Branch(from_bus=i, to_bus=i + 1, r=r, x=x, b_shunt=b, tap=tap)
        for i, (r, x, b, tap) in enumerate(branch_params, start=1)
    ]
    return GridCase(base_mva=100.0, buses=tuple(buses), branches=tuple(branches),
                    generators=(), loads=tuple(loads), name="prop")


@st.composite
def small_cases(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    mw = st.floats(0.0, 400.0, allow_nan=False, width=64)
    demands = [(draw(mw), draw(mw)) for _ in range(n - 1)]
    imp = st.floats(0.001, 1.0, allow_nan=False, width=64)
    branch_params = [
        (draw(imp), draw(imp), draw(st.floats(0.0, 0.2, allow_nan=False)),
         draw(st.sampled_from([1.0, 0.98, 1.05])))
        for _ in range(n - 1)
    ]
    return chain_case(demands, branch_params)


# A subnormal MW draw is a nonzero demand but a zero per-unit load.
@example(case=chain_case([(5e-324, 5e-324)], [(0.01, 0.1, 0.0, 1.0)]))
@settings(max_examples=40, deadline=None)
@given(small_cases())
def test_round_trip_property(tmp_path_factory, case):
    out = tmp_path_factory.mktemp("rt") / "case.m"
    write_case(case, out)
    again = parse_case(out)
    assert case_fields_equal(case, again)


def test_zero_load_is_not_written(tmp_path):
    # 5e-324 MW is -0.0 pu; the bus row holds Pd = Qd = 0, which reads as no load
    zero = Load(id="l1", bus=2, p=-5e-324 / 100.0, q=-5e-324 / 100.0)
    assert zero.p == 0.0 and zero.q == 0.0
    case = replace(chain_case([(0.0, 0.0)], [(0.01, 0.1, 0.0, 1.0)]), loads=(zero,))
    out = tmp_path / "case.m"
    write_case(case, out)
    assert parse_case(out).loads == ()


def test_bundled_case_accessor_unknown():
    with pytest.raises(FileNotFoundError, match="available"):
        cases.case_path("case9999")


def test_per_unit_is_exact_division_for_every_power_field(tmp_path):
    text = """\
function mpc = odd
mpc.baseMVA = 50;
mpc.bus = [
  1 3 0    0    0 0 1 1.0 0 100 1 1.1 0.9;
  2 1 17.3 4.21 0 0 1 1.0 0 100 1 1.1 0.9;
];
mpc.gen = [
  2 12.7 -3.9 999 -999 1.0 50 1 999 -999;
];
mpc.branch = [
  1 2 0.01 0.1 0 0 0 0 0 0 1;
];
"""
    case = parse_case(write_tmp(tmp_path, text))
    (load,) = case.loads
    (gen,) = case.generators
    assert load.p == -17.3 / 50
    assert load.q == -4.21 / 50
    assert gen.p == 12.7 / 50
    assert gen.q == -3.9 / 50


def test_bus_shunts_parsed_per_unit_and_written_back(tmp_path):
    text = MINIMAL.replace("2 1 100 0 0 0 1", "2 1 100 0 4.3 -17.9 1")
    case = parse_case(write_tmp(tmp_path, text.replace("mpc.baseMVA = 100", "mpc.baseMVA = 50")))
    assert (case.buses[1].gs, case.buses[1].bs) == (4.3 / 50, -17.9 / 50)
    assert (case.buses[0].gs, case.buses[0].bs) == (0.0, 0.0)
    out = tmp_path / "echo.m"
    write_case(case, out)
    assert case_fields_equal(case, parse_case(out))

def test_slack_angle_parsed_in_radians(tmp_path):
    text = MINIMAL.replace("1 3 0   0 0 0 1 1.0 0 ", "1 3 0   0 0 0 1 1.0 30 ")
    case = parse_case(write_tmp(tmp_path, text))
    assert case.buses[0].angle_setpoint == pytest.approx(math.radians(30))
