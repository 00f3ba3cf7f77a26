import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import gridfactors
from gridfactors import (
    Branch,
    Bus,
    CaseConversionError,
    CaseParseError,
    FactorMatrix,
    Grid,
    build_grounded_system,
    grid_from_json,
    grid_to_json,
    parse_matpower,
    psdf_matrix,
    ptdf_matrix,
    random_grid,
    read_factors,
    to_grid,
    write_factors,
)
from gridfactors import case_io
from gridfactors.cases import case6ww_text

from conftest import triangle, two_bus


def test_case6ww_table_shapes(ww_case):
    assert ww_case.base_mva == 100.0
    assert ww_case.bus.shape[0] == 6
    assert ww_case.gen.shape[0] == 3
    assert ww_case.branch.shape[0] == 11


def test_trailing_comment_is_ignored():
    text = case6ww_text()
    with_comment = text.replace(
        "1	2	0.1	0.2	0.04	40	40	40	0	0	1	-360	360;",
        "1	2	0.1	0.2	0.04	40	40	40	0	0	1	-360	360; % first branch",
    )
    a = parse_matpower(text)
    b = parse_matpower(with_comment)
    np.testing.assert_array_equal(a.branch, b.branch)


def test_empty_gen_table():
    case = parse_matpower(
        """
        mpc.baseMVA = 100;
        mpc.bus = [
            1 3 0 0 0 0 1 1 0 230 1 1.05 0.95;
            2 1 0 0 0 0 1 1 0 230 1 1.05 0.95;
        ];
        mpc.gen = [ ];
        mpc.branch = [
            1 2 0.01 0.1 0 0 0 0 0 0 1 -360 360;
        ];
        """
    )
    assert case.gen.shape[0] == 0
    grid = to_grid(case)
    assert all(b.injection == 0.0 for b in grid.buses)


def test_parse_errors_carry_line_numbers():
    bad_token = "mpc.baseMVA = 100;\nmpc.bus = [\n1 3 zz;\n];\nmpc.gen = [];\nmpc.branch = [];"
    with pytest.raises(CaseParseError) as err:
        parse_matpower(bad_token)
    assert err.value.line == 3

    ragged = (
        "mpc.baseMVA = 100;\nmpc.bus = [\n1 3 0 0;\n1 3 0;\n];\n"
        "mpc.gen = [];\nmpc.branch = [];"
    )
    with pytest.raises(CaseParseError) as err:
        parse_matpower(ragged)
    assert err.value.line == 4


def test_missing_table_rejected():
    with pytest.raises(CaseParseError, match="mpc.branch"):
        parse_matpower("mpc.baseMVA = 100;\nmpc.bus = [1 3 0;];\nmpc.gen = [];")


def test_cross_references_validated():
    head = "mpc.baseMVA = 100;\nmpc.bus = [1 3 0; 2 1 0;];\n"
    with pytest.raises(CaseParseError, match="unknown bus"):
        parse_matpower(head + "mpc.gen = [9 0;];\nmpc.branch = [1 2 0.1 0.1;];")
    with pytest.raises(CaseParseError, match="unknown bus"):
        parse_matpower(head + "mpc.gen = [];\nmpc.branch = [1 9 0.1 0.1;];")
    with pytest.raises(CaseParseError, match="baseMVA"):
        parse_matpower(
            "mpc.baseMVA = 0;\nmpc.bus = [1 3 0;];\nmpc.gen = [];\nmpc.branch = [];"
        )


def test_stream_input_accepted():
    case = parse_matpower(io.StringIO(case6ww_text()))
    assert case.branch.shape == (11, 13)


def test_to_grid_case6ww(ww_case, ww_grid):
    assert ww_grid.n_buses == 6
    assert ww_grid.n_branches == 11
    assert ww_grid.slack == 1
    assert abs(sum(b.injection for b in ww_grid.buses)) < 1e-9
    # slack picked up the balance: 210 load minus 110 scheduled generation
    assert ww_grid.bus(1).injection == pytest.approx(1.0)
    assert ww_grid.bus(4).injection == pytest.approx(-0.7)
    # reactance-only susceptances
    assert ww_grid.branch(1).susceptance == pytest.approx(1.0 / 0.2)


def test_to_grid_non_contiguous_bus_ids():
    case = parse_matpower(
        """
        mpc.baseMVA = 50;
        mpc.bus = [
            1 3 0 0 0 0 1 1 0 230 1 1.05 0.95;
            3 1 25 0 0 0 1 1 0 230 1 1.05 0.95;
            7 1 25 0 0 0 1 1 0 230 1 1.05 0.95;
        ];
        mpc.gen = [ ];
        mpc.branch = [
            1 3 0.01 0.1 0 0 0 0 0 0 1 -360 360;
            3 7 0.01 0.2 0 0 0 0 0 0 1 -360 360;
        ];
        """
    )
    grid = to_grid(case)
    sys = build_grounded_system(grid)
    assert set(sys.index_map) == {3, 7}
    for bus_id, row in sys.index_map.items():
        assert sys.bus_ids[row] == bus_id
    assert grid.bus(3).injection == pytest.approx(-0.5)


def test_to_grid_zero_reactance_rejected():
    case_text = """
        mpc.baseMVA = 100;
        mpc.bus = [
            1 3 0 0 0 0 1 1 0 230 1 1.05 0.95;
            2 1 0 0 0 0 1 1 0 230 1 1.05 0.95;
        ];
        mpc.gen = [ ];
        mpc.branch = [
            1 2 0.01 0.0 0 0 0 0 0 0 1 -360 360;
        ];
    """
    with pytest.raises(CaseConversionError, match="reactance"):
        to_grid(parse_matpower(case_text))


def test_out_of_service_branch_kept_with_zero_susceptance():
    case_text = """
        mpc.baseMVA = 100;
        mpc.bus = [
            1 3 0 0 0 0 1 1 0 230 1 1.05 0.95;
            2 1 0 0 0 0 1 1 0 230 1 1.05 0.95;
        ];
        mpc.gen = [ ];
        mpc.branch = [
            1 2 0.01 0.1 0 0 0 0 0 0 1 -360 360;
            1 2 0.01 0.2 0 0 0 0 0 0 0 -360 360;
        ];
    """
    grid = to_grid(parse_matpower(case_text))
    assert grid.n_branches == 2
    assert grid.branch(2).susceptance == 0.0
    assert not grid.branch(2).in_service


def test_unknown_fields_ignored(ww_case):
    # the bundled case carries a gencost table that the reader skips
    assert ww_case.base_mva == 100.0


def test_json_round_trip():
    grid = triangle()
    assert grid_from_json(grid_to_json(grid)) == grid


def test_json_round_trip_with_pst_and_switch():
    buses = (Bus(id=1, injection=0.25, is_slack=True), Bus(id=2, injection=-0.25))
    branches = (
        Branch(id=1, from_bus=1, to_bus=2, susceptance=2.0, kind="pst", shift_angle=0.1),
        Branch(id=2, from_bus=1, to_bus=2, susceptance=0.0, kind="switch"),
        Branch(id=3, from_bus=1, to_bus=2, susceptance=1.5),
    )
    grid = Grid(buses=buses, branches=branches)
    assert grid_from_json(grid_to_json(grid)) == grid


def test_json_parse_error():
    with pytest.raises(CaseParseError):
        grid_from_json("{not json")
    with pytest.raises(CaseParseError):
        grid_from_json(json.dumps({"buses": []}))


def test_write_factors_two_bus():
    sys = build_grounded_system(two_bus(b=1.0, slack=2))
    csv = write_factors(ptdf_matrix(sys))
    lines = csv.strip().splitlines()
    assert lines[0] == "branch,bus1"
    assert lines[1] == "1,1"


def test_factor_csv_round_trip_bit_exact(small_grids):
    sys = build_grounded_system(small_grids[3])
    matrix = ptdf_matrix(sys)
    again = read_factors(write_factors(matrix))
    assert again.row_labels == matrix.row_labels
    assert again.col_labels == matrix.col_labels
    assert np.array_equal(again.values, matrix.values)


def test_case6ww_ptdf_export_dimensions(ww_sys, tmp_path):
    path = tmp_path / "ptdf.csv"
    write_factors(ptdf_matrix(ww_sys), path)
    matrix = read_factors(path)
    assert matrix.values.shape == (11, 5)


@pytest.mark.parametrize("token", ['"NaN"', "NaN", '"inf"', "-Infinity"])
def test_json_non_finite_injection_rejected(token):
    text = grid_to_json(two_bus(b=1.0, slack=2, p=0.5)).replace("0.5", token, 1)
    assert token in text
    with pytest.raises(CaseParseError, match="bus 1: injection must be finite"):
        grid_from_json(text)


@pytest.mark.parametrize(
    "old, new, label",
    [
        ("\t4\t1\t70\t", "\t4\t1\tNaN\t", "Pd of bus 4"),
        ("\t3\t60\t0\t", "\t3\tInf\t0\t", "Pg of bus 3"),
    ],
)
def test_matpower_non_finite_power_rejected(old, new, label):
    text = case6ww_text()
    assert old in text
    with pytest.raises(CaseParseError, match=label):
        parse_matpower(text.replace(old, new, 1))


def _fstring_csv(matrix):
    """The factor CSV as one f-string per value, joined: the reference format."""
    prefix = "bus" if matrix.kind == "PTDF" else "branch"
    lines = ["branch," + ",".join(f"{prefix}{c}" for c in matrix.col_labels)]
    for rid, row in zip(matrix.row_labels, matrix.values):
        lines.append(f"{rid}," + ",".join(f"{v:.17g}" for v in row))
    return "\n".join(lines) + "\n"


AWKWARD = [
    -0.0, 0.0, 5e-324, -5e-324, 1e-300, 1e308, -1.7976931348623157e308,
    3.0, -42.0, 1e16, 0.1, 1 / 3, float("nan"), float("inf"), float("-inf"),
]


@pytest.mark.parametrize(
    "matrix",
    [
        FactorMatrix(
            values=np.array(AWKWARD * 3).reshape(9, 5),
            row_labels=tuple(range(101, 110)),
            col_labels=(1, 2, 4, 8, 16),
        ),
        FactorMatrix(
            values=np.array(AWKWARD[:9]).reshape(3, 3),
            row_labels=(7, 3, 5),
            col_labels=(7, 3, 5),
            kind="PSDF",
        ),
        FactorMatrix(values=np.empty((2, 0)), row_labels=(1, 2), col_labels=()),
    ],
    ids=["ptdf", "psdf", "no-columns"],
)
def test_write_factors_byte_identical_to_fstring_join(matrix, tmp_path):
    want = _fstring_csv(matrix)
    assert write_factors(matrix) == want
    path = tmp_path / "factors.csv"
    assert write_factors(matrix, path) is None
    assert path.read_text() == want
    stream = io.StringIO()
    assert write_factors(matrix, stream) is None
    assert stream.getvalue() == want


def test_write_factors_random_ptdf_byte_identical(small_grids):
    matrix = ptdf_matrix(build_grounded_system(small_grids[11]))
    assert write_factors(matrix) == _fstring_csv(matrix)


@pytest.mark.parametrize(
    "matrix",
    [
        FactorMatrix(values=np.empty((0, 3)), row_labels=(), col_labels=(1, 2, 4)),
        FactorMatrix(values=np.empty((2, 0)), row_labels=(5, 3), col_labels=()),
        FactorMatrix(values=np.empty((0, 0)), row_labels=(), col_labels=(), kind="PSDF"),
    ],
    ids=["no-rows", "no-columns", "empty"],
)
def test_factor_csv_round_trip_without_rows_or_columns(matrix):
    again = read_factors(write_factors(matrix), kind=matrix.kind)
    assert again.values.shape == matrix.values.shape
    assert again.row_labels == matrix.row_labels
    assert again.col_labels == matrix.col_labels


def _percent_csv(values):
    lines = ["branch," + ",".join(f"bus{c}" for c in range(values.shape[1]))]
    lines += [f"{i}," + ",".join(["%.17g" % v for v in row]) for i, row in enumerate(values)]
    return "\n".join(lines) + "\n"


def test_write_factors_matches_percent_format_on_a_million_values(monkeypatch):
    rng = np.random.default_rng(2024)
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    switches = np.array([1e-5, 1e-4, 1e16, 1e17])
    ties = 1e15 + 0.25 + 0.5 * np.arange(2000)  # exactly halfway between 17-digit values
    sys_ = build_grounded_system(random_grid(5, 200, 2.4))
    ptdf, psdf = ptdf_matrix(sys_).values, psdf_matrix(sys_).values
    signed = np.concatenate([
        powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf),
        switches, np.nextafter(switches, 0), np.nextafter(switches, np.inf),
        (10**17 + np.arange(-40_000, 40_000, 3)).astype(float),
        np.arange(-50_000, 50_000) + 0.5, ties, 1.0 / np.arange(1, 100_001),
    ])
    values = np.concatenate([
        np.frombuffer(rng.bytes(8 * 450_000), np.float64),  # nan, inf and subnormals too
        [0.0, -0.0], signed, -signed, ptdf.ravel(), psdf.ravel(),
    ])
    assert values.size >= 10**6
    values = np.concatenate([values, np.zeros(-values.size % 97)]).reshape(-1, 97)
    matrix = FactorMatrix(
        values=values, row_labels=tuple(range(len(values))), col_labels=tuple(range(97))
    )
    monkeypatch.setattr(case_io, "CSV_BLOCK_BYTES", 200_000)  # 5 rows a block
    assert write_factors(matrix) == _percent_csv(values)
    # the vector path writes the real factors and nearly all neighbours of
    # powers of ten; tie rows go through the template
    assert not case_io._format_block(ptdf)[1].any()
    near = np.concatenate([np.nextafter(powers[16:], 0), np.nextafter(powers[16:], np.inf)])
    assert case_io._format_block(near.reshape(-1, 1))[1].mean() < 0.01
    assert case_io._format_block(ties.reshape(-1, 8))[1].all()


def test_format_tables_built_on_first_write_not_on_import():
    src = os.path.dirname(os.path.dirname(os.path.abspath(gridfactors.__file__)))
    code = (
        "import numpy as np\n"
        "import gridfactors.cli\n"
        "from gridfactors import FactorMatrix, case_io\n"
        "assert case_io._format_tables.cache_info().currsize == 0\n"
        "m = FactorMatrix(values=np.ones((1, 1)), row_labels=(1,), col_labels=(2,))\n"
        "assert case_io.write_factors(m) == 'branch,bus2\\n1,1\\n'\n"
        "assert case_io._format_tables.cache_info().currsize == 1\n"
    )
    subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
        check=True, timeout=120,
    )
