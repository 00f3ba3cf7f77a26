"""Input checks across the library: each bad input raises its documented
exception with a message naming the fault; the Matpower ones also exit 2
from ``flows``. A few accepting branches of the same checks run at the end."""
import io

import numpy as np
import pytest

import gridfactors
from gridfactors import (
    PST,
    Branch,
    Bus,
    CaseParseError,
    FactorMatrix,
    Grid,
    GridStructureError,
    SplitSpec,
    SwitchKernel,
    SwitchStates,
    bench_update_vs_rebuild,
    bsdf_vector,
    build_grounded_system,
    compute_flows,
    contract_buses,
    effective_injections,
    grid_from_json,
    grid_to_json,
    lcdf_column,
    lodf_column,
    pad_inverse,
    parse_matpower,
    read_factors,
    rebuild_grid,
    shift_vector,
    solve_angles,
    system_from_inverse,
    to_grid,
)
from gridfactors.cli import main

from conftest import add_switches, four_cycle, triangle

_SWITCHED, _SWITCHES = add_switches(four_cycle(), [(1, 3), (2, 4)])
_TRI = build_grounded_system(triangle())
_OPEN_LINE = four_cycle(missing=(1, 2))  # branch 1 out of service
_PST_GRID = Grid(
    (Bus(1, 0.0, True), Bus(2, 0.5), Bus(3, -0.5)),
    (Branch(1, 1, 2, 1.0), Branch(2, 2, 3, 1.0, kind=PST), Branch(3, 1, 3, 1.0)),
)

_MATPOWER = """mpc.baseMVA = {base};
mpc.bus = [
1 3 0;
2 1 50;
];
mpc.gen = [
1 50;
];
mpc.branch = [
1 2 0 {x};
];
"""

BAD_MATPOWER = {
    "unterminated": (_MATPOWER.format(base=100, x=0.1).rsplit("];", 1)[0], "unterminated table"),
    "no-base": (_MATPOWER.format(base=100, x=0.1).split("\n", 1)[1], "missing mpc.baseMVA"),
    "short-rows": (_MATPOWER.format(base=100, x=""), "rows need at least 4 columns"),
    "non-numeric-base": (_MATPOWER.format(base="'abc'", x=0.1), "missing mpc.baseMVA"),
}


CASES = {
    # bus_topology
    "pad-no-split": (lambda: pad_inverse(_TRI, []),
                     GridStructureError, "at least one split"),
    "bsdf-two-couplers": (
        lambda: bsdf_vector(pad_inverse(build_grounded_system(four_cycle()), [
            SplitSpec(2, {1: "new"}), SplitSpec(3, {3: "new"})])),
        GridStructureError, "exactly one split"),
    # single_mod
    "lodf-out-of-service": (lambda: lodf_column(build_grounded_system(_OPEN_LINE), 1),
                            GridStructureError, "branch 1 is not in service"),
    "lcdf-nonpositive-b": (lambda: lcdf_column(build_grounded_system(_OPEN_LINE), 1, 0.0),
                           GridStructureError, "closing susceptance must be > 0"),
    # multi_mod
    "states-lengths": (lambda: SwitchStates((1, 2), (True,)),
                       GridStructureError, "differ in length"),
    "states-duplicates": (lambda: SwitchStates((1, 1), (True, False)),
                          GridStructureError, "duplicate switch ids"),
    "xi-other-switches": (
        lambda: SwitchKernel(build_grounded_system(_SWITCHED), _SWITCHES[:1]).xi(
            SwitchStates(_SWITCHES[1:], (True,))),
        GridStructureError, "do not match this kernel"),
    # grid_model
    "inverse-shape": (lambda: system_from_inverse(triangle(), np.eye(3)),
                      GridStructureError, "inverse has shape (3, 3), expected (2, 2)"),
    "unknown-branch": (lambda: lodf_column(system_from_inverse(triangle(), _TRI.B_inv), 9),
                       GridStructureError, "unknown branch 9"),
    "self-loop": (lambda: Branch(1, 2, 2, 1.0), GridStructureError, "are both 2"),
    "unknown-kind": (lambda: Branch(1, 1, 2, 1.0, kind="cable"),
                     GridStructureError, "unknown kind 'cable'"),
    "negative-b": (lambda: Branch(1, 1, 2, -1.0), GridStructureError, "finite and >= 0"),
    "nan-b": (lambda: Branch(1, 1, 2, float("nan")), GridStructureError, "finite and >= 0"),
    "shift-on-line": (lambda: Branch(1, 1, 2, 1.0, shift_angle=0.1),
                      GridStructureError, "only allowed on pst"),
    "duplicate-buses": (lambda: Grid((Bus(1, 0.0, True), Bus(1)), ()),
                        GridStructureError, "duplicate bus ids"),
    "duplicate-branches": (
        lambda: Grid((Bus(1, 0.0, True), Bus(2)), (Branch(1, 1, 2, 1.0), Branch(1, 2, 1, 1.0))),
        GridStructureError, "duplicate branch ids"),
    # factors_base
    "factor-kind": (lambda: FactorMatrix(np.zeros((1, 1)), (1,), (1,), kind="XDF"),
                    GridStructureError, "unknown factor kind 'XDF'"),
    "factor-shape": (lambda: FactorMatrix(np.zeros((2, 1)), (1,), (1,)),
                     GridStructureError, "does not match labels"),
    "psdf-missing-column": (
        lambda: FactorMatrix(np.zeros((1, 1)), (1,), (2,), kind="PSDF").column(3),
        KeyError, "3"),
    "angles-length": (lambda: solve_angles(_TRI, np.zeros(2)),
                      GridStructureError, "injection vector has shape (2,)"),
    "flows-length": (lambda: compute_flows(_TRI, np.zeros(3)),
                     GridStructureError, "angle vector has shape (3,)"),
    # pst
    "shift-shape": (lambda: effective_injections(_PST_GRID, np.zeros(3), np.zeros(2)),
                    GridStructureError, "shift vector has shape (2,), expected (3,)"),
    # case_io
    **{f"matpower-{k}": (lambda t=text: parse_matpower(t), CaseParseError, msg)
       for k, (text, msg) in BAD_MATPOWER.items()},
    "factors-empty": (lambda: read_factors(io.StringIO("")), CaseParseError, "empty factor CSV"),
    "factors-header": (lambda: read_factors("branch,busX\n1,0.5\n"),
                       CaseParseError, "bad factor CSV header"),
    "factors-ragged": (lambda: read_factors("branch,bus1\n1,0.5,0.7\n"),
                       CaseParseError, "row has 3 cells, header has 2"),
    # oracle
    "rebuild-close-line": (lambda: rebuild_grid(triangle(), closed_switches=[1]),
                           GridStructureError, "branch 1 is not a switch"),
    "contract-itself": (lambda: contract_buses(triangle(), 1, 1),
                        GridStructureError, "cannot contract a bus with itself"),
    "bench-parameters": (lambda: bench_update_vs_rebuild(n_buses=1, n_mods=1),
                         GridStructureError, "benchmark parameters must be positive"),
    "bench-more-mods-than-branches": (lambda: bench_update_vs_rebuild(n_buses=5, n_mods=100),
                                      GridStructureError, "benchmark asks for 100 modifications"),
}


@pytest.mark.parametrize("name", list(CASES))
def test_bad_input_raises(name):
    call, exc, fragment = CASES[name]
    with pytest.raises(exc) as info:
        call()
    assert fragment in str(info.value)


@pytest.mark.parametrize("name", list(BAD_MATPOWER))
def test_bad_matpower_exits_2_from_flows(name, tmp_path, capsys):
    text, fragment = BAD_MATPOWER[name]
    path = tmp_path / "case.m"
    path.write_text(text)
    assert main(["flows", str(path)]) == 2
    assert fragment in capsys.readouterr().err


def test_switch_states_from_bool_mapping():
    states = SwitchStates.from_mapping({5: True, 3: False})
    assert (states.switches, states.closed) == ((3, 5), (False, True))


def test_matpower_without_type_3_bus_takes_lowest_id_as_slack():
    case = parse_matpower(_MATPOWER.format(base=100, x=0.1).replace("1 3 0;", "1 1 0;"))
    assert to_grid(case).slack == 1


def test_readers_take_streams():
    grid = triangle()
    assert grid_from_json(io.StringIO(grid_to_json(grid))) == grid
    m = read_factors(io.StringIO("branch,bus1\n7,0.25\n"))
    assert (m.row_labels, m.col_labels, m.values.tolist()) == ((7,), (1,), [[0.25]])


def test_shift_vector_reads_grid_or_override():
    assert shift_vector(_PST_GRID).tolist() == [0.0, 0.0, 0.0]
    assert shift_vector(_PST_GRID, {2: 0.1}).tolist() == [0.0, 0.1, 0.0]


def test_dir_lists_the_public_names():
    assert set(gridfactors.__all__) <= set(dir(gridfactors))
