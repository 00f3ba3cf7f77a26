"""One verdict on a degenerate closing: a switch with no transfer impedance
left in the reference, closed by any route, is the ill-conditioned case
(IslandingError without components, exit 1), and the sweep flags exactly
the settings that close it."""
import json

import numpy as np
import pytest

from gridfactors import (
    Branch,
    Bus,
    ComposedUpdate,
    Grid,
    IslandingError,
    SwitchKernel,
    SwitchStates,
    build_grounded_system,
    grid_to_json,
    merge_inverse,
    switch_flow,
)
from gridfactors.cli import main
from gridfactors.factors_base import _LowRank


def _stiff_grid():
    """Buses 1 (slack) to 4 on a ring of unit lines, line 11 (2-3) at b 1e12;
    switch 20 parallels line 11, switch 21 runs 1-3."""
    buses = (Bus(1, 0.0, is_slack=True), Bus(2, 0.5), Bus(3, -0.2), Bus(4, -0.3))
    branches = (
        Branch(10, 1, 2, 1.0),
        Branch(11, 2, 3, 1e12),
        Branch(12, 3, 4, 1.0),
        Branch(13, 4, 1, 1.0),
        Branch(20, 2, 3, 0.0, kind="switch"),
        Branch(21, 1, 3, 0.0, kind="switch"),
    )
    return Grid(buses=buses, branches=branches)


@pytest.fixture
def stiff_sys():
    return build_grounded_system(_stiff_grid())


@pytest.fixture
def stiff_path(tmp_path):
    path = tmp_path / "stiff.json"
    path.write_text(grid_to_json(_stiff_grid()))
    return str(path)


def _refuses_as_ill_conditioned(call):
    with pytest.raises(IslandingError, match="closing switch 20: .*ill-conditioned") as got:
        call()
    assert got.value.components is None


def test_degenerate_is_the_low_rank_kernel_flag(stiff_sys):
    kernel = SwitchKernel(stiff_sys, (20, 21))
    assert kernel.degenerate.tolist() == [True, False]
    np.testing.assert_array_equal(kernel.degenerate, _LowRank(stiff_sys, kernel.cols).degenerate)
    assert "degenerate" not in vars(SwitchKernel)
    # xi judges only the states against the kernel; the closing is judged once, later
    assert kernel.xi(SwitchStates((20, 21), (True, False))).tolist() == [1.0, 0.0]


@pytest.mark.parametrize(
    "route",
    [
        lambda sys: merge_inverse(sys, 20),
        lambda sys: switch_flow(sys, 20),
        lambda sys: ComposedUpdate(sys, switches={20: True}).flows(),
        lambda sys: ComposedUpdate(sys, switches={20: True, 21: False}).inverse(),
        lambda sys: SwitchKernel(sys, (20, 21)).merged_inverse(SwitchStates((20, 21), (True, True))),
    ],
    ids=["merge_inverse", "switch_flow", "composed-flows", "composed-inverse", "kernel-setting-11"],
)
def test_every_route_refuses_closing_the_degenerate_switch(stiff_sys, route):
    _refuses_as_ill_conditioned(lambda: route(stiff_sys))


@pytest.mark.parametrize("command", [["whatif", "--mods"], ["n1", "--after"]])
def test_cli_exits_1_on_the_degenerate_closing(command, stiff_path, capsys):
    doc = json.dumps({"switches": {"20": "closed"}})
    assert main([command[0], stiff_path, command[1], doc]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: closing switch 20: "), captured.err
    assert "ill-conditioned" in captured.err and not captured.out


@pytest.mark.parametrize(
    "command, message",
    [(["whatif", "--mods"], "modification islands the grid"),
     (["n1", "--after"], "pre-modification islands the grid")],
)
def test_a_disconnected_final_grid_is_named_before_the_degenerate_closing(
    command, message, stiff_path, capsys
):
    # lines 10 and 13 out, switch 21 open: the slack bus is cut off
    doc = json.dumps({"deltas": [{"branch": 10, "db": -1}, {"branch": 13, "db": -1}],
                      "switches": {"20": "closed"}})
    assert main([command[0], stiff_path, command[1], doc]) == 4
    captured = capsys.readouterr()
    assert (captured.out + captured.err).startswith(message), captured


def test_enumerate_flags_exactly_the_settings_that_close_it(stiff_path, capsys):
    doc = json.dumps({"switches": {"20": "closed", "21": "closed"}})
    assert main(["whatif", stiff_path, "--mods", doc, "--enumerate", "--format", "jsonl"]) == 0
    rows = [json.loads(ln) for ln in capsys.readouterr().out.splitlines()]
    assert [r["setting"] for r in rows if r["islands"]] == ["10", "11"]
    assert all(np.isfinite(r["max_flow"]) for r in rows if not r["islands"])
