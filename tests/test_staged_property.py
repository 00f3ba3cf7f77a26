"""Property test of the staged ``whatif`` pipeline against the rebuild oracle."""
import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from gridfactors import (
    DegenerateSwitchError,
    IslandingError,
    SplitSpec,
    connected_components,
    random_grid,
    rebuild_and_solve,
    rebuild_grid,
    solve_flow,
)
from gridfactors.cli import apply_modifications

from conftest import add_switches
from test_sweep_property import _redundant


@st.composite
def _staged_cases(draw):
    """A small grid with switches, and line deltas, closings and one split on it."""
    n = draw(st.integers(4, 12))
    grid = random_grid(draw(st.integers(0, 10_000)), n, draw(st.sampled_from([2.4, 3.2, 4.0])))
    pair = st.tuples(st.integers(1, n), st.integers(1, n)).filter(lambda t: t[0] != t[1])
    grid, sids = add_switches(grid, draw(st.lists(pair, min_size=1, max_size=3)))
    lines = [br for br in grid.branches if br.kind != "switch"]
    picked = draw(st.lists(st.sampled_from(lines), max_size=2, unique_by=lambda br: br.id))
    factors = st.sampled_from([-1.0, -0.5, 0.7])
    deltas = [(br.id, draw(factors) * br.susceptance) for br in picked]
    closed = [s for s in sids if draw(st.booleans())]
    parent = draw(st.integers(1, n))
    incident = [br.id for br in grid.branches_at(parent)]
    moved = draw(st.lists(st.sampled_from(incident), min_size=1, unique=True)) if incident else []
    split = SplitSpec(
        parent_bus=parent, assignments={b: "new" for b in moved},
        injection_to_new=draw(st.sampled_from([0.0, 0.5])) * grid.bus(parent).injection,
    )
    return grid, sids, deltas, closed, split


def _doc(sids, deltas, closed, split):
    return {
        "deltas": [{"branch": b, "db": d} for b, d in deltas],
        "switches": {str(s): "closed" if s in closed else "open" for s in sids},
        "splits": [{
            "parent": split.parent_bus,
            "assignments": {str(b): side for b, side in split.assignments.items()},
            "injection_to_new": split.injection_to_new,
        }],
    }


def _islands(grid, **mods):
    return len(connected_components(rebuild_grid(grid, **mods))) > 1


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(case=_staged_cases())
def test_staged_pipeline_agrees_with_rebuild_or_raises_exactly(case):
    grid, sids, deltas, closed, split = case
    doc = _doc(sids, deltas, closed, split)
    # the stages run in order on one inverse, each on a connected grid:
    # the deltas; the closings off the coupler (none redundant); the split;
    # the closings at a non-slack parent or moved to the new bus, on the
    # split grid's switch ends
    parent, slack = split.parent_bus, grid.slack
    early = [
        s for s in closed
        if parent not in (grid.branch(s).from_bus, grid.branch(s).to_bus)
        or (parent == slack and s not in split.assignments)
    ]
    if _islands(grid, deltas=deltas) or (
        not _redundant(grid, early)
        and _islands(grid, deltas=deltas, closed_switches=early, splits=[split])
    ):
        with pytest.raises(IslandingError):
            apply_modifications(grid, doc)
        return
    if _redundant(grid, early) or _redundant(rebuild_grid(grid, splits=[split]), closed):
        with pytest.raises(DegenerateSwitchError):
            apply_modifications(grid, doc)
        return
    grid_m, sys_m = apply_modifications(grid, doc)
    got = solve_flow(sys_m)
    # closed switches are emulated by 1e9 lines, good to about 1e-5
    ref = rebuild_and_solve(grid, deltas=deltas, closed_switches=closed, splits=[split])
    assert grid_m.branch_ids == ref.grid.branch_ids
    assert sys_m.bus_ids == ref.sys.bus_ids
    scale = max(1.0, np.abs(ref.flow.angles).max())
    np.testing.assert_allclose(got.angles, ref.flow.angles, rtol=0, atol=1e-5 * scale)
    lines = [e for e, br in enumerate(grid_m.branches) if br.id not in closed]
    scale = max(1.0, np.abs(ref.flow.flows).max())
    np.testing.assert_allclose(got.flows[lines], ref.flow.flows[lines], rtol=0, atol=1e-5 * scale)
