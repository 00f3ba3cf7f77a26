"""Property test of the composed ``whatif`` update against the rebuild oracle."""
from dataclasses import replace

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from gridfactors import (
    ComposedUpdate,
    DegenerateSwitchError,
    Grid,
    IslandingError,
    SplitSpec,
    build_grounded_system,
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


def _scaled(grid, deltas, c):
    """``b -> c b`` for every branch and delta: angles scale by 1/c, flows stay."""
    branches = tuple(replace(br, susceptance=br.susceptance * c) for br in grid.branches)
    return Grid(buses=grid.buses, branches=branches), [(b, d * c) for b, d in deltas]


def _run(grid, sids, deltas, closed, split):
    """Final angles and flows of the inverse route, flows of the composed
    route (closed switches included), or the class of the error raised."""
    try:
        _, sys_m = apply_modifications(grid, _doc(sids, deltas, closed, split))
        up = ComposedUpdate(
            build_grounded_system(grid), deltas, {s: s in closed for s in sids}, [split]
        )
        return solve_flow(sys_m), up.flows()
    except (DegenerateSwitchError, IslandingError) as exc:
        return type(exc)


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(case=_staged_cases())
def test_staged_pipeline_agrees_with_rebuild_or_raises_exactly(case):
    grid, sids, deltas, closed, split = case
    got = _run(grid, sids, deltas, closed, split)
    # the exact contract: a redundant closing on the final grid; otherwise
    # islanding exactly when the rebuilt final grid is disconnected
    if _redundant(rebuild_grid(grid, splits=[split]), closed):
        assert got is DegenerateSwitchError
    elif len(connected_components(
        rebuild_grid(grid, deltas=deltas, closed_switches=closed, splits=[split])
    )) > 1:
        assert got is IslandingError
    else:
        assert not isinstance(got, type), got
        state, flows = got
        # closed switches are emulated by 1e9 lines, good to about 1e-5
        ref = rebuild_and_solve(grid, deltas=deltas, closed_switches=closed, splits=[split])
        scale = max(1.0, np.abs(ref.flow.angles).max())
        np.testing.assert_allclose(state.angles, ref.flow.angles, rtol=0, atol=1e-5 * scale)
        scale = max(1.0, np.abs(ref.flow.flows).max())
        np.testing.assert_allclose(flows, ref.flow.flows, rtol=0, atol=1e-5 * scale)
        lines = [e for e, br in enumerate(ref.grid.branches) if br.id not in closed]
        np.testing.assert_allclose(state.flows[lines], flows[lines], rtol=0, atol=1e-9 * scale)
    # scaling every susceptance changes neither the error class nor the flows
    for c in (1e-12, 1e12):
        grid_c, deltas_c = _scaled(grid, deltas, c)
        got_c = _run(grid_c, sids, deltas_c, closed, split)
        if isinstance(got, type):
            assert got_c is got, c
            continue
        assert not isinstance(got_c, type), (c, got_c)
        scale = max(1.0, np.abs(got[1]).max())
        np.testing.assert_allclose(got_c[1], got[1], rtol=0, atol=1e-9 * scale)
        scale = max(1.0, np.abs(got[0].angles).max())
        np.testing.assert_allclose(got_c[0].angles * c, got[0].angles, rtol=0, atol=1e-9 * scale)
