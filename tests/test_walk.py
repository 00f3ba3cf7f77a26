"""Islanding and redundant closings decided by graph structure, and the
relative zero thresholds next to them.

One iterative walk (``grid_model._walk``) gives a graph's components and
bridges. The outage flags, the staged ``whatif`` exit codes, the redundant
closings of a modification set and the split routes read it, so they stay
exact however widely the susceptances spread inside one grid; the numerical
guards behind it only refuse ill-conditioned updates of connected grids.
"""
import contextlib
import io
import json
import math
import sys
import tempfile
from dataclasses import replace

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from gridfactors import (
    Branch,
    Bus,
    BranchDelta,
    ComposedUpdate,
    DegenerateSwitchError,
    Grid,
    GridStructureError,
    IslandingError,
    ModificationSet,
    SplitSpec,
    apply_split,
    build_grounded_system,
    connected_components,
    grid_to_json,
    lodf_column,
    outage_factors,
    pad_inverse,
    rebuild_and_solve,
    rebuild_grid,
    split_inverse,
    split_islands,
    updated_inverse,
    woodbury_update,
)
from gridfactors.cli import main

from conftest import add_switches, rel_fro, triangle, two_bus
from test_reduction_property import reducible_grids
from test_sweep_property import _redundant


def _cli(grid, *args):
    """Exit code, stdout and stderr of one in-process CLI call on ``grid``."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/grid.json"
        with open(path, "w") as fh:
            fh.write(grid_to_json(grid))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([args[0], path, *args[1:]])
    return code, out.getvalue(), err.getvalue()


def _cuts(grid, branch_id):
    return len(connected_components(grid, [branch_id])) > 1


# --- the relative zero thresholds -------------------------------------------------


def test_outage_one_ulp_past_a_large_susceptance_is_accepted():
    # db = -(b k)/k rounds to one ulp below -b: far inside the roundoff of b
    b, k = 3e6, 81 / 7
    db = -(b * k) / k
    assert b + db < 0.0
    grid = triangle()
    grid = Grid(grid.buses, tuple(replace(br, susceptance=b) for br in grid.branches))
    sys_ = build_grounded_system(grid)
    ref = rebuild_and_solve(grid, deltas=[(1, -b)]).B_inv
    assert rel_fro(updated_inverse(sys_, BranchDelta(1, db)), ref) < 1e-9
    assert rel_fro(woodbury_update(sys_, ModificationSet(((1, db),))), ref) < 1e-9
    assert rebuild_grid(grid, deltas=[(1, db)]).branch(1).susceptance == 0.0


def test_overdrawn_tiny_susceptance_is_rejected():
    # -5e-13 on b = 1e-14 leaves -4.9e-13: fifty times the susceptance itself
    sys_ = build_grounded_system(two_bus(b=1e-14))
    calls = (
        lambda: updated_inverse(sys_, BranchDelta(1, -5e-13)),
        lambda: woodbury_update(sys_, ModificationSet(((1, -5e-13),))),
        lambda: rebuild_grid(sys_.grid, deltas=[(1, -5e-13)]),
    )
    for call in calls:
        with pytest.raises(GridStructureError, match="susceptance would become negative"):
            call()


@pytest.mark.parametrize("scale", [1.0, 1000.0])
def test_split_of_a_bus_carrying_the_grids_injection_scale_needs_its_share(scale):
    # injections of +-5e-10 are the whole injection scale of this grid, not roundoff
    p = 5e-10 * scale
    buses = (Bus(1, p), Bus(2, -p), Bus(3, 0.0, is_slack=True))
    grid = Grid(buses, triangle().branches)
    split = SplitSpec(parent_bus=1, assignments={1: "new"})
    with pytest.raises(GridStructureError, match="injection_to_new"):
        apply_split(grid, split)


# --- n1 on the walk -----------------------------------------------------------------


def _strong_weak_pair():
    """Lines of 1e12 and 1e-12 in parallel from the slack to bus 2, a unit line
    on to bus 3: the strong line is no bridge, but its criterion ``1 - b t``
    is below the roundoff of ``b t``."""
    buses = (Bus(1, 0.0, is_slack=True), Bus(2, 1.0), Bus(3, -1.0))
    lines = (Branch(1, 1, 2, 1e12), Branch(2, 1, 2, 1e-12), Branch(3, 2, 3, 1.0))
    return Grid(buses, lines)


def test_a_criterion_lost_to_roundoff_is_never_divided_by():
    grid = _strong_weak_pair()
    sys_ = build_grounded_system(grid)
    out = outage_factors(sys_, [0, 1, 2])
    np.testing.assert_array_equal(out.islands, [False, False, True])
    assert np.isnan(out.lodf[:, [0, 2]]).all() and np.isfinite(out.lodf[:, 1]).all()
    with pytest.raises(IslandingError, match="ill-conditioned") as info:
        lodf_column(sys_, 1)
    assert info.value.components is None
    with pytest.raises(IslandingError, match="grid without branch 3") as info:
        lodf_column(sys_, 3)
    assert info.value.components == [{1, 2}, {3}]
    code, out, _ = _cli(grid, "n1", "--format", "jsonl")
    rows = {r["branch"]: r for r in map(json.loads, out.splitlines())}
    assert code == 0 and [rows[b]["islands"] for b in (1, 2, 3)] == [False, False, True]
    assert math.isnan(rows[1]["post_max_flow"]) and math.isfinite(rows[2]["post_max_flow"])


def test_n1_after_a_switch_closed_in_parallel_does_not_flag_the_line():
    # chain 1-2-3 with a switch across (2, 3): closed, it keeps 3 connected
    # without the line, which is a bridge only while the switch is open
    buses = (Bus(1, 0.0, is_slack=True), Bus(2, 0.5), Bus(3, -0.5))
    lines = (Branch(1, 1, 2, 1.0), Branch(2, 2, 3, 2.0))
    grid, (sid,) = add_switches(Grid(buses, lines), [(2, 3)])
    doc = json.dumps({"switches": {str(sid): "closed"}})
    code, out, _ = _cli(grid, "n1", "--after", doc, "--format", "jsonl")
    assert code == 0
    rows = {r["branch"]: r for r in map(json.loads, out.splitlines())}
    assert rows[1]["islands"] and not rows[2]["islands"]
    assert math.isfinite(rows[2]["post_max_flow"])
    code, out, _ = _cli(grid, "n1", "--format", "jsonl")
    assert code == 0
    assert all(r["islands"] for r in map(json.loads, out.splitlines()))


def test_n1_on_a_chain_longer_than_the_recursion_limit():
    n = 1200
    assert n > sys.getrecursionlimit()
    buses = tuple(Bus(i, 0.0, is_slack=i == 1) for i in range(1, n + 1))
    lines = tuple(Branch(i, i, i + 1, 1.0 + i % 3) for i in range(1, n))
    code, out, _ = _cli(Grid(buses, lines), "n1", "--format", "jsonl")
    assert code == 0
    rows = [json.loads(ln) for ln in out.splitlines()]
    assert len(rows) == n - 1 and all(r["islands"] for r in rows)


# --- everything against traversal at up to 24 decades of spread ---------------------


@st.composite
def _cases(draw):
    """A grid with up to 24 decades of susceptance spread inside it, switches
    across drawn bus pairs, and a staged modification: outages or changes of
    drawn lines, some switches closed, and one split."""
    _, grid = draw(reducible_grids(max_spread=24.0))
    n = grid.n_buses
    if n < 3:
        grid = Grid(grid.buses + (Bus(n + 1),), grid.branches + (
            Branch(max(grid.branch_ids) + 1, n, n + 1, grid.branches[0].susceptance),))
        n += 1
    pair = st.tuples(st.integers(1, n), st.integers(1, n)).filter(lambda t: t[0] != t[1])
    grid, sids = add_switches(grid, draw(st.lists(pair, min_size=1, max_size=4)))
    lines = [br for br in grid.branches if br.in_service]
    picked = draw(st.lists(st.sampled_from(lines), max_size=2, unique_by=lambda br: br.id))
    factors = st.sampled_from([-1.0, -1.0, -0.5, 2.0])
    deltas = [(br.id, draw(factors) * br.susceptance) for br in picked]
    closed = [s for s in sids if draw(st.booleans())]
    parent = draw(st.integers(1, n))
    incident = [br.id for br in grid.branches_at(parent)]
    moved = draw(st.lists(st.sampled_from(incident), min_size=1, unique=True))
    split = SplitSpec(parent_bus=parent, assignments={b: "new" for b in moved})
    return grid, sids, deltas, closed, split


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(case=_cases())
def test_flags_and_exit_codes_agree_with_traversal(case):
    grid, sids, deltas, closed, split = case
    sys_ = build_grounded_system(grid)

    # n1: every flag is the bridge test, exactly
    code, out, err = _cli(grid, "n1", "--format", "jsonl")
    assert code == 0, err
    for row in map(json.loads, out.splitlines()):
        assert row["islands"] == _cuts(grid, row["branch"]), row

    # a redundant closing: closed switches that form a cycle on the final grid
    redundant = _redundant(rebuild_grid(grid, splits=[split]), closed)
    up = ComposedUpdate(sys_, deltas, {s: s in closed for s in sids}, [split])
    try:
        up.flows()
        raised = None
    except (DegenerateSwitchError, IslandingError) as exc:
        raised = exc
    assert isinstance(raised, DegenerateSwitchError) == redundant, raised

    # staged whatif: exit 4 exactly when the final grid is disconnected
    final = rebuild_grid(grid, deltas=deltas, closed_switches=closed, splits=[split])
    disconnected = len(connected_components(final)) > 1
    doc = json.dumps({
        "deltas": [{"branch": b, "db": d} for b, d in deltas],
        "switches": {str(s): "closed" if s in closed else "open" for s in sids},
        "splits": [{"parent": split.parent_bus,
                    "assignments": {str(b): "new" for b in split.assignments}}],
    })
    code, _, err = _cli(grid, "whatif", "--mods", doc)
    if redundant:
        assert code == 1 and "redundant" in err
    else:
        assert (code == 4) == disconnected, (code, err)
        assert code in (0, 4) or "ill-conditioned" in err, (code, err)

    # a single split on the base grid: no islanding split passes unflagged
    tri = pad_inverse(sys_, split)
    if len(connected_components(apply_split(grid, split))) > 1:
        assert split_islands(tri)[0]
        with pytest.raises(IslandingError) as info:
            split_inverse(tri)
        assert info.value.components is not None
