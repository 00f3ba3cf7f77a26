"""The idle-bus route's tie: each split's new bus is tied to the slack at the
susceptance that split moves, so the route accepts a split on a grid whose
susceptances spread over many decades, and agrees with the rebuild there."""
import json
from dataclasses import replace

import numpy as np
import pytest

from gridfactors import (
    Branch,
    ComposedUpdate,
    Grid,
    IslandingError,
    SplitSpec,
    build_grounded_system,
    grid_to_json,
    idle_bus_split,
    random_grid,
    rebuild_and_solve,
    rebuild_grid,
    solve_flow,
)
from gridfactors.cli import apply_modifications, main

from conftest import rel_fro

# the paper's Fig. 1 split, as a SplitSpec and as a modification document
_SPLIT = SplitSpec(5, {3: "new", 8: "new"}, new_bus=7, injection_to_new=-0.7)
_DOC = json.dumps({"splits": [{"parent": 5, "assignments": {"3": "new", "8": "new"},
                               "new_bus": 7, "injection_to_new": -0.7}]})


@pytest.fixture()
def stiff_grid(ww_grid):
    """case6ww plus one line 1e6 times stiffer than the others, across buses 2 and 4."""
    return Grid(ww_grid.buses, ww_grid.branches + (Branch(100, 2, 4, 1e6),))


def _rel(got, want):
    return np.abs(np.asarray(got) - want).max() / np.abs(want).max()


def _jsonl(argv, capsys):
    assert main([*argv, "--format", "jsonl"]) == 0, capsys.readouterr().err
    return [json.loads(line) for line in capsys.readouterr().out.splitlines()]


def test_stiff_line_split_matches_the_rebuild(stiff_grid):
    sys = build_grounded_system(stiff_grid)
    ref = rebuild_and_solve(stiff_grid, splits=[_SPLIT])
    assert rel_fro(idle_bus_split(sys, _SPLIT), ref.B_inv) < 1e-9
    assert _rel(ComposedUpdate(sys, splits=[_SPLIT]).flows(), ref.flow.flows) < 1e-9


def test_stiff_line_split_through_whatif_and_n1_after(stiff_grid, tmp_path, capsys):
    path, rebuilt = tmp_path / "stiff.json", tmp_path / "rebuilt.json"
    path.write_text(grid_to_json(stiff_grid))
    rebuilt.write_text(grid_to_json(rebuild_grid(stiff_grid, splits=[_SPLIT])))

    ref = rebuild_and_solve(stiff_grid, splits=[_SPLIT]).flow.flows
    rows = _jsonl(["whatif", str(path), "--mods", _DOC], capsys)
    assert _rel([r["post"] for r in rows], ref) < 1e-9

    _, sys_after = apply_modifications(stiff_grid, json.loads(_DOC))  # n1 --after's base case
    assert _rel(solve_flow(sys_after).flows, ref) < 1e-9
    got = {r["branch"]: r for r in _jsonl(["n1", str(path), "--after", _DOC], capsys)}
    want = {r["branch"]: r for r in _jsonl(["n1", str(rebuilt)], capsys)}
    assert got.keys() == want.keys()
    for bid, r in want.items():  # an outage's LODF amplifies roundoff by 1/criterion
        assert got[bid]["islands"] == r["islands"]
        assert got[bid]["criterion"] == pytest.approx(r["criterion"], abs=1e-9)
        rel = 1e-9 / r["criterion"]
        assert got[bid]["post_max_flow"] == pytest.approx(r["post_max_flow"], rel=rel)


def _spread_split(seed, decades):
    """Seeded grid of 8-29 buses with susceptances spread over ``decades``, and a
    split of a non-slack bus moving a random non-empty proper subset of its branches."""
    rng = np.random.default_rng(seed)
    grid = random_grid(seed, int(rng.integers(8, 30)), 2.4)
    grid = Grid(grid.buses, tuple(replace(br, susceptance=10 ** (decades * rng.random()))
                                  for br in grid.branches))
    parent = int(rng.choice([b.id for b in grid.buses
                             if not b.is_slack and len(grid.branches_at(b.id)) >= 2]))
    incident = [br.id for br in grid.branches_at(parent)]
    moved = rng.choice(incident, size=int(rng.integers(1, len(incident))), replace=False)
    return grid, SplitSpec(parent, {int(b): "new" for b in moved},
                           injection_to_new=0.5 * grid.bus(parent).injection)


@pytest.mark.parametrize("decades, max_refused, tol", [(6, 0, 1e-7), (8, 10, 1e-6)])
def test_spread_splits_are_accepted_and_match_the_rebuild(decades, max_refused, tol):
    connected, refused, worst = 0, 0, 0.0
    for seed in range(400):
        if (4, 6, 8)[seed % 3] != decades:
            continue
        grid, split = _spread_split(seed, decades)
        try:
            ref = rebuild_and_solve(grid, splits=[split]).flow.flows
        except IslandingError:  # the open grid is disconnected
            continue
        connected += 1
        try:
            f = ComposedUpdate(build_grounded_system(grid), splits=[split]).flows()
        except IslandingError:
            refused += 1
            continue
        worst = max(worst, _rel(f, ref))
    assert connected > 100
    assert refused <= max_refused and worst <= tol, (refused, worst)
