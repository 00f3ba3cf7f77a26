import json
from dataclasses import replace

import numpy as np
import pytest

from gridfactors import (
    Grid,
    IslandingError,
    SwitchKernel,
    ModificationSet,
    SplitSpec,
    apply_split,
    build_grounded_system,
    grid_to_json,
    outage_islands,
    pad_inverse,
    random_grid,
    solve_flow,
    split_islands,
    traversal_connectivity,
    woodbury_update,
)
from gridfactors import _linalg
from gridfactors.cli import N1_BLOCK_BYTES, main
from gridfactors.single_mod import lodf_column, outage_factors

from conftest import sweep_grid, triangle, two_bus


def test_two_bus_bridge_criterion_exact_zero():
    grid = two_bus(b=1.0, slack=2)
    sys = build_grounded_system(grid)
    islands, criterion = outage_islands(sys, 1)
    assert islands
    assert abs(criterion) <= 1e-12


def test_triangle_outage_criterion_value():
    sys = build_grounded_system(triangle())
    islands, criterion = outage_islands(sys, 1)
    assert not islands
    assert criterion == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_outage_criterion_agrees_with_traversal(small_grids):
    for grid in small_grids:
        sys = build_grounded_system(grid)
        for br in grid.branches:
            if not br.in_service:
                continue
            islands, _ = outage_islands(sys, br.id)
            comps = traversal_connectivity(grid, removed_branches=[br.id])
            assert islands == (len(comps) > 1), (
                f"criterion disagrees with traversal on branch {br.id}"
            )


def test_determinant_factorization(small_grids):
    # log det B_m = log(1 - b nu^T B^-1 nu) + log det B_r for safe outages
    for grid in small_grids[:10]:
        sys = build_grounded_system(grid)
        sign_r, logdet_r = np.linalg.slogdet(sys.B)
        assert sign_r > 0
        for br in grid.branches[:4]:
            if not br.in_service:
                continue
            islands, criterion = outage_islands(sys, br.id)
            if islands:
                continue
            from gridfactors import rebuild_and_solve

            ref = rebuild_and_solve(grid, deltas=[(br.id, -br.susceptance)])
            sign_m, logdet_m = np.linalg.slogdet(ref.sys.B)
            assert sign_m > 0
            assert logdet_m == pytest.approx(
                np.log(criterion) + logdet_r, rel=1e-6, abs=1e-8
            )


def test_split_criterion_case6ww_stays_connected(ww_sys):
    split = SplitSpec(
        parent_bus=5, assignments={3: "new", 8: "new"}, new_bus=7,
        injection_to_new=-0.7,
    )
    tri = pad_inverse(ww_sys, split)
    islands, criterion = split_islands(tri)
    assert not islands
    assert criterion > 0


def test_isolating_split_flagged(ww_sys):
    split = SplitSpec(parent_bus=5, assignments={}, injection_to_new=-0.7)
    tri = pad_inverse(ww_sys, split)
    islands, criterion = split_islands(tri)
    assert islands
    assert abs(criterion) < 1e-8


def test_split_criterion_agrees_with_traversal(small_grids):
    from gridfactors import apply_split

    rng = np.random.default_rng(77)
    disagreements = []
    for grid in small_grids:
        candidates = [b.id for b in grid.buses if len(grid.branches_at(b.id)) >= 2]
        if not candidates:
            continue
        parent = int(rng.choice(candidates))
        incident = [br.id for br in grid.branches_at(parent)]
        mask = rng.integers(0, 2, size=len(incident))
        split = SplitSpec(
            parent_bus=parent,
            assignments={
                bid: ("new" if m else "parent") for bid, m in zip(incident, mask)
            },
            injection_to_new=grid.bus(parent).injection,
        )
        sys = build_grounded_system(grid)
        tri = pad_inverse(sys, split)
        islands, _ = split_islands(tri)
        comps = traversal_connectivity(apply_split(grid, split))
        if islands != (len(comps) > 1):
            disagreements.append((parent, split.assignments))
    assert disagreements == []


def test_multi_outage_singularity_agrees_with_traversal():
    rng = np.random.default_rng(13)
    disagreements = []
    for seed in range(60):
        grid = random_grid(seed, 6 + seed % 45, 2.2)
        sys = build_grounded_system(grid)
        picks = rng.choice(grid.n_branches, size=2, replace=False)
        entries = tuple(
            (grid.branches[int(i)].id, -grid.branches[int(i)].susceptance)
            for i in picks
        )
        algebraic_islands = False
        try:
            woodbury_update(sys, ModificationSet(entries=entries))
        except IslandingError:
            algebraic_islands = True
        comps = traversal_connectivity(
            grid, removed_branches=[b for b, _ in entries]
        )
        if algebraic_islands != (len(comps) > 1):
            disagreements.append((seed, entries))
    assert disagreements == []


def test_traversal_component_examples():
    assert traversal_connectivity(triangle()) == [{1, 2, 3}]
    assert traversal_connectivity(triangle(), removed_branches=[1, 2]) == [
        {1, 3},
        {2},
    ]


def test_case6ww_bus1_isolated_by_removing_incident_branches(ww_grid):
    incident = [br.id for br in ww_grid.branches_at(1)]
    comps = traversal_connectivity(ww_grid, removed_branches=incident)
    assert {1} in comps
    assert len(comps) == 2


def test_outage_flags_a_bridge_at_24_decades_of_spread():
    # slack -(1e-12)- bus 2 -(1e12)- bus 3: both lines are bridges. B^-1 at
    # bus 3 is 1e12 + 1e-12, which rounds to 1e12, so the strong line's
    # transfer impedance cancels to 0 and its criterion reads 1
    from gridfactors import Branch, Bus, Grid

    grid = Grid(
        buses=(Bus(1, 0.0, True), Bus(2, 1.0), Bus(3, -1.0)),
        branches=(Branch(1, 1, 2, 1e-12), Branch(2, 2, 3, 1e12)),
    )
    sys = build_grounded_system(grid)
    assert outage_islands(sys, 1)[0]
    assert outage_islands(sys, 2)[0]


def _seven_decade_split():
    """``random_grid(375294, 8, 2.4)`` with susceptances spread over seven
    decades, split at bus 2 so that traversal finds two islands: {1, 3, 5, 9}
    and {2, 4, 6, 7, 8}."""
    b = {
        1: 0.0001163346612314459, 2: 225.07257195369246, 3: 0.10902863248671912,
        4: 27.945729802767246, 5: 0.3712184314550708, 6: 0.9194254412012106,
        7: 816.097012660039, 8: 0.14307120102327997, 9: 0.0006511531894644667,
    }
    grid = random_grid(375294, 8, 2.4)
    grid = Grid(grid.buses, tuple(replace(br, susceptance=b[br.id]) for br in grid.branches))
    split = SplitSpec(
        parent_bus=2,
        assignments={1: "new", 2: "new", 4: "new", 9: "new"},
        injection_to_new=grid.bus(2).injection / 2,
    )
    return grid, split


def test_split_flags_islands_at_seven_decades_of_spread():
    grid, split = _seven_decade_split()
    assert len(traversal_connectivity(apply_split(grid, split))) == 2
    assert split_islands(pad_inverse(build_grounded_system(grid), split))[0]


def test_whatif_flags_the_seven_decade_split_as_islanding(tmp_path, capsys):
    grid, split = _seven_decade_split()
    path = tmp_path / "grid.json"
    path.write_text(grid_to_json(grid))
    doc = {
        "splits": [
            {
                "parent": split.parent_bus,
                "assignments": {str(k): v for k, v in split.assignments.items()},
                "injection_to_new": split.injection_to_new,
            }
        ]
    }
    assert main(["whatif", str(path), "--mods", json.dumps(doc)]) == 4
    assert "islands" in capsys.readouterr().err


def _isolating_split():
    """``random_grid(66973, 5, 2.4)`` with susceptances over seven decades,
    every branch but the one to the slack moved off bus 2: traversal finds
    {2} cut off."""
    b = {
        1: 0.001564690859, 2: 0.002040075789, 3: 0.910379595967,
        4: 0.000330081613, 5: 8783.942783633467, 6: 331.492897334651,
    }
    grid = random_grid(66973, 5, 2.4)
    grid = Grid(grid.buses, tuple(replace(br, susceptance=b[br.id]) for br in grid.branches))
    split = SplitSpec(
        parent_bus=2,
        assignments={i: "new" for i in (1, 2, 3, 5, 6)},
        injection_to_new=grid.bus(2).injection / 2,
    )
    return grid, split


def test_isolating_split_raises_on_every_route():
    # split_inverse and multi_split_inverse once judged this split on two
    # different scales: one raised, the other returned entries near 1e6
    from gridfactors import multi_split_inverse, split_inverse

    grid, split = _isolating_split()
    assert {2} in traversal_connectivity(apply_split(grid, split))
    tri = pad_inverse(build_grounded_system(grid), split)
    assert split_islands(tri)[0]
    with pytest.raises(IslandingError):
        split_inverse(tri)
    with pytest.raises(IslandingError):
        multi_split_inverse(tri)


def _raises(route, tri):
    try:
        route(tri)
    except IslandingError:
        return True
    return False


@pytest.mark.parametrize("decades", [8, 10])
def test_split_routes_agree_on_islanding(decades):
    # one zero test behind every one-coupler route, at spreads where the
    # criterion itself may already be wrong
    from gridfactors import multi_split_inverse, split_inverse

    rng = np.random.default_rng(decades)
    disagreements = []
    for seed in range(100):
        grid = random_grid(seed, int(rng.integers(6, 25)), 2.4)
        b = 10.0 ** (decades * rng.uniform(size=grid.n_branches))
        grid = Grid(grid.buses, tuple(
            replace(br, susceptance=float(x)) for br, x in zip(grid.branches, b)
        ))
        parent = int(rng.choice([
            bus.id for bus in grid.buses if len(grid.branches_at(bus.id)) >= 2
        ]))
        incident = [br.id for br in grid.branches_at(parent)]
        moved = rng.permutation(incident)[: rng.integers(1, len(incident))]
        split = SplitSpec(
            parent_bus=parent,
            assignments={int(i): "new" for i in moved},
            injection_to_new=grid.bus(parent).injection / 2,
        )
        tri = pad_inverse(build_grounded_system(grid), split)
        flags = (
            split_islands(tri)[0],
            _raises(split_inverse, tri),
            _raises(multi_split_inverse, tri),
        )
        if len(set(flags)) > 1:
            disagreements.append((seed, parent, flags))
    assert disagreements == []


def test_every_refusal_reads_the_one_rule(monkeypatch):
    # the outage screen, the degenerate-switch test, the sweep, the split flag
    # and the guarded solves all judge by _linalg._refused, which reads
    # PIVOT_RTOL when called: at 1 it refuses every bracket with a pivot
    grid, sids = sweep_grid(4, 30, 3)
    sys = build_grounded_system(grid)
    pre = solve_flow(sys)
    live = np.flatnonzero((sys.b > 0.0) & ~sys.bridges)
    bus = next(b.id for b in grid.buses if len(grid.branches_at(b.id)) >= 3)
    split = SplitSpec(bus, {grid.branches_at(bus)[0].id: "new"}, injection_to_new=0.0)
    tri = pad_inverse(sys, split)
    line = grid.branches[live[0]].id
    kernel = SwitchKernel(sys, sids)
    assert np.isfinite(outage_factors(sys, live).lodf).all() and not kernel.degenerate.any()
    assert np.isfinite(lodf_column(sys, line)).all() and not split_islands(tri)[0]

    monkeypatch.setattr(_linalg, "PIVOT_RTOL", 1.0)
    assert np.isnan(outage_factors(sys, live).lodf).all()
    kernel = SwitchKernel(sys, sids)
    assert kernel.degenerate.all()
    closed, _, islands = kernel.sweep(pre.angles, pre.flows, N1_BLOCK_BYTES)
    assert np.array_equal(islands, closed.any(axis=1))
    assert split_islands(tri)[0]
    with pytest.raises(IslandingError):
        lodf_column(sys, line)
