import itertools
import json
from dataclasses import replace

import numpy as np
import pytest

from gridfactors import (
    BranchDelta,
    DegenerateSwitchError,
    Grid,
    GridStructureError,
    IslandingError,
    ModificationSet,
    SplitSpec,
    SwitchKernel,
    SwitchStates,
    build_grounded_system,
    compute_flows,
    merge_inverse,
    multi_merge_inverse,
    multi_ptdf,
    multi_split_inverse,
    pad_inverse,
    ptdf_matrix,
    random_grid,
    rebuild_and_solve,
    solve_flow,
    split_inverse,
    system_from_inverse,
    updated_inverse,
    woodbury_update,
    xi_from_states,
)

from conftest import add_switches, four_cycle, rel_fro, sweep_grid, triangle


def test_single_entry_reduces_to_sherman_morrison(small_grids):
    grid = small_grids[2]
    sys = build_grounded_system(grid)
    br = grid.branches[1]
    d = 0.7 * br.susceptance
    a = woodbury_update(sys, ModificationSet(entries=((br.id, d),)))
    b = updated_inverse(sys, BranchDelta(branch=br.id, delta_b=d))
    assert np.abs(a - b).max() < 1e-12


def test_empty_set_returns_reference():
    sys = build_grounded_system(triangle())
    out = woodbury_update(sys, ModificationSet(entries=()))
    assert out is sys.B_inv
    out = woodbury_update(sys, ModificationSet(entries=((1, 0.0),)))
    assert out is sys.B_inv


def test_duplicate_branch_ids_rejected():
    with pytest.raises(GridStructureError, match="duplicate"):
        ModificationSet(entries=((1, 0.5), (1, -0.5)))


def test_double_outage_islands_four_cycle():
    grid = four_cycle()
    sys = build_grounded_system(grid)
    mods = ModificationSet(entries=((1, -1.0), (3, -1.0)))  # opposite edges
    with pytest.raises(IslandingError):
        woodbury_update(sys, mods)


def test_three_random_deltas_match_oracle(ww_grid, ww_sys):
    rng = np.random.default_rng(0)
    picks = rng.choice(ww_grid.n_branches, size=3, replace=False)
    entries = tuple(
        (ww_grid.branches[int(i)].id, float(rng.uniform(-0.5, 0.8)) *
         ww_grid.branches[int(i)].susceptance)
        for i in picks
    )
    got = woodbury_update(ww_sys, ModificationSet(entries=entries))
    ref = rebuild_and_solve(ww_grid, deltas=entries).B_inv
    assert rel_fro(got, ref) < 1e-8


def test_multi_ptdf_empty_set_is_baseline(ww_sys):
    base = ptdf_matrix(ww_sys)
    got = multi_ptdf(ww_sys, ModificationSet(entries=()))
    np.testing.assert_allclose(got.values, base.values, atol=1e-14)


def test_double_outage_flows_match_oracle(small_grids):
    rng = np.random.default_rng(9)
    checked = 0
    for grid in small_grids[:30]:
        sys = build_grounded_system(grid)
        picks = rng.choice(grid.n_branches, size=2, replace=False)
        entries = tuple(
            (grid.branches[int(i)].id, -grid.branches[int(i)].susceptance)
            for i in picks
        )
        try:
            ptdf_m = multi_ptdf(sys, ModificationSet(entries=entries))
            ref = rebuild_and_solve(grid, deltas=entries)
        except IslandingError:
            continue
        flows = ptdf_m.values @ sys.reduce(grid.injections())
        np.testing.assert_allclose(flows, ref.flow.flows, atol=1e-8)
        checked += 1
    assert checked >= 6


def test_outage_plus_closing_matches_sequential():
    # the simultaneous set is order-free; applying one at a time must close
    # the chord first, since on the open ring every line is a bridge
    grid = four_cycle(missing=(4, 1))
    sys = build_grounded_system(grid)
    combined = woodbury_update(
        sys, ModificationSet(entries=((2, -1.0), (4, 1.5)))
    )
    step1 = updated_inverse(sys, BranchDelta(branch=4, delta_b=1.5))
    from gridfactors import rebuild_grid

    grid1 = rebuild_grid(grid, deltas=[(4, 1.5)])
    sys1 = system_from_inverse(grid1, step1)
    step2 = updated_inverse(sys1, BranchDelta(branch=2, delta_b=-1.0))
    assert np.abs(combined - step2).max() < 1e-9


def test_order_independence():
    grid = random_grid(12, 14, 2.6)
    sys = build_grounded_system(grid)
    entries = [(1, 0.4), (4, -0.3), (7, 0.9)]
    a = woodbury_update(sys, ModificationSet(entries=tuple(entries)))
    b = woodbury_update(sys, ModificationSet(entries=tuple(reversed(entries))))
    assert np.abs(a - b).max() < 1e-12


# --- multi-switch merges -------------------------------------------------------


def test_xi_values_are_exactly_binary(small_grids):
    grid, sids = add_switches(small_grids[4], [(1, 4), (2, 5)])
    sys = build_grounded_system(grid)
    states = SwitchStates(switches=sids, closed=(True, False))
    xi = xi_from_states(sys, states)
    assert set(xi.tolist()) <= {0.0, 1.0}
    np.testing.assert_array_equal(xi, [1.0, 0.0])


def test_finite_b_closure_variable_near_one(small_grids):
    grid, sids = add_switches(small_grids[4], [(1, 4)])
    sys = build_grounded_system(grid)
    kernel = SwitchKernel(sys, sids)
    q = kernel.K_d[0]
    b = 1e8
    xi_finite = b * q / (1.0 + b * q)
    assert abs(xi_finite - 1.0) < 1e-6


def test_all_open_returns_reference(small_grids):
    grid, sids = add_switches(small_grids[4], [(1, 4), (2, 5)])
    sys = build_grounded_system(grid)
    states = SwitchStates(switches=sids, closed=(False, False))
    out = multi_merge_inverse(sys, states)
    assert out is sys.B_inv


def test_one_closed_switch_equals_single_merge(small_grids):
    grid, sids = add_switches(small_grids[6], [(2, 6)])
    sys = build_grounded_system(grid)
    states = SwitchStates(switches=sids, closed=(True,))
    a = multi_merge_inverse(sys, states)
    b = merge_inverse(sys, sids[0])
    assert np.abs(a - b).max() < 1e-10


def test_all_settings_match_large_b_oracle():
    grid = random_grid(14, 10, 2.4)
    grid, sids = add_switches(grid, [(1, 5), (2, 7), (3, 9)])
    sys = build_grounded_system(grid)
    kernel = SwitchKernel(sys, sids)
    for bits in itertools.product((False, True), repeat=3):
        states = SwitchStates(switches=sids, closed=bits)
        got = kernel.merged_inverse(states)
        ref = rebuild_and_solve(
            grid,
            closed_switches=[s for s, c in zip(sids, bits) if c],
            large_b=1e9,
        ).B_inv
        assert rel_fro(got, ref) < 1e-5


def test_redundant_closing_diagnosed():
    # two switches in parallel across the same pair: closing both is redundant
    grid, sids = add_switches(triangle(), [(1, 2), (1, 2)])
    sys = build_grounded_system(grid)
    states = SwitchStates(switches=sids, closed=(True, True))
    with pytest.raises(DegenerateSwitchError, match="redundant"):
        multi_merge_inverse(sys, states)


# --- multi-coupler splits ------------------------------------------------------


def test_single_split_specializes_multi_form(ww_sys):
    split = SplitSpec(
        parent_bus=5, assignments={3: "new", 8: "new"}, new_bus=7,
        injection_to_new=-0.7,
    )
    tri = pad_inverse(ww_sys, split)
    a = split_inverse(tri)
    b = multi_split_inverse(tri)
    assert np.abs(a - b).max() < 1e-12


def test_two_simultaneous_splits_match_oracle():
    rng = np.random.default_rng(1)
    checked = 0
    for seed in range(14):
        grid = random_grid(seed + 40, 12, 2.8)
        sys = build_grounded_system(grid)
        busy = [b.id for b in grid.buses if len(grid.branches_at(b.id)) >= 3]
        if len(busy) < 2:
            continue
        splits = []
        for parent in busy[:2]:
            incident = [br.id for br in grid.branches_at(parent)]
            take = incident[: max(1, len(incident) // 2)]
            splits.append(
                SplitSpec(
                    parent_bus=parent,
                    assignments={i: "new" for i in take},
                    injection_to_new=grid.bus(parent).injection / 2,
                )
            )
        tri = pad_inverse(sys, splits)
        try:
            got = multi_split_inverse(tri)
            ref = rebuild_and_solve(grid, splits=splits)
        except IslandingError:
            continue
        assert rel_fro(got, ref.B_inv) < 1e-7
        checked += 1
    assert checked >= 5


def test_combined_splits_island_while_each_alone_succeeds():
    # 4-cycle: splitting buses 2 and 4 on opposite sides cuts the ring
    grid = four_cycle()
    sys = build_grounded_system(grid)
    split2 = SplitSpec(parent_bus=2, assignments={2: "new"})  # branch (2,3)
    split4 = SplitSpec(parent_bus=4, assignments={4: "new"})  # branch (4,1)
    for lone in (split2, split4):
        tri = pad_inverse(sys, lone)
        multi_split_inverse(tri)  # does not raise
    tri = pad_inverse(sys, [split2, split4])
    with pytest.raises(IslandingError):
        multi_split_inverse(tri)


def test_cascaded_split_of_new_bus():
    # split a bus, then split the newly created bus again
    grid = random_grid(51, 10, 3.0)
    sys = build_grounded_system(grid)
    parent = max(
        (b.id for b in grid.buses),
        key=lambda bid: len(grid.branches_at(bid)),
    )
    incident = [br.id for br in grid.branches_at(parent)]
    if len(incident) < 4:
        pytest.skip("sample too sparse")
    first = SplitSpec(
        parent_bus=parent,
        assignments={i: "new" for i in incident[:3]},
        new_bus=100,
        injection_to_new=grid.bus(parent).injection,
    )
    second = SplitSpec(
        parent_bus=100,
        assignments={incident[0]: "new"},
        new_bus=101,
        injection_to_new=0.0,
    )
    tri = pad_inverse(sys, [first, second])
    try:
        got = multi_split_inverse(tri)
        ref = rebuild_and_solve(grid, splits=[first, second])
    except IslandingError:
        pytest.skip("cascade islanded this sample")
    assert rel_fro(got, ref.B_inv) < 1e-7


# --- closure solves on the angles ----------------------------------------------


def _sweep(grid, sids):
    """Kernel, reference angles and shifts for sweeping one switch list."""
    sys = build_grounded_system(grid)
    shifts = grid.shift_angles()
    return sys, SwitchKernel(sys, sids), solve_flow(sys).angles, shifts


@pytest.mark.parametrize("seed", [3, 8, 21, 34])
def test_merged_angles_match_inverse_route_and_rebuild(seed):
    grid, sids = sweep_grid(seed, 14)
    sys, kernel, theta0, shifts = _sweep(grid, sids)
    switch_cols = [grid.branch_index[s] for s in sids]
    solved = 0
    for bits in itertools.product((False, True), repeat=len(sids)):
        states = SwitchStates(switches=sids, closed=bits)
        try:
            theta, y = kernel.merged_angles(states, theta0)
        except DegenerateSwitchError as exc:
            with pytest.raises(DegenerateSwitchError) as again:
                kernel.merged_inverse(states)
            assert str(again.value) == str(exc)
            continue
        flows = compute_flows(sys, theta, shifts).flows

        via_inverse = solve_flow(system_from_inverse(grid, kernel.merged_inverse(states)))
        np.testing.assert_allclose(theta, via_inverse.angles, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(flows, via_inverse.flows, rtol=1e-9, atol=1e-12)

        flows[switch_cols] = y
        ref = rebuild_and_solve(
            grid, closed_switches=[s for s, c in zip(sids, bits) if c]
        )
        np.testing.assert_allclose(theta, ref.flow.angles, rtol=0, atol=1e-5)
        np.testing.assert_allclose(flows, ref.flow.flows, rtol=0, atol=1e-5)
        solved += 1
    assert solved == 12  # the 4 settings closing both parallel switches raise


def test_merged_angles_all_open_returns_reference():
    grid, sids = sweep_grid(5, 12)
    _, kernel, theta0, _ = _sweep(grid, sids)
    states = SwitchStates(switches=sids, closed=(False,) * len(sids))
    theta, y = kernel.merged_angles(states, theta0)
    np.testing.assert_array_equal(theta, theta0)
    np.testing.assert_array_equal(y, np.zeros(len(sids)))


def test_merged_angles_redundant_triangle_raises_like_inverse():
    grid, sids = add_switches(triangle(), [(1, 2), (2, 3), (1, 3)])
    _, kernel, theta0, _ = _sweep(grid, sids)
    states = SwitchStates(switches=sids, closed=(True, True, True))
    with pytest.raises(DegenerateSwitchError, match="redundant") as got:
        kernel.merged_angles(states, theta0)
    with pytest.raises(DegenerateSwitchError) as want:
        kernel.merged_inverse(states)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("seed", [3, 13, 55])
def test_merged_angles_switch_flows_equal_kcl_recovery(seed):
    from gridfactors.cli import _closed_switch_flows

    grid, sids = sweep_grid(seed, 16)
    sys, kernel, theta0, shifts = _sweep(grid, sids)
    checked = 0
    for bits in itertools.product((False, True), repeat=len(sids)):
        closed = [s for s, c in zip(sids, bits) if c]
        try:
            theta, y = kernel.merged_angles(SwitchStates(sids, bits), theta0)
        except DegenerateSwitchError:
            continue
        flows = compute_flows(sys, theta, shifts).flows
        kcl = _closed_switch_flows(grid, grid.injections(), flows, closed)
        for k, s in enumerate(sids):
            want = kcl.get(s, 0.0)
            assert y[k] == pytest.approx(want, rel=1e-9, abs=1e-12), (bits, s)
        checked += len(closed)
    assert checked >= 6


# --- scale of the susceptances -------------------------------------------------


def _scaled(grid, c):
    """``b -> c b`` with shifts ``t -> t / c``: angles scale by 1/c, flows stay."""
    return Grid(
        buses=grid.buses,
        branches=tuple(
            replace(br, susceptance=br.susceptance * c, shift_angle=br.shift_angle / c)
            for br in grid.branches
        ),
    )


def _enumerate_rows(grid, sids, tmp_path, capsys):
    from gridfactors import grid_to_json
    from gridfactors.cli import main

    path = tmp_path / "sweep.json"
    path.write_text(grid_to_json(grid))
    doc = json.dumps({"switches": {str(s): "closed" for s in sids}})
    assert main(["whatif", str(path), "--mods", doc, "--enumerate", "--format", "jsonl"]) == 0
    return [json.loads(ln) for ln in capsys.readouterr().out.splitlines()]


def test_switch_closures_do_not_depend_on_the_susceptance_scale(tmp_path, capsys):
    # the transfer impedances K_d scale as 1/b: a degeneracy test that is
    # absolute in K_d flags every switch once all susceptances are 1e12 times larger
    grid, sids = sweep_grid(3, 60)
    ref = _enumerate_rows(grid, sids, tmp_path, capsys)
    assert sum(r["islands"] for r in ref) == 4
    redundant = SwitchStates(switches=sids, closed=(True,) * len(sids))
    for c in (1e-12, 1.0, 1e12):
        scaled = _scaled(grid, c)
        rows = _enumerate_rows(scaled, sids, tmp_path, capsys)
        assert [r["setting"] for r in rows] == [r["setting"] for r in ref]
        assert [r["islands"] for r in rows] == [r["islands"] for r in ref]
        for row, want in zip(rows, ref):
            if not want["islands"]:
                assert row["max_flow"] == pytest.approx(want["max_flow"], rel=1e-9)
        sys_c = build_grounded_system(scaled)
        with pytest.raises(DegenerateSwitchError) as got:
            SwitchKernel(sys_c, sids).merged_angles(redundant, solve_flow(sys_c).angles)
        assert str(got.value) == (
            f"closing switch {sids[-1]} is redundant: its terminals are already "
            "merged through other closed switches"
        )
        B_m = merge_inverse(sys_c, sids[1])
        assert np.abs(B_m @ sys_c.nu(sids[1])).max() <= 1e-9 * np.abs(B_m).max()
