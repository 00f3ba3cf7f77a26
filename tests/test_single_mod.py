import warnings
from dataclasses import replace

import numpy as np
import pytest

from gridfactors import (
    BranchDelta,
    GridStructureError,
    IslandingError,
    ModificationSet,
    build_grounded_system,
    connected_components,
    lcdf_column,
    lodf_column,
    outage_factors,
    outage_islands,
    post_outage_angle_diff,
    ptdf_after_mod,
    ptdf_matrix,
    random_grid,
    rebuild_and_solve,
    rebuild_grid,
    solve_flow,
    updated_inverse,
    woodbury_update,
)

from conftest import (
    balanced_injections,
    four_cycle,
    rel_fro,
    screening_grid,
    triangle,
    two_bus,
)


def outage(grid, branch_id):
    return BranchDelta(branch=branch_id, delta_b=-grid.branch(branch_id).susceptance)


def test_zero_delta_is_identity():
    sys = build_grounded_system(triangle())
    out = updated_inverse(sys, BranchDelta(branch=1, delta_b=0.0))
    assert out is sys.B_inv


def test_triangle_outage_matches_rebuild():
    grid = triangle()
    sys = build_grounded_system(grid)
    got = updated_inverse(sys, outage(grid, 1))
    ref = rebuild_and_solve(grid, deltas=[(1, -1.0)]).B_inv
    assert np.abs(got - ref).max() < 1e-10


def test_two_bus_outage_islands():
    grid = two_bus(b=1.0, slack=2)
    sys = build_grounded_system(grid)
    with pytest.raises(IslandingError):
        updated_inverse(sys, outage(grid, 1))


def test_negative_susceptance_rejected():
    grid = triangle()
    sys = build_grounded_system(grid)
    with pytest.raises(GridStructureError):
        updated_inverse(sys, BranchDelta(branch=1, delta_b=-2.0))


def test_ptdf_after_mod_zero_delta(ww_sys):
    base = ptdf_matrix(ww_sys)
    after = ptdf_after_mod(ww_sys, BranchDelta(branch=3, delta_b=0.0))
    np.testing.assert_allclose(after.values, base.values, atol=1e-14)


def test_ptdf_after_partial_mod_matches_oracle():
    grid = triangle()
    sys = build_grounded_system(grid)
    after = ptdf_after_mod(sys, BranchDelta(branch=1, delta_b=0.5))
    oracle = rebuild_and_solve(grid, deltas=[(1, 0.5)])
    ref = ptdf_matrix(oracle.sys)
    np.testing.assert_allclose(after.values, ref.values, atol=1e-10)


def test_ptdf_after_outage_row_vanishes():
    grid = triangle()
    sys = build_grounded_system(grid)
    after = ptdf_after_mod(sys, outage(grid, 1))
    np.testing.assert_array_equal(after.row(1), 0.0)
    # remaining path makes every surviving entry 0 or +-1
    values = np.vstack([after.row(2), after.row(3)])
    distance = np.minimum.reduce(
        [np.abs(values), np.abs(values - 1.0), np.abs(values + 1.0)]
    )
    assert distance.max() < 1e-9


def test_triangle_lodf_signs():
    grid = triangle()
    sys = build_grounded_system(grid)
    col = lodf_column(sys, 1)  # outage of (1 -> 2)
    assert col[grid.branch_index[1]] == -1.0
    assert col[grid.branch_index[3]] == pytest.approx(1.0)   # (1 -> 3)
    assert col[grid.branch_index[2]] == pytest.approx(-1.0)  # (2 -> 3)


def test_lodf_reproduces_case6ww_outages(ww_grid, ww_sys):
    state = solve_flow(ww_sys)
    for br in ww_grid.branches:
        islands, _ = outage_islands(ww_sys, br.id)
        if islands:
            continue
        col = lodf_column(ww_sys, br.id)
        e = ww_grid.branch_index[br.id]
        post = state.flows + col * state.flows[e]
        ref = rebuild_and_solve(ww_grid, deltas=[(br.id, -br.susceptance)])
        np.testing.assert_allclose(post, ref.flow.flows, atol=1e-8)


def test_lodf_column_reusable_across_injections(small_grids):
    grid = small_grids[7]
    sys = build_grounded_system(grid)
    target = next(
        br.id for br in grid.branches if not outage_islands(sys, br.id)[0]
    )
    col = lodf_column(sys, target)
    ptdf = ptdf_matrix(sys)
    e = grid.branch_index[target]
    delta = [(target, -grid.branch(target).susceptance)]
    for k in range(10):
        p = balanced_injections(grid, 200 + k)
        f_r = ptdf.values @ sys.reduce(p)
        ref = rebuild_and_solve(grid, deltas=delta, p=p)
        np.testing.assert_allclose(f_r + col * f_r[e], ref.flow.flows, atol=1e-9)


def test_post_outage_angle_diff():
    grid = triangle()
    sys = build_grounded_system(grid)
    p = np.array([1.0, 0.0, -1.0])
    f_r = solve_flow(sys, p).flows
    got = post_outage_angle_diff(sys, 1, f_r)
    ref = rebuild_and_solve(grid, deltas=[(1, -1.0)], p=p)
    theta = ref.sys.expand(ref.flow.angles)
    want = theta[ref.grid.bus_index[1]] - theta[ref.grid.bus_index[2]]
    assert got == pytest.approx(want, abs=1e-10)


def test_post_outage_angle_diff_zero_flow():
    grid = triangle()
    sys = build_grounded_system(grid)
    assert post_outage_angle_diff(sys, 1, np.zeros(3)) == 0.0


def test_lcdf_endpoints_at_equal_angle_change_nothing():
    # a closed ring of equal susceptances with symmetric injections keeps
    # the open chord's terminals at the same angle
    grid = four_cycle(missing=(3, 4))
    sys = build_grounded_system(grid)
    p = np.array([1.0, -0.5, 0.0, -0.5])
    # symmetric: buses 2 and 4 load equally, chord (3,4) stays balanced
    state = solve_flow(sys, p)
    nu = sys.nu(3)
    gap = float(nu @ state.angles)
    col = lcdf_column(sys, 3, new_b=1.0)
    np.testing.assert_allclose(state.flows + col * gap, state.flows, atol=1e-12)


def test_lcdf_closing_matches_oracle():
    grid = four_cycle(missing=(4, 1))
    sys = build_grounded_system(grid)
    p = balanced_injections(grid, 11)
    state = solve_flow(sys, p)
    col = lcdf_column(sys, 4, new_b=1.0)
    gap = float(sys.nu(4) @ state.angles)
    got = state.flows + col * gap
    ref = rebuild_and_solve(grid, deltas=[(4, 1.0)], p=p)
    np.testing.assert_allclose(got, ref.flow.flows, atol=1e-10)


def test_lcdf_requires_open_branch():
    grid = triangle()
    sys = build_grounded_system(grid)
    with pytest.raises(GridStructureError, match="already in service"):
        lcdf_column(sys, 1, new_b=1.0)


def test_close_then_outage_round_trip():
    grid = four_cycle(missing=(4, 1))
    sys = build_grounded_system(grid)
    closed = updated_inverse(sys, BranchDelta(branch=4, delta_b=1.0))
    from gridfactors import system_from_inverse

    grid_closed = four_cycle()
    sys_closed = system_from_inverse(grid_closed, closed)
    reopened = updated_inverse(sys_closed, BranchDelta(branch=4, delta_b=-1.0))
    assert np.abs(reopened - sys.B_inv).max() < 1e-9


def test_oracle_equivalence_sweep(small_grids):
    rng = np.random.default_rng(42)
    for grid in small_grids[:25]:
        sys = build_grounded_system(grid)
        e = int(rng.integers(0, grid.n_branches))
        branch = grid.branches[e]
        delta = float(rng.uniform(-0.9, 1.5)) * branch.susceptance
        got = updated_inverse(sys, BranchDelta(branch=branch.id, delta_b=delta))
        ref = rebuild_and_solve(grid, deltas=[(branch.id, delta)]).B_inv
        assert rel_fro(got, ref) < 1e-8


@pytest.mark.parametrize("seed", range(6))
def test_outage_factors_match_dense_transfer_matrix(seed):
    grid = screening_grid(seed, 20 + 4 * seed)
    sys = build_grounded_system(grid)
    cols = np.arange(grid.n_branches)
    out = outage_factors(sys, cols)

    T = sys.E_r.T @ sys.B_inv @ sys.E_r  # t_e on the diagonal
    transfer = sys.b * np.diag(T)
    np.testing.assert_allclose(out.transfer, transfer, rtol=1e-10, atol=1e-12)
    np.testing.assert_allclose(out.criterion, 1.0 - transfer, atol=1e-12)

    cut = [len(connected_components(grid, removed_branches=[br.id])) > 1
           for br in grid.branches]
    np.testing.assert_array_equal(out.islands, cut)
    assert out.islands.any() and not out.islands.all()

    ok = ~out.islands
    ref = (sys.b[:, None] * T[:, ok]) / (1.0 - transfer[ok])
    ref[cols[ok], np.arange(ok.sum())] = -1.0
    np.testing.assert_allclose(out.lodf[:, ok], ref, rtol=1e-9, atol=1e-12)
    assert np.isnan(out.lodf[:, out.islands]).all()


@pytest.mark.parametrize("seed", range(4))
def test_outage_factors_block_matches_single_branch_calls(seed):
    grid = screening_grid(seed, 25, 2.2)
    sys = build_grounded_system(grid)
    live = [e for e, br in enumerate(grid.branches) if br.in_service]
    out = outage_factors(sys, live)
    for j, e in enumerate(live):
        bid = grid.branches[e].id
        islands, criterion = outage_islands(sys, bid)
        assert islands == out.islands[j]
        assert criterion == pytest.approx(out.criterion[j], rel=1e-12, abs=1e-15)
        if not islands:
            np.testing.assert_allclose(out.lodf[:, j], lodf_column(sys, bid), rtol=1e-12)


def test_outage_factors_bridge_columns_nan_without_warnings():
    grid = random_grid(5, 12, avg_degree=1.0)  # a tree: every branch is a bridge
    sys = build_grounded_system(grid)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = outage_factors(sys, np.arange(grid.n_branches))
    assert out.islands.all()
    assert np.isnan(out.lodf).all()


def test_single_outage_calls_need_no_incidence_matrix():
    grid = screening_grid(3, 30)
    sys = build_grounded_system(grid)
    lean = replace(sys, E_r=None)
    f_r = solve_flow(sys).flows
    for br in grid.branches:
        assert outage_islands(lean, br.id) == outage_islands(sys, br.id)
        if not br.in_service or outage_islands(sys, br.id)[0]:
            continue
        np.testing.assert_array_equal(lodf_column(lean, br.id), lodf_column(sys, br.id))
        assert post_outage_angle_diff(lean, br.id, f_r) == post_outage_angle_diff(sys, br.id, f_r)


@pytest.mark.parametrize("excess, rejected", [(0.5e-12, False), (2e-12, True)])
def test_susceptance_floor_is_shared(excess, rejected):
    # b + delta a little below zero is the roundoff of an exact outage, up to
    # the one floor that the single, multi and rebuild routes all apply
    sys = build_grounded_system(triangle())
    delta = -1.0 - excess
    calls = (
        lambda: updated_inverse(sys, BranchDelta(branch=1, delta_b=delta)),
        lambda: woodbury_update(sys, ModificationSet(entries=((1, delta),))),
        lambda: rebuild_grid(sys.grid, deltas=[(1, delta)]),
    )
    for call in calls:
        if rejected:
            with pytest.raises(GridStructureError, match="susceptance would become negative"):
                call()
        else:
            call()
