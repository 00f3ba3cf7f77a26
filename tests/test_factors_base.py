import numpy as np
import pytest

from gridfactors import (
    BranchDelta,
    ModificationSet,
    SwitchStates,
    build_grounded_system,
    build_incidence,
    compute_flows,
    merge_inverse,
    merged_ptdf,
    multi_merge_inverse,
    multi_merge_ptdf,
    multi_ptdf,
    ptdf_after_mod,
    ptdf_matrix,
    random_grid,
    solve_angles,
    solve_flow,
    updated_inverse,
    woodbury_update,
)

from conftest import balanced_injections, screening_grid, sweep_grid, triangle, two_bus


def test_zero_injection_zero_angles():
    sys = build_grounded_system(triangle())
    theta = solve_angles(sys, np.zeros(3))
    np.testing.assert_array_equal(theta, 0.0)
    state = compute_flows(sys, theta)
    np.testing.assert_array_equal(state.flows, 0.0)


def test_two_bus_unit_system():
    sys = build_grounded_system(two_bus(b=1.0, slack=2, p=1.0))
    theta = solve_angles(sys, np.array([1.0, -1.0]))
    np.testing.assert_allclose(theta, [1.0])


def test_triangle_angles_and_flows():
    sys = build_grounded_system(triangle(slack=3))
    p = np.array([1.0, 0.0, -1.0])
    theta = solve_angles(sys, p)
    np.testing.assert_allclose(theta, [2.0 / 3.0, 1.0 / 3.0], atol=1e-12)
    state = compute_flows(sys, theta)
    np.testing.assert_allclose(state.flows, [1.0 / 3.0, 1.0 / 3.0, 2.0 / 3.0], atol=1e-12)


def test_angle_residual_small(small_grids):
    for seed, grid in enumerate(small_grids[:10]):
        sys = build_grounded_system(grid)
        p = balanced_injections(grid, seed)
        theta = solve_angles(sys, p)
        residual = sys.B @ theta - sys.reduce(p)
        assert np.max(np.abs(residual)) < 1e-9 * max(np.max(np.abs(p)), 1e-12)


def test_kcl_holds(small_grids):
    for grid in small_grids[:10]:
        sys = build_grounded_system(grid)
        state = solve_flow(sys)
        inc = build_incidence(grid)
        np.testing.assert_allclose(
            inc.full @ state.flows, grid.injections(), atol=1e-9
        )
        np.testing.assert_allclose(
            state.flows,
            grid.susceptances() * (inc.reduced.T @ state.angles),
            atol=1e-9,
        )


def test_case6ww_base_flow(ww_case, ww_sys):
    state = solve_flow(ww_sys)
    branch_id, value = state.max_loaded()
    br = ww_sys.grid.branch(branch_id)
    assert (br.from_bus, br.to_bus) == (3, 6)
    assert value * ww_case.base_mva == pytest.approx(44.922, abs=1e-3)


def test_two_bus_ptdf():
    sys = build_grounded_system(two_bus(b=1.0, slack=2))
    ptdf = ptdf_matrix(sys)
    np.testing.assert_allclose(ptdf.values, [[1.0]])
    assert ptdf.col_labels == (1,)
    # the slack column materializes as zeros on demand
    np.testing.assert_array_equal(ptdf.column(2), [0.0])


def test_triangle_ptdf_entry():
    sys = build_grounded_system(triangle(slack=3))
    ptdf = ptdf_matrix(sys)
    assert ptdf.row(3)[list(ptdf.col_labels).index(1)] == pytest.approx(2.0 / 3.0)


def test_ptdf_reproduces_flows(ww_sys):
    state = solve_flow(ww_sys)
    ptdf = ptdf_matrix(ww_sys)
    p_r = ww_sys.reduce(ww_sys.grid.injections())
    np.testing.assert_allclose(ptdf.values @ p_r, state.flows, atol=1e-12)


def test_superposition_is_exact(small_grids):
    grid = small_grids[5]
    sys = build_grounded_system(grid)
    ptdf = ptdf_matrix(sys)
    p1 = sys.reduce(balanced_injections(grid, 1))
    p2 = sys.reduce(balanced_injections(grid, 2))
    np.testing.assert_allclose(
        ptdf.values @ (p1 + p2),
        ptdf.values @ p1 + ptdf.values @ p2,
        atol=1e-12,
    )


def test_radial_ptdf_entries_are_unit_or_zero():
    for seed in range(6):
        grid = random_grid(seed, 10, avg_degree=1.0)
        assert grid.n_branches == grid.n_buses - 1
        sys = build_grounded_system(grid)
        values = ptdf_matrix(sys).values
        distance = np.minimum.reduce(
            [np.abs(values), np.abs(values - 1.0), np.abs(values + 1.0)]
        )
        assert distance.max() < 1e-9


def test_flow_projection_identity(small_grids):
    # diag(b) E^T B^-1 E f = f for every physical flow f
    for seed, grid in enumerate(small_grids[:10]):
        sys = build_grounded_system(grid)
        ptdf = ptdf_matrix(sys)
        f = ptdf.values @ sys.reduce(balanced_injections(grid, seed + 100))
        projected = ptdf.values @ (sys.E_r @ f)
        np.testing.assert_allclose(projected, f, atol=1e-9)


def _dense_ptdf(sys, B_inv, b):
    """``diag(b) E_r^T B_inv`` as a dense product: the reference for the gathers."""
    return (b[:, None] * sys.E_r.T) @ B_inv


def _assert_rel(values, ref):
    assert values.shape == ref.shape
    assert np.abs(values - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("seed", [1, 6, 23])
def test_ptdf_rows_match_dense_product(seed):
    # the slack bus 1 ends branch 1 and a switch; screening grids add a
    # zero-susceptance line and a reversed parallel branch at the slack
    for grid in (sweep_grid(seed, 30)[0], screening_grid(seed, 30)):
        sys = build_grounded_system(grid)
        assert any(1 in (br.from_bus, br.to_bus) for br in grid.branches)
        values = ptdf_matrix(sys).values
        _assert_rel(values, _dense_ptdf(sys, sys.B_inv, sys.b))
        off = values[sys.b == 0.0]  # open switches and lines: +0.0, printed 0
        assert not off.any() and not np.signbit(off).any()


@pytest.mark.parametrize("seed", [1, 6, 23])
def test_updated_ptdfs_match_dense_product(seed):
    grid, sids = sweep_grid(seed, 30)
    sys = build_grounded_system(grid)
    lines = [br for br in grid.branches if br.kind == "line"]
    at_slack = next(br for br in lines if 1 in (br.from_bus, br.to_bus))
    other = next(br for br in lines if br.id != at_slack.id)

    d = BranchDelta(branch=at_slack.id, delta_b=-0.4 * at_slack.susceptance)
    b_m = sys.b.copy()
    b_m[grid.branch_index[d.branch]] += d.delta_b
    _assert_rel(
        ptdf_after_mod(sys, d).values, _dense_ptdf(sys, updated_inverse(sys, d), b_m)
    )

    mods = ModificationSet(entries=((at_slack.id, -0.3 * at_slack.susceptance), (other.id, 0.5)))
    b_m = sys.b.copy()
    for branch_id, delta in mods.entries:
        b_m[grid.branch_index[branch_id]] += delta
    _assert_rel(multi_ptdf(sys, mods).values, _dense_ptdf(sys, woodbury_update(sys, mods), b_m))

    # the first switch touches the slack; the first two close without redundancy
    keep = [e for e, br in enumerate(grid.branches) if br.id != sids[0]]
    dense = _dense_ptdf(sys, merge_inverse(sys, sids[0]), sys.b)[keep]
    _assert_rel(merged_ptdf(sys, sids[0]).values, dense)
    states = SwitchStates(switches=sids[:2], closed=(True, True))
    keep = [e for e, br in enumerate(grid.branches) if br.id not in sids[:2]]
    dense = _dense_ptdf(sys, multi_merge_inverse(sys, states), sys.b)[keep]
    _assert_rel(multi_merge_ptdf(sys, states).values, dense)
