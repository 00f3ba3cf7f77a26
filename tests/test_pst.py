import numpy as np
import pytest
from dataclasses import replace

from gridfactors import (
    BranchDelta,
    Grid,
    GridStructureError,
    build_grounded_system,
    effective_injections,
    psdf_matrix,
    ptdf_after_mod,
    ptdf_matrix,
    random_grid,
    rebuild_and_solve,
    shift_vector,
    solve_flow,
)

from conftest import balanced_injections, screening_grid, sweep_grid, triangle, two_bus


def with_psts(grid, shifts):
    """Replace the listed branches by PSTs with the given shift angles."""
    branches = []
    for br in grid.branches:
        if br.id in shifts:
            branches.append(replace(br, kind="pst", shift_angle=shifts[br.id]))
        else:
            branches.append(br)
    return Grid(buses=grid.buses, branches=tuple(branches))


def test_zero_shift_is_identity():
    grid = with_psts(triangle(), {1: 0.0})
    p = np.array([1.0, 0.0, -1.0])
    np.testing.assert_array_equal(
        effective_injections(grid, p, np.zeros(3)), p
    )


def test_single_pst_effective_injection():
    grid = with_psts(two_bus(b=2.0, slack=2), {1: 0.1})
    p = np.zeros(2)
    p_hat = effective_injections(grid, p, grid.shift_angles())
    np.testing.assert_allclose(p_hat, [-0.2, 0.2], atol=1e-15)
    assert abs(p_hat.sum()) < 1e-15


def test_shift_on_non_pst_rejected():
    grid = triangle()
    with pytest.raises(GridStructureError, match="non-pst"):
        effective_injections(grid, np.zeros(3), np.array([0.1, 0.0, 0.0]))
    with pytest.raises(GridStructureError, match="non-pst"):
        shift_vector(grid, {1: 0.1})


def test_triangle_pst_flows_match_oracle():
    grid = with_psts(triangle(), {1: 0.1})
    sys = build_grounded_system(grid)
    state = solve_flow(sys, np.array([1.0, 0.0, -1.0]))
    # oracle: angles theta solve B theta = p_hat, branch flow picks up the
    # shift on the PST itself: f = b (th_i - th_j + shift)
    ref = rebuild_and_solve(grid, p=np.array([1.0, 0.0, -1.0]))
    np.testing.assert_allclose(state.flows, ref.flow.flows, atol=1e-10)
    inc_p = np.zeros(3)
    for e, br in enumerate(grid.branches):
        inc_p[grid.bus_index[br.from_bus]] += state.flows[e]
        inc_p[grid.bus_index[br.to_bus]] -= state.flows[e]
    np.testing.assert_allclose(inc_p, [1.0, 0.0, -1.0], atol=1e-10)


def test_psdf_route_equals_injection_route():
    grid = with_psts(triangle(), {1: 0.1})
    sys = build_grounded_system(grid)
    p = np.array([1.0, 0.0, -1.0])
    direct = solve_flow(sys, p).flows
    ptdf = ptdf_matrix(sys)
    psdf = psdf_matrix(sys)
    via_factors = ptdf.values @ sys.reduce(p) + psdf.values @ grid.shift_angles()
    np.testing.assert_allclose(direct, via_factors, atol=1e-12)


def test_psdf_diagonal_vanishes_on_radial_grid():
    grid = with_psts(two_bus(b=2.0, slack=2), {1: 0.3})
    sys = build_grounded_system(grid)
    psdf = psdf_matrix(sys)
    assert psdf.values[0, 0] == pytest.approx(0.0, abs=1e-12)
    # both routes agree: a lone PST in a tree cannot drive any flow
    state = solve_flow(sys)
    np.testing.assert_allclose(state.flows, 0.0, atol=1e-12)


def test_pst_free_grid_psdf_contributes_nothing(ww_sys):
    psdf = psdf_matrix(ww_sys)
    shifts = ww_sys.grid.shift_angles()
    np.testing.assert_array_equal(psdf.values @ shifts, 0.0)


def test_route_equivalence_random_grids():
    rng = np.random.default_rng(5)
    for seed in range(12):
        grid = random_grid(seed, 8 + seed, 2.4)
        n_pst = int(rng.integers(1, 4))
        picks = rng.choice(grid.n_branches, size=n_pst, replace=False)
        shifts = {
            grid.branches[int(i)].id: float(rng.uniform(-0.3, 0.3)) for i in picks
        }
        pgrid = with_psts(grid, shifts)
        sys = build_grounded_system(pgrid)
        p = balanced_injections(pgrid, seed)
        direct = solve_flow(sys, p).flows
        route = ptdf_matrix(sys).values @ sys.reduce(p) + psdf_matrix(
            sys
        ).values @ pgrid.shift_angles()
        assert np.max(np.abs(direct - route)) < 1e-10


def test_route_equivalence_survives_branch_modification():
    grid = with_psts(random_grid(3, 10, 2.5), {2: 0.2})
    sys = build_grounded_system(grid)
    target = next(br for br in grid.branches if br.kind == "line")
    d = BranchDelta(branch=target.id, delta_b=0.4 * target.susceptance)
    ptdf_m = ptdf_after_mod(sys, d)
    b_m = grid.susceptances()
    b_m[grid.branch_index[target.id]] += d.delta_b
    psdf_m = psdf_matrix(sys, ptdf=ptdf_m, susceptances=b_m)
    p = balanced_injections(grid, 9)
    route = ptdf_m.values @ sys.reduce(p) + psdf_m.values @ grid.shift_angles()
    ref = rebuild_and_solve(grid, deltas=[(target.id, d.delta_b)], p=p)
    np.testing.assert_allclose(route, ref.flow.flows, atol=1e-10)


def _psdf_loop(sys, ptdf, b):
    """PSDF built one column per branch: the reference for the gathered form."""
    n_e = sys.grid.n_branches
    values = np.zeros((n_e, n_e))
    for e, br in enumerate(sys.grid.branches):
        if b[e] == 0.0:
            continue
        col = -b[e] * (ptdf.column(br.from_bus) - ptdf.column(br.to_bus))
        col[e] += b[e]
        values[:, e] = col
    return values


def _assert_loop_equal(values, loop):
    assert np.array_equal(values, loop)
    nonzero = values != 0.0
    assert np.array_equal(values.view(np.int64)[nonzero], loop.view(np.int64)[nonzero])
    assert not np.signbit(values[~nonzero]).any()  # exact zeros print as 0, not -0


@pytest.mark.parametrize("seed", [2, 5, 13])
def test_psdf_gather_equals_column_loop(seed):
    # branches at the slack, a zero-susceptance line and an open switch
    grid = screening_grid(seed, 30)
    sys = build_grounded_system(grid)
    assert (sys.b == 0.0).sum() == 2
    ptdf = ptdf_matrix(sys)
    psdf = psdf_matrix(sys, ptdf=ptdf)
    _assert_loop_equal(psdf.values, _psdf_loop(sys, ptdf, sys.b))
    assert not psdf.values[:, sys.b == 0.0].any()


@pytest.mark.parametrize("seed", [3, 8])
def test_psdf_gather_equals_column_loop_after_outage(seed):
    grid, _ = sweep_grid(seed, 25)
    sys = build_grounded_system(grid)
    target = next(br for br in grid.branches if br.kind == "line" and br.from_bus == 1)
    d = BranchDelta(branch=target.id, delta_b=-0.5 * target.susceptance)
    ptdf_m = ptdf_after_mod(sys, d)
    b_m = sys.b.copy()
    b_m[grid.branch_index[target.id]] += d.delta_b
    psdf_m = psdf_matrix(sys, ptdf=ptdf_m, susceptances=b_m)
    _assert_loop_equal(psdf_m.values, _psdf_loop(sys, ptdf_m, b_m))


def test_psdf_rejects_non_ptdf_input():
    sys = build_grounded_system(triangle())
    with pytest.raises(GridStructureError, match="needs a PTDF"):
        psdf_matrix(sys, ptdf=psdf_matrix(sys))
