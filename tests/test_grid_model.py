from dataclasses import replace

import numpy as np
import pytest

from gridfactors import (
    Branch,
    Bus,
    Grid,
    GridStructureError,
    IslandingError,
    build_grounded_system,
    build_incidence,
    connected_components,
    pseudo_inverse_check,
    solve_angles,
    system_from_inverse,
)

from conftest import balanced_injections, screening_grid, sweep_grid, triangle, two_bus


def test_two_bus_incidence():
    inc = build_incidence(two_bus())
    assert inc.full.shape == (2, 1)
    np.testing.assert_array_equal(inc.full, [[1.0], [-1.0]])


def test_triangle_incidence_column_sums():
    inc = build_incidence(triangle())
    assert inc.full.shape == (3, 3)
    np.testing.assert_allclose(inc.full.sum(axis=0), 0.0)


def test_case6ww_incidence_shape(ww_grid):
    inc = build_incidence(ww_grid)
    assert inc.full.shape == (6, 11)
    # columns follow the branch list order of the case file
    first = ww_grid.branches[0]
    assert (first.from_bus, first.to_bus) == (1, 2)
    np.testing.assert_array_equal(inc.full[:, 0], [1, -1, 0, 0, 0, 0])


def test_dangling_endpoint_rejected():
    buses = (Bus(id=1, is_slack=True), Bus(id=2))
    with pytest.raises(GridStructureError, match="endpoint bus 5"):
        Grid(buses=buses, branches=(Branch(id=1, from_bus=1, to_bus=5, susceptance=1.0),))


def test_exactly_one_slack_required():
    buses = (Bus(id=1), Bus(id=2))
    with pytest.raises(GridStructureError, match="slack"):
        Grid(buses=buses, branches=(Branch(id=1, from_bus=1, to_bus=2, susceptance=1.0),))


def test_unbalanced_grid_rejected():
    buses = (Bus(id=1, injection=1.0, is_slack=True), Bus(id=2, injection=0.5))
    with pytest.raises(GridStructureError, match="balance"):
        Grid(buses=buses, branches=(Branch(id=1, from_bus=1, to_bus=2, susceptance=1.0),))


def test_two_bus_grounded_system():
    sys = build_grounded_system(two_bus(b=1.0, slack=2))
    np.testing.assert_allclose(sys.B, [[1.0]])
    np.testing.assert_allclose(sys.B_inv, [[1.0]])


def test_triangle_grounded_system():
    sys = build_grounded_system(triangle(slack=3))
    np.testing.assert_allclose(sys.B, [[2.0, -1.0], [-1.0, 2.0]], atol=1e-15)
    np.testing.assert_allclose(
        sys.B_inv, np.array([[2.0, 1.0], [1.0, 2.0]]) / 3.0, atol=1e-12
    )


def test_case6ww_grounded_dimensions(ww_sys):
    assert ww_sys.B.shape == (5, 5)
    assert ww_sys.slack == 1
    np.testing.assert_allclose(ww_sys.B, ww_sys.B.T, atol=1e-12)
    # positive definite: all Cholesky pivots strictly positive
    assert np.all(np.diag(ww_sys.chol[0]) > 0)


def test_disconnected_grid_raises_with_components():
    buses = tuple(Bus(id=i, is_slack=(i == 1)) for i in (1, 2, 3, 4))
    branches = (
        Branch(id=1, from_bus=1, to_bus=2, susceptance=1.0),
        Branch(id=2, from_bus=3, to_bus=4, susceptance=1.0),
    )
    grid = Grid(buses=buses, branches=branches)
    with pytest.raises(IslandingError) as err:
        build_grounded_system(grid)
    assert err.value.components == [{1, 2}, {3, 4}]


def test_connected_components_switch_handling():
    buses = tuple(Bus(id=i, is_slack=(i == 1)) for i in (1, 2, 3))
    branches = (
        Branch(id=1, from_bus=1, to_bus=2, susceptance=1.0),
        Branch(id=2, from_bus=2, to_bus=3, susceptance=0.0, kind="switch"),
    )
    grid = Grid(buses=buses, branches=branches)
    assert connected_components(grid) == [{1, 2}, {3}]
    assert connected_components(grid, closed_switches=[2]) == [{1, 2, 3}]
    assert connected_components(grid, removed_branches=[1], closed_switches=[2]) == [
        {1},
        {2, 3},
    ]


def test_assembly_matches_definition(small_grids):
    for grid in small_grids[:12]:
        sys = build_grounded_system(grid)
        inc = build_incidence(grid)
        keep = [i for i, b in enumerate(grid.buses) if not b.is_slack]
        ref = inc.full[keep] @ np.diag(grid.susceptances()) @ inc.full[keep].T
        np.testing.assert_allclose(sys.B, ref, atol=1e-12)
        np.testing.assert_allclose(inc.full.sum(axis=0), 0.0)
        ident = sys.B @ sys.B_inv
        assert np.linalg.norm(ident - np.eye(sys.n), 2) <= 1e-10 * np.linalg.norm(
            sys.B, 2
        ) * np.linalg.norm(sys.B_inv, 2)


def test_pseudo_inverse_two_bus():
    plus = pseudo_inverse_check(two_bus(b=1.0))
    np.testing.assert_allclose(plus, np.array([[1, -1], [-1, 1]]) / 4.0, atol=1e-12)


def test_pseudo_inverse_defining_property(small_grids):
    for grid in small_grids[:8]:
        inc = build_incidence(grid)
        B_full = (inc.full * grid.susceptances()) @ inc.full.T
        plus = pseudo_inverse_check(grid)
        np.testing.assert_allclose(B_full @ plus @ B_full, B_full, atol=1e-9)


def test_pseudo_inverse_angles_differ_by_uniform_shift(small_grids):
    for seed, grid in enumerate(small_grids[:8]):
        sys = build_grounded_system(grid)
        p = balanced_injections(grid, seed)
        theta_g = sys.expand(solve_angles(sys, p))
        theta_p = pseudo_inverse_check(grid) @ p
        shift = theta_g - theta_p
        assert np.max(np.abs(shift - shift.mean())) < 1e-9


def test_pseudo_inverse_disconnected_raises():
    buses = (Bus(id=1, is_slack=True), Bus(id=2), Bus(id=3))
    grid = Grid(
        buses=buses,
        branches=(Branch(id=1, from_bus=1, to_bus=2, susceptance=1.0),),
    )
    with pytest.raises(IslandingError):
        pseudo_inverse_check(grid)


def test_parallel_branches_allowed():
    buses = (Bus(id=1, is_slack=True), Bus(id=2))
    branches = (
        Branch(id=1, from_bus=1, to_bus=2, susceptance=1.0),
        Branch(id=2, from_bus=1, to_bus=2, susceptance=2.0),
    )
    sys = build_grounded_system(Grid(buses=buses, branches=branches))
    np.testing.assert_allclose(sys.B, [[3.0]])


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_injection_rejected(bad):
    with pytest.raises(GridStructureError, match="bus 2: injection must be finite"):
        Bus(id=2, injection=bad)
    # a NaN would otherwise pass the balance check, abs(nan) > tol being False
    with pytest.raises(GridStructureError, match="finite"):
        Grid(
            buses=(Bus(id=1, is_slack=True), Bus(id=2, injection=bad)),
            branches=(Branch(id=1, from_bus=1, to_bus=2, susceptance=1.0),),
        )


def _slack_at(grid, bus_id):
    """The same grid with ``bus_id`` as its slack."""
    buses = tuple(replace(b, is_slack=(b.id == bus_id)) for b in grid.buses)
    return Grid(buses=buses, branches=grid.branches)


def _seeded_cases():
    """Parallel branches, zero-susceptance lines, open switches, PSTs and
    branches at the slack; the last two move the slack off the first bus."""
    grids = []
    for seed in (2, 9, 17):
        grids += [screening_grid(seed, 40), sweep_grid(seed, 40)[0]]
    grids += [_slack_at(screening_grid(4, 40), 17), _slack_at(sweep_grid(5, 40)[0], 40)]
    return grids


def _loop_incidence(grid):
    """The incidence matrices built one branch at a time: the reference."""
    E = np.zeros((grid.n_buses, grid.n_branches))
    for e, br in enumerate(grid.branches):
        E[grid.bus_index[br.from_bus], e] = 1.0
        E[grid.bus_index[br.to_bus], e] = -1.0
    return E, np.delete(E, grid.bus_index[grid.slack], axis=0)


def test_build_incidence_matches_loop(ww_grid):
    for grid in _seeded_cases() + [ww_grid, triangle(slack=2), two_bus(slack=1)]:
        inc = build_incidence(grid)
        full, reduced = _loop_incidence(grid)
        assert np.array_equal(inc.full, full)
        assert np.array_equal(inc.reduced, reduced)
        assert not inc.full.flags.writeable and not inc.reduced.flags.writeable
        sys = build_grounded_system(grid)
        assert np.array_equal(sys.E_r, reduced)


def test_scattered_laplacian_matches_dense_product():
    for grid in _seeded_cases():
        sys = build_grounded_system(grid)
        dense = (sys.E_r * sys.b) @ sys.E_r.T
        assert np.abs(sys.B - dense).max() <= 1e-12 * np.abs(dense).max()
        assert np.array_equal(sys.B, sys.B.T)
        assert np.array_equal(sys.B_inv, sys.B_inv.T)
        assert not sys.B.flags.writeable and not sys.B_inv.flags.writeable
        L = sys.chol[0]
        assert np.array_equal(L, np.tril(L))
        assert np.abs(L @ L.T - sys.B).max() <= 1e-12 * np.abs(sys.B).max()


def test_seeded_branch_ends_match_recomputed():
    for grid in _seeded_cases():
        sys = build_grounded_system(grid)
        lean = system_from_inverse(grid, sys.B_inv)
        fresh = replace(sys, E_r=None)  # a copy computes the cached property anew
        for s in (sys, lean):
            assert all(np.array_equal(a, b) for a, b in zip(s.branch_ends, fresh.branch_ends))


def test_build_inverts_no_full_matrix(monkeypatch):
    # the inverse comes from the Cholesky factor: LAPACK inverts leaf blocks only
    shapes = []
    inv = np.linalg.inv

    def recording_inv(a):
        shapes.append(np.shape(a))
        return inv(a)

    monkeypatch.setattr(np.linalg, "inv", recording_inv)
    grid = screening_grid(3, 600)
    sys = build_grounded_system(grid)
    assert shapes and max(max(s) for s in shapes) <= 128
    residual = np.abs(sys.B @ sys.B_inv - np.eye(sys.n)).max()
    assert residual <= 10 * np.abs(sys.B @ inv(sys.B) - np.eye(sys.n)).max()
