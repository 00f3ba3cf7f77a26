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
)

from conftest import balanced_injections, triangle, two_bus


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
