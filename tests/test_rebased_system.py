"""Split routes and the switch sweep on a rebased system: one built by
``system_from_inverse(grid, B_inv, closed_switches)``, as ``n1 --after`` builds it."""
import numpy as np
import pytest

from gridfactors import (
    Branch,
    Bus,
    ComposedUpdate,
    Grid,
    GridStructureError,
    IslandingError,
    SplitSpec,
    SwitchKernel,
    build_grounded_system,
    pad_inverse,
    random_grid,
    solve_flow,
    split_inverse,
    split_islands,
    system_from_inverse,
)

from conftest import add_switches


def _rebased(grid, switch):
    """The base system, and the system rebased on closing ``switch``."""
    base = build_grounded_system(grid)
    up = ComposedUpdate(base, switches={switch: True})
    return base, system_from_inverse(up.grid, up.inverse(), up.closed)


def _rel(a, b):
    return np.abs(a - b).max() / np.abs(b).max()


def _five_bus(switch_from):
    buses = (Bus(1, 0.0, True), Bus(2, 0.6), Bus(3, -0.2), Bus(4, -0.5), Bus(5, 0.1))
    lines = ((10, 1, 2, 1.0), (11, 2, 3, 2.0), (12, 3, 4, 1.5), (13, 4, 5, 1.0),
             (14, 5, 1, 1.0), (15, 2, 4, 0.5))
    grid = Grid(buses, tuple(Branch(i, f, t, b) for i, f, t, b in lines))
    return add_switches(grid, [(switch_from, 5)], first_id=20)[0]


def test_split_at_a_closed_switchs_end_is_refused():
    base, rebased = _rebased(_five_bus(3), 20)
    split = SplitSpec(3, {11: "new"}, injection_to_new=0.0)
    with pytest.raises(GridStructureError, match=r"closed switches \[20\]"):
        pad_inverse(rebased, split)


def test_split_away_from_closed_switches_matches_composed_update():
    base, rebased = _rebased(_five_bus(2), 20)
    split = SplitSpec(3, {11: "new"}, injection_to_new=0.0)
    ref = ComposedUpdate(base, switches={20: True}, splits=[split]).inverse()
    assert _rel(split_inverse(pad_inverse(rebased, split)), ref) <= 1e-12


def test_closed_switch_keeps_the_split_grid_connected():
    buses = (Bus(1, 0.0, True), Bus(2, 0.6), Bus(3, -0.2), Bus(4, -0.4))
    lines = ((10, 1, 2), (11, 2, 3), (12, 3, 1), (13, 3, 4))
    grid = Grid(buses, tuple(Branch(i, f, t, 1.0) for i, f, t in lines))
    grid = add_switches(grid, [(4, 1)], first_id=20)[0]
    base, rebased = _rebased(grid, 20)
    split = SplitSpec(3, {13: "new"}, injection_to_new=0.0)
    tri = pad_inverse(rebased, split)
    assert not split_islands(tri)[0]
    ref = ComposedUpdate(base, switches={20: True}, splits=[split]).inverse()
    assert _rel(split_inverse(tri), ref) <= 1e-12


@pytest.mark.parametrize("at_split_bus", [True, False])
def test_seeded_splits_on_rebased_systems_agree_or_raise(at_split_bus):
    """One closed switch, at the split bus 5 or between two other buses; the
    split moves two of bus 5's lines. Every split either raises or agrees."""
    rng = np.random.default_rng(0)
    agreed = 0
    for seed in range(80):
        grid = random_grid(seed, 30, 2.6)
        lines = [br.id for br in grid.branches_at(5) if br.in_service]
        if len(lines) < 3:
            continue
        ends = (5, int(rng.integers(6, 31))) if at_split_bus else tuple(
            rng.choice(np.arange(10, 31), 2, replace=False).tolist())
        grid, (switch,) = add_switches(grid, [ends])
        base, rebased = _rebased(grid, switch)
        split = SplitSpec(5, {lines[0]: "new", lines[1]: "new"}, injection_to_new=0.0)
        if at_split_bus:
            with pytest.raises(GridStructureError, match=f"closed switches \\[{switch}\\]"):
                pad_inverse(rebased, split)
            continue
        up = ComposedUpdate(base, switches={switch: True}, splits=[split])
        try:
            ref = up.inverse()
        except IslandingError:
            with pytest.raises(IslandingError):
                split_inverse(pad_inverse(rebased, split))
            continue
        assert _rel(split_inverse(pad_inverse(rebased, split)), ref) <= 1e-12
        agreed += 1
    if not at_split_bus:
        assert agreed >= 40  # the sample is not all refusals


def test_sweep_refuses_a_rebased_system():
    buses = (Bus(1, 0.0, True), Bus(2, 0.1), Bus(3, 2.0), Bus(4, -0.1), Bus(5, -2.0))
    ring = ((10, 1, 2), (11, 2, 3), (12, 3, 4), (13, 4, 5), (14, 5, 1))
    grid = Grid(buses, tuple(Branch(i, f, t, 1.0) for i, f, t in ring))
    grid = add_switches(grid, [(3, 5), (2, 4)], first_id=20)[0]
    _, rebased = _rebased(grid, 20)
    pre = solve_flow(rebased)
    with pytest.raises(GridStructureError, match=r"switches \[20\] are closed"):
        SwitchKernel(rebased, [21]).sweep(pre.angles, pre.flows, 1 << 20)
