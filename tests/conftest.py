from dataclasses import replace

import numpy as np
import pytest

from gridfactors import (
    Branch,
    Bus,
    Grid,
    build_grounded_system,
    random_grid,
    to_grid,
)
from gridfactors.cases import case6ww


def rel_fro(a, b):
    """Relative Frobenius distance of a to the reference b."""
    return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300)


def triangle(slack=3):
    """Unit-susceptance triangle on buses 1,2,3: branches (1,2),(2,3),(1,3)."""
    buses = tuple(
        Bus(id=i, injection=0.0, is_slack=(i == slack)) for i in (1, 2, 3)
    )
    branches = (
        Branch(id=1, from_bus=1, to_bus=2, susceptance=1.0),
        Branch(id=2, from_bus=2, to_bus=3, susceptance=1.0),
        Branch(id=3, from_bus=1, to_bus=3, susceptance=1.0),
    )
    return Grid(buses=buses, branches=branches)


def two_bus(b=1.0, slack=2, p=0.0):
    buses = (
        Bus(id=1, injection=p, is_slack=(slack == 1)),
        Bus(id=2, injection=-p, is_slack=(slack == 2)),
    )
    return Grid(buses=buses, branches=(Branch(id=1, from_bus=1, to_bus=2, susceptance=b),))


def four_cycle(missing=None):
    """Cycle 1-2-3-4-1 with unit susceptances; one edge may start open."""
    pairs = [(1, 2), (2, 3), (3, 4), (4, 1)]
    buses = tuple(Bus(id=i, is_slack=(i == 1)) for i in (1, 2, 3, 4))
    branches = tuple(
        Branch(id=k + 1, from_bus=f, to_bus=t,
               susceptance=0.0 if (f, t) == missing else 1.0)
        for k, (f, t) in enumerate(pairs)
    )
    return Grid(buses=buses, branches=branches)


def balanced_injections(grid, seed=0):
    rng = np.random.default_rng(seed)
    p = rng.normal(size=grid.n_buses)
    return p - p.mean()


def add_switches(grid, pairs, first_id=1000):
    """Grid with ideal switches appended across the given bus pairs."""
    switches = tuple(
        Branch(id=first_id + k, from_bus=f, to_bus=t, susceptance=0.0, kind="switch")
        for k, (f, t) in enumerate(pairs)
    )
    return Grid(buses=grid.buses, branches=grid.branches + switches), tuple(
        s.id for s in switches
    )


def screening_grid(seed, n_buses, avg_degree=2.4):
    """Seeded random grid holding every branch case the outage sweep meets.

    ``random_grid`` brings bridges (its spanning tree), branches at the
    slack bus 1 (its first branch is always (1, 2)) and sometimes parallel
    pairs. Added on top: a reversed parallel copy of the first branch, an
    out-of-service zero-susceptance line and an open switch.
    """
    grid = random_grid(seed, n_buses, avg_degree)
    rng = np.random.default_rng(seed)
    i, j = rng.choice(n_buses, 2, replace=False) + 1
    k, l = rng.choice(n_buses, 2, replace=False) + 1
    first, nxt = grid.branches[0], max(grid.branch_ids) + 1
    extra = (
        Branch(id=nxt, from_bus=first.to_bus, to_bus=first.from_bus, susceptance=0.7),
        Branch(id=nxt + 1, from_bus=int(i), to_bus=int(j), susceptance=0.0),
        Branch(id=nxt + 2, from_bus=int(k), to_bus=int(l), susceptance=0.0, kind="switch"),
    )
    return Grid(buses=grid.buses, branches=grid.branches + extra)


def sweep_grid(seed, n_buses, n_switches=4):
    """Seeded random grid with two phase shifters and open switches.

    The first switch touches the slack bus 1 and the last one runs reversed
    across the same pair, so closing both is a redundant closing; the others
    join random bus pairs. Returns the grid and the switch ids.
    """
    grid = random_grid(seed, n_buses, 2.4)
    rng = np.random.default_rng(seed)
    branches = list(grid.branches)
    for i in rng.choice(len(branches), size=2, replace=False):
        shift = float(rng.uniform(-0.2, 0.2))
        branches[int(i)] = replace(branches[int(i)], kind="pst", shift_angle=shift)
    pairs = [(1, int(rng.integers(2, n_buses + 1)))]
    while len(pairs) < n_switches - 1:
        i, j = rng.choice(n_buses, 2, replace=False) + 1
        pairs.append((int(i), int(j)))
    pairs.append(pairs[0][::-1])
    return add_switches(Grid(buses=grid.buses, branches=tuple(branches)), pairs)


@pytest.fixture(scope="session")
def ww_case():
    return case6ww()


@pytest.fixture(scope="session")
def ww_grid(ww_case):
    return to_grid(ww_case)


@pytest.fixture(scope="session")
def ww_sys(ww_grid):
    return build_grounded_system(ww_grid)


@pytest.fixture(scope="session")
def small_grids():
    """A mixed bag of seeded random grids used across the property tests."""
    return [random_grid(seed, 5 + seed % 16, 1.8 + (seed % 5) * 0.3) for seed in range(40)]
