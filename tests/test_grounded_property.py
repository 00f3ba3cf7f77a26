"""Property test of the grounded inverse built from the Cholesky factor."""
from dataclasses import replace

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from gridfactors import Grid, build_grounded_system, random_grid


def _residual(B, X):
    return np.linalg.norm(B @ X - np.eye(B.shape[0]))


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 10_000),
    n_buses=st.integers(2, 300),
    decades=st.floats(0.0, 8.0),
)
def test_inverse_matches_lu_inverse(seed, n_buses, decades):
    # susceptances spread over up to 8 decades: cond(B) up to about 1e8 and beyond
    grid = random_grid(seed, n_buses, 2.6)
    rng = np.random.default_rng(seed)
    b = 10.0 ** rng.uniform(0.0, decades, size=grid.n_branches)
    grid = Grid(
        buses=grid.buses,
        branches=tuple(replace(br, susceptance=float(x)) for br, x in zip(grid.branches, b)),
    )
    sys = build_grounded_system(grid)
    ref = np.linalg.inv(sys.B)
    assert np.array_equal(sys.B_inv, sys.B_inv.T)
    cond = np.linalg.cond(sys.B)
    eps = np.finfo(float).eps
    scale = np.abs(ref).max()
    assert np.abs(sys.B_inv - ref).max() <= 10 * n_buses * eps * cond * scale
    # floored at n eps: the LU inverse of a tiny system can come out exact
    assert _residual(sys.B, sys.B_inv) <= 10 * max(_residual(sys.B, ref), n_buses * eps)
