"""Property test of the grounded inverse built through the series-parallel reduction.

``build_grounded_system`` eliminates every bus with at most two distinct
neighbours before the dense Cholesky and rebuilds their rows of ``B^-1``
from the core's. The grids drawn here stress that path: pure trees and
rings (nothing is left for the core), the slack as a pendant bus, a series
bus and a hub, parallel lines, zero-susceptance lines, open switches, and
susceptances anywhere in 10^[-12, 12].
"""
from fractions import Fraction

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from gridfactors import (
    Branch, Bus, Grid, build_grounded_system, connected_components, outage_factors,
)
from gridfactors import grid_model

EPS = np.finfo(float).eps
FAMILIES = ("tree", "ring", "star", "meshed")


@st.composite
def reducible_grids(draw, max_spread=24.0):
    """A connected grid of one family, its susceptances and its slack.

    Trees and meshed grids get their slack at a drawn bus, often a pendant
    one; a ring's slack is a series bus and a star's slack is its hub. Every
    grid may get parallel copies, zero-susceptance lines and open switches.
    Susceptances are ``10^u`` with ``u`` uniform on a drawn interval of
    width at most ``max_spread`` inside [-12, 12].
    """
    family = draw(st.sampled_from(FAMILIES))
    n = draw(st.integers(2, 13))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if family == "ring" and n >= 3:
        pairs = [(i, (i + 1) % n) for i in range(n)]
    elif family == "star":
        pairs = [(0, i) for i in range(1, n)]
        if n > 2:
            pairs += [tuple(rng.choice(np.arange(1, n), 2, replace=False)) for _ in range(n // 4)]
    else:
        pairs = [(int(rng.integers(0, i)), i) for i in range(1, n)]  # a random tree
        if family == "meshed":
            pairs += [tuple(rng.choice(n, 2, replace=False)) for _ in range(draw(st.integers(1, n)))]
    slack = 0 if family == "star" else draw(st.integers(0, n - 1))
    parallel = draw(st.integers(0, 2))
    pairs += [pairs[int(k)][::-1] for k in rng.integers(0, len(pairs), parallel)]
    lo = draw(st.floats(-12.0, 12.0))
    hi = min(12.0, lo + draw(st.floats(0.0, max_spread)))
    b = 10.0 ** rng.uniform(lo, hi, len(pairs))
    branches = [
        Branch(id=k + 1, from_bus=int(f) + 1, to_bus=int(t) + 1, susceptance=float(x))
        for k, ((f, t), x) in enumerate(zip(pairs, b))
    ]
    if n > 2:
        for kind in draw(st.lists(st.sampled_from(("line", "switch")), max_size=2)):
            f, t = rng.choice(n, 2, replace=False)
            branches.append(Branch(id=len(branches) + 1, from_bus=int(f) + 1,
                                   to_bus=int(t) + 1, susceptance=0.0, kind=kind))
    buses = tuple(Bus(id=i + 1, is_slack=(i == slack)) for i in range(n))
    return family, Grid(buses=buses, branches=tuple(branches))


def _exact_inverse(grid):
    """The grounded inverse in exact rational arithmetic, as floats.

    The Laplacian is summed from the exact susceptances, so no weight is
    lost to rounding however wide their spread; Gauss-Jordan on Fractions.
    """
    idx = {bid: i for i, bid in enumerate(grid.grounded_bus_ids)}
    n = len(idx)
    A = [[Fraction(0)] * n + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for br in grid.branches:
        b = Fraction(br.effective_susceptance)
        ends = [idx.get(br.from_bus), idx.get(br.to_bus)]
        for i in ends:
            if i is not None:
                A[i][i] += b
        if None not in ends:
            A[ends[0]][ends[1]] -= b
            A[ends[1]][ends[0]] -= b
    for c in range(n):
        p = next(r for r in range(c, n) if A[r][c] != 0)
        A[c], A[p] = A[p], A[c]
        piv = A[c][c]
        A[c] = [v / piv for v in A[c]]
        for r in range(n):
            if r != c and A[r][c] != 0:
                f = A[r][c]
                A[r] = [v - f * w for v, w in zip(A[r], A[c])]
    return np.array([[float(v) for v in row[n:]] for row in A])


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(case=reducible_grids())
def test_reduced_inverse_matches_references(case):
    family, grid = case
    sys = build_grounded_system(grid)
    n = grid.n_buses
    assert np.array_equal(sys.B_inv, sys.B_inv.T)
    assert not sys.B_inv.flags.writeable
    if family in ("tree", "ring"):
        reduced = grid_model._series_parallel(sys.branch_ends, sys.b, sys.n)
        assert reduced is not None and len(reduced[0]) == 0  # no core left
    # the exact inverse of the grid, with the bound of the LU-inverse test
    exact = _exact_inverse(grid)
    scale = np.abs(exact).max()
    cond = np.linalg.norm(sys.B, 2) * np.linalg.norm(exact, 2)
    assert np.abs(sys.B_inv - exact).max() <= 10 * n * EPS * cond * scale
    # np.linalg.inv of the stored B, when that is invertible in floating point
    try:
        ref = np.linalg.inv(sys.B)
    except np.linalg.LinAlgError:
        return  # a weight below the roundoff of its bus's sum left B singular
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        cond = np.linalg.cond(sys.B)
        bound = 10 * n * EPS * cond * np.abs(ref).max()
    if np.isfinite(ref).all():
        assert np.abs(sys.B_inv - ref).max() <= bound


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(case=reducible_grids())
def test_outage_flags_are_the_bridges(case):
    _, grid = case
    sys = build_grounded_system(grid)
    cols = np.flatnonzero(sys.b > 0.0)
    out = outage_factors(sys, cols)
    for e, islands in zip(cols, out.islands):
        br = grid.branches[e]
        bridge = len(connected_components(grid, removed_branches=[br.id])) > 1
        assert islands == bridge, (br, out.criterion)
