"""The guarded M x M solve against SciPy's LAPACK LU, which it replaces."""

import warnings

import numpy as np
import pytest

from gridfactors import IslandingError
from gridfactors._linalg import PIVOT_RTOL, _lu_pivots, guarded_solve

scipy_linalg = pytest.importorskip("scipy.linalg")


def _matrices(seed):
    """Random, badly scaled (entry ratio 1e8) and rank-deficient M x M."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 10))
    A = rng.standard_normal((k, k))
    rows = np.logspace(0, 4, k)[rng.permutation(k)]
    cols = np.logspace(0, -4, k)[rng.permutation(k)]
    r = int(rng.integers(1, k))
    low_rank = rng.standard_normal((k, r)) @ rng.standard_normal((r, k))
    duplicate = A.copy()
    duplicate[-1] = duplicate[0]
    return {
        "random": A,
        "scaled": rows[:, None] * A * cols,
        "rows_scaled": rows[:, None] ** 2 * A,
        "rank_deficient": low_rank,
        "duplicate_row": duplicate,
    }


def _lapack_pivots(M):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy_linalg.LinAlgWarning)
        lu, _ = scipy_linalg.lu_factor(M)
    return np.abs(np.diag(lu))


@pytest.mark.parametrize("seed", range(40))
def test_pivots_and_islanding_match_lapack(seed):
    rng = np.random.default_rng(1000 + seed)
    for name, M in _matrices(seed).items():
        ref = _lapack_pivots(M)
        ours = _lu_pivots(M)
        if name in ("rank_deficient", "duplicate_row"):
            # the trailing pivots are roundoff noise: compare them at the scale
            # of the largest pivot
            assert np.abs(ours - ref).max() <= 1e-12 * ref.max(), name
        else:
            np.testing.assert_allclose(ours, ref, rtol=1e-12, err_msg=name)
        rhs = rng.standard_normal((M.shape[0], 3))
        singular = bool(ref.min() <= PIVOT_RTOL * ref.max())
        if singular:
            with pytest.raises(IslandingError, match="update matrix is singular"):
                guarded_solve(M, rhs, context=name)
        else:
            x = guarded_solve(M, rhs, context=name)
            # backward stable: a residual at roundoff of |M| |x|
            residual = np.abs(M @ x - rhs).max()
            assert residual <= 1e-12 * np.abs(M).max() * np.abs(x).max(), name
        if name in ("rank_deficient", "duplicate_row"):
            assert singular, name


def test_scale_argument_flags_cancelled_matrix():
    # pivots balanced among themselves but roundoff-sized against the scale
    M = np.array([[2.0, 1.0], [1.0, 3.0]]) * 1e-14
    assert guarded_solve(M, np.ones(2), context="plain").shape == (2,)
    with pytest.raises(IslandingError) as info:
        guarded_solve(M, np.ones(2), context="cancelled", scale=1.0)
    assert info.value.criterion == pytest.approx(_lapack_pivots(M).min(), rel=1e-12)


def test_non_finite_input_rejected():
    M = np.eye(3)
    M[1, 2] = np.nan
    with pytest.raises(ValueError, match="infs or NaNs"):
        guarded_solve(M, np.ones(3), context="nan")
    with pytest.raises(ValueError, match="infs or NaNs"):
        guarded_solve(np.eye(3), np.array([1.0, np.inf, 0.0]), context="inf")
