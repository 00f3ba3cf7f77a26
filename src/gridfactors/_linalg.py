"""Internal guarded dense solves for the low-rank update kernels, and the one
rule, :func:`_refused`, behind every pivot and zero test of those kernels."""

from __future__ import annotations

import numpy as np

from .errors import IslandingError

#: smallest acceptable LU pivot, relative to the natural scale of the system
PIVOT_RTOL = 1e-10

#: lowest susceptance a branch may be left with after a change, relative to its
#: own ``b``: above it (the roundoff of an exact outage ``b + (-b)``) counts as >= 0
SUSCEPTANCE_FLOOR = -1e-12


def _lu_pivots(M: np.ndarray) -> np.ndarray:
    """Magnitudes ``|U_kk|`` of the LU factorization with partial pivoting of
    each matrix in a stack ``(..., k, k)``; returns ``(..., k)``.

    The pivot rule is LAPACK ``getrf``'s: in each column the first entry of
    largest magnitude on or below the diagonal. A zero pivot column is left
    unreduced, as ``getrf`` leaves it. Meant for the small k x k matrices of
    the update kernels: one Python step per column, for the whole stack.
    """
    A = np.array(M, dtype=float).reshape(-1, *np.shape(M)[-2:])
    at, k_n = np.arange(len(A)), A.shape[-1]
    piv = np.empty((len(A), k_n))
    for k in range(k_n):
        p = k + np.argmax(np.abs(A[:, k:, k]), axis=1)
        row = A[at, k, k:]
        A[at, k, k:] = A[at, p, k:]
        A[at, p, k:] = row
        d = A[:, k, k]
        piv[:, k] = np.abs(d)
        # a zero pivot's column is zero below it: dividing by 1 leaves it so
        A[:, k + 1 :, k] /= np.where(d != 0.0, d, 1.0)[:, None]
        A[:, k + 1 :, k + 1 :] -= A[:, k + 1 :, k, None] * A[:, k, None, k + 1 :]
    return piv.reshape(np.shape(M)[:-1])


def _refused(piv, scale, mask=True) -> np.ndarray:
    """Whether each bracket of a stack of pivot magnitudes ``(..., k)`` is refused:
    its smallest pivot where ``mask`` holds is NaN or at most ``PIVOT_RTOL`` times
    the larger of its largest pivot and ``scale``. One without such pivots is not."""
    lo = np.where(mask, piv, np.inf).min(axis=-1)
    return ~(lo > PIVOT_RTOL * np.maximum(np.where(mask, piv, 0.0).max(axis=-1), scale))


def guarded_solve(
    M: np.ndarray, rhs: np.ndarray, context: str, scale: float = 0.0
) -> np.ndarray:
    """Solve ``M x = rhs`` and raise IslandingError when M is near singular:
    a conditioning guard, as callers decide islanding by graph structure first.

    Singularity is judged against the larger of the LU pivots and ``scale``,
    the magnitude of the terms that produced ``M``. The scale matters when a
    modification cancels the matrix to roundoff noise: the pivots are then
    tiny in absolute terms but can still look balanced relative to each
    other. The test is relative at every size, 1 x 1 included, so it does
    not change when every susceptance is scaled by the same factor.
    """
    M = np.atleast_2d(np.asarray(M, dtype=float))
    rhs = np.asarray(rhs, dtype=float)
    # a NaN is bad input, not an ill-conditioned update
    if not (np.isfinite(M).all() and np.isfinite(rhs).all()):
        raise ValueError("array must not contain infs or NaNs")
    diag = _lu_pivots(M[None])[0]
    if _refused(diag, scale):
        raise IslandingError(
            f"{context}: update matrix is singular (smallest pivot "
            f"{diag.min():.3g} at scale {max(diag.max(), float(scale)):.3g}); "
            "the grid stays connected, so the update is ill-conditioned",
            criterion=float(diag.min()),
        )
    return np.linalg.solve(M, rhs)
