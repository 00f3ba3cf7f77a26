"""Internal guarded dense solves for the low-rank update kernels."""

from __future__ import annotations

import numpy as np

from .errors import IslandingError

#: smallest acceptable LU pivot, relative to the natural scale of the system
PIVOT_RTOL = 1e-10

#: relative tolerance of the outage islanding zero test on ``1 - b_e t_e``,
#: scaled by the transfer term ``b_e t_e``
OUTAGE_RTOL = 1e-8


def _lu_pivots(M: np.ndarray) -> np.ndarray:
    """Magnitudes ``|U_kk|`` of the LU factorization of M with partial pivoting.

    The pivot rule is LAPACK ``getrf``'s: in each column the first entry of
    largest magnitude on or below the diagonal. A zero pivot column is left
    unreduced, as ``getrf`` leaves it. Meant for the small M x M matrices of
    the update kernels: one Python step per column.
    """
    A = np.array(M, dtype=float)
    k_n = A.shape[0]
    piv = np.empty(k_n)
    for k in range(k_n):
        p = k + int(np.argmax(np.abs(A[k:, k])))
        if p != k:
            A[[k, p], k:] = A[[p, k], k:]
        piv[k] = abs(A[k, k])
        if A[k, k] != 0.0:
            A[k + 1 :, k] /= A[k, k]
            A[k + 1 :, k + 1 :] -= np.outer(A[k + 1 :, k], A[k, k + 1 :])
    return piv


def guarded_solve(
    M: np.ndarray, rhs: np.ndarray, context: str, scale: float = 0.0
) -> np.ndarray:
    """Solve ``M x = rhs`` and raise IslandingError when M is near singular.

    Singularity is judged against the larger of the LU pivots and ``scale``,
    the magnitude of the terms that produced ``M``. The scale matters when a
    modification cancels the matrix to roundoff noise: the pivots are then
    tiny in absolute terms but can still look balanced relative to each
    other.
    """
    M = np.atleast_2d(np.asarray(M, dtype=float))
    scale = max(float(scale), 0.0)
    if M.shape == (1, 1):
        piv = abs(M[0, 0])
        if piv <= PIVOT_RTOL * max(1.0, scale, piv):
            raise IslandingError(
                f"{context}: update matrix is singular", criterion=float(M[0, 0])
            )
        return np.asarray(rhs, dtype=float) / M[0, 0]
    rhs = np.asarray(rhs, dtype=float)
    # a NaN would pass the pivot test and come back as a NaN solution
    if not (np.isfinite(M).all() and np.isfinite(rhs).all()):
        raise ValueError("array must not contain infs or NaNs")
    diag = _lu_pivots(M)
    if diag.min() <= PIVOT_RTOL * max(diag.max(), scale):
        raise IslandingError(
            f"{context}: update matrix is singular (smallest pivot "
            f"{diag.min():.3g} at scale {max(diag.max(), scale):.3g})",
            criterion=float(diag.min()),
        )
    return np.linalg.solve(M, rhs)
