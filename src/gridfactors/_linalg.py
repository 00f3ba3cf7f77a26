"""Internal guarded dense solves for the low-rank update kernels."""

from __future__ import annotations

import warnings

import numpy as np
import scipy.linalg

from .errors import IslandingError

#: smallest acceptable LU pivot, relative to the natural scale of the system
PIVOT_RTOL = 1e-10

#: relative tolerance of the outage islanding zero test on ``1 - b_e t_e``,
#: scaled by the transfer term ``b_e t_e``
OUTAGE_RTOL = 1e-8


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
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(M)
    diag = np.abs(np.diag(lu))
    if diag.min() <= PIVOT_RTOL * max(diag.max(), scale):
        raise IslandingError(
            f"{context}: update matrix is singular (smallest pivot "
            f"{diag.min():.3g} at scale {max(diag.max(), scale):.3g})",
            criterion=float(diag.min()),
        )
    return scipy.linalg.lu_solve((lu, piv), rhs)
