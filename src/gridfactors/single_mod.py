"""Single-branch susceptance changes, line outages and line closings.

All of these are rank-one updates of the grounded matrix (the
Sherman-Morrison formula): M = 1 calls of the endpoint low-rank kernel
``factors_base._LowRank`` with the finite bracket ``1 / delta_b + t``. The
derived quantities are the updated inverse and PTDF, the line outage
distribution factor (LODF) column, the angle difference left across an
outaged branch, and the line closing distribution factor (LCDF) column.

Outages of many branches share one kernel, :func:`outage_factors`, which
gathers rows of the inverse on branch endpoints (Guo, Fu, Li and
Shahidehpour, "Direct calculation of line outage distribution factors",
IEEE Trans. Power Syst. 24(3), 2009); the one-branch outage functions are
calls of it with a single branch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from ._linalg import OUTAGE_RTOL, SUSCEPTANCE_FLOOR
from .errors import GridStructureError, IslandingError
from .factors_base import FactorMatrix, _LowRank, _end_diff, _wrap_ptdf
from .grid_model import GroundedSystem, _branch_col


@dataclass(frozen=True)
class BranchDelta:
    """One susceptance change: outage is ``delta_b = -b_e``, closing starts
    from ``b_e = 0`` with ``delta_b > 0``."""

    branch: int
    delta_b: float


def _check_delta(sys: GroundedSystem, d: BranchDelta) -> int:
    e = _branch_col(sys.grid, d.branch)
    if sys.b[e] + d.delta_b < SUSCEPTANCE_FLOOR:
        raise GridStructureError(
            f"branch {d.branch}: susceptance would become negative "
            f"({sys.b[e]} + {d.delta_b})"
        )
    return e


def updated_inverse(sys: GroundedSystem, d: BranchDelta) -> np.ndarray:
    """Inverse of the grounded matrix after one susceptance change."""
    e = _check_delta(sys, d)
    if d.delta_b == 0.0:
        return sys.B_inv
    return _LowRank(sys, [e]).updated(
        f"modifying branch {d.branch}", s_inv=np.array([1.0 / d.delta_b])
    )


def ptdf_after_mod(sys: GroundedSystem, d: BranchDelta) -> FactorMatrix:
    """PTDF of the modified grid; for an outage the modified row vanishes.

    Every row, including the modified one, is taken directly from the
    updated inverse: ``PTDF_m = diag(b_m) E^T B_m^-1``.
    """
    B_m_inv = updated_inverse(sys, d)
    b_m = sys.b.copy()
    b_m[sys.grid.branch_index[d.branch]] += d.delta_b
    return _wrap_ptdf(sys, B_m_inv, b_m)


class OutageFactors(NamedTuple):
    """Screening quantities for outaging a block of k branches, one entry
    (or column) per outaged branch."""

    criterion: np.ndarray  #: ``1 - b_e t_e``; zero flags a bridge
    transfer: np.ndarray  #: ``b_e t_e`` with ``t_e = nu_e^T B^-1 nu_e``
    islands: np.ndarray  #: criterion is zero within ``OUTAGE_RTOL``
    lodf: np.ndarray  #: m x k LODF block, NaN columns where the outage islands


def outage_factors(sys: GroundedSystem, branch_idx: Sequence[int]) -> OutageFactors:
    """Islanding criteria and LODF columns for outaging each listed branch.

    ``branch_idx`` holds k branch positions (incidence columns). The
    endpoint kernel gathers ``W = B^-1 U`` on the outaged branches'
    endpoints and ``t_e`` as the diagonal of ``U^T W``; ``H = E^T W``
    (m x k, gathered on every branch's endpoints) holds ``E^T B^-1 nu_e``
    for the j-th outage ``e`` in column j, and ``LODF = diag(b) H / (1 -
    b_e t_e)``. Only gathers on branch endpoints are used, no matrix
    product: a block costs O(k (n + m)).
    """
    cols = np.atleast_1d(np.asarray(branch_idx, dtype=np.intp))
    up = _LowRank(sys, cols)
    transfer = sys.b[cols] * up.K_d
    criterion = 1.0 - transfer
    islands = np.abs(criterion) <= OUTAGE_RTOL * np.maximum(1.0, np.abs(transfer))
    lodf = _end_diff(sys.branch_ends, up.W)  # H
    lodf *= sys.b[:, None]
    np.divide(lodf, criterion, out=lodf, where=~islands)  # islanded columns: never divided
    lodf[cols, np.arange(len(cols))] = -1.0  # the self-entries exactly
    lodf[:, islands] = np.nan
    return OutageFactors(criterion, transfer, islands, lodf)


def _single_outage(sys: GroundedSystem, branch: int) -> tuple[int, OutageFactors]:
    """Position and outage factors of one in-service branch; IslandingError for a bridge."""
    e = _branch_col(sys.grid, branch)
    if sys.b[e] <= 0.0:
        raise GridStructureError(f"branch {branch} is not in service")
    out = outage_factors(sys, [e])
    if out.islands[0]:
        raise IslandingError(
            f"outage of branch {branch} would island the grid "
            f"(criterion {out.criterion[0]:.3g})",
            criterion=float(out.criterion[0]),
        )
    return e, out


def lodf_column(sys: GroundedSystem, branch: int) -> np.ndarray:
    """LODF column for outaging ``branch``: ``f_m = f_r + col * f_r[e]``.

    The self-entry is exactly -1: the outaged branch carries no flow
    afterwards.
    """
    return _single_outage(sys, branch)[1].lodf[:, 0]


def post_outage_angle_diff(sys: GroundedSystem, branch: int, f_r: np.ndarray) -> float:
    """Angle difference across ``branch`` after its own outage.

    Evaluates ``[b_e + db (PTDF_ei - PTDF_ej)]^-1 u_e^T f_r`` with
    ``db = -b_e``, that is ``f_r[e] / (b_e (1 - b_e t_e))``; zero pre-outage
    flow gives zero angle difference.
    """
    e, out = _single_outage(sys, branch)
    return float(np.asarray(f_r)[e]) / (sys.b[e] * float(out.criterion[0]))


def lcdf_column(sys: GroundedSystem, branch: int, new_b: float) -> np.ndarray:
    """LCDF column for closing ``branch`` at susceptance ``new_b``.

    The branch must already be present in the incidence matrix with zero
    susceptance. Flows update as ``f_m = f_r + col * (nu_e^T theta_r)``,
    the angle difference across the still-open branch.
    """
    e = _branch_col(sys.grid, branch)
    if sys.b[e] != 0.0:
        raise GridStructureError(
            f"branch {branch} is already in service (b={sys.b[e]}); "
            "closing requires a zero-susceptance branch"
        )
    if new_b <= 0.0:
        raise GridStructureError(f"closing susceptance must be > 0, got {new_b}")
    up = _LowRank(sys, [e])
    # B^-1 nu_e / (1 / new_b + t_e)
    z = up.solve(up.W.T, f"closing branch {branch}", s_inv=np.array([1.0 / new_b]))[0]
    b_m = sys.b.copy()
    b_m[e] = new_b
    col = -b_m * _end_diff(sys.branch_ends, z)
    col[e] += new_b
    return col
