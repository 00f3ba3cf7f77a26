"""Single-branch susceptance changes, line outages and line closings.

All of these are rank-one updates of the grounded matrix, handled by the
Sherman-Morrison formula. The derived quantities are the updated inverse
and PTDF, the line outage distribution factor (LODF) column, the angle
difference left across an outaged branch, and the line closing distribution
factor (LCDF) column.

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
from .factors_base import FactorMatrix, PTDF, _ptdf_rows
from .grid_model import GroundedSystem

#: relative tolerance of the scale-aware zero test on the update denominator
DENOM_RTOL = 1e-8


@dataclass(frozen=True)
class BranchDelta:
    """One susceptance change: outage is ``delta_b = -b_e``, closing starts
    from ``b_e = 0`` with ``delta_b > 0``."""

    branch: int
    delta_b: float


def _check_delta(sys: GroundedSystem, d: BranchDelta) -> int:
    e = sys.grid.branch_index.get(d.branch)
    if e is None:
        raise GridStructureError(f"unknown branch {d.branch}")
    if sys.b[e] + d.delta_b < SUSCEPTANCE_FLOOR:
        raise GridStructureError(
            f"branch {d.branch}: susceptance would become negative "
            f"({sys.b[e]} + {d.delta_b})"
        )
    return e


def _sm_denominator(sys: GroundedSystem, e: int, delta_b: float) -> tuple[np.ndarray, float, float]:
    """Sherman-Morrison pieces: ``w = B^-1 nu_e`` and ``1 + db nu^T w``."""
    nu = sys.E_r[:, e]
    w = sys.B_inv @ nu
    transfer = float(nu @ w)
    denom = 1.0 + delta_b * transfer
    return w, transfer, denom


def _require_safe(denom: float, scale: float, what: str) -> None:
    if abs(denom) <= DENOM_RTOL * max(1.0, abs(scale)):
        raise IslandingError(
            f"{what} would island the grid (denominator {denom:.3g})",
            criterion=denom,
        )


def updated_inverse(sys: GroundedSystem, d: BranchDelta) -> np.ndarray:
    """Inverse of the grounded matrix after one susceptance change."""
    e = _check_delta(sys, d)
    if d.delta_b == 0.0:
        return sys.B_inv
    w, transfer, denom = _sm_denominator(sys, e, d.delta_b)
    _require_safe(denom, d.delta_b * transfer, f"modifying branch {d.branch}")
    return sys.B_inv - np.outer(w, w) * (d.delta_b / denom)


def ptdf_after_mod(sys: GroundedSystem, d: BranchDelta) -> FactorMatrix:
    """PTDF of the modified grid; for an outage the modified row vanishes.

    Every row, including the modified one, is taken directly from the
    updated inverse: ``PTDF_m = diag(b_m) E^T B_m^-1``.
    """
    B_m_inv = updated_inverse(sys, d)
    e = sys.grid.branch_index[d.branch]
    b_m = sys.b.copy()
    b_m[e] += d.delta_b
    values = _ptdf_rows(sys.branch_ends, B_m_inv, b_m)
    return FactorMatrix(
        values=values,
        row_labels=sys.grid.branch_ids,
        col_labels=sys.bus_ids,
        kind=PTDF,
    )


class OutageFactors(NamedTuple):
    """Screening quantities for outaging a block of k branches, one entry
    (or column) per outaged branch."""

    criterion: np.ndarray  #: ``1 - b_e t_e``; zero flags a bridge
    transfer: np.ndarray  #: ``b_e t_e`` with ``t_e = nu_e^T B^-1 nu_e``
    islands: np.ndarray  #: criterion is zero within ``OUTAGE_RTOL``
    lodf: np.ndarray  #: m x k LODF block, NaN columns where the outage islands


def lodf_tail(
    b: np.ndarray,
    g: np.ndarray,
    denom: np.ndarray,
    cols: Sequence[int],
    islands: np.ndarray,
) -> np.ndarray:
    """LODF columns ``b * g / denom`` with each self-entry exactly -1.

    ``g[:, j]`` is ``E^T B^-1 nu_e`` for the outaged branch ``e = cols[j]``
    and ``denom[j]`` its criterion ``1 - b_e t_e``. Columns flagged in
    ``islands`` are never divided and come back as NaN.
    """
    lodf = b[:, None] * g
    np.divide(lodf, denom, out=lodf, where=~islands)
    lodf[cols, np.arange(len(cols))] = -1.0
    lodf[:, islands] = np.nan
    return lodf


def outage_factors(sys: GroundedSystem, branch_idx: Sequence[int]) -> OutageFactors:
    """Islanding criteria and LODF columns for outaging each listed branch.

    ``branch_idx`` holds k branch positions (incidence columns). With
    ``W = B^-1[from_k] - B^-1[to_k]`` gathered on the outaged branches'
    endpoints, ``H = (W[:, from] - W[:, to])^T`` (m x k) holds
    ``E^T B^-1 nu_e`` for the j-th outage ``e`` in column j, so
    ``t_e = H[e, j]`` and ``LODF = diag(b) H / (1 - b_e t_e)``. Only gathers on branch endpoints
    are used, no matrix product: a block costs O(k (n + m)).
    """
    cols = np.atleast_1d(np.asarray(branch_idx, dtype=np.intp))
    frm, to = sys.branch_ends
    n = sys.n
    W = np.zeros((len(cols), n + 1))  # column n is the slack pad, kept at zero
    live = frm[cols] < n
    W[live, :n] = sys.B_inv[frm[cols[live]]]
    live = to[cols] < n
    W[live, :n] -= sys.B_inv[to[cols[live]]]
    H = (W[:, frm] - W[:, to]).T
    transfer = sys.b[cols] * H[cols, np.arange(len(cols))]
    criterion = 1.0 - transfer
    islands = np.abs(criterion) <= OUTAGE_RTOL * np.maximum(1.0, np.abs(transfer))
    return OutageFactors(
        criterion, transfer, islands, lodf_tail(sys.b, H, criterion, cols, islands)
    )


def _in_service(sys: GroundedSystem, branch: int) -> int:
    e = sys.grid.branch_index.get(branch)
    if e is None:
        raise GridStructureError(f"unknown branch {branch}")
    if sys.b[e] <= 0.0:
        raise GridStructureError(f"branch {branch} is not in service")
    return e


def lodf_column(sys: GroundedSystem, branch: int) -> np.ndarray:
    """LODF column for outaging ``branch``: ``f_m = f_r + col * f_r[e]``.

    The self-entry is exactly -1: the outaged branch carries no flow
    afterwards.
    """
    out = outage_factors(sys, [_in_service(sys, branch)])
    criterion, transfer = float(out.criterion[0]), float(out.transfer[0])
    _require_safe(criterion, transfer, f"outage of branch {branch}")
    return out.lodf[:, 0]


def post_outage_angle_diff(sys: GroundedSystem, branch: int, f_r: np.ndarray) -> float:
    """Angle difference across ``branch`` after its own outage.

    Evaluates ``[b_e + db (PTDF_ei - PTDF_ej)]^-1 u_e^T f_r`` with
    ``db = -b_e``; zero pre-outage flow gives zero angle difference.
    """
    e = _in_service(sys, branch)
    b_e = sys.b[e]
    # PTDF_{e,i} - PTDF_{e,j} = b_e nu^T B^-1 nu, so b_e times it is the transfer term
    transfer = float(outage_factors(sys, [e]).transfer[0])
    denom = b_e - b_e * transfer
    _require_safe(denom / b_e, transfer, f"outage of branch {branch}")
    return float(np.asarray(f_r)[e]) / denom


def lcdf_column(sys: GroundedSystem, branch: int, new_b: float) -> np.ndarray:
    """LCDF column for closing ``branch`` at susceptance ``new_b``.

    The branch must already be present in the incidence matrix with zero
    susceptance. Flows update as ``f_m = f_r + col * (nu_e^T theta_r)``,
    the angle difference across the still-open branch.
    """
    e = sys.grid.branch_index.get(branch)
    if e is None:
        raise GridStructureError(f"unknown branch {branch}")
    if sys.b[e] != 0.0:
        raise GridStructureError(
            f"branch {branch} is already in service (b={sys.b[e]}); "
            "closing requires a zero-susceptance branch"
        )
    if new_b <= 0.0:
        raise GridStructureError(f"closing susceptance must be > 0, got {new_b}")
    nu = sys.E_r[:, e]
    w = sys.B_inv @ nu
    denom = 1.0 + new_b * float(nu @ w)
    b_m = sys.b.copy()
    b_m[e] = new_b
    col = new_b * (-(b_m * (sys.E_r.T @ w)) / denom)
    col[e] += new_b
    return col
