"""Phase-shifting transformers: effective injections and the PSDF matrix.

A PST with series susceptance ``b`` and shift angle ``t`` drives the flow
``f = b (theta_i - theta_j + t)``. Two equivalent treatments: fold the
shift into effective injections at the PST terminals, or keep injections
untouched and use phase shifter distribution factors so that
``f = PTDF p + PSDF t_shift``.
"""

from __future__ import annotations

import numpy as np

from .errors import GridStructureError
from .factors_base import (
    FactorMatrix,
    FactorRows,
    PSDF,
    PTDF,
    _ptdf_block,
    _shifted_injections,
    ptdf_matrix,
)
from .grid_model import Grid, GroundedSystem, PST, _branch_col, _branch_ends


def shift_vector(grid: Grid, shifts: dict[int, float] | None = None) -> np.ndarray:
    """Per-branch shift angles, from the grid or an override mapping.

    Entries must be zero except on ``kind="pst"`` branches.
    """
    if shifts is None:
        return grid.shift_angles()
    vec = np.zeros(grid.n_branches)
    for branch_id, angle in shifts.items():
        idx = _branch_col(grid, branch_id)
        if angle != 0.0 and grid.branches[idx].kind != PST:
            raise GridStructureError(
                f"branch {branch_id}: phase shift on a non-pst branch"
            )
        vec[idx] = angle
    return vec


def effective_injections(
    grid: Grid, p: np.ndarray, shifts: np.ndarray
) -> np.ndarray:
    """Injections with each PST shift folded in at its terminal buses.

    ``p_hat = p - sum b_e * shift_e * nu_e``; the result stays balanced
    because each incidence vector sums to zero.
    """
    shifts = np.asarray(shifts, dtype=float)
    if shifts.shape != (grid.n_branches,):
        raise GridStructureError(
            f"shift vector has shape {shifts.shape}, expected ({grid.n_branches},)"
        )
    return _shifted_injections(grid, p, shifts)


def psdf_matrix(
    sys: GroundedSystem,
    ptdf: FactorMatrix | None = None,
    susceptances: np.ndarray | None = None,
) -> FactorMatrix:
    """Phase shifter distribution factors: ``f = PTDF p + PSDF t_shift``.

    Column ``e`` is ``-b_e (PTDF[:, from(e)] - PTDF[:, to(e)])`` with the
    extra ``+b_e`` on the diagonal that accounts for the shifted branch
    itself; the slack PTDF column is zero by convention. Passing the PTDF
    and susceptances of a modified topology yields the updated PSDF.
    """
    grid = sys.grid
    if ptdf is None:
        ptdf = ptdf_matrix(sys)
    b = sys.b if susceptances is None else np.asarray(susceptances, dtype=float)
    if ptdf.kind != PTDF:
        raise GridStructureError(f"PSDF needs a PTDF matrix, got {ptdf.kind}")
    # each branch's endpoint columns; the slack's, not stored, is the zero pad
    col_of = {label: j for j, label in enumerate(ptdf.col_labels)}
    return FactorMatrix(
        values=_psdf_block(ptdf.values, _branch_ends(grid, col_of, len(col_of)), b, 0),
        row_labels=grid.branch_ids,
        col_labels=grid.branch_ids,
        kind=PSDF,
    )


def _psdf_block(ptdf: np.ndarray, ends, b: np.ndarray, first: int) -> np.ndarray:
    """The one PSDF row kernel: rows ``first, first + 1, ...`` from the same
    rows of the PTDF, whose columns of each branch's ends are ``ends``."""
    padded = np.zeros((ptdf.shape[0], ptdf.shape[1] + 1))
    padded[:, :-1] = ptdf
    # b_e (PTDF[:, to] - PTDF[:, from]) is -b_e (PTDF[:, from] - PTDF[:, to])
    # bit for bit, except that exact zeros come out +0.0, never -0.0 (which
    # prints as -0); columns with b_e = 0 stay +0.0 by the mask
    diff = padded[:, ends[1]]
    diff -= padded[:, ends[0]]
    values = np.zeros(diff.shape)
    np.multiply(b, diff, out=values, where=b != 0.0)
    at = np.arange(len(values))
    values[at, first + at] += b[first + at]
    return values


def psdf_rows(sys: GroundedSystem) -> FactorRows:
    """The rows of ``psdf_matrix(sys)``, each block computed from the same PTDF
    rows when it is read: no m x n or m x m matrix is formed."""
    ends, B_inv, b = sys.branch_ends, sys.B_inv, sys.b  # PTDF columns: grounded rows

    def block(rows: slice) -> np.ndarray:
        return _psdf_block(_ptdf_block(ends, B_inv, b, rows), ends, b, rows.indices(len(b))[0])

    return FactorRows(block, sys.grid.branch_ids, sys.grid.branch_ids, PSDF)
