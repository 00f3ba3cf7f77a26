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
    PSDF,
    PTDF,
    _shifted_injections,
    ptdf_matrix,
)
from .grid_model import Grid, GroundedSystem, PST


def shift_vector(grid: Grid, shifts: dict[int, float] | None = None) -> np.ndarray:
    """Per-branch shift angles, from the grid or an override mapping.

    Entries must be zero except on ``kind="pst"`` branches.
    """
    if shifts is None:
        return grid.shift_angles()
    vec = np.zeros(grid.n_branches)
    for branch_id, angle in shifts.items():
        idx = grid.branch_index.get(branch_id)
        if idx is None:
            raise GridStructureError(f"unknown branch {branch_id}")
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
    # the endpoint columns of every branch, gathered at once; a bus without a
    # stored column (the slack) reads the zero pad column
    col_of = {label: j for j, label in enumerate(ptdf.col_labels)}
    pad = len(col_of)
    frm = [col_of.get(br.from_bus, pad) for br in grid.branches]
    to = [col_of.get(br.to_bus, pad) for br in grid.branches]
    padded = np.zeros((ptdf.values.shape[0], pad + 1))
    padded[:, :pad] = ptdf.values
    # b_e (PTDF[:, to] - PTDF[:, from]) is -b_e (PTDF[:, from] - PTDF[:, to])
    # bit for bit, except that exact zeros come out +0.0, never -0.0 (which
    # prints as -0); columns with b_e = 0 stay +0.0 by the mask
    diff = padded[:, to]
    diff -= padded[:, frm]
    n_e = grid.n_branches
    values = np.zeros((n_e, n_e))
    np.multiply(b, diff, out=values, where=b != 0.0)
    values[np.arange(n_e), np.arange(n_e)] += b
    return FactorMatrix(
        values=values,
        row_labels=grid.branch_ids,
        col_labels=grid.branch_ids,
        kind=PSDF,
    )
