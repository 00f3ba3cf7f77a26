"""Baseline DC solution: angles, branch flows, and the reference PTDF matrix.

Given the grounded system, angles follow from ``theta = B^-1 p`` and flows
from ``f = diag(b) E^T theta``. Stacking the two gives the matrix of power
transfer distribution factors ``PTDF = diag(b) E^T B^-1`` mapping bus
injections (slack-referenced) to branch flows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridStructureError
from .grid_model import PST, Grid, GroundedSystem

PTDF = "PTDF"
PSDF = "PSDF"
LODF = "LODF"

_KINDS = (PTDF, PSDF, LODF)


@dataclass(frozen=True, eq=False)
class FlowState:
    """Angles over non-slack buses (radians, slack at 0) and branch flows."""

    angles: np.ndarray
    flows: np.ndarray
    bus_ids: tuple[int, ...]
    branch_ids: tuple[int, ...]

    def flow(self, branch_id: int) -> float:
        return float(self.flows[self.branch_ids.index(branch_id)])

    def max_loaded(self) -> tuple[int, float]:
        """Branch id carrying the largest absolute flow, and that |flow|."""
        i = int(np.argmax(np.abs(self.flows)))
        return self.branch_ids[i], float(abs(self.flows[i]))


@dataclass(frozen=True, eq=False)
class FactorMatrix:
    """Labeled dense factor matrix: branch rows, bus or branch columns.

    For ``kind="PTDF"`` the columns span the non-slack buses; the slack
    column is identically zero by convention and is not stored, use
    :meth:`column` to materialize it on demand.
    """

    values: np.ndarray
    row_labels: tuple[int, ...]
    col_labels: tuple[int, ...]
    kind: str = PTDF

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise GridStructureError(f"unknown factor kind {self.kind!r}")
        if self.values.shape != (len(self.row_labels), len(self.col_labels)):
            raise GridStructureError(
                f"factor matrix shape {self.values.shape} does not match labels"
            )

    def row(self, branch_id: int) -> np.ndarray:
        return self.values[self.row_labels.index(branch_id)]

    def column(self, label: int) -> np.ndarray:
        """Column for a bus/branch label; zeros for an unstored slack column."""
        if label in self.col_labels:
            return self.values[:, self.col_labels.index(label)]
        if self.kind == PTDF:
            return np.zeros(len(self.row_labels))
        raise KeyError(label)


def solve_angles(sys: GroundedSystem, p: np.ndarray) -> np.ndarray:
    """Solve ``B theta = p`` for the non-slack angles.

    ``p`` is the injection vector over all buses in grid order; the slack
    entry is dropped internally. The system must be balanced, which makes
    the dropped entry redundant.
    """
    p = np.asarray(p, dtype=float)
    if p.shape != (sys.grid.n_buses,):
        raise GridStructureError(
            f"injection vector has shape {p.shape}, expected ({sys.grid.n_buses},)"
        )
    return sys.B_inv @ sys.reduce(p)


def _shifted_injections(grid: Grid, p: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """Fold phase-shift angles into effective injections at the PST terminals."""
    p_hat = np.asarray(p, dtype=float).copy()
    bidx = grid.bus_index
    for e, br in enumerate(grid.branches):
        if shifts[e] == 0.0:
            continue
        if br.kind != PST:
            raise GridStructureError(
                f"branch {br.id}: phase shift on a non-pst branch"
            )
        amount = br.effective_susceptance * shifts[e]
        p_hat[bidx[br.from_bus]] -= amount
        p_hat[bidx[br.to_bus]] += amount
    return p_hat


def compute_flows(
    sys: GroundedSystem,
    theta: np.ndarray,
    shifts: np.ndarray | None = None,
) -> FlowState:
    """Branch flows ``f = diag(b) E^T theta`` for given non-slack angles.

    When ``shifts`` is given (flows driven by shift-effective injections),
    the flow over each PST branch gets its ``+ b_e * shift`` correction so
    that Kirchhoff's current law holds with the original injections.
    ``E^T theta`` is read off the branch endpoints, the slack at angle 0.
    """
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (sys.n,):
        raise GridStructureError(
            f"angle vector has shape {theta.shape}, expected ({sys.n},)"
        )
    f = sys.b * _end_diff(sys.branch_ends, theta)
    if shifts is not None:
        f = f + sys.b * np.asarray(shifts, dtype=float)
    return FlowState(
        angles=theta,
        flows=f,
        bus_ids=sys.bus_ids,
        branch_ids=sys.grid.branch_ids,
    )


def solve_flow(sys: GroundedSystem, p: np.ndarray | None = None) -> FlowState:
    """End-to-end DC solution for the grid's own injections and PST shifts."""
    grid = sys.grid
    if p is None:
        p = grid.injections()
    shifts = grid.shift_angles()
    has_shift = bool(np.any(shifts))
    p_eff = _shifted_injections(grid, p, shifts) if has_shift else p
    theta = solve_angles(sys, p_eff)
    return compute_flows(sys, theta, shifts if has_shift else None)


def _end_diff(ends: tuple[np.ndarray, np.ndarray], X: np.ndarray) -> np.ndarray:
    """``E^T X``: the rows of ``X`` at each branch's from end minus its to end.

    ``ends`` are grounded endpoint rows (``GroundedSystem.branch_ends``);
    the slack's pad index ``n`` reads a zero row. Gathers only, no product.
    """
    frm, to = ends
    padded = np.zeros((X.shape[0] + 1,) + X.shape[1:])
    padded[:-1] = X
    out = padded[frm]
    out -= padded[to]
    return out


def _ptdf_rows(ends: tuple[np.ndarray, np.ndarray], B_inv: np.ndarray, b: np.ndarray) -> np.ndarray:
    """PTDF values ``diag(b) E^T B_inv`` for the branches with endpoints ``ends``.

    Row ``e`` is ``b_e (B_inv[from e] - B_inv[to e])``, gathered on the
    branch endpoints with the slack on a zero pad row: O(nm), no product.
    ``B_inv`` may be any inverse in the grounded coordinates of ``ends``,
    such as one updated for a modification, and ``b`` the matching
    susceptances. Rows with ``b_e = 0`` are exact +0.0 (not -0.0).
    """
    rows = _end_diff(ends, B_inv)
    rows *= b[:, None]
    rows[b == 0.0] = 0.0
    return rows


def ptdf_matrix(sys: GroundedSystem) -> FactorMatrix:
    """Reference PTDF: sensitivities of branch flows to bus injections.

    ``PTDF = diag(b) E^T B^-1`` with the slack column omitted, read off the
    rows of the grounded inverse at each branch's endpoints.
    """
    return FactorMatrix(
        values=_ptdf_rows(sys.branch_ends, sys.B_inv, sys.b),
        row_labels=sys.grid.branch_ids,
        col_labels=sys.bus_ids,
        kind=PTDF,
    )
