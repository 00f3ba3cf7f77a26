"""Baseline DC solution: angles, branch flows, the reference PTDF matrix,
and the endpoint low-rank kernel that every branch update runs on.

Given the grounded system, angles follow from ``theta = B^-1 p`` and flows
from ``f = diag(b) E^T theta``. Stacking the two gives the matrix of power
transfer distribution factors ``PTDF = diag(b) E^T B^-1`` mapping bus
injections (slack-referenced) to branch flows.

Every branch susceptance change, finite or ideal, runs on one endpoint
low-rank kernel, :class:`_LowRank`. Its M = 1 readers are
``updated_inverse``, ``lcdf_column``, ``merge_inverse`` and
``switch_flow``; ``woodbury_update``, ``SwitchKernel``, ``idle_bus_split``
and ``outage_factors`` (its gathers only) read it for M branches. Bus splits
run on the other kernel, ``bus_topology._split_kernel``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._linalg import PIVOT_RTOL, guarded_solve
from .errors import DegenerateSwitchError, GridStructureError, IslandingError
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
    the slack's pad index ``X.shape[0]`` reads a zero row. Gathers only: no
    product, and no padded copy of a matrix ``X``.
    """
    frm, to = ends
    n = X.shape[0]
    if X.ndim == 1:  # padding a vector costs less than masking its gathers
        padded = np.zeros(n + 1)
        padded[:n] = X
        return padded[frm] - padded[to]
    out = np.take(X, frm, axis=0, mode="clip")
    out[frm == n] = 0.0
    sub = np.take(X, to, axis=0, mode="clip")
    sub[to == n] = 0.0
    out -= sub
    return out


class _LowRank:
    """Update of a grounded inverse along the incidence columns ``U`` of some branches.

    ``W = B^-1 U`` and ``K = U^T W`` are gathered on the branch endpoints
    (the slack on the zero pad); ``K_d``, the diagonal of ``K``, holds each
    branch's transfer impedance. :meth:`solve` runs one guarded solve on
    one of the two brackets of Hager's rank-M update (W. W. Hager,
    "Updating the inverse of a matrix", SIAM Review 31(2), 1989):
    ``S^-1 + K`` for finite changes ``S``, or ``K_d + (K - K_d) Xi`` for
    ideal closures ``Xi`` (0 open, 1 closed), its limit as the closed
    susceptances diverge.
    """

    def __init__(self, sys: GroundedSystem, cols):
        self.sys = sys
        self.cols = cols = np.asarray(cols, dtype=np.intp)
        self.ends = (sys.branch_ends[0][cols], sys.branch_ends[1][cols])
        self.W = np.ascontiguousarray(_end_diff(self.ends, sys.B_inv).T)
        self.K = _end_diff(self.ends, self.W)
        self.K_d = np.diag(self.K).copy()
        # K_d ~ 1/b: tested against B^-1_ff + B^-1_tt, the terms it is the difference of
        d = np.append(np.diagonal(sys.B_inv), 0.0)
        self.degenerate = self.K_d <= PIVOT_RTOL * (d[self.ends[0]] + d[self.ends[1]])

    def closure(self, closed) -> np.ndarray:
        """Closure diagonal ``Xi``: exactly 0 (open) or 1 (closed) per branch,
        once every branch's transfer impedance passes the ``degenerate`` test."""
        if self.degenerate.any():
            ids = [self.sys.grid.branches[c].id for c in self.cols[self.degenerate]]
            raise DegenerateSwitchError(
                f"switches {ids} have no transfer impedance in the all-open reference"
            )
        return np.array([1.0 if c else 0.0 for c in closed])

    def solve(self, rhs: np.ndarray, context: str, s_inv=None, xi=None) -> np.ndarray:
        """Solve the finite bracket (``s_inv = 1 / S``) or the closure bracket
        (``xi``); a singular closure bracket raises DegenerateSwitchError."""
        if xi is None:
            bracket = np.diag(s_inv) + self.K
            scale = max(np.abs(s_inv).max(), np.abs(self.K).max())
            return guarded_solve(bracket, rhs, context, scale)
        bracket = np.diag(self.K_d) + (self.K - np.diag(self.K_d)) * xi
        try:
            return guarded_solve(bracket, rhs, context, np.abs(self.K).max())
        except IslandingError as exc:
            raise self._redundant_closing(xi) from exc

    def updated(self, context: str, s_inv=None, xi=None) -> np.ndarray:
        """The updated inverse ``B^-1 - W Xi X`` (``Xi = 1`` for finite changes)."""
        X = self.solve(self.W.T, context, s_inv, xi)
        W = self.W if xi is None else self.W * xi
        return self.sys.B_inv - W @ X

    def _redundant_closing(self, xi: np.ndarray) -> DegenerateSwitchError:
        """Tell a redundant closing apart from corrupt data: union-find over the
        closed branches finds one whose terminals the others already merged."""
        parent: dict[int, int] = {}

        def find(x: int) -> int:
            while parent.setdefault(x, x) != x:
                x = parent[x]
            return x

        for c, closed in zip(self.cols, xi):
            if not closed:
                continue
            br = self.sys.grid.branches[c]
            ra, rb = find(br.from_bus), find(br.to_bus)
            if ra == rb:
                return DegenerateSwitchError(
                    f"closing switch {br.id} is redundant: its terminals are already "
                    "merged through other closed switches"
                )
            parent[ra] = rb
        return DegenerateSwitchError(
            "multi-switch merge produced a singular closure system"
        )


def _wrap_ptdf(
    sys: GroundedSystem, B_inv: np.ndarray, b: np.ndarray, drop: Sequence[int] = ()
) -> FactorMatrix:
    """PTDF ``diag(b) E^T B_inv`` for an inverse and susceptances in the
    coordinates of ``sys`` (such as updated ones), rows of ``drop`` left out.

    Row ``e`` is ``b_e (B_inv[from e] - B_inv[to e])``, gathered on the
    branch endpoints: O(nm), no product. Rows with ``b_e = 0`` are +0.0.
    """
    values = _end_diff(sys.branch_ends, B_inv)
    values *= b[:, None]
    values[b == 0.0] = 0.0
    rows = sys.grid.branch_ids
    if drop:
        keep = [i for i, bid in enumerate(rows) if bid not in drop]
        values, rows = values[keep], tuple(rows[i] for i in keep)
    return FactorMatrix(values=values, row_labels=rows, col_labels=sys.bus_ids, kind=PTDF)


def ptdf_matrix(sys: GroundedSystem) -> FactorMatrix:
    """Reference PTDF: sensitivities of branch flows to bus injections.

    ``PTDF = diag(b) E^T B^-1`` with the slack column omitted, read off the
    rows of the grounded inverse at each branch's endpoints.
    """
    return _wrap_ptdf(sys, sys.B_inv, sys.b)
