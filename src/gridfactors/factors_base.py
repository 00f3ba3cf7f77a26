"""Baseline DC solution: angles, branch flows, the reference PTDF matrix,
and the endpoint low-rank kernel that every branch update runs on.

Given the grounded system, angles follow from ``theta = B^-1 p`` and flows
from ``f = diag(b) E^T theta``. Stacking the two gives the matrix of power
transfer distribution factors ``PTDF = diag(b) E^T B^-1`` mapping bus
injections (slack-referenced) to branch flows.

Every branch susceptance change, finite or ideal, runs on one endpoint
low-rank kernel, :class:`_LowRank`, with one bracket ``S^-1 + K`` (``1/s =
0`` for an ideal closure). ``updated_inverse`` and ``lcdf_column`` read it
for one branch; ``bus_topology.ComposedUpdate`` (a whole modification set,
every switch closure among it), ``SwitchKernel`` (its sweep) and
``outage_factors`` (``K_d`` and :meth:`_LowRank.at_ends` only) for M branches, and
``bus_topology._split_kernel`` for the branches at the split buses.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable, Sequence

import numpy as np

from ._linalg import guarded_solve
from .errors import DegenerateSwitchError, GridStructureError
from .grid_model import PST, Grid, GroundedSystem, _walk

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

    def block(self, rows: slice) -> np.ndarray:  # as FactorRows.block
        return self.values[rows]

    def column(self, label: int) -> np.ndarray:
        """Column for a bus/branch label; zeros for an unstored slack column."""
        if label in self.col_labels:
            return self.values[:, self.col_labels.index(label)]
        if self.kind == PTDF:
            return np.zeros(len(self.row_labels))
        raise KeyError(label)


@dataclass(frozen=True, eq=False)
class FactorRows:
    """A factor matrix as its labels and a row kernel: ``block(rows)`` computes
    the rows of a slice, so a writer streams them and never holds them all."""

    block: Callable[[slice], np.ndarray]
    row_labels: tuple[int, ...]
    col_labels: tuple[int, ...]
    kind: str = PTDF


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
    """End-to-end DC solution for the grid's own injections and PST shifts. A
    switch in ``sys.closed_switches`` has no ``b``, so its flow reads zero here;
    ``bus_topology.ComposedUpdate(sys).flows()`` gives it by Kirchhoff's law."""
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
    product, and no padded copy of ``X``.
    """
    frm, to = ends
    n = X.shape[0]
    out = np.take(X, frm, axis=0, mode="clip")
    out[frm == n] = 0.0
    sub = np.take(X, to, axis=0, mode="clip")
    sub[to == n] = 0.0
    out -= sub
    return out


class _LowRank:
    """Update of a grounded inverse along the incidence columns ``U`` of some branches.

    It reads ``B^-1`` two ways. Entries on pairs of branch ends
    (:meth:`_inv_at`) give the brackets: ``K = U^T B^-1 U``, its diagonal
    ``K_d`` (each branch's transfer impedance, so a screen can test its
    outages before it gathers anything) and the LODF blocks of
    ``outage_factors`` (:meth:`at_ends`), O(1) an entry, no row of ``B^-1``.
    Rows on the columns' ends give ``W = B^-1 U`` (n x k, the transposed view
    of ``Wt = U^T B^-1``), which only the updates read.
    :meth:`solve` runs one guarded solve on the bracket ``S^-1 + K`` of
    Hager's rank-M update (W. W. Hager, "Updating the inverse of a matrix",
    SIAM Review 31(2), 1989) for the changes ``S``; an ideal closure is the
    column with ``1/s = 0``, the limit as its susceptance diverges, so the
    bracket stays finite. ``ends``, the columns' grounded endpoints, default
    to those of the branches ``cols`` of ``sys``; ``ComposedUpdate`` passes its own.
    """

    def __init__(self, sys: GroundedSystem, cols, ends=None):
        self.sys = sys
        self.cols = cols = np.asarray(cols, dtype=np.intp)
        self.ends = ends or (sys.branch_ends[0][cols], sys.branch_ends[1][cols])

    @cached_property
    def Wt(self) -> np.ndarray:
        """Rows ``B^-1[from] - B^-1[to]`` per column, the slack's row at zero."""
        return _end_diff(self.ends, self.sys.B_inv)

    W = property(lambda up: up.Wt.T)  # B^-1 U, n x k: the transposed view of Wt

    def _inv_at(self, r: np.ndarray, c: np.ndarray) -> np.ndarray:
        """Entries ``B^-1[r, c]`` for grounded rows and columns, zero on the slack's pad."""
        n = self.sys.n
        v = self.sys.B_inv[np.minimum(r, n - 1), np.minimum(c, n - 1)]
        v[(r == n) | (c == n)] = 0.0
        return v

    def _bracket(self, f, t, a, b) -> np.ndarray:
        """``(B^-1[f, a] - B^-1[t, a]) - (B^-1[f, b] - B^-1[t, b])``, broadcast:
        one entry of ``U^T B^-1 U'`` per column pair, always in this association."""
        entry = self._inv_at
        return (entry(f, a) - entry(t, a)) - (entry(f, b) - entry(t, b))

    def at_ends(self, ends: tuple[np.ndarray, np.ndarray], sub=None) -> np.ndarray:
        """``(E^T W)^T`` for the branches with grounded endpoints ``ends``: row
        ``j`` holds ``W[from, j] - W[to, j]`` per branch; only the rows ``sub``
        of it when given, each entry bit for bit the same."""
        f, t = (x[:, None] if sub is None else x[sub, None] for x in self.ends)
        return self._bracket(f, t, *ends)

    @cached_property
    def K(self) -> np.ndarray:
        return self.at_ends(self.ends).T

    @cached_property
    def K_d(self) -> np.ndarray:
        """``t_e = nu_e^T B^-1 nu_e``: the diagonal of ``K``, bit for bit, four entries a branch."""
        return self._bracket(*self.ends, *self.ends)

    def solve(self, rhs: np.ndarray, context: str, s_inv) -> np.ndarray:
        """Solve ``(S^-1 + K) x = rhs`` by ``guarded_solve``; a caller that
        closes switches runs :meth:`check_closings` first, once per update."""
        scale = max(np.abs(s_inv).max(), np.abs(self.K).max())
        return guarded_solve(np.diag(s_inv) + self.K, rhs, context, scale)

    def updated(self, context: str, s_inv) -> np.ndarray:
        """The updated inverse ``B^-1 - W (S^-1 + K)^-1 W^T``."""
        return self.sys.B_inv - self.W @ self.solve(self.W.T, context, s_inv)

    def check_closings(self, s_inv) -> None:
        """DegenerateSwitchError, naming the branch at its column's position in
        ``cols``, if an ideal closure (``s_inv == 0``) lies on a cycle of them and
        of ``sys.closed_switches``: one walk on their own buses relabelled ``0..``
        (the slack's pad among them), at most ``2k`` nodes for ``k`` switches."""
        sys, closed = self.sys, np.flatnonzero(np.asarray(s_inv) == 0.0)
        done = [sys.grid.branch_index[s] for s in sys.closed_switches]
        ends = [np.concatenate([e[done], c[closed]]) for e, c in zip(sys.branch_ends, self.ends)]
        buses, at = np.unique(np.concatenate(ends), return_inverse=True)
        bridge = _walk(buses.size, *at.reshape(2, -1))[1][len(done) :]
        if not bridge.all():
            br = sys.grid.branches[self.cols[closed[~bridge][-1]]]
            raise DegenerateSwitchError(
                f"closing switch {br.id} is redundant: its terminals are already "
                "merged through other closed switches"
            )


def _ptdf_block(ends, B_inv: np.ndarray, b: np.ndarray, rows: slice = slice(None)) -> np.ndarray:
    """The one PTDF row kernel: rows ``rows`` of ``diag(b) E^T B_inv``, row
    ``e`` being ``b_e (B_inv[from e] - B_inv[to e])`` gathered on the grounded
    endpoints ``ends``: O(n) a row, no product. Rows with ``b_e = 0`` are +0.0."""
    values = _end_diff((ends[0][rows], ends[1][rows]), B_inv)
    b = b[rows]
    values *= b[:, None]
    values[b == 0.0] = 0.0
    return values


def _wrap_ptdf(
    sys: GroundedSystem, B_inv: np.ndarray, b: np.ndarray, drop: Sequence[int] = ()
) -> FactorMatrix:
    """PTDF ``diag(b) E^T B_inv`` for an inverse and susceptances in the
    coordinates of ``sys`` (such as updated ones), rows of ``drop`` left out."""
    values = _ptdf_block(sys.branch_ends, B_inv, b)
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


def ptdf_rows(sys: GroundedSystem) -> FactorRows:
    """The rows of :func:`ptdf_matrix`, each block computed when it is read."""
    block = partial(_ptdf_block, sys.branch_ends, sys.B_inv, sys.b)
    return FactorRows(block, sys.grid.branch_ids, sys.bus_ids, PTDF)
