"""Bus merges and bus splits as limits of rank-one susceptance updates.

Closing an ideal switch merges two buses: the infinite-susceptance limit,
a column with ``1/s = 0`` of the endpoint kernel ``factors_base._LowRank``
(``merge_inverse`` and ``switch_flow`` read ``multi_mod.SwitchKernel`` for
one switch). Opening a busbar coupler (a bus split) is handled through
three configurations: the merged reference, a padded "closed but not
merged" inverse obtained by copying the parent row and column, and the
open topology. The split inverse then follows from a closed-form
expression that never references the diverging coupler susceptance. The
split kernel :func:`_split_kernel` forms its pieces; ``split_criterion``,
``split_inverse``, ``bsdf_vector``, ``split_ptdf`` and ``lodf_after_split``
are its M = 1 readers. :class:`ComposedUpdate` rewires moved branches onto
idle buses instead, so a whole modification set (deltas, closures and
splits) is one endpoint-kernel update; ``idle_bus_split`` is its
splits-only reader and the cross-check of the split kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from .errors import GridStructureError, IslandingError
from .factors_base import (
    FactorMatrix,
    _LowRank,
    _end_diff,
    _shifted_injections,
    _wrap_ptdf,
    ptdf_matrix,
    solve_angles,
)
from .grid_model import (
    SWITCH,
    Branch,
    Bus,
    Grid,
    GroundedSystem,
    _branch_col,
    _branch_ends,
    _grounded_coords,
    _grounded_laplacian,
    _incidence,
    _Lazy,
    system_from_inverse,
)
from .multi_mod import SwitchKernel, SwitchStates
from .single_mod import BranchDelta, _check_delta, lodf_column

PARENT = "parent"
NEW = "new"

#: factor on ||B_o||_inf * ||nu||^2 below which the split criterion counts as zero
SPLIT_RTOL = 1e-10


@dataclass(frozen=True)
class SplitSpec:
    """One bus split: which incident branches and how much injection move.

    ``assignments`` maps incident branch ids to ``"parent"`` or ``"new"``;
    branches not listed stay on the parent. ``new_bus`` defaults to the
    largest existing bus id plus one. ``injection_to_new`` must be given
    explicitly whenever the parent bus carries a nonzero injection.
    """

    parent_bus: int
    assignments: Mapping[int, str] = None
    new_bus: int | None = None
    injection_to_new: float | None = None

    def __post_init__(self):
        object.__setattr__(
            self, "assignments", dict(self.assignments or {})
        )


@dataclass(frozen=True)
class _ResolvedSplit:
    parent: int
    new_bus: int
    moved: tuple[int, ...]  # branch ids rewired to the new bus
    injection_to_new: float


def _resolve_split(grid: Grid, split: SplitSpec) -> _ResolvedSplit:
    if split.parent_bus not in grid.bus_index:
        raise GridStructureError(f"unknown parent bus {split.parent_bus}")
    incident = {br.id for br in grid.branches_at(split.parent_bus)}
    moved = []
    for branch_id, side in split.assignments.items():
        if branch_id not in incident:
            raise GridStructureError(
                f"branch {branch_id} is not incident to bus {split.parent_bus}"
            )
        if side not in (PARENT, NEW):
            raise GridStructureError(
                f"branch {branch_id}: assignment must be 'parent' or 'new', got {side!r}"
            )
        if side == NEW:
            moved.append(branch_id)
    new_bus = split.new_bus if split.new_bus is not None else max(grid.bus_ids) + 1
    if new_bus in grid.bus_index:
        raise GridStructureError(f"new bus id {new_bus} already exists")
    parent_injection = grid.bus(split.parent_bus).injection
    if split.injection_to_new is None:
        if abs(parent_injection) > 1e-9:
            raise GridStructureError(
                f"bus {split.parent_bus} carries injection {parent_injection:.6g}; "
                "the split must state injection_to_new explicitly"
            )
        injection_to_new = 0.0
    else:
        injection_to_new = float(split.injection_to_new)
    return _ResolvedSplit(
        parent=split.parent_bus,
        new_bus=new_bus,
        moved=tuple(sorted(moved)),
        injection_to_new=injection_to_new,
    )


def apply_split(grid: Grid, split: SplitSpec) -> Grid:
    """Grid with the split applied: branches rewired, injection divided.

    The new bus is appended to the bus list; branch order is preserved.
    The result may be disconnected, which the factor routes detect through
    their islanding criteria.
    """
    return _apply_splits(grid, split)[0]


# --- bus merge (switch closing) ----------------------------------------------

def merge_inverse(sys: GroundedSystem, switch: int) -> np.ndarray:
    """Grounded inverse after closing an ideal switch between two buses.

    This is the infinite-susceptance limit of the rank-one update; the
    result is singular in the unmerged coordinates and satisfies
    ``B_m^-1 nu_s = 0``: both terminals sit at the same angle.
    """
    return SwitchKernel(sys, [switch]).merged_inverse(SwitchStates((switch,), (True,)))


def merged_ptdf(sys: GroundedSystem, switch: int) -> FactorMatrix:
    """PTDF of the merged grid for every branch except the switch itself."""
    return _wrap_ptdf(sys, merge_inverse(sys, switch), sys.b, drop=(switch,))


def switch_flow(sys: GroundedSystem, switch: int, p: np.ndarray | None = None) -> float:
    """Flow over a closed switch, from bus to to bus.

    Read off ``SwitchKernel.merged_angles`` for the one switch: the closure
    solve on the reference angles gives the switch's flow directly.
    """
    if p is None:
        p = sys.grid.injections()
    states = SwitchStates(switches=(switch,), closed=(True,))
    _, y = SwitchKernel(sys, [switch]).merged_angles(states, solve_angles(sys, p))
    return float(y[0])


# --- bus split: three-configuration route ------------------------------------

@dataclass(frozen=True, eq=False)
class TriConfig:
    """The three grid configurations of a bus split, plus bookkeeping.

    ``grid_o`` is the open topology with the new buses appended; ``ends_o``
    its grounded branch endpoint rows (the slack on the pad index ``n_o``);
    ``B_c_inv`` the padded inverse whose parent and new rows/columns are
    identical copies; ``U`` stacks the coupler incidence vectors, one column
    per split. The open grid's incidence ``E_o_r`` and grounded matrix
    ``B_o`` are built on first read.
    """

    grid_o: Grid
    splits: tuple[_ResolvedSplit, ...]
    bus_ids_o: tuple[int, ...]
    index_map_o: dict[int, int]
    ends_o: tuple[np.ndarray, np.ndarray]
    E_o_r: np.ndarray = _Lazy(lambda t: _incidence(t.ends_o, len(t.bus_ids_o)))
    b_o: np.ndarray
    B_o: np.ndarray = _Lazy(lambda t: _grounded_laplacian(t.ends_o, t.b_o, len(t.bus_ids_o)))
    B_c_inv: np.ndarray
    U: np.ndarray

    @property
    def n_splits(self) -> int:
        return len(self.splits)


def _apply_splits(
    grid: Grid, splits: SplitSpec | Sequence[SplitSpec]
) -> tuple[Grid, list[_ResolvedSplit]]:
    """Grid with the splits applied in order, each resolved once, on the grid it splits."""
    if isinstance(splits, SplitSpec):
        splits = [splits]
    resolved = []
    for spec in splits:
        r = _resolve_split(grid, spec)
        resolved.append(r)
        buses = []
        for bus in grid.buses:
            if bus.id == r.parent:
                buses.append(replace(bus, injection=bus.injection - r.injection_to_new))
            else:
                buses.append(bus)
        buses.append(Bus(id=r.new_bus, injection=r.injection_to_new))
        branches = []
        for br in grid.branches:
            if br.id in r.moved:
                branches.append(
                    replace(
                        br,
                        from_bus=r.new_bus if br.from_bus == r.parent else br.from_bus,
                        to_bus=r.new_bus if br.to_bus == r.parent else br.to_bus,
                    )
                )
            else:
                branches.append(br)
        grid = Grid(buses=tuple(buses), branches=tuple(branches))
    return grid, resolved


def pad_inverse(
    sys: GroundedSystem, splits: SplitSpec | Sequence[SplitSpec]
) -> TriConfig:
    """Build the closed-but-not-merged inverse by row/column padding.

    Each new bus receives a copy of its parent's row and column of the
    merged inverse (zeros when the parent is the slack); injections move
    according to the split specification.
    """
    grid_o, resolved = _apply_splits(sys.grid, splits)
    if not resolved:
        raise GridStructureError("at least one split is required")
    origin = {r.new_bus: r.parent for r in resolved}  # new bus -> parent at its split

    bus_ids_o = grid_o.grounded_bus_ids
    n_o = len(bus_ids_o)
    index_map_o, ends_o = _grounded_coords(grid_o)
    b_o = grid_o.susceptances()

    def merged_row(bus_id: int) -> int | None:
        while bus_id in origin:
            bus_id = origin[bus_id]
        return sys.index_map.get(bus_id)  # None when the origin is the slack

    rows = [merged_row(bid) for bid in bus_ids_o]
    B_c_inv = np.zeros((n_o, n_o))
    present = [i for i, r in enumerate(rows) if r is not None]
    src = [rows[i] for i in present]
    B_c_inv[np.ix_(present, present)] = sys.B_inv[np.ix_(src, src)]

    U = np.zeros((n_o, len(resolved)))
    for k, r in enumerate(resolved):
        if r.parent in index_map_o:
            U[index_map_o[r.parent], k] = 1.0
        U[index_map_o[r.new_bus], k] = -1.0

    return TriConfig(
        grid_o=grid_o,
        splits=tuple(resolved),
        bus_ids_o=bus_ids_o,
        index_map_o=index_map_o,
        ends_o=ends_o,
        E_o_r=None,
        b_o=b_o,
        B_o=None,
        B_c_inv=B_c_inv,
        U=U,
    )


def _split_kernel(tri: TriConfig) -> tuple[np.ndarray, np.ndarray, float, np.ndarray]:
    """Split pieces of every coupler: ``(GU, inner, scale, tol)``.

    ``GU = U - B_c^-1 B_o U``, ``inner = (B_o U)^T GU = U^T (B_o - B_o B_c^-1
    B_o) U``, ``scale = max |U^T B_o U|`` and ``tol = SPLIT_RTOL
    ||B_o||_inf ||nu||^2``, the zero tolerance of each criterion
    ``inner[k, k]``. ``B_o U`` is scattered from ``ends_o`` (branch ``e``
    adds ``b_e (U[from e] - U[to e])`` to its from row and subtracts it at
    its to row), so only its nonzero rows, the split buses and their
    neighbours, read ``B_c^-1``. Row ``i`` of ``|B_o|`` sums each ``b_e`` at ``i``
    twice: on the diagonal, and off it unless the other end is the slack.
    """
    frm, to = tri.ends_o
    n_o = len(tri.bus_ids_o)
    flow = tri.b_o[:, None] * _end_diff(tri.ends_o, tri.U)
    BoU = np.zeros((n_o + 1, tri.n_splits))
    np.add.at(BoU, frm, flow)
    np.add.at(BoU, to, -flow)
    rows = np.flatnonzero(BoU[:n_o].any(axis=1))
    GU = tri.U - tri.B_c_inv[:, rows] @ BoU[rows]
    inner = BoU[rows].T @ GU[rows]
    both = (frm < n_o) & (to < n_o)
    ends = np.concatenate([frm, to, frm[both], to[both]])
    weights = np.concatenate([tri.b_o, tri.b_o, tri.b_o[both], tri.b_o[both]])
    norm_inf = np.bincount(ends, weights, minlength=n_o + 1)[:n_o].max()
    scale = np.abs(tri.U.T @ BoU[:n_o]).max()
    return GU, inner, scale, SPLIT_RTOL * norm_inf * (tri.U * tri.U).sum(axis=0)


def split_criterion(tri: TriConfig, which: int = 0) -> tuple[float, float]:
    """Islanding indicator ``nu^T (B_o - B_o B_c^-1 B_o) nu`` and its tolerance.

    The opening islands the grid exactly when the indicator vanishes; the
    tolerance scales with ``||B_o||_inf ||nu||^2``.
    """
    _, inner, _, tol = _split_kernel(tri)
    return float(inner[which, which]), float(tol[which])


def _single_split_pieces(tri: TriConfig) -> tuple[np.ndarray, float]:
    """Shared split quantities: ``(1 - B_c^-1 B_o) nu`` and the scalar bracket."""
    if tri.n_splits != 1:
        raise GridStructureError(
            "single-coupler route needs exactly one split; "
            "use multi_mod.multi_split_inverse for several"
        )
    GU, inner, _, tol = _split_kernel(tri)
    s_val = float(inner[0, 0])
    if abs(s_val) <= tol[0]:
        raise IslandingError(
            f"opening the busbar coupler islands the grid (criterion {s_val:.3g})",
            criterion=s_val,
        )
    return GU[:, 0], s_val


def split_inverse(tri: TriConfig) -> np.ndarray:
    """Grounded inverse of the open grid from the padded closed inverse.

    ``B_o^-1 = B_c^-1 + (1 - B_c^-1 B_o) nu nu^T (1 - B_o B_c^-1) / s``
    with the scalar ``s = nu^T (B_o - B_o B_c^-1 B_o) nu``.
    """
    g_nu, s_val = _single_split_pieces(tri)
    return tri.B_c_inv + np.outer(g_nu, g_nu) / s_val


def bsdf_vector(tri: TriConfig) -> np.ndarray:
    """Bus split distribution factors: flow changes per unit of the
    opening's driving term, one entry per branch of the open grid."""
    g_nu, s_val = _single_split_pieces(tri)
    return (tri.b_o * _end_diff(tri.ends_o, g_nu)) / s_val


def split_ptdf(tri: TriConfig) -> FactorMatrix:
    """PTDF of the open grid, read off the split inverse: the padded PTDF
    plus the outer product of the bsdf vector with ``(1 - B_c^-1 B_o) nu``."""
    return ptdf_matrix(system_from_inverse(tri.grid_o, split_inverse(tri)))


def lodf_after_split(tri: TriConfig, branch: int) -> np.ndarray:
    """LODF column in the open grid: :func:`lodf_column` on the split inverse."""
    return lodf_column(system_from_inverse(tri.grid_o, split_inverse(tri)), branch)


# --- a modification set on the idle-bus reference -----------------------------

class ComposedUpdate:
    """Susceptance deltas, switch closures and bus splits as one low-rank update.

    The reference grid is the base grid with each split's new bus idle, tied
    to the slack by a branch of susceptance ``grounding_b`` (by default the
    grid's largest susceptance), so its inverse is the base inverse padded
    with ``1 / grounding_b``. One bracket ``S^-1 + K`` of
    ``factors_base._LowRank`` on it carries a column per change: a delta on
    an unmoved branch; a moved branch's outage at its old ends and its copy
    at its new ends; a closed switch (or line), ``1/s = 0`` at its final
    ends; each tie's removal, which cancels ``grounding_b``.

    ``grid`` is the final grid (switches keep their kind); ``switches`` maps
    switch ids to closed flags. A singular bracket raises
    DegenerateSwitchError for a redundant closing, IslandingError otherwise.
    """

    def __init__(
        self,
        sys: GroundedSystem,
        deltas: Sequence[tuple[int, float]] = (),
        switches: Mapping[int, bool] | None = None,
        splits: SplitSpec | Sequence[SplitSpec] = (),
        grounding_b: float | None = None,
    ):
        grid, deltas = sys.grid, dict(deltas)
        for bid, d in deltas.items():
            if grid.branches[_check_delta(sys, BranchDelta(bid, d))].kind == SWITCH:
                raise GridStructureError(
                    f"branch {bid} is a switch: close it under 'switches', not by a delta"
                )
        closing = {_branch_col(grid, s): c for s, c in (switches or {}).items()}
        branches = tuple(
            replace(br, susceptance=max(br.susceptance + deltas[br.id], 0.0))
            if br.id in deltas else br
            for br in grid.branches
        )
        self.grid, resolved = _apply_splits(Grid(grid.buses, branches) if deltas else grid, splits)
        g = grounding_b or float(sys.b.max(initial=0.0)) or 1.0
        first_id = max(self.grid.branch_ids, default=0) + 1
        cols, s_inv, extra = [], [], []  # extra: reference branches past the base grid's

        def column(e: int | None, s: float, ends=(), b: float = 0.0) -> None:
            if e is None:  # a new reference branch at ``ends``
                e = grid.n_branches + len(extra)
                extra.append(Branch(first_id + len(extra), *ends, b))
            cols.append(e)
            s_inv.append(1.0 / s)

        self.switch_cols = []  # (branch, column) per closed switch
        rewired = {grid.branch_index[b] for r in resolved for b in r.moved}
        for e in sorted(rewired | closing.keys() | {grid.branch_index[b] for b in deltas}):
            br, br_o = grid.branches[e], self.grid.branches[e]
            ends = (br_o.from_bus, br_o.to_bus)
            moved = (br.from_bus, br.to_bus) != ends
            if moved and sys.b[e] > 0.0:
                column(e, -sys.b[e])
            if moved and br_o.effective_susceptance > 0.0:
                column(None, br_o.effective_susceptance, ends)
            if not moved and deltas.get(br.id):
                column(e, deltas[br.id])
            if closing.get(e):
                self.switch_cols.append((e, len(cols)))
                column(None if moved else e, np.inf, ends)
        for r in resolved:
            column(None, -g, (r.new_bus, grid.slack), g)
        if resolved:
            C = np.pad(sys.B_inv, (0, len(resolved)))
            C[sys.n :, sys.n :] = np.eye(len(resolved)) / g
            sys = system_from_inverse(Grid(self.grid.buses, grid.branches + tuple(extra)), C)
        self.ref = sys
        self.up = _LowRank(sys, cols) if cols else None
        self.s_inv = np.array(s_inv)

    def flows(self) -> np.ndarray:
        """Branch flows of the final grid for its own injections and shifts.

        The angles are ``theta_r - W z`` on the reference angles ``theta_r``;
        ``z`` is the flow over each column's added branch, so a closed
        switch carries its ``z``.
        """
        grid, ref = self.grid, self.ref
        shifts = grid.shift_angles()
        theta = ref.B_inv @ ref.reduce(_shifted_injections(grid, grid.injections(), shifts))
        z = np.zeros(0)
        if self.up is not None:
            z = self.up.solve(_end_diff(self.up.ends, theta), "modification set", self.s_inv)
            theta = theta - self.up.W @ z
        ends = _branch_ends(grid, ref.index_map, ref.n)
        f = grid.susceptances() * (_end_diff(ends, theta) + shifts)
        for e, k in self.switch_cols:
            f[e] += z[k]
        return f

    def inverse(self) -> np.ndarray:
        """The final grid's grounded inverse, ``B_r^-1 - W (S^-1 + K)^-1 W^T``."""
        if self.up is None:
            return self.ref.B_inv
        return self.up.updated("modification set", self.s_inv)


def idle_bus_split(
    sys: GroundedSystem,
    splits: SplitSpec | Sequence[SplitSpec],
    grounding_b: float | None = None,
) -> np.ndarray:
    """Open-grid inverse via rewiring branches onto idle buses: the
    :class:`ComposedUpdate` of the splits alone. ``grounding_b`` cancels
    exactly. Agrees with :func:`split_inverse`.
    """
    return ComposedUpdate(sys, splits=splits, grounding_b=grounding_b).inverse()
