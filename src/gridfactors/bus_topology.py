"""Bus merges and bus splits as limits of rank-one susceptance updates.

Closing an ideal switch merges two buses: the infinite-susceptance limit,
a column with ``1/s = 0`` of the endpoint kernel ``factors_base._LowRank``.
:class:`ComposedUpdate` is the one route for closures: one endpoint-kernel
update for a whole modification set (deltas, closures, splits) on one record,
the final grid's system over the reference inverse; ``merge_inverse`` and
``switch_flow`` reach it through ``multi_mod.SwitchKernel``. Opening a
busbar coupler (a bus split) also has the three-configuration route: the
merged reference, a padded "closed but not merged" inverse obtained by
copying the parent row and column, and the open topology. The split inverse
follows from a closed-form expression that never references the diverging
coupler susceptance. Its split kernel :func:`_split_kernel` is ``_LowRank``
on the open grid's branches at the split buses, and :func:`_split_solve` its
one guarded solve for any number of couplers, which ``split_inverse`` (so
``split_ptdf`` and ``lodf_after_split``) and ``bsdf_vector`` read;
``idle_bus_split``, the splits-only reader of ``ComposedUpdate``, is their
cross-check. On a rebased system the reference's closed switches connect in
the split walk; ``pad_inverse`` refuses one that ends at a split's parent.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from . import _linalg
from .errors import GridStructureError, IslandingError
from .factors_base import (
    FactorMatrix,
    _LowRank,
    _end_diff,
    _shifted_injections,
    _wrap_ptdf,
    compute_flows,
    ptdf_matrix,
    solve_angles,
)
from .grid_model import (
    SWITCH,
    Bus,
    Grid,
    GroundedSystem,
    _branch_col,
    _grounded_coords,
    _require_connected,
    _system,
)
from .multi_mod import ModificationSet, SwitchKernel, SwitchStates
from .single_mod import BranchDelta, _check_delta, _switch_cuts, _switch_flows, lodf_column

PARENT = "parent"
NEW = "new"

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
        if abs(parent_injection) > 1e-9 * max(abs(b.injection) for b in grid.buses):
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
    The result may be disconnected, which the factor routes detect.
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

    ``grid_o`` is the open topology with the new buses appended; ``sys_c``
    its grounded system on the padded inverse, whose parent and new
    rows/columns are identical copies; ``U`` stacks the coupler incidence
    vectors, one column per split. ``sys_c`` is the one stored record of
    the open grid: ``bus_ids_o``, ``index_map_o``, ``ends_o`` (the slack on
    the pad index ``n_o``), ``b_o`` and ``B_c_inv`` are read from it, and
    so are the open grid's incidence ``E_o_r`` and grounded matrix ``B_o``,
    built on first read.
    """

    grid_o: Grid
    splits: tuple[_ResolvedSplit, ...]
    sys_c: GroundedSystem
    U: np.ndarray

    bus_ids_o = property(lambda t: t.sys_c.bus_ids)
    index_map_o = property(lambda t: t.sys_c.index_map)
    ends_o = property(lambda t: t.sys_c.branch_ends)
    b_o = property(lambda t: t.sys_c.b)
    B_c_inv = property(lambda t: t.sys_c.B_inv)
    E_o_r = property(lambda t: t.sys_c.E_r)
    B_o = property(lambda t: t.sys_c.B)

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
        buses = [replace(bus, injection=bus.injection - r.injection_to_new) if bus.id == r.parent
                 else bus for bus in grid.buses]
        buses.append(Bus(id=r.new_bus, injection=r.injection_to_new))
        end = lambda x: r.new_bus if x == r.parent else x  # noqa: E731
        branches = [replace(br, from_bus=end(br.from_bus), to_bus=end(br.to_bus))
                    if br.id in r.moved else br for br in grid.branches]
        grid = Grid(buses=tuple(buses), branches=tuple(branches))
    return grid, resolved


def pad_inverse(
    sys: GroundedSystem, splits: SplitSpec | Sequence[SplitSpec]
) -> TriConfig:
    """Build the closed-but-not-merged inverse by row/column padding.

    The base buses keep their grounded rows and the new buses follow in
    split order, so the merged inverse is copied as one block; each new bus
    then receives a copy of its parent's row and column (zeros when the
    parent is the slack; a parent that is an earlier new bus already has
    its row). Injections move according to the split specification.
    """
    grid_o, resolved = _apply_splits(sys.grid, splits)
    if not resolved:
        raise GridStructureError("at least one split is required")
    at = [s for s in sys.closed_switches
          if {(br := sys.grid.branch(s)).from_bus, br.to_bus} & {r.parent for r in resolved}]
    if at:  # the split kernel reads B_o U off the branches, where such a switch has no b
        raise GridStructureError(f"closed switches {at} end at a split's parent bus")
    index_map_o, ends_o = _grounded_coords(grid_o)
    n, n_o = sys.n, len(index_map_o)
    B_c_inv = np.zeros((n_o, n_o))
    B_c_inv[:n, :n] = sys.B_inv
    U = np.zeros((n_o, len(resolved)))
    for k, r in enumerate(resolved):
        U[n + k, k] = -1.0
        if r.parent in index_map_o:
            p = index_map_o[r.parent]
            U[p, k] = 1.0
            B_c_inv[n + k] = B_c_inv[p]
            B_c_inv[:, n + k] = B_c_inv[:, p]
    sys_c = _system(grid_o, (index_map_o, ends_o), B_c_inv, sys.closed_switches)
    return TriConfig(grid_o=grid_o, splits=tuple(resolved), sys_c=sys_c, U=U)


def _split_kernel(tri: TriConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split pieces of every coupler: ``(GU, inner, scale)``.

    ``B_o U = E (b o H)`` with ``H = E^T U`` on the open grid's branches at
    the split buses, so ``_LowRank`` on them over ``B_c^-1`` gives ``GU =
    U - B_c^-1 B_o U = U - W (b o H)`` and ``inner = U^T (B_o - B_o B_c^-1
    B_o) U = (b o H)^T (H - K (b o H))``. ``scale[k] = ||B_o||_inf
    ||nu_k||^2``: row ``i`` of ``|B_o|`` sums each ``b_e`` at ``i`` twice
    (on the diagonal, and off it unless the other end is the slack).
    """
    H = _end_diff(tri.ends_o, tri.U)
    at = np.flatnonzero(H.any(axis=1))
    up = _LowRank(tri.sys_c, at)
    bH = tri.b_o[at, None] * H[at]
    GU = tri.U - up.W @ bH
    inner = bH.T @ (H[at] - up.K @ bH)
    frm, to = tri.ends_o
    n_o = len(tri.bus_ids_o)
    w = tri.b_o * (1.0 + ((frm < n_o) & (to < n_o)))
    norm_inf = np.bincount(np.r_[frm, to], np.r_[w, w], minlength=n_o + 1)[:n_o].max()
    return GU, inner, norm_inf * (tri.U * tri.U).sum(axis=0)


def split_criterion(tri: TriConfig, which: int = 0) -> tuple[float, float]:
    """Islanding indicator ``nu^T (B_o - B_o B_c^-1 B_o) nu`` and its tolerance.

    The opening islands the grid exactly when the indicator vanishes; the
    tolerance is ``PIVOT_RTOL ||B_o||_inf ||nu||^2``, the split routes' guard.
    """
    _, inner, scale = _split_kernel(tri)
    return float(inner[which, which]), _linalg.PIVOT_RTOL * float(scale[which])


def _split_solve(tri: TriConfig) -> tuple[np.ndarray, np.ndarray]:
    """The one split solve, ``(GU, X = inner^-1 GU^T)``: a traversal of the open
    grid decides islanding first (the openings together may island it where each
    alone would not), then ``inner`` is guarded at the couplers' largest scale."""
    _require_connected(tri.grid_o, closed=tri.sys_c.closed_switches, what="split grid")
    GU, inner, scale = _split_kernel(tri)
    return GU, _linalg.guarded_solve(inner, GU.T, "opening the busbar couplers", scale.max())


def split_inverse(tri: TriConfig) -> np.ndarray:
    """Grounded inverse of the open grid from the padded closed inverse, for
    any number of couplers: ``B_o^-1 = B_c^-1 + (1 - B_c^-1 B_o) U [U^T (B_o -
    B_o B_c^-1 B_o) U]^-1 U^T (1 - B_o B_c^-1)``."""
    GU, X = _split_solve(tri)
    return tri.B_c_inv + GU @ X


def bsdf_vector(tri: TriConfig) -> np.ndarray:
    """Bus split distribution factors of one coupler: flow changes per unit of
    the opening's driving term, one entry per branch of the open grid."""
    if tri.n_splits != 1:
        raise GridStructureError("bus split distribution factors need exactly one split")
    return tri.b_o * _end_diff(tri.ends_o, _split_solve(tri)[1][0])


def split_ptdf(tri: TriConfig) -> FactorMatrix:
    """PTDF of the open grid, read off the split inverse: the padded PTDF
    plus the outer product of the bsdf vector with ``(1 - B_c^-1 B_o) nu``."""
    return ptdf_matrix(replace(tri.sys_c, B_inv=split_inverse(tri)))


def lodf_after_split(tri: TriConfig, branch: int) -> np.ndarray:
    """LODF column in the open grid: :func:`lodf_column` on the split inverse."""
    return lodf_column(replace(tri.sys_c, B_inv=split_inverse(tri)), branch)


# --- a modification set on the idle-bus reference -----------------------------

class ComposedUpdate:
    """Susceptance deltas, switch closures and bus splits as one low-rank update.

    The reference grid is the base grid with each split's new bus idle, tied
    to the slack at ``g_k``, the final susceptance of the branches split ``k``
    moves (the grid's largest when they have none), so its inverse ``C`` is
    the base inverse padded with ``diag(1 / g_k)``: a tie on the split's own
    scale, whatever the grid's spread. The one record ``_sys`` is the final
    grid's system over ``C``, in the final grid's coordinates (the base
    system's own when nothing splits); only its coordinates, ``b`` and
    ``reduce`` are the final grid's, as its ``B_inv`` is ``C``. One bracket
    ``S^-1 + K`` of ``factors_base._LowRank`` on it carries a column per
    change, each a pair of ends there: a delta on an unmoved branch; a moved
    branch's outage at its base ends (the slack's pad moved from ``n`` to
    ``n_o``) and its copy at its new ends; a closed switch (or line),
    ``1/s = 0``; each tie's removal at ``(n + k, n_o)``, ``1/s = -1/g_k``,
    which cancels it.

    ``grid`` is the final grid (switches keep their kind); ``switches`` maps
    switch ids to closed flags. ``closed`` lists the reference's closed
    switches (``sys.closed_switches``, as on a system rebased on an earlier
    update) and then this update's; both count in the walks. A branch given
    two deltas raises GridStructureError; then, in turn, a redundant closing
    DegenerateSwitchError, a disconnected final grid (walked only when an outage
    or a split can disconnect it) and a degenerate closing IslandingError.
    """

    def __init__(
        self,
        sys: GroundedSystem,
        deltas: Sequence[tuple[int, float]] = (),
        switches: Mapping[int, bool] | None = None,
        splits: SplitSpec | Sequence[SplitSpec] = (),
    ):
        grid, deltas = sys.grid, dict(ModificationSet(tuple(deltas)).entries)
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
        g = [sum(self.grid.branch(b).effective_susceptance for b in r.moved)
             or float(sys.b.max(initial=0.0)) or 1.0 for r in resolved]
        n, n_o = sys.n, sys.n + len(resolved)
        C, coords = sys.B_inv, (sys.index_map, sys.branch_ends)
        if resolved:  # the new buses follow the base rows, in C and in the coordinates
            C = np.pad(sys.B_inv, (0, len(resolved)))
            C[n:, n:] = np.diag(1.0 / np.array(g))
            coords = _grounded_coords(self.grid)
        self._sys = _system(self.grid, coords, C, sys.closed_switches)
        cols, s_inv = [], []  # (branch position, from, to) and 1/s per column

        def column(e: int, s: float, ends) -> None:
            cols.append((e, *ends))
            s_inv.append(1.0 / s)

        self.closed = sys.closed_switches + tuple(s for s, c in (switches or {}).items() if c)
        self.switch_cols = []  # (branch, column) per closed switch
        rewired = {grid.branch_index[b] for r in resolved for b in r.moved}
        reopened = [s for s in sys.closed_switches
                    if not (switches or {}).get(s, True) or grid.branch_index[s] in rewired]
        if reopened:  # opening a closed switch splits the bus it merged
            raise GridStructureError(f"switches {reopened} are closed in the reference system")
        for e in sorted(rewired | closing.keys() | {grid.branch_index[b] for b in deltas}):
            ends = [x[e] for x in self._sys.branch_ends]
            if e in rewired and sys.b[e] > 0.0:  # the old ends, the slack's pad moved to n_o
                column(e, -sys.b[e], [n_o if x[e] == n else x[e] for x in sys.branch_ends])
            if e in rewired and self._sys.b[e] > 0.0:
                column(e, self._sys.b[e], ends)
            if e not in rewired and deltas.get(grid.branches[e].id):
                column(e, deltas[grid.branches[e].id], ends)
            if closing.get(e):
                self.switch_cols.append((e, len(cols)))
                column(e, np.inf, ends)
        outage = any(self._sys.b[grid.branch_index[b]] == 0.0 for b in deltas)
        self._may_island = bool(resolved) or outage  # closures and other deltas keep every edge
        for k in range(len(resolved)):
            column(-1, -g[k], (n + k, n_o))  # a tie is no branch of the final grid
        pos, *ends = np.array(cols, dtype=np.intp).reshape(-1, 3).T
        self.up = _LowRank(self._sys, pos, tuple(ends)) if cols else None
        self.s_inv = np.array(s_inv)

    def _check(self) -> None:
        if self.switch_cols:
            self.up.check_closings(self.s_inv)
        if self._may_island:
            _require_connected(self.grid, closed=self.closed, what="modified grid")
        if bad := [self.grid.branches[e].id for e, k in self.switch_cols if self.up.degenerate[k]]:
            raise IslandingError(f"closing switch {bad[0]}: no transfer impedance; "
                                 "the grid stays connected, so the update is ill-conditioned")

    def angles(self, theta_r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Final angles ``theta_r - W z`` from reference angles ``theta_r``,
        and ``z``: the flow over each column's added branch. ``theta_r`` is
        over the reference coordinates, the base rows then one per split."""
        theta_r, n = np.asarray(theta_r, dtype=float), self._sys.n
        if theta_r.shape != (n,):
            raise GridStructureError(f"theta_r has shape {theta_r.shape}, expected ({n},)")
        self._check()
        if self.up is None:
            return theta_r, np.zeros(0)
        z = self.up.solve(_end_diff(self.up.ends, theta_r), "modification set", self.s_inv)
        return theta_r - self.up.W @ z, z

    def flows(self) -> np.ndarray:
        """Branch flows of the final grid for its own injections and shifts.

        The angles are :meth:`angles` of the reference angles; a switch this
        update closes carries its ``z``, one the reference closed its flow by
        Kirchhoff's current law (``single_mod._switch_cuts``).
        """
        grid, rec = self.grid, self._sys
        shifts = grid.shift_angles()
        theta_r = solve_angles(rec, _shifted_injections(grid, grid.injections(), shifts))
        theta, z = self.angles(theta_r)
        f = compute_flows(rec, theta, shifts if shifts.any() else None).flows
        for e, k in self.switch_cols:
            f[e] += z[k]
        if rec.closed_switches:
            cuts = _switch_cuts(rec, self.closed)  # reads no inverse
            at = [grid.branch_index[s] for s in rec.closed_switches]
            f[at] = _switch_flows(f[None, cuts[0]], cuts)[0, : len(at)]
        return f

    def inverse(self) -> np.ndarray:
        """The final grid's grounded inverse, ``B_r^-1 - W (S^-1 + K)^-1 W^T``."""
        self._check()
        if self.up is None:
            return self._sys.B_inv
        return self.up.updated("modification set", self.s_inv)


def idle_bus_split(sys: GroundedSystem, splits: SplitSpec | Sequence[SplitSpec]) -> np.ndarray:
    """Open-grid inverse via rewiring branches onto idle buses: the
    :class:`ComposedUpdate` of the splits alone, each idle bus tied at the
    susceptance its split moves. Agrees with :func:`split_inverse`.
    """
    return ComposedUpdate(sys, splits=splits).inverse()
