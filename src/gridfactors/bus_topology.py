"""Bus merges and bus splits as limits of rank-one susceptance updates.

Closing an ideal switch merges two buses; the Sherman-Morrison limit of
infinite susceptance gives the merged inverse directly (``merge_inverse``
and ``switch_flow`` are M = 1 closures of ``factors_base._LowRank``).
Opening a busbar coupler (a bus split) is handled through three
configurations: the merged reference, a padded "closed but not merged"
inverse obtained by copying the parent row and column, and the open
topology. The split inverse then follows from a closed-form expression
that never references the diverging coupler susceptance. The split kernel
:func:`_split_kernel` forms its pieces; ``split_criterion``,
``split_inverse``, ``bsdf_vector``, ``split_ptdf`` and ``lodf_after_split``
are its M = 1 readers. An alternative route models the split as rewiring
branches onto an idle bus and applies one low-rank Woodbury update.
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
    _wrap_ptdf,
    ptdf_matrix,
    solve_angles,
)
from .grid_model import (
    Branch,
    Bus,
    Grid,
    GroundedSystem,
    _branch_col,
    _grounded_coords,
    _grounded_laplacian,
    _incidence,
    _Lazy,
    system_from_inverse,
)
from .single_mod import lodf_column

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
    r = _resolve_split(grid, split)
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
    return Grid(buses=tuple(buses), branches=tuple(branches))


# --- bus merge (switch closing) ----------------------------------------------

def merge_inverse(sys: GroundedSystem, switch: int) -> np.ndarray:
    """Grounded inverse after closing an ideal switch between two buses.

    This is the infinite-susceptance limit of the rank-one update; the
    result is singular in the unmerged coordinates and satisfies
    ``B_m^-1 nu_s = 0``: both terminals sit at the same angle.
    """
    up = _LowRank(sys, [_branch_col(sys.grid, switch)])
    return up.updated(f"closing switch {switch}", xi=up.closure([True]))


def merged_ptdf(sys: GroundedSystem, switch: int) -> FactorMatrix:
    """PTDF of the merged grid for every branch except the switch itself."""
    return _wrap_ptdf(sys, merge_inverse(sys, switch), sys.b, drop=(switch,))


def switch_flow(
    sys: GroundedSystem,
    switch: int,
    p: np.ndarray | None = None,
    merged: FactorMatrix | None = None,
) -> float:
    """Flow over a closed switch, from bus to to bus.

    Read off ``SwitchKernel.merged_angles`` for the one switch: the closure
    solve on the reference angles gives the switch's flow directly, so no
    merged PTDF is needed and ``merged`` is not read.
    """
    from .multi_mod import SwitchKernel, SwitchStates  # multi_mod imports this module

    if p is None:
        p = sys.grid.injections()
    states = SwitchStates(switches=(switch,), closed=(True,))
    _, y = SwitchKernel(sys, [switch]).merged_angles(states, solve_angles(sys, p))
    return float(y[0])


# --- bus split: three-configuration route ------------------------------------

@dataclass(frozen=True, eq=False)
class TriConfig:
    """The three grid configurations of a bus split, plus bookkeeping.

    ``sys`` is the merged reference; ``grid_o`` the open topology with the
    new buses appended; ``ends_o`` its grounded branch endpoint rows (the
    slack on the pad index ``n_o``); ``B_c_inv`` the padded inverse whose
    parent and new rows/columns are identical copies; ``U`` stacks the
    coupler incidence vectors, one column per split. The open grid's
    incidence ``E_o_r`` and grounded matrix ``B_o`` are built on first read.
    """

    sys: GroundedSystem
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


def pad_inverse(
    sys: GroundedSystem, splits: SplitSpec | Sequence[SplitSpec]
) -> TriConfig:
    """Build the closed-but-not-merged inverse by row/column padding.

    Each new bus receives a copy of its parent's row and column of the
    merged inverse (zeros when the parent is the slack); injections move
    according to the split specification.
    """
    if isinstance(splits, SplitSpec):
        splits = [splits]
    if not splits:
        raise GridStructureError("at least one split is required")
    grid_o = sys.grid
    resolved: list[_ResolvedSplit] = []
    origin: dict[int, int] = {}  # new bus -> parent at the time of its split
    for spec in splits:
        r = _resolve_split(grid_o, spec)
        grid_o = apply_split(grid_o, replace(spec, new_bus=r.new_bus))
        resolved.append(r)
        origin[r.new_bus] = r.parent

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
        sys=sys,
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


# --- bus split: idle-bus route ------------------------------------------------

def idle_bus_split(
    sys: GroundedSystem,
    splits: SplitSpec | Sequence[SplitSpec],
    grounding_b: float = 1.0,
) -> np.ndarray:
    """Open-grid inverse via rewiring branches onto idle buses.

    Each new bus starts idle, tied to the slack by a fictitious branch of
    susceptance ``grounding_b``: the intermediate grid's inverse is block
    diagonal. One Woodbury update then outages each moved branch, closes a
    copy of it at its new ends and removes the ties, so ``grounding_b``
    cancels exactly. Agrees with :func:`split_inverse`.
    """
    if isinstance(splits, SplitSpec):
        splits = [splits]
    if not splits:
        return sys.B_inv.copy()
    tri = pad_inverse(sys, splits)
    grid_o = tri.grid_o
    n_m, n_o = sys.n, len(tri.bus_ids_o)
    C = np.zeros((n_o, n_o))
    C[:n_m, :n_m] = sys.B_inv
    C[np.arange(n_m, n_o), np.arange(n_m, n_o)] = 1.0 / grounding_b
    first_id = max(grid_o.branch_ids, default=0) + 1
    extra: list[Branch] = []
    mods: list[tuple[int, float]] = []
    for br, br_o in zip(sys.grid.branches, grid_o.branches):
        b = br.effective_susceptance
        if b > 0.0 and (br.from_bus, br.to_bus) != (br_o.from_bus, br_o.to_bus):
            extra.append(Branch(first_id + len(extra), br_o.from_bus, br_o.to_bus, 0.0))
            mods += [(br.id, -b), (extra[-1].id, b)]
    for r in tri.splits:
        extra.append(Branch(first_id + len(extra), r.new_bus, grid_o.slack, grounding_b))
        mods.append((extra[-1].id, -grounding_b))
    grid_i = Grid(buses=grid_o.buses, branches=sys.grid.branches + tuple(extra))
    sys_i = system_from_inverse(grid_i, C)
    cols = [grid_i.branch_index[bid] for bid, _ in mods]
    s_inv = 1.0 / np.array([d for _, d in mods])
    return _LowRank(sys_i, cols).updated("bus split via idle bus", s_inv=s_inv)
