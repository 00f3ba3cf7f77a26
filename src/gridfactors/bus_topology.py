"""Bus merges and bus splits as limits of rank-one susceptance updates.

Closing an ideal switch merges two buses; the Sherman-Morrison limit of
infinite susceptance gives the merged inverse directly. Opening a busbar
coupler (a bus split) is handled through three configurations: the merged
reference, a padded "closed but not merged" inverse obtained by copying
the parent row and column, and the open topology whose grounded matrix is
assembled directly. The split inverse then follows from a closed-form
rank-one expression that never references the diverging coupler
susceptance. An alternative route models the split as rewiring branches
onto an idle bus and applies one low-rank Woodbury update.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from ._linalg import OUTAGE_RTOL, guarded_solve
from .errors import DegenerateSwitchError, GridStructureError, IslandingError
from .factors_base import FactorMatrix, PTDF, _ptdf_rows
from .grid_model import Bus, Grid, GroundedSystem, build_incidence
from .single_mod import lodf_tail

PARENT = "parent"
NEW = "new"

#: factor on ||B_o||_inf * ||nu||^2 below which the split criterion counts as zero
SPLIT_RTOL = 1e-10

#: transfer impedances below this are treated as degenerate switch placements
MERGE_ATOL = 1e-12


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
    e = sys.grid.branch_index.get(switch)
    if e is None:
        raise GridStructureError(f"unknown branch {switch}")
    nu = sys.E_r[:, e]
    w = sys.B_inv @ nu
    q = float(nu @ w)
    if q <= MERGE_ATOL:
        raise DegenerateSwitchError(
            f"switch {switch}: terminals have no transfer impedance (q={q:.3g})"
        )
    return sys.B_inv - np.outer(w, w) / q


def merged_ptdf(sys: GroundedSystem, switch: int) -> FactorMatrix:
    """PTDF of the merged grid for every branch except the switch itself."""
    B_m_inv = merge_inverse(sys, switch)
    e = sys.grid.branch_index[switch]
    values = _ptdf_rows(sys, B_m_inv, sys.b)
    keep = [i for i in range(sys.grid.n_branches) if i != e]
    return FactorMatrix(
        values=values[keep],
        row_labels=tuple(sys.grid.branch_ids[i] for i in keep),
        col_labels=sys.bus_ids,
        kind=PTDF,
    )


def switch_flow(
    sys: GroundedSystem,
    switch: int,
    p: np.ndarray | None = None,
    merged: FactorMatrix | None = None,
) -> float:
    """Flow over a closed switch, recovered from Kirchhoff's current law.

    The merged PTDF has no row for the switch, so its flow is the residual
    of the from-side bus balance: injection minus the flows of all other
    branches incident there.
    """
    grid = sys.grid
    if p is None:
        p = grid.injections()
    if merged is None:
        merged = merged_ptdf(sys, switch)
    flows = merged.values @ sys.reduce(p)
    from_bus = grid.branch(switch).from_bus
    f_s = float(np.asarray(p)[grid.bus_index[from_bus]])
    for branch_id, flow in zip(merged.row_labels, flows):
        br = grid.branch(branch_id)
        if br.from_bus == from_bus:
            f_s -= flow
        elif br.to_bus == from_bus:
            f_s += flow
    return f_s


# --- bus split: three-configuration route ------------------------------------

@dataclass(frozen=True, eq=False)
class TriConfig:
    """The three grid configurations of a bus split, plus bookkeeping.

    ``sys`` is the merged reference; ``grid_o`` the open topology with the
    new buses appended; ``B_c_inv`` the padded inverse whose parent and new
    rows/columns are identical copies; ``B_o`` the grounded matrix of the
    open grid (assembled, never inverted here); ``U`` stacks the coupler
    incidence vectors, one column per split.
    """

    sys: GroundedSystem
    grid_o: Grid
    splits: tuple[_ResolvedSplit, ...]
    bus_ids_o: tuple[int, ...]
    index_map_o: dict[int, int]
    E_o_r: np.ndarray
    b_o: np.ndarray
    B_o: np.ndarray
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
    index_map_o = {bid: i for i, bid in enumerate(bus_ids_o)}
    inc_o = build_incidence(grid_o)
    E_o_r = inc_o.reduced
    b_o = grid_o.susceptances()
    B_o = (E_o_r * b_o) @ E_o_r.T

    def merged_row(bus_id: int) -> int | None:
        while bus_id in origin:
            bus_id = origin[bus_id]
        return sys.index_map.get(bus_id)  # None when the origin is the slack

    n_o = len(bus_ids_o)
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
        E_o_r=E_o_r,
        b_o=b_o,
        B_o=0.5 * (B_o + B_o.T),
        B_c_inv=B_c_inv,
        U=U,
    )


def split_criterion(tri: TriConfig, which: int = 0) -> tuple[float, float]:
    """Islanding indicator ``nu^T (B_o - B_o B_c^-1 B_o) nu`` and its tolerance.

    The opening islands the grid exactly when the indicator vanishes; the
    tolerance scales with ``||B_o||_inf ||nu||^2``.
    """
    nu = tri.U[:, which]
    Bo_nu = tri.B_o @ nu
    s_val = float(nu @ Bo_nu - Bo_nu @ (tri.B_c_inv @ Bo_nu))
    tol = SPLIT_RTOL * np.linalg.norm(tri.B_o, np.inf) * float(nu @ nu)
    return s_val, tol


def _single_split_pieces(tri: TriConfig) -> tuple[np.ndarray, float]:
    """Shared split quantities: ``(1 - B_c^-1 B_o) nu`` and the scalar bracket."""
    if tri.n_splits != 1:
        raise GridStructureError(
            "single-coupler route needs exactly one split; "
            "use multi_mod.multi_split_inverse for several"
        )
    nu = tri.U[:, 0]
    s_val, tol = split_criterion(tri, 0)
    if abs(s_val) <= tol:
        raise IslandingError(
            f"opening the busbar coupler islands the grid (criterion {s_val:.3g})",
            criterion=s_val,
        )
    g_nu = nu - tri.B_c_inv @ (tri.B_o @ nu)
    return g_nu, s_val


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
    return (tri.b_o * (tri.E_o_r.T @ g_nu)) / s_val


def split_ptdf(tri: TriConfig) -> FactorMatrix:
    """PTDF of the open grid, as the padded PTDF plus the bsdf correction."""
    g_nu, s_val = _single_split_pieces(tri)
    bsdf = (tri.b_o * (tri.E_o_r.T @ g_nu)) / s_val
    ptdf_c = (tri.b_o[:, None] * tri.E_o_r.T) @ tri.B_c_inv
    values = ptdf_c + np.outer(bsdf, g_nu)
    return FactorMatrix(
        values=values,
        row_labels=tri.grid_o.branch_ids,
        col_labels=tri.bus_ids_o,
        kind=PTDF,
    )


def lodf_after_split(tri: TriConfig, branch: int) -> np.ndarray:
    """LODF column in the open grid without forming its full inverse.

    Only the products ``B_o^-1 nu_e`` and ``nu_e^T B_o^-1 nu_e`` are
    needed; both expand from the padded inverse plus the rank-one split
    correction.
    """
    g_nu, s_val = _single_split_pieces(tri)
    e = tri.grid_o.branch_index.get(branch)
    if e is None:
        raise GridStructureError(f"unknown branch {branch}")
    b_e = tri.b_o[e]
    if b_e <= 0.0:
        raise GridStructureError(f"branch {branch} is not in service")
    nu_e = tri.E_o_r[:, e]
    z = tri.B_c_inv @ nu_e + g_nu * (float(g_nu @ nu_e) / s_val)  # B_o^-1 nu_e
    transfer = float(nu_e @ z)
    denom = 1.0 - b_e * transfer
    if abs(denom) <= OUTAGE_RTOL * max(1.0, abs(b_e * transfer)):
        raise IslandingError(
            f"outage of branch {branch} islands the split grid",
            criterion=denom,
        )
    g = (tri.E_o_r.T @ z)[:, None]
    return lodf_tail(tri.b_o, g, np.array([denom]), [e], np.array([False]))[:, 0]


# --- bus split: idle-bus route ------------------------------------------------

def idle_bus_split(
    sys: GroundedSystem,
    splits: SplitSpec | Sequence[SplitSpec],
    grounding_b: float = 1.0,
) -> np.ndarray:
    """Open-grid inverse via rewiring branches onto idle buses.

    Each split contributes a rank-two factored update (the rewired
    incidence bundle and the busbar transfer vector); the idle bus itself
    enters through a fictitious grounding tie to the slack whose removal
    rides along in the same update, so the choice of ``grounding_b``
    cancels exactly. Agrees with :func:`split_inverse`.
    """
    if isinstance(splits, SplitSpec):
        splits = [splits]
    if not splits:
        return sys.B_inv.copy()
    tri = pad_inverse(sys, splits)
    n_o = len(tri.bus_ids_o)
    m = tri.n_splits

    # grounded inverse of the idle-bus intermediate: block diagonal of the
    # merged inverse and the fictitious grounding ties
    n_m = sys.B_inv.shape[0]
    C = np.zeros((n_o, n_o))
    C[:n_m, :n_m] = sys.B_inv
    for k in range(m):
        i = tri.index_map_o[tri.splits[k].new_bus]
        C[i, i] = 1.0 / grounding_b

    # factored change of the grounded matrix: per split k with couplers
    # w_k = u_parent - u_new, g_k the susceptance-weighted old incidence of
    # the moved branches and c_k their total susceptance,
    #   dB_k = c_k w w^T + w g^T + g w^T - b_f u_new u_new^T
    U = np.zeros((n_o, 3 * m))
    A_inv = np.zeros((3 * m, 3 * m))
    grid_pre = sys.grid
    for k, r in enumerate(tri.splits):
        w = tri.U[:, k]
        g = np.zeros(n_o)
        c = 0.0
        # old incidence of each moved branch, oriented away from the parent
        for branch_id in r.moved:
            br = grid_pre.branch(branch_id)
            b_e = br.effective_susceptance
            if b_e == 0.0:
                continue
            other = br.to_bus if br.from_bus == r.parent else br.from_bus
            if other in tri.index_map_o:
                g[tri.index_map_o[other]] += b_e
            if r.parent in tri.index_map_o:
                g[tri.index_map_o[r.parent]] -= b_e
            c += b_e
        u_new = np.zeros(n_o)
        u_new[tri.index_map_o[r.new_bus]] = 1.0
        U[:, 3 * k] = w
        U[:, 3 * k + 1] = g
        U[:, 3 * k + 2] = u_new
        A_inv[3 * k, 3 * k + 1] = 1.0
        A_inv[3 * k + 1, 3 * k] = 1.0
        A_inv[3 * k + 1, 3 * k + 1] = -c
        A_inv[3 * k + 2, 3 * k + 2] = -1.0 / grounding_b
        grid_pre = apply_split(grid_pre, SplitSpec(
            parent_bus=r.parent,
            assignments={bid: NEW for bid in r.moved},
            new_bus=r.new_bus,
            injection_to_new=r.injection_to_new,
        ))

    CU = C @ U
    UCU = U.T @ CU
    inner = A_inv + UCU
    X = guarded_solve(
        inner,
        CU.T,
        context="bus split via idle bus",
        scale=max(np.abs(A_inv).max(), np.abs(UCU).max()),
    )
    B_o_inv = C - CU @ X
    return 0.5 * (B_o_inv + B_o_inv.T)
