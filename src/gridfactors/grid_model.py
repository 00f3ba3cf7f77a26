"""Grid data model and grounded nodal susceptance matrix assembly.

The linear (DC) power flow model couples bus injections ``p`` and voltage
angles ``theta`` through ``p = B theta`` where ``B = E diag(b) E^T`` is the
weighted graph Laplacian built from the node-edge incidence matrix ``E`` and
the branch susceptances ``b``. Fixing a slack bus and deleting its row and
column grounds the Laplacian, which is then positive definite exactly when
the grid is connected. Everything downstream (distribution factors, low-rank
topology updates) works on the dense inverse of that grounded matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

from .errors import GridStructureError, IslandingError

LINE = "line"
SWITCH = "switch"
PST = "pst"

_KINDS = (LINE, SWITCH, PST)

#: relative tolerance for the injection balance check, |sum p| <= tol * max(1, sum |p|)
BALANCE_RTOL = 1e-6


@dataclass(frozen=True)
class Bus:
    """A network node with a fixed real-power injection (per-unit)."""

    id: int
    injection: float = 0.0
    is_slack: bool = False

    def __post_init__(self):
        if not math.isfinite(self.injection):
            raise GridStructureError(
                f"bus {self.id}: injection must be finite, got {self.injection}"
            )


@dataclass(frozen=True)
class Branch:
    """An oriented branch: transmission line, ideal switch, or phase shifter.

    ``susceptance`` is the effective series susceptance (per-unit). A line
    with susceptance 0 is out of service but stays in the incidence matrix,
    which is what the line-closing analysis needs. Switches carry no
    susceptance of their own: they are open in the reference topology and
    are closed through the merge operations, so their stored susceptance is
    ignored during assembly. ``shift_angle`` (radians) is meaningful only
    for ``kind="pst"``.
    """

    id: int
    from_bus: int
    to_bus: int
    susceptance: float
    kind: str = LINE
    shift_angle: float = 0.0

    def __post_init__(self):
        if self.from_bus == self.to_bus:
            raise GridStructureError(
                f"branch {self.id}: from_bus and to_bus are both {self.from_bus}"
            )
        if self.kind not in _KINDS:
            raise GridStructureError(f"branch {self.id}: unknown kind {self.kind!r}")
        if not np.isfinite(self.susceptance) or self.susceptance < 0.0:
            raise GridStructureError(
                f"branch {self.id}: susceptance must be finite and >= 0, got {self.susceptance}"
            )
        if self.shift_angle != 0.0 and self.kind != PST:
            raise GridStructureError(
                f"branch {self.id}: shift_angle is only allowed on pst branches"
            )

    @property
    def in_service(self) -> bool:
        """True for a branch that contributes susceptance to the Laplacian."""
        return self.kind != SWITCH and self.susceptance > 0.0

    @property
    def effective_susceptance(self) -> float:
        """Susceptance used in assembly: 0 for switches and outaged lines."""
        return 0.0 if self.kind == SWITCH else self.susceptance


@dataclass(frozen=True)
class Grid:
    """Immutable grid: ordered buses and oriented branches.

    Branch order is preserved exactly as given; factor-matrix rows and
    incidence columns follow it. Exactly one bus is the slack and the
    injections must balance to zero within ``BALANCE_RTOL``.
    """

    buses: tuple[Bus, ...]
    branches: tuple[Branch, ...]

    def __post_init__(self):
        object.__setattr__(self, "buses", tuple(self.buses))
        object.__setattr__(self, "branches", tuple(self.branches))
        ids = [b.id for b in self.buses]
        if len(set(ids)) != len(ids):
            raise GridStructureError("duplicate bus ids")
        slacks = [b.id for b in self.buses if b.is_slack]
        if len(slacks) != 1:
            raise GridStructureError(f"exactly one slack bus required, got {slacks}")
        known = set(ids)
        bids = [br.id for br in self.branches]
        if len(set(bids)) != len(bids):
            raise GridStructureError("duplicate branch ids")
        for br in self.branches:
            for end in (br.from_bus, br.to_bus):
                if end not in known:
                    raise GridStructureError(
                        f"branch {br.id}: endpoint bus {end} does not exist"
                    )
        total = sum(b.injection for b in self.buses)
        scale = max(1.0, sum(abs(b.injection) for b in self.buses))
        if abs(total) > BALANCE_RTOL * scale:
            raise GridStructureError(
                f"injections do not balance: sum p = {total:.6g}"
            )

    @property
    def n_buses(self) -> int:
        return len(self.buses)

    @property
    def n_branches(self) -> int:
        return len(self.branches)

    @cached_property
    def slack(self) -> int:
        return next(b.id for b in self.buses if b.is_slack)

    @cached_property
    def bus_ids(self) -> tuple[int, ...]:
        return tuple(b.id for b in self.buses)

    @cached_property
    def grounded_bus_ids(self) -> tuple[int, ...]:
        """Bus ids without the slack, in bus order: the grounded coordinates."""
        return tuple(b.id for b in self.buses if not b.is_slack)

    @cached_property
    def branch_ids(self) -> tuple[int, ...]:
        return tuple(b.id for b in self.branches)

    @cached_property
    def bus_index(self) -> dict[int, int]:
        """Bus id -> position in the full bus ordering."""
        return {b.id: i for i, b in enumerate(self.buses)}

    @cached_property
    def branch_index(self) -> dict[int, int]:
        """Branch id -> column position in the incidence matrix."""
        return {b.id: i for i, b in enumerate(self.branches)}

    def bus(self, bus_id: int) -> Bus:
        return self.buses[self.bus_index[bus_id]]

    def branch(self, branch_id: int) -> Branch:
        return self.branches[self.branch_index[branch_id]]

    def injections(self) -> np.ndarray:
        """Injection vector over all buses, in bus order."""
        return np.array([b.injection for b in self.buses], dtype=float)

    def susceptances(self) -> np.ndarray:
        """Effective susceptance per branch (0 for switches and open lines)."""
        return np.array([b.effective_susceptance for b in self.branches], dtype=float)

    def shift_angles(self) -> np.ndarray:
        """Phase-shift angle per branch, zero for non-PST branches."""
        return np.array([b.shift_angle for b in self.branches], dtype=float)

    def branches_at(self, bus_id: int) -> tuple[Branch, ...]:
        return tuple(
            b for b in self.branches if b.from_bus == bus_id or b.to_bus == bus_id
        )


def connected_components(
    grid: Grid,
    removed_branches: Iterable[int] = (),
    closed_switches: Iterable[int] = (),
) -> list[set[int]]:
    """Partition buses into connected components by graph traversal.

    In-service branches connect; switches connect only when listed in
    ``closed_switches``; ids in ``removed_branches`` are skipped entirely.
    Components are sorted by their smallest bus id.
    """
    removed = set(removed_branches)
    closed = set(closed_switches)
    adj: dict[int, list[int]] = {b.id: [] for b in grid.buses}
    for br in grid.branches:
        if br.id in removed:
            continue
        live = br.in_service or (br.kind == SWITCH and br.id in closed)
        if live:
            adj[br.from_bus].append(br.to_bus)
            adj[br.to_bus].append(br.from_bus)
    seen: set[int] = set()
    comps: list[set[int]] = []
    for start in adj:
        if start in seen:
            continue
        comp = {start}
        stack = [start]
        while stack:
            n = stack.pop()
            for m in adj[n]:
                if m not in comp:
                    comp.add(m)
                    stack.append(m)
        seen |= comp
        comps.append(comp)
    comps.sort(key=min)
    return comps


@dataclass(frozen=True, eq=False)
class IncidenceMatrix:
    """Dense node-edge incidence matrix with its slack-reduced variant.

    ``full`` has one row per bus and one column per branch: +1 at the from
    bus and -1 at the to bus of each branch. ``reduced`` is ``full`` with
    the slack row removed.
    """

    full: np.ndarray
    reduced: np.ndarray
    bus_ids: tuple[int, ...]
    branch_ids: tuple[int, ...]
    slack: int


def build_incidence(grid: Grid) -> IncidenceMatrix:
    """Assemble the oriented incidence matrix in bus/branch order."""
    n, m = grid.n_buses, grid.n_branches
    E = np.zeros((n, m))
    bidx = grid.bus_index
    for e, br in enumerate(grid.branches):
        E[bidx[br.from_bus], e] = 1.0
        E[bidx[br.to_bus], e] = -1.0
    slack_row = bidx[grid.slack]
    reduced = np.delete(E, slack_row, axis=0)
    E.setflags(write=False)
    reduced.setflags(write=False)
    return IncidenceMatrix(
        full=E,
        reduced=reduced,
        bus_ids=grid.bus_ids,
        branch_ids=grid.branch_ids,
        slack=grid.slack,
    )


@dataclass(frozen=True, eq=False)
class GroundedSystem:
    """Grounded nodal susceptance matrix, its dense inverse, and bookkeeping.

    ``bus_ids`` lists the non-slack buses in grid order; ``index_map`` maps a
    non-slack bus id to its row in the grounded coordinates. ``E_r`` is the
    slack-reduced incidence matrix and ``b`` the effective branch
    susceptances, so ``B = E_r diag(b) E_r^T``.

    ``chol`` is ``(L, True)`` with ``L`` the lower Cholesky factor of ``B``,
    the proof that ``B`` is positive definite. Systems derived through
    low-rank updates carry ``B=None`` and no Cholesky factor; the inverse is
    all downstream algebra needs.
    """

    grid: Grid
    slack: int
    bus_ids: tuple[int, ...]
    index_map: dict[int, int]
    E_r: np.ndarray
    b: np.ndarray
    B_inv: np.ndarray
    B: np.ndarray | None = None
    chol: tuple | None = None

    @property
    def n(self) -> int:
        """Dimension of the grounded coordinates (buses minus slack)."""
        return len(self.bus_ids)

    @cached_property
    def branch_ends(self) -> tuple[np.ndarray, np.ndarray]:
        """Grounded row of each branch's from bus and to bus, in branch order.

        The slack has no grounded row and maps to ``n``, a pad index that
        kernels gathering rows of ``B^-1`` on branch endpoints keep at zero.
        """
        n, pos, branches = self.n, self.index_map, self.grid.branches
        frm = np.array([pos.get(br.from_bus, n) for br in branches], dtype=np.intp)
        to = np.array([pos.get(br.to_bus, n) for br in branches], dtype=np.intp)
        _freeze(frm, to)
        return frm, to

    def nu(self, branch_id: int) -> np.ndarray:
        """Terminal incidence vector of a branch in grounded coordinates."""
        return self.E_r[:, self.grid.branch_index[branch_id]]

    @cached_property
    def _non_slack_rows(self) -> np.ndarray:
        rows = np.array(
            [i for i, b in enumerate(self.grid.buses) if not b.is_slack], dtype=np.intp
        )
        _freeze(rows)
        return rows

    def reduce(self, p_full: np.ndarray) -> np.ndarray:
        """Drop the slack entry from a full bus vector."""
        return np.asarray(p_full, dtype=float)[self._non_slack_rows]

    def expand(self, x_reduced: np.ndarray, slack_value: float = 0.0) -> np.ndarray:
        """Insert the slack entry back into a grounded-coordinate vector."""
        out = np.empty(self.grid.n_buses)
        j = 0
        for i, bus in enumerate(self.grid.buses):
            if bus.is_slack:
                out[i] = slack_value
            else:
                out[i] = x_reduced[j]
                j += 1
        return out


def _freeze(*arrays: np.ndarray) -> None:
    for a in arrays:
        a.setflags(write=False)


def build_grounded_system(grid: Grid) -> GroundedSystem:
    """Assemble and invert the grounded Laplacian for a connected grid.

    Raises
    ------
    IslandingError
        If the grid is disconnected; the error carries the components found
        by traversal.
    """
    comps = connected_components(grid)
    if len(comps) > 1:
        raise IslandingError(
            f"grid is disconnected into {len(comps)} components",
            components=comps,
        )
    inc = build_incidence(grid)
    b = grid.susceptances()
    E_r = inc.reduced
    B = (E_r * b) @ E_r.T
    B = 0.5 * (B + B.T)
    try:
        # the Cholesky factor is the positive-definiteness guard
        chol = (np.linalg.cholesky(B), True)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - traversal catches first
        raise IslandingError(f"grounded matrix is singular: {exc}") from exc
    B_inv = np.linalg.inv(B)
    B_inv = 0.5 * (B_inv + B_inv.T)
    bus_ids = grid.grounded_bus_ids
    index_map = {bid: i for i, bid in enumerate(bus_ids)}
    _freeze(B, B_inv)
    return GroundedSystem(
        grid=grid,
        slack=grid.slack,
        bus_ids=bus_ids,
        index_map=index_map,
        E_r=E_r,
        b=b,
        B_inv=B_inv,
        B=B,
        chol=chol,
    )


def system_from_inverse(grid: Grid, B_inv: np.ndarray) -> GroundedSystem:
    """Wrap a precomputed (possibly singular) inverse as a grounded system.

    Used when an inverse was obtained by a low-rank update; no factorization
    is performed and ``B`` is left unset.
    """
    inc = build_incidence(grid)
    bus_ids = grid.grounded_bus_ids
    B_inv = np.asarray(B_inv, dtype=float)
    if B_inv.shape != (len(bus_ids), len(bus_ids)):
        raise GridStructureError(
            f"inverse has shape {B_inv.shape}, expected {(len(bus_ids),) * 2}"
        )
    return GroundedSystem(
        grid=grid,
        slack=grid.slack,
        bus_ids=bus_ids,
        index_map={bid: i for i, bid in enumerate(bus_ids)},
        E_r=inc.reduced,
        b=grid.susceptances(),
        B_inv=B_inv,
    )


def pseudo_inverse_check(grid: Grid) -> np.ndarray:
    """Moore-Penrose pseudo-inverse of the full (ungrounded) Laplacian.

    Computed as ``(B + J/n)^-1 - J/n`` with ``J`` the all-ones matrix; kept
    as a cross-check against the grounded-inverse path, which is the
    production route.
    """
    comps = connected_components(grid)
    if len(comps) > 1:
        raise IslandingError(
            f"grid is disconnected into {len(comps)} components",
            components=comps,
        )
    inc = build_incidence(grid)
    b = grid.susceptances()
    B_full = (inc.full * b) @ inc.full.T
    n = grid.n_buses
    J = np.full((n, n), 1.0 / n)
    shifted = B_full + J
    plus = np.linalg.inv(shifted) - J
    return 0.5 * (plus + plus.T)
