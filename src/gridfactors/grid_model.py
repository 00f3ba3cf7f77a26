"""Grid data model and grounded nodal susceptance matrix assembly.

The linear (DC) power flow model couples bus injections ``p`` and voltage
angles ``theta`` through ``p = B theta`` where ``B = E diag(b) E^T`` is the
weighted graph Laplacian built from the node-edge incidence matrix ``E`` and
the branch susceptances ``b``. Fixing a slack bus and deleting its row and
column grounds the Laplacian, which is then positive definite exactly when
the grid is connected. Everything downstream (distribution factors, low-rank
topology updates) works on the dense inverse of that grounded matrix.

The inverse is built on the meshed core of the grid only. Buses with at
most two distinct neighbours (the slack counts as one) are eliminated
exactly first, a series-parallel Kron reduction: a pendant bus drops its
branch and a series bus becomes one branch between its neighbours. The
core's grounded Laplacian is scattered from its branch endpoint arrays
(each branch adds ``b`` to its two diagonal entries and ``-b`` to the two
off-diagonal ones), never formed as the product ``E diag(b) E^T``, and
inverted through the Cholesky factor ``B = L L^T`` that proves it positive
definite: ``B^-1 = L^-T L^-1`` (LAPACK's potrf, trtri, lauum route;
Higham, *Accuracy and Stability of Numerical Algorithms*, ch. 14). The
eliminated buses' rows of the inverse then follow from the core's in
reverse elimination order. The full ``B`` and its factor are built only
when read.
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
        if not math.isfinite(self.shift_angle):
            raise GridStructureError(
                f"branch {self.id}: shift_angle must be finite, got {self.shift_angle}"
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


def _branch_col(grid: Grid, branch_id: int) -> int:
    """Position of a branch (its incidence column); GridStructureError if unknown."""
    e = grid.branch_index.get(branch_id)
    if e is None:
        raise GridStructureError(f"unknown branch {branch_id}")
    return e


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


def _branch_ends(grid: Grid, pos: dict[int, int], pad: int) -> tuple[np.ndarray, np.ndarray]:
    """Row of each branch's from bus and to bus under ``pos``, in branch order.

    A bus missing from ``pos`` (the slack, in grounded coordinates) maps to
    the pad index ``pad``.
    """
    frm = np.array([pos.get(br.from_bus, pad) for br in grid.branches], dtype=np.intp)
    to = np.array([pos.get(br.to_bus, pad) for br in grid.branches], dtype=np.intp)
    _freeze(frm, to)
    return frm, to


def _incidence(ends: tuple[np.ndarray, np.ndarray], n: int) -> np.ndarray:
    """Read-only n x m incidence matrix: +1 at each from row, -1 at each to row.

    Ends at the pad index ``n`` land on a spare row that is dropped.
    """
    frm, to = ends
    cols = np.arange(len(frm))
    E = np.zeros((n + 1, len(frm)))
    E[frm, cols] = 1.0
    E[to, cols] = -1.0
    E = E[:n]
    E.setflags(write=False)
    return E


def _grounded_laplacian(ends: tuple[np.ndarray, np.ndarray], b: np.ndarray, n: int) -> np.ndarray:
    """Read-only grounded Laplacian ``E_r diag(b) E_r^T`` scattered from branch ends.

    One ``np.bincount`` adds ``b_e`` at ``(f, f)`` and ``(t, t)`` and
    ``-b_e`` at ``(f, t)`` and ``(t, f)`` for every branch; entries on the
    pad index ``n`` (the slack) are dropped. The four entries of a branch
    are consecutive, so ``(i, j)`` and ``(j, i)`` sum the same terms in the
    same order and the result is exactly symmetric.
    """
    frm, to = ends
    rows = np.stack([frm, to, frm, to], axis=1).ravel()
    cols = np.stack([frm, to, to, frm], axis=1).ravel()
    weights = np.stack([b, b, -b, -b], axis=1).ravel()
    keep = (rows < n) & (cols < n)
    B = np.bincount(
        rows[keep] * n + cols[keep], weights=weights[keep], minlength=n * n
    ).reshape(n, n)
    B.setflags(write=False)
    return B


#: order at or below which a triangular inverse is left to one LAPACK call
_TRI_LEAF = 128


def _lower_inverse(L: np.ndarray, out: np.ndarray) -> None:
    """Write the inverse of the lower triangular ``L`` into ``out``.

    ``out`` must be zero above its diagonal. With ``L = [[L11, 0], [L21,
    L22]]`` the inverse is ``[[M11, 0], [-M22 L21 M11, M22]]``: the two
    diagonal blocks recurse and the off-diagonal block is two gemms.
    """
    n = L.shape[0]
    if n <= _TRI_LEAF:
        out[...] = np.tril(np.linalg.inv(L))
        return
    h = n // 2
    M11, M22 = out[:h, :h], out[h:, h:]
    _lower_inverse(L[:h, :h], M11)
    _lower_inverse(L[h:, h:], M22)
    low = out[h:, :h]
    np.matmul(M22, L[h:, :h] @ M11, out=low)
    np.negative(low, out=low)


def _cholesky_inverse(B: np.ndarray) -> np.ndarray:
    """``B^-1 = L^-T L^-1`` through the lower Cholesky factor ``L`` of ``B``.

    Raises ``np.linalg.LinAlgError`` if ``B`` is not positive definite.
    ``B`` and ``L`` are dropped as soon as they are used, so no more than
    two n x n buffers are alive at once. ``M.T @ M`` on one buffer runs as
    a BLAS syrk, which fills one triangle and mirrors it, so the result is
    exactly symmetric.
    """
    L = np.linalg.cholesky(B)
    del B
    M = np.zeros_like(L)
    _lower_inverse(L, M)
    del L
    return M.T @ M


def _series_parallel(ends: tuple[np.ndarray, np.ndarray], b: np.ndarray, n: int):
    """Kron reduction of the buses with at most two distinct neighbours.

    The buses are the grounded rows ``0..n-1`` and the slack, on the pad
    index ``n``; branches of zero susceptance do not connect. A non-slack
    bus with one neighbour (the slack counts) drops its branch; one with
    two neighbours ``x, y`` over the weights ``b_x, b_y`` becomes one branch
    of weight ``b_x b_y / (b_x + b_y)`` between them, merged with any
    parallel branch. Each elimination lowers or keeps its neighbours'
    degrees, so it repeats until none is left (F. Dörfler and F. Bullo,
    "Kron reduction of graphs with applications to electrical networks",
    IEEE TCAS-I 60(1), 2013).

    Returns ``None`` when no bus qualifies. Otherwise returns the core
    (the grounded rows left, ascending), its branch ends in core
    coordinates (the slack on the pad index ``len(core)``), their merged
    weights, and one ``(v, d, [(x, b_x / d), ...])`` per eliminated bus in
    elimination order: ``d`` is the sum of its weights when it went and
    the list holds its non-slack neighbours then.
    """
    # parallel branches merge in branch order, the same additions at both ends
    adj: list[dict[int, float]] = [{} for _ in range(n + 1)]
    for f, t, w in zip(ends[0].tolist(), ends[1].tolist(), b.tolist()):
        if w > 0.0:
            adj[f][t] = adj[t][f] = adj[f].get(t, 0.0) + w
    stack = [v for v in range(n) if len(adj[v]) <= 2]
    if not stack:
        return None
    gone = bytearray(n + 1)
    steps = []
    while stack:
        v = stack.pop()
        if gone[v]:
            continue
        gone[v] = 1
        nbrs = list(adj[v].items())
        for x, _ in nbrs:
            del adj[x][v]
        if len(nbrs) == 1:
            d = nbrs[0][1]
        else:
            (x, bx), (y, by) = nbrs
            d = bx + by
            adj[x][y] = adj[y][x] = adj[x].get(y, 0.0) + bx * (by / d)
        steps.append((v, d, [(x, w / d) for x, w in nbrs if x != n]))
        for x, _ in nbrs:
            if x != n and len(adj[x]) <= 2:
                stack.append(x)
    core = np.flatnonzero(np.frombuffer(gone, dtype=np.uint8)[:n] == 0)
    pos = np.full(n + 1, len(core), dtype=np.intp)
    pos[core] = np.arange(len(core))
    edges = [(v, x, w) for v in core.tolist() for x, w in adj[v].items() if x > v]
    f, t, w = np.array(edges, dtype=float).reshape(-1, 3).T
    return core, (pos[f.astype(np.intp)], pos[t.astype(np.intp)]), w, steps


def _grounded_inverse(ends: tuple[np.ndarray, np.ndarray], b: np.ndarray, n: int) -> np.ndarray:
    """Inverse of the grounded Laplacian: the meshed core by Cholesky, the rest by Kron.

    After :func:`_series_parallel` only the core is scattered and
    inverted; its inverse is the grounded inverse on the core rows. The
    eliminated buses follow in reverse elimination order: bus ``v``, gone
    with the weight sum ``d`` and the neighbours ``x`` of weight ``b_x``,
    has the row ``sum_x (b_x / d) B^-1[x, :]`` over the buses present when
    it went (the entries of buses eliminated before it are still zero, so
    whole rows are summed) and the diagonal ``1/d + sum_x (b_x / d)
    B^-1[x, v]``. The row is written as the column as well, so the result
    is exactly symmetric; all the terms are nonnegative, so nothing
    cancels.
    """
    reduced = _series_parallel(ends, b, n)
    if reduced is None:
        return _cholesky_inverse(_grounded_laplacian(ends, b, n))
    core, core_ends, core_b, steps = reduced
    B_inv = np.zeros((n, n))
    if len(core):
        B_inv[np.ix_(core, core)] = _cholesky_inverse(
            _grounded_laplacian(core_ends, core_b, len(core))
        )
    for v, d, nbrs in reversed(steps):
        row = B_inv[v]  # still zero: only its own step writes it
        for x, w in nbrs:
            row += w * B_inv[x]
        B_inv[:, v] = row
        B_inv[v, v] = 1.0 / d + sum(w * row[x] for x, w in nbrs)
    return B_inv


def build_incidence(grid: Grid) -> IncidenceMatrix:
    """Assemble the oriented incidence matrix in bus/branch order."""
    n = grid.n_buses
    return IncidenceMatrix(
        full=_incidence(_branch_ends(grid, grid.bus_index, n), n),
        reduced=_incidence(_grounded_coords(grid)[1], n - 1),
        bus_ids=grid.bus_ids,
        branch_ids=grid.branch_ids,
        slack=grid.slack,
    )


class _Lazy:
    """Dataclass field given as ``None`` and built by ``build(obj)`` on first
    read; a build that yields ``None`` is kept too, and not repeated."""

    def __init__(self, build):
        self.build = build

    def __set_name__(self, owner, name):
        self.key = "_lazy_" + name

    def __get__(self, obj, owner=None):
        if obj is None:
            raise AttributeError(self.key)  # no default: the field stays required
        if self.key not in obj.__dict__:
            obj.__dict__[self.key] = self.build(obj)
        return obj.__dict__[self.key]

    def __set__(self, obj, value):
        if value is not None:
            obj.__dict__[self.key] = value


def _cholesky_or_none(sys: GroundedSystem) -> tuple | None:
    """``(L, True)`` for the lower Cholesky factor ``L`` of ``sys.B``; ``None``
    when that ``B`` is not positive definite."""
    try:
        return np.linalg.cholesky(sys.B), True
    except np.linalg.LinAlgError:
        return None


@dataclass(frozen=True, eq=False)
class GroundedSystem:
    """Grounded nodal susceptance matrix, its dense inverse, and bookkeeping.

    ``bus_ids`` lists the non-slack buses in grid order; ``index_map`` maps a
    non-slack bus id to its row in the grounded coordinates. ``E_r`` is the
    slack-reduced incidence matrix and ``b`` the effective branch
    susceptances, so ``B = E_r diag(b) E_r^T``; ``B`` itself is scattered
    from the endpoint arrays ``branch_ends``, not formed as that product.

    ``B_inv`` is all downstream algebra reads. :func:`build_grounded_system`
    inverts only the core left after the series-parallel reduction and
    rebuilds the other rows from it, so no command forms ``B`` or its
    factor. ``E_r``, ``B`` and ``chol`` are built on first read (pass
    ``None``), on systems derived through low-rank updates too, where they
    are those of ``grid`` (closed switches carry no susceptance there).
    ``chol`` is ``(L, True)`` with ``L`` the lower Cholesky factor of ``B``,
    or ``None`` when ``B`` is not positive definite: on a derived system
    whose grid is connected only through a closed switch, ``B`` is singular.
    """

    grid: Grid
    slack: int
    bus_ids: tuple[int, ...]
    index_map: dict[int, int]
    E_r: np.ndarray = _Lazy(lambda s: _incidence(s.branch_ends, s.n))
    b: np.ndarray
    B_inv: np.ndarray
    B: np.ndarray = _Lazy(lambda s: _grounded_laplacian(s.branch_ends, s.b, s.n))
    chol: tuple | None = _Lazy(_cholesky_or_none)

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
        return _branch_ends(self.grid, self.index_map, self.n)

    def nu(self, branch_id: int) -> np.ndarray:
        """Terminal incidence vector of a branch in grounded coordinates."""
        e = self.grid.branch_index[branch_id]
        ends = [self.branch_ends[0][e], self.branch_ends[1][e]]  # the slack on the pad
        return np.bincount(ends, [1.0, -1.0], minlength=self.n + 1)[: self.n]

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

    def expand(self, x_reduced: np.ndarray) -> np.ndarray:
        """Insert the slack entry, zero, back into a grounded-coordinate vector."""
        out = np.zeros(self.grid.n_buses)
        out[self._non_slack_rows] = x_reduced
        return out


def _freeze(*arrays: np.ndarray) -> None:
    for a in arrays:
        a.setflags(write=False)


def _grounded_coords(grid: Grid) -> tuple[dict[int, int], tuple[np.ndarray, np.ndarray]]:
    """Grounded row of each non-slack bus id, and the grounded branch ends."""
    index_map = {bid: i for i, bid in enumerate(grid.grounded_bus_ids)}
    return index_map, _branch_ends(grid, index_map, len(index_map))


def _system(grid: Grid, coords, B_inv: np.ndarray) -> GroundedSystem:
    """Grounded system of ``grid`` in the coordinates ``_grounded_coords(grid)``."""
    index_map, ends = coords
    sys = GroundedSystem(
        grid=grid,
        slack=grid.slack,
        bus_ids=grid.grounded_bus_ids,
        index_map=index_map,
        E_r=None,
        b=grid.susceptances(),
        B_inv=B_inv,
        B=None,
        chol=None,
    )
    sys.__dict__["branch_ends"] = ends  # seeds the cached property
    return sys


def build_grounded_system(grid: Grid) -> GroundedSystem:
    """Invert the grounded Laplacian of a connected grid.

    Buses with at most two distinct neighbours are eliminated exactly
    first (:func:`_series_parallel`); the Cholesky factor ``L`` of the
    core left proves it positive definite and gives its inverse as
    ``L^-T L^-1``, and the eliminated buses' rows follow from the core's.
    On a grid without such buses the core is the whole grounded matrix.
    ``B`` and ``chol`` are built only when read.

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
    coords = _grounded_coords(grid)
    try:
        B_inv = _grounded_inverse(coords[1], grid.susceptances(), grid.n_buses - 1)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - traversal catches first
        raise IslandingError(f"grounded matrix is singular: {exc}") from exc
    _freeze(B_inv)
    return _system(grid, coords, B_inv)


def system_from_inverse(grid: Grid, B_inv: np.ndarray) -> GroundedSystem:
    """Wrap a precomputed (possibly singular) inverse as a grounded system.

    Used when an inverse was obtained by a low-rank update; no factorization
    is performed. ``B`` and ``chol`` are those of ``grid``, built on first
    read.
    """
    n = grid.n_buses - 1
    B_inv = np.asarray(B_inv, dtype=float)
    if B_inv.shape != (n, n):
        raise GridStructureError(f"inverse has shape {B_inv.shape}, expected {(n, n)}")
    return _system(grid, _grounded_coords(grid), B_inv)
