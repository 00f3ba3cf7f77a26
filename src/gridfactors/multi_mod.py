"""Simultaneous modifications: multi-branch Woodbury updates, multi-switch
merges through a 0/1 closure matrix, and multi-coupler bus splits.

A set of susceptance changes is one low-rank update ``B_m = B_r + U A U^T``
with ``U`` the stacked incidence vectors and ``A`` the diagonal of changes;
the Woodbury identity reduces the new inverse to an M x M solve. For ideal
switches the diagonal of changes diverges, so it is traded for the bounded
closure variables (0 open, 1 closed), leaving an expression that stays
finite for any switch setting. Multi-coupler splits generalize the
single-split expression with the same padded-inverse ingredients.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from ._linalg import SUSCEPTANCE_FLOOR, guarded_solve
from .bus_topology import TriConfig
from .errors import DegenerateSwitchError, GridStructureError, IslandingError
from .factors_base import FactorMatrix, PTDF, _ptdf_rows
from .grid_model import GroundedSystem

#: transfer impedances below this make a switch degenerate in the closure map
KD_ATOL = 1e-12


@dataclass(frozen=True)
class ModificationSet:
    """Ordered susceptance changes ``(branch id, delta_b)``, ids distinct."""

    entries: tuple[tuple[int, float], ...]

    def __post_init__(self):
        entries = tuple((int(b), float(d)) for b, d in self.entries)
        object.__setattr__(self, "entries", entries)
        ids = [b for b, _ in entries]
        if len(set(ids)) != len(ids):
            raise GridStructureError(f"duplicate branch ids in modification set: {ids}")

    @property
    def branches(self) -> tuple[int, ...]:
        return tuple(b for b, _ in self.entries)


def _stack_columns(sys: GroundedSystem, branches: Sequence[int]) -> np.ndarray:
    cols = []
    for branch_id in branches:
        idx = sys.grid.branch_index.get(branch_id)
        if idx is None:
            raise GridStructureError(f"unknown branch {branch_id}")
        cols.append(sys.E_r[:, idx])
    return np.column_stack(cols) if cols else np.zeros((sys.n, 0))


def woodbury_update(sys: GroundedSystem, mods: ModificationSet) -> np.ndarray:
    """Inverse after all susceptance changes, via one M x M inner solve.

    Zero deltas are dropped; an empty effective set returns the reference
    inverse unchanged. A singular inner matrix means the modification set
    islands the grid.
    """
    live = [(b, d) for b, d in mods.entries if d != 0.0]
    if not live:
        return sys.B_inv
    for branch_id, delta in live:
        idx = sys.grid.branch_index.get(branch_id)
        if idx is None:
            raise GridStructureError(f"unknown branch {branch_id}")
        if sys.b[idx] + delta < SUSCEPTANCE_FLOOR:
            raise GridStructureError(
                f"branch {branch_id}: susceptance would become negative"
            )
    U = _stack_columns(sys, [b for b, _ in live])
    deltas = np.array([d for _, d in live])
    W = sys.B_inv @ U
    K = U.T @ W
    inner = np.diag(1.0 / deltas) + K
    X = guarded_solve(
        inner,
        W.T,
        context=f"modification set {[b for b, _ in live]}",
        scale=max(np.abs(1.0 / deltas).max(), np.abs(K).max()),
    )
    B_m_inv = sys.B_inv - W @ X
    return 0.5 * (B_m_inv + B_m_inv.T)


def multi_ptdf(sys: GroundedSystem, mods: ModificationSet) -> FactorMatrix:
    """PTDF of the grid with the whole modification set applied."""
    B_m_inv = woodbury_update(sys, mods)
    b_m = sys.b.copy()
    for branch_id, delta in mods.entries:
        b_m[sys.grid.branch_index[branch_id]] += delta
    values = _ptdf_rows(sys.branch_ends, B_m_inv, b_m)
    return FactorMatrix(
        values=values,
        row_labels=sys.grid.branch_ids,
        col_labels=sys.bus_ids,
        kind=PTDF,
    )


# --- multi-switch merges ------------------------------------------------------

@dataclass(frozen=True)
class SwitchStates:
    """Closed/open setting for a fixed list of ideal switches."""

    switches: tuple[int, ...]
    closed: tuple[bool, ...]

    def __post_init__(self):
        object.__setattr__(self, "switches", tuple(int(s) for s in self.switches))
        object.__setattr__(self, "closed", tuple(bool(c) for c in self.closed))
        if len(self.switches) != len(self.closed):
            raise GridStructureError("switches and closed flags differ in length")
        if len(set(self.switches)) != len(self.switches):
            raise GridStructureError("duplicate switch ids")

    @classmethod
    def from_mapping(cls, states: Mapping[int, str | bool]) -> "SwitchStates":
        switches = tuple(sorted(states))
        closed = []
        for s in switches:
            v = states[s]
            if isinstance(v, str):
                if v not in ("open", "closed"):
                    raise GridStructureError(
                        f"switch {s}: state must be 'open' or 'closed', got {v!r}"
                    )
                closed.append(v == "closed")
            else:
                closed.append(bool(v))
        return cls(switches=switches, closed=tuple(closed))


class SwitchKernel:
    """Cache of ``K = U^T B_r^-1 U`` and its diagonal for one switch list.

    Built once against the all-open reference and reused across every
    closed/open setting of the same switches.
    """

    def __init__(self, sys: GroundedSystem, switches: Sequence[int]):
        self.sys = sys
        self.switches = tuple(switches)
        self.U = _stack_columns(sys, self.switches)
        self.W = sys.B_inv @ self.U
        self.K = self.U.T @ self.W
        self.K_d = np.diag(self.K).copy()

    def xi(self, states: SwitchStates) -> np.ndarray:
        """Diagonal of the closure matrix: exactly 0 (open) or 1 (closed).

        The closure variable of a finite-susceptance branch would be
        ``b q / (1 + b q)`` with ``q`` its transfer impedance; the ideal
        limits are 0 and 1, provided ``q`` is positive.
        """
        if states.switches != self.switches:
            raise GridStructureError("switch states do not match this kernel")
        bad = np.nonzero(self.K_d <= KD_ATOL)[0]
        if bad.size:
            raise DegenerateSwitchError(
                f"switches {[self.switches[i] for i in bad]} have no transfer "
                "impedance in the all-open reference"
            )
        return np.array([1.0 if c else 0.0 for c in states.closed])

    def merged_inverse(self, states: SwitchStates) -> np.ndarray:
        """Reference inverse updated for the given switch closures.

        ``B_m^-1 = B_r^-1 - B_r^-1 U Xi (K_d + (K - K_d) Xi)^-1 U^T B_r^-1``;
        with nothing closed this is the reference inverse itself.
        """
        xi = self.xi(states)
        if not xi.any():
            return self.sys.B_inv
        X = self._closure_solve(states, xi, self.W.T)
        B_m_inv = self.sys.B_inv - (self.W * xi) @ X
        return 0.5 * (B_m_inv + B_m_inv.T)

    def merged_angles(
        self, states: SwitchStates, theta: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Angles after the given switch closures, and the flows over the switches.

        ``theta`` holds the reference angles ``B_r^-1 p`` for some injections
        ``p``. With ``z = (K_d + (K - K_d) Xi)^-1 U^T theta`` the merged angles
        are ``theta - W (xi * z)``, and ``xi * z`` is the flow over each
        switch (from bus to to bus; zero for open ones): the ideal limit of
        ``(S^-1 + K)^-1 U^T theta`` for switch susceptances ``S``. One M x M
        solve, no n x n inverse.
        """
        xi = self.xi(states)
        theta = np.asarray(theta, dtype=float)
        if not xi.any():
            return theta, np.zeros(len(self.switches))
        y = xi * self._closure_solve(states, xi, self.U.T @ theta)
        return theta - self.W @ y, y

    def _closure_solve(
        self, states: SwitchStates, xi: np.ndarray, rhs: np.ndarray
    ) -> np.ndarray:
        """Solve the closure bracket ``(K_d + (K - K_d) Xi) x = rhs``.

        A singular bracket is diagnosed as a redundant closing or a
        degenerate system, both raised as DegenerateSwitchError.
        """
        bracket = np.diag(self.K_d) + (self.K - np.diag(self.K_d)) * xi
        try:
            return guarded_solve(
                bracket,
                rhs,
                context="multi-switch merge",
                scale=np.abs(self.K).max(),
            )
        except IslandingError as exc:
            raise self._diagnose_singular(states) from exc

    def _diagnose_singular(self, states: SwitchStates) -> DegenerateSwitchError:
        """Tell a redundant closing apart from corrupt data.

        Union-find over the closed switch edges: a closed switch whose
        terminals are already merged through other closed switches makes
        the closure system singular by construction.
        """
        grid = self.sys.grid
        parent: dict[int, int] = {}

        def find(x: int) -> int:
            parent.setdefault(x, x)
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for s, closed in zip(states.switches, states.closed):
            if not closed:
                continue
            br = grid.branch(s)
            ra, rb = find(br.from_bus), find(br.to_bus)
            if ra == rb:
                return DegenerateSwitchError(
                    f"closing switch {s} is redundant: its terminals are already "
                    "merged through other closed switches"
                )
            parent[ra] = rb
        return DegenerateSwitchError(
            "multi-switch merge produced a singular closure system"
        )


def xi_from_states(sys: GroundedSystem, states: SwitchStates) -> np.ndarray:
    """Closure diagonal for a switch setting against the all-open reference."""
    return SwitchKernel(sys, states.switches).xi(states)


def multi_merge_inverse(
    sys: GroundedSystem,
    states: SwitchStates,
    kernel: SwitchKernel | None = None,
) -> np.ndarray:
    """Inverse with the listed switches closed/open as stated.

    Pass a prebuilt :class:`SwitchKernel` when sweeping many settings of
    the same switch list; it is built once here otherwise.
    """
    if kernel is None:
        kernel = SwitchKernel(sys, states.switches)
    return kernel.merged_inverse(states)


def multi_merge_ptdf(
    sys: GroundedSystem,
    states: SwitchStates,
    kernel: SwitchKernel | None = None,
) -> FactorMatrix:
    """PTDF rows of all non-switch branches under the given closures."""
    B_m_inv = multi_merge_inverse(sys, states, kernel)
    values = _ptdf_rows(sys.branch_ends, B_m_inv, sys.b)
    keep = [
        i
        for i, br in enumerate(sys.grid.branches)
        if br.id not in states.switches
    ]
    return FactorMatrix(
        values=values[keep],
        row_labels=tuple(sys.grid.branch_ids[i] for i in keep),
        col_labels=sys.bus_ids,
        kind=PTDF,
    )


# --- multi-coupler splits -----------------------------------------------------

def multi_split_inverse(tri: TriConfig) -> np.ndarray:
    """Open-grid inverse for one or more simultaneous busbar openings.

    ``B_o^-1 = B_c^-1 + (1 - B_c^-1 B_o) U [U^T (B_o - B_o B_c^-1 B_o) U]^-1
    U^T (1 - B_o B_c^-1)``; a singular inner matrix means the combined
    openings island the grid even if each one alone would not.
    """
    U = tri.U
    BoU = tri.B_o @ U
    GU = U - tri.B_c_inv @ BoU
    inner = BoU.T @ GU  # U^T (B_o - B_o B_c^-1 B_o) U
    inner = 0.5 * (inner + inner.T)
    X = guarded_solve(
        inner,
        GU.T,
        context="multi-coupler bus split",
        scale=np.abs(U.T @ BoU).max(),
    )
    B_o_inv = tri.B_c_inv + GU @ X
    return 0.5 * (B_o_inv + B_o_inv.T)
