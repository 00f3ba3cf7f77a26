"""Simultaneous modifications: multi-branch Woodbury updates, multi-switch
merges through a 0/1 closure matrix, and multi-coupler bus splits.

A set of susceptance changes is one low-rank update ``B_m = B_r + U A U^T``
with ``U`` the stacked incidence vectors and ``A`` the diagonal of changes;
the Woodbury identity reduces the new inverse to an M x M solve. For ideal
switches the diagonal of changes diverges, so it is traded for the bounded
closure variables (0 open, 1 closed), leaving an expression that stays
finite for any switch setting. Both read the endpoint low-rank kernel
``factors_base._LowRank`` for M branches; multi-coupler splits read the
split kernel ``bus_topology._split_kernel`` for M couplers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from ._linalg import guarded_solve
from .bus_topology import TriConfig, _split_kernel
from .errors import GridStructureError
from .factors_base import FactorMatrix, _LowRank, _end_diff, _wrap_ptdf
from .grid_model import GroundedSystem, _branch_col
from .single_mod import BranchDelta, _check_delta


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


def woodbury_update(sys: GroundedSystem, mods: ModificationSet) -> np.ndarray:
    """Inverse after all susceptance changes, via one M x M inner solve.

    Zero deltas are dropped; an empty effective set returns the reference
    inverse unchanged. A singular inner matrix means the modification set
    islands the grid.
    """
    live = [(b, d) for b, d in mods.entries if d != 0.0]
    if not live:
        return sys.B_inv
    cols = [_check_delta(sys, BranchDelta(b, d)) for b, d in live]
    return _LowRank(sys, cols).updated(
        f"modification set {[b for b, _ in live]}",
        s_inv=1.0 / np.array([d for _, d in live]),
    )


def multi_ptdf(sys: GroundedSystem, mods: ModificationSet) -> FactorMatrix:
    """PTDF of the grid with the whole modification set applied."""
    B_m_inv = woodbury_update(sys, mods)
    b_m = sys.b.copy()
    for branch_id, delta in mods.entries:
        b_m[sys.grid.branch_index[branch_id]] += delta
    return _wrap_ptdf(sys, B_m_inv, b_m)


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


class SwitchKernel(_LowRank):
    """Closure kernel ``K = U^T B_r^-1 U`` and its diagonal ``K_d`` for one
    switch list: the endpoint kernel on the switches' incidence columns.

    Built once against the all-open reference and reused across every
    closed/open setting of the same switches.
    """

    def __init__(self, sys: GroundedSystem, switches: Sequence[int]):
        self.switches = tuple(switches)
        super().__init__(sys, [_branch_col(sys.grid, s) for s in self.switches])

    def xi(self, states: SwitchStates) -> np.ndarray:
        """Diagonal of the closure matrix: exactly 0 (open) or 1 (closed).

        The closure variable of a finite-susceptance branch would be
        ``b q / (1 + b q)`` with ``q`` its transfer impedance; the ideal
        limits are 0 and 1, provided ``q`` is positive.
        """
        if states.switches != self.switches:
            raise GridStructureError("switch states do not match this kernel")
        return self.closure(states.closed)

    def merged_inverse(self, states: SwitchStates) -> np.ndarray:
        """Reference inverse updated for the given switch closures.

        ``B_m^-1 = B_r^-1 - B_r^-1 U Xi (K_d + (K - K_d) Xi)^-1 U^T B_r^-1``;
        with nothing closed this is the reference inverse itself.
        """
        xi = self.xi(states)
        if not xi.any():
            return self.sys.B_inv
        return self.updated("multi-switch merge", xi=xi)

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
        y = xi * self.solve(_end_diff(self.ends, theta), "multi-switch merge", xi=xi)
        return theta - self.W @ y, y


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
    return _wrap_ptdf(
        sys, multi_merge_inverse(sys, states, kernel), sys.b, drop=states.switches
    )


# --- multi-coupler splits -----------------------------------------------------

def multi_split_inverse(tri: TriConfig) -> np.ndarray:
    """Open-grid inverse for one or more simultaneous busbar openings.

    ``B_o^-1 = B_c^-1 + (1 - B_c^-1 B_o) U [U^T (B_o - B_o B_c^-1 B_o) U]^-1
    U^T (1 - B_o B_c^-1)``; a singular inner matrix means the combined
    openings island the grid even if each one alone would not.
    """
    GU, inner, scale, _ = _split_kernel(tri)
    X = guarded_solve(inner, GU.T, context="multi-coupler bus split", scale=scale)
    return tri.B_c_inv + GU @ X
