"""Simultaneous modifications: multi-branch Woodbury updates, multi-switch
merges and multi-coupler bus splits.

A set of susceptance changes is one low-rank update ``B_m = B_r + U S U^T``
with ``U`` the stacked incidence vectors and ``S`` the diagonal of changes;
Hager's bracket ``S^-1 + U^T B_r^-1 U`` reduces the new inverse to an
M x M solve. An ideal switch's change diverges, so its column has
``1/s = 0`` and the bracket stays finite. ``woodbury_update`` and
``multi_ptdf`` read ``bus_topology.ComposedUpdate``; ``SwitchKernel`` solves
on the closed switches' block of ``K``; both run on the endpoint kernel
``factors_base._LowRank``. Multi-coupler splits read the split kernel
``bus_topology._split_kernel`` for M couplers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from ._linalg import PIVOT_RTOL, guarded_solve
from .bus_topology import ComposedUpdate, TriConfig, _split_kernel
from .errors import DegenerateSwitchError, GridStructureError
from .factors_base import FactorMatrix, _LowRank, _end_diff, _wrap_ptdf
from .grid_model import GroundedSystem, _branch_col


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


def woodbury_update(sys: GroundedSystem, mods: ModificationSet) -> np.ndarray:
    """Inverse after all susceptance changes, via one M x M inner solve: the
    :class:`ComposedUpdate` of the deltas alone.

    Zero deltas are dropped; an empty effective set returns the reference
    inverse unchanged. A singular inner matrix means the modification set
    islands the grid.
    """
    return ComposedUpdate(sys, mods.entries).inverse()


def multi_ptdf(sys: GroundedSystem, mods: ModificationSet) -> FactorMatrix:
    """PTDF of the grid with the whole modification set applied."""
    up = ComposedUpdate(sys, mods.entries)
    return _wrap_ptdf(sys, up.inverse(), up.grid.susceptances())


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
        # K_d ~ 1/b: tested against B^-1_ff + B^-1_tt, the terms it is the difference of
        d = np.append(np.diagonal(sys.B_inv), 0.0)
        self.degenerate = self.K_d <= PIVOT_RTOL * (d[self.ends[0]] + d[self.ends[1]])

    def xi(self, states: SwitchStates) -> np.ndarray:
        """Diagonal of the closure matrix: exactly 0 (open) or 1 (closed).

        The closure variable of a finite-susceptance branch would be
        ``b q / (1 + b q)`` with ``q`` its transfer impedance; the ideal
        limits are 0 and 1, provided every ``q`` passes the ``degenerate`` test.
        """
        if states.switches != self.switches:
            raise GridStructureError("switch states do not match this kernel")
        if self.degenerate.any():
            ids = [s for s, bad in zip(self.switches, self.degenerate) if bad]
            raise DegenerateSwitchError(
                f"switches {ids} have no transfer impedance in the all-open reference"
            )
        return np.array([1.0 if c else 0.0 for c in states.closed])

    def merged_inverse(self, states: SwitchStates) -> np.ndarray:
        """Reference inverse updated for the given switch closures.

        ``B_m^-1 = B_r^-1 - W_c K_cc^-1 W_c^T`` on the closed switches ``c``:
        the bracket ``S^-1 + K`` with ``1/s = 0`` on each closed column and
        the open ones left out. With nothing closed this is the reference
        inverse itself.
        """
        closed = np.flatnonzero(self.xi(states))
        if not closed.size:
            return self.sys.B_inv
        return self.updated("multi-switch merge", np.zeros(closed.size), closed)

    def merged_angles(
        self, states: SwitchStates, theta: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Angles after the given switch closures, and the flows over the switches.

        ``theta`` holds the reference angles ``B_r^-1 p`` for some injections
        ``p``. With ``z = K_cc^-1 U_c^T theta`` on the closed switches ``c``
        the merged angles are ``theta - W_c z``, and ``z`` is the flow over
        each closed switch (from bus to to bus; zero for open ones): the
        ideal limit of ``(S^-1 + K)^-1 U^T theta`` for switch susceptances
        ``S``. One solve on the closed block, no n x n inverse.
        """
        closed = np.flatnonzero(self.xi(states))
        theta = np.asarray(theta, dtype=float)
        y = np.zeros(len(self.switches))
        if not closed.size:
            return theta, y
        rhs = _end_diff(self.ends, theta)[closed]
        y[closed] = self.solve(rhs, "multi-switch merge", np.zeros(closed.size), closed)
        return theta - self.W[:, closed] @ y[closed], y


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
