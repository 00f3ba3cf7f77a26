"""Simultaneous modifications: multi-branch Woodbury updates, multi-switch
merges and multi-coupler bus splits.

A set of susceptance changes is one low-rank update ``B_m = B_r + U S U^T``
with ``U`` the stacked incidence vectors and ``S`` the diagonal of changes;
Hager's bracket ``S^-1 + U^T B_r^-1 U`` reduces the new inverse to an
M x M solve. An ideal switch's change diverges, so its column has
``1/s = 0`` and the bracket stays finite. ``woodbury_update``,
``multi_ptdf`` and ``SwitchKernel``'s settings read the one closure route,
``bus_topology.ComposedUpdate``, imported inside them; only the sweep runs
on stacked blocks of the kernel's own ``K``, judged by ``_linalg._refused``
as every guarded solve is. Multi-coupler splits are ``bus_topology.split_inverse``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from ._linalg import _lu_pivots, _refused
from .errors import DegenerateSwitchError, GridStructureError
from .factors_base import FactorMatrix, _LowRank, _end_diff, _wrap_ptdf
from .grid_model import GroundedSystem, _branch_col

if TYPE_CHECKING:
    from .bus_topology import TriConfig

#: most switches :meth:`SwitchKernel.sweep` takes (2**16 settings: 1.4-1.8 s and
#: 70 MB peak for ``whatif --enumerate`` on a 40-bus grid and a 2-vCPU Xeon)
SWEEP_MAX_SWITCHES = 16


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
    inverse unchanged.
    """
    from .bus_topology import ComposedUpdate

    return ComposedUpdate(sys, mods.entries).inverse()


def multi_ptdf(sys: GroundedSystem, mods: ModificationSet) -> FactorMatrix:
    """PTDF of the grid with the whole modification set applied."""
    from .bus_topology import ComposedUpdate

    up = ComposedUpdate(sys, mods.entries)
    return _wrap_ptdf(sys, up.inverse(), up._sys.b)


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

    Built once against the all-open reference; one setting is a
    ``ComposedUpdate`` of its closures, :meth:`sweep` runs on this kernel.
    """

    def __init__(self, sys: GroundedSystem, switches: Sequence[int]):
        self.switches = tuple(switches)
        super().__init__(sys, [_branch_col(sys.grid, s) for s in self.switches])
        # K_d ~ 1/b: tested against B^-1_ff + B^-1_tt, the terms it is the difference of
        f, t = self.ends
        self.degenerate = _refused(self.K_d[:, None], self._inv_at(f, f) + self._inv_at(t, t))

    def xi(self, states: SwitchStates) -> np.ndarray:
        """Diagonal of the closure matrix: exactly 0 (open) or 1 (closed).

        The closure variable of a finite-susceptance branch would be
        ``b q / (1 + b q)`` with ``q`` its transfer impedance; the ideal
        limits are 0 and 1, provided every closed switch's ``q`` passes the
        ``degenerate`` test; an open one is never part of the bracket.
        """
        if states.switches != self.switches:
            raise GridStructureError("switch states do not match this kernel")
        ids = [s for s, d, c in zip(self.switches, self.degenerate, states.closed) if d and c]
        if ids:
            raise DegenerateSwitchError(
                f"switches {ids} have no transfer impedance in the all-open reference"
            )
        return np.array([1.0 if c else 0.0 for c in states.closed])

    def _update(self, states: SwitchStates):
        """The setting's ``bus_topology.ComposedUpdate`` and closed flags, after :meth:`xi`."""
        from .bus_topology import ComposedUpdate

        closed = self.xi(states) == 1.0
        return ComposedUpdate(self.sys, switches=dict(zip(self.switches, closed))), closed

    def merged_inverse(self, states: SwitchStates) -> np.ndarray:
        """Reference inverse updated for the given switch closures: the update's
        ``B_r^-1 - W_c K_cc^-1 W_c^T`` on the closed switches ``c``, or the
        reference inverse itself with nothing closed."""
        return self._update(states)[0].inverse()

    def merged_angles(
        self, states: SwitchStates, theta: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Angles ``theta - W_c z`` after the given closures, from reference angles
        ``theta = B_r^-1 p``, and the flow over each switch (from bus to to bus;
        zero for open ones): ``z = K_cc^-1 U_c^T theta`` on the closed switches
        ``c``. One solve on the closed block, no n x n inverse."""
        up, closed = self._update(states)
        theta, z = up.angles(theta)
        y = np.zeros(len(self.switches))
        at = dict(up.switch_cols)
        y[closed] = [z[at[e]] for e in self.cols[closed].tolist()]
        return theta, y

    def sweep(
        self, theta: np.ndarray, f0: np.ndarray, block_bytes: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Closed flags (settings x M, ``itertools.product`` order), largest
        |flow| and islanding flag of every setting, from reference angles and
        flows. Per block of about ``block_bytes`` the brackets hold ``K`` on
        the closed entries and identity rows and columns on the open ones, in
        branch-position order as in ``ComposedUpdate``, so the closed pivots
        are bit for bit those :meth:`merged_angles` judges; one solve gives
        the closure flows ``Z``, one product ``f0 - Z P^T``.
        """
        M, m = len(self.switches), len(f0)
        if M > SWEEP_MAX_SWITCHES:  # before the 2**M settings take any memory
            raise GridStructureError(f"{M} switches: a sweep takes at most {SWEEP_MAX_SWITCHES}")
        if ref := list(self.sys.closed_switches):  # their flows need a cut per setting
            raise GridStructureError(f"switches {ref} are closed in the reference system")
        closed = np.empty((2**M, M), dtype=bool)
        for j in range(M):
            closed[:, j] = np.arange(2**M) >> (M - 1 - j) & 1
        peak, islands = np.full(2**M, np.nan), np.ones(2**M, dtype=bool)
        order = np.argsort(self.cols, kind="stable")
        K, degenerate = self.K[np.ix_(order, order)], self.degenerate[order]
        u = _end_diff(self.ends, np.asarray(theta, dtype=float))[order]
        if not (np.isfinite(K).all() and np.isfinite(u).all()):
            raise ValueError("array must not contain infs or NaNs")
        neg_P, eye = self.at_ends(self.sys.branch_ends, order), np.eye(M)  # P = diag(b) E^T W
        neg_P *= -self.sys.b
        block = max(1, block_bytes // (8 * (m + M * M)))
        for start in range(0, 2**M, block):
            at = slice(start, min(start + block, 2**M))
            c = closed[at][:, order]
            cc = c[:, :, None] & c[:, None, :]
            A = np.where(cc, K, eye)
            # guarded_solve's rule at the scale max |K_cc|; xi refuses a closed degenerate switch
            bad = _refused(_lu_pivots(A), np.where(cc, np.abs(K), 0.0).max((1, 2)), c)
            bad |= (c & degenerate).any(1)
            A[bad] = eye
            Z = np.linalg.solve(A, (c * u)[..., None])[..., 0]
            F = Z @ neg_P
            F += f0
            # a closed entry carries its own flow plus the closure's; an open
            # one (a line or PST listed as a switch) has a zero closure flow
            F[:, self.cols[order]] += Z
            peak[at] = np.abs(F, out=F).max(axis=1)
            peak[at][bad] = np.nan
            islands[at] = bad
        return closed, peak, islands


def xi_from_states(sys: GroundedSystem, states: SwitchStates) -> np.ndarray:
    """Closure diagonal for a switch setting against the all-open reference."""
    return SwitchKernel(sys, states.switches).xi(states)


def multi_merge_inverse(sys: GroundedSystem, states: SwitchStates) -> np.ndarray:
    """Inverse with the listed switches closed/open as stated."""
    return SwitchKernel(sys, states.switches).merged_inverse(states)


def multi_merge_ptdf(sys: GroundedSystem, states: SwitchStates) -> FactorMatrix:
    """PTDF rows of all non-switch branches under the given closures."""
    return _wrap_ptdf(sys, multi_merge_inverse(sys, states), sys.b, drop=states.switches)


# --- multi-coupler splits -----------------------------------------------------

def multi_split_inverse(tri: TriConfig) -> np.ndarray:
    """Open-grid inverse for one or more simultaneous busbar openings:
    ``bus_topology.split_inverse``, which takes any number of couplers."""
    from .bus_topology import split_inverse

    return split_inverse(tri)
