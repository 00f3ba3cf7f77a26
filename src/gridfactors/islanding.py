"""Islanding detection: algebraic determinant-style criteria plus a
traversal oracle.

Removing a branch multiplies the determinant of the grounded matrix by
``1 - b_e nu_e^T B^-1 nu_e``, so a vanishing factor flags a bridge. The
analogous split criterion is ``nu_s^T (B_o - B_o B_c^-1 B_o) nu_s``. The
algebraic tests are the fast production path; graph traversal is the exact
cross-check and provides the component membership.
"""

from __future__ import annotations

from typing import Iterable

from .bus_topology import TriConfig, split_criterion
from .grid_model import Grid, GroundedSystem, _branch_col, connected_components
from .single_mod import outage_factors


def outage_islands(sys: GroundedSystem, branch: int) -> tuple[bool, float]:
    """Whether outaging ``branch`` disconnects the grid, plus the criterion.

    Returns ``(islands, 1 - b_e nu^T B^-1 nu)``; the scalar is compared to
    zero with ``OUTAGE_RTOL`` scaled by the transfer term.
    """
    out = outage_factors(sys, [_branch_col(sys.grid, branch)])
    return bool(out.islands[0]), float(out.criterion[0])


def split_islands(tri: TriConfig, which: int = 0) -> tuple[bool, float]:
    """Whether opening coupler ``which`` of the split disconnects the grid."""
    s_val, tol = split_criterion(tri, which)
    return abs(s_val) <= tol, s_val


def traversal_connectivity(
    grid: Grid,
    removed_branches: Iterable[int] = (),
    closed_switches: Iterable[int] = (),
) -> list[set[int]]:
    """Exact bus partition into connected components by graph traversal.

    In-service branches connect; switches count only when listed as
    closed. This is the ground truth the algebraic criteria are tested
    against.
    """
    return connected_components(
        grid,
        removed_branches=removed_branches,
        closed_switches=closed_switches,
    )
