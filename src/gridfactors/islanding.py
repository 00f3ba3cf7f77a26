"""Islanding detection: algebraic determinant-style criteria plus a
traversal oracle.

Removing a branch multiplies the determinant of the grounded matrix by
``1 - b_e nu_e^T B^-1 nu_e``, so a vanishing factor flags a bridge. The
analogous split criterion is ``nu_s^T (B_o - B_o B_c^-1 B_o) nu_s``, judged
by the rule the split routes raise on. The algebraic tests are the fast
production path; graph traversal is the exact cross-check and provides the
component membership.
"""

from __future__ import annotations

from .bus_topology import TriConfig, split_criterion
from .grid_model import GroundedSystem, _branch_col, connected_components
from .single_mod import outage_factors


def outage_islands(sys: GroundedSystem, branch: int) -> tuple[bool, float]:
    """Whether outaging ``branch`` disconnects the grid, plus the criterion.

    Returns ``(islands, 1 - b_e nu^T B^-1 nu)``; the scalar is compared to
    zero with ``OUTAGE_RTOL`` scaled by the transfer term. Reads the
    criterion only: no LODF row is gathered.
    """
    out = outage_factors(sys, [_branch_col(sys.grid, branch)], rows=())
    return bool(out.islands[0]), float(out.criterion[0])


def split_islands(tri: TriConfig, which: int = 0) -> tuple[bool, float]:
    """Whether opening coupler ``which`` of the split disconnects the grid."""
    s_val, tol = split_criterion(tri, which)
    return abs(s_val) <= tol, s_val


#: exact bus partition into connected components by graph traversal: the
#: ground truth the algebraic criteria are tested against
traversal_connectivity = connected_components
