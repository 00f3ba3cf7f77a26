"""Islanding detection: the graph walk decides, the algebraic criteria report.

The outage criterion ``1 - b_e nu_e^T B^-1 nu_e`` vanishes exactly for a
bridge, the split criterion ``nu_s^T (B_o - B_o B_c^-1 B_o) nu_s`` for an
islanding split; as differences, roundoff can leave them nonzero across many
decades of susceptance. So graph structure (``grid_model._walk``) sets the
flags, and a split is also flagged where the routes' guard refuses it.
"""

from __future__ import annotations

from .bus_topology import TriConfig, split_criterion
from .grid_model import GroundedSystem, _branch_col, connected_components
from .single_mod import outage_factors


def outage_islands(sys: GroundedSystem, branch: int) -> tuple[bool, float]:
    """Whether outaging ``branch`` disconnects the grid (its ``sys.bridges``
    entry), and the criterion ``1 - b_e nu^T B^-1 nu``; no LODF row is gathered."""
    out = outage_factors(sys, [_branch_col(sys.grid, branch)], rows=())
    return bool(out.islands[0]), float(out.criterion[0])


def split_islands(tri: TriConfig, which: int = 0) -> tuple[bool, float]:
    """Whether the split routes refuse coupler ``which``: the open grid is
    disconnected, or its criterion fails their conditioning guard."""
    s_val, tol = split_criterion(tri, which)
    return abs(s_val) <= tol or len(connected_components(tri.grid_o)) > 1, s_val


#: exact bus partition into connected components by graph traversal: the
#: ground truth the algebraic criteria are tested against
traversal_connectivity = connected_components
