"""Islanding detection: the graph walk decides, the algebraic criteria report.

The outage criterion ``1 - b_e nu_e^T B^-1 nu_e`` vanishes exactly for a
bridge, the split criterion ``nu_s^T (B_o - B_o B_c^-1 B_o) nu_s`` for an
islanding split; as differences, roundoff can leave them nonzero across many
decades of susceptance. So graph structure (``grid_model._walk``) sets the
flags (a rebased system's closed switches connect in the split walk), and a
split is also flagged where the routes' guard, ``_linalg._refused``, refuses
its criterion.
"""

from __future__ import annotations

from ._linalg import _refused
from .bus_topology import TriConfig, _split_kernel
from .grid_model import GroundedSystem, _branch_col, connected_components
from .single_mod import outage_factors


def outage_islands(sys: GroundedSystem, branch: int) -> tuple[bool, float]:
    """Whether outaging ``branch`` disconnects the grid (its ``sys.bridges``
    entry), and the criterion ``1 - b_e nu^T B^-1 nu``; no LODF row is gathered."""
    out = outage_factors(sys, [_branch_col(sys.grid, branch)], rows=())
    return bool(out.islands[0]), float(out.criterion[0])


def split_islands(tri: TriConfig, which: int = 0) -> tuple[bool, float]:
    """Whether the split routes refuse coupler ``which``: the open grid is
    disconnected, or its criterion ``nu^T (B_o - B_o B_c^-1 B_o) nu`` fails
    their guard as a 1 x 1 bracket; and that criterion."""
    _, inner, scale = _split_kernel(tri)
    s_val = float(inner[which, which])
    comps = connected_components(tri.grid_o, (), tri.sys_c.closed_switches)
    islands = _refused([abs(s_val)], scale[which]) or len(comps) > 1
    return bool(islands), s_val


#: exact bus partition into connected components by graph traversal: the
#: ground truth the algebraic criteria are tested against
traversal_connectivity = connected_components
