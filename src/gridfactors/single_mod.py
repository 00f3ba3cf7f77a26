"""Single-branch susceptance changes, line outages and line closings.

All of these are rank-one updates of the grounded matrix (the
Sherman-Morrison formula): M = 1 calls of the endpoint low-rank kernel
``factors_base._LowRank`` with the finite bracket ``1 / delta_b + t``. The
derived quantities are the updated inverse and PTDF, the line outage
distribution factor (LODF) column, the angle difference left across an
outaged branch, and the line closing distribution factor (LCDF) column.

Outages of many branches share one kernel, :func:`outage_factors`, which
gathers rows of the inverse on branch endpoints (Guo, Fu, Li and
Shahidehpour, "Direct calculation of line outage distribution factors",
IEEE Trans. Power Syst. 24(3), 2009); the one-branch outage functions are
calls of it with a single branch. The (n-1) screen, :func:`outage_peaks`,
runs the same LODF kernel on few rows per outage: since ``|LODF| <= 1``, a
row whose ``|f_l| + |f_e|`` stays below a lower bound on the outage's
maximum cannot hold it, and is never gathered.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from ._linalg import SUSCEPTANCE_FLOOR, _refused, guarded_solve
from .errors import GridStructureError
from .factors_base import FactorMatrix, _LowRank, _end_diff, _wrap_ptdf
from .grid_model import GroundedSystem, _branch_col, _require_connected, _walk


@dataclass(frozen=True)
class BranchDelta:
    """One susceptance change: outage is ``delta_b = -b_e``, closing starts
    from ``b_e = 0`` with ``delta_b > 0``."""

    branch: int
    delta_b: float


def _check_delta(sys: GroundedSystem, d: BranchDelta) -> int:
    e = _branch_col(sys.grid, d.branch)
    if sys.b[e] + d.delta_b < SUSCEPTANCE_FLOOR * sys.b[e]:
        raise GridStructureError(
            f"branch {d.branch}: susceptance would become negative "
            f"({sys.b[e]} + {d.delta_b})"
        )
    return e


def updated_inverse(sys: GroundedSystem, d: BranchDelta) -> np.ndarray:
    """Inverse of the grounded matrix after one susceptance change."""
    e = _check_delta(sys, d)
    if d.delta_b == 0.0:
        return sys.B_inv
    if sys.b[e] + d.delta_b <= 0.0:  # an outage: IslandingError for a bridge
        _single_outage(sys, d.branch, rows=())
    return _LowRank(sys, [e]).updated(
        f"modifying branch {d.branch}", s_inv=np.array([1.0 / d.delta_b])
    )


def ptdf_after_mod(sys: GroundedSystem, d: BranchDelta) -> FactorMatrix:
    """PTDF of the modified grid; for an outage the modified row vanishes.

    Every row, including the modified one, is taken directly from the
    updated inverse: ``PTDF_m = diag(b_m) E^T B_m^-1``.
    """
    B_m_inv = updated_inverse(sys, d)
    b_m = sys.b.copy()
    b_m[sys.grid.branch_index[d.branch]] += d.delta_b
    return _wrap_ptdf(sys, B_m_inv, b_m)


class OutageFactors(NamedTuple):
    """Screening quantities for outaging a block of k branches, one entry
    (or column) per outaged branch."""

    criterion: np.ndarray  #: ``1 - b_e t_e``; zero flags a bridge
    transfer: np.ndarray  #: ``b_e t_e`` with ``t_e = nu_e^T B^-1 nu_e``
    islands: np.ndarray  #: the branch is a bridge (``GroundedSystem.bridges``)
    lodf: np.ndarray  #: monitored rows x k LODF block, NaN where islands or ill-conditioned


def _outage_kernel(sys: GroundedSystem, cols: np.ndarray):
    """Criteria, transfers and bridge flags of outaging the branches at
    ``cols``, the positions among them of the outages the pivot rule tells
    from islanding, and the endpoint kernel of those (no row of ``B^-1`` read)."""
    up = _LowRank(sys, cols)
    transfer = sys.b[cols] * up.K_d
    criterion = 1.0 - transfer
    islands = sys.bridges[cols]
    # the 1 x 1 bracket -1/b_e + t_e = -criterion/b_e, scaled by b_e
    live = np.flatnonzero(~islands & ~_refused(abs(criterion)[:, None], np.maximum(1.0, abs(transfer))))
    if live.size < cols.size:
        up = _LowRank(sys, cols[live])
    return up, criterion, transfer, islands, live


def _lodf_rows(
    sys: GroundedSystem, up: _LowRank, criterion: np.ndarray, rows: np.ndarray, sub=None
) -> np.ndarray:
    """The one LODF kernel: one row per outage of ``up`` (per outage at
    ``sub`` only, when given) on the monitored branch positions ``rows``,
    ``b_l H / criterion`` with ``H = E^T W`` read as entries of ``B^-1`` on
    end pairs (:meth:`_LowRank.at_ends`) and the self-entries exactly -1.
    ``criterion`` holds one entry per outage of ``up``."""
    part = slice(None) if sub is None else sub
    lodf = up.at_ends((sys.branch_ends[0][rows], sys.branch_ends[1][rows]), sub)
    lodf *= sys.b[rows]
    lodf /= criterion[part, None]
    at = np.full(sys.grid.n_branches, -1, dtype=np.intp)  # monitored position of each branch
    at[rows] = np.arange(len(rows))
    own = at[up.cols[part]]
    hit = np.flatnonzero(own >= 0)
    lodf[hit, own[hit]] = -1.0
    return lodf


def _post_flows(
    sys: GroundedSystem, up: _LowRank, criterion: np.ndarray, f: np.ndarray, rows, sub=None
) -> np.ndarray:
    """Post-outage flows ``f_l + LODF_le f_e`` of :func:`_lodf_rows`' block."""
    post = _lodf_rows(sys, up, criterion, rows, sub)
    post *= f[up.cols if sub is None else up.cols[sub], None]
    post += f[rows]
    return post


def outage_factors(
    sys: GroundedSystem, branch_idx: Sequence[int], rows: Sequence[int] | None = None
) -> OutageFactors:
    """Islanding criteria and LODF columns for outaging each listed branch.

    ``branch_idx`` holds k branch positions (incidence columns), ``rows``
    the distinct monitored branch positions (all branches by default; none
    for criteria alone). The criteria ``1 - b_e t_e`` come off the diagonal
    of the endpoint kernel. Only for non-bridges whose criterion the pivot
    rule tells from zero is ``H = E^T B^-1 U`` then read, as four entries of
    ``B^-1`` on the end pairs of each outage and monitored branch:
    ``LODF = diag(b) H / (1 - b_e t_e)``, scaled in place. Gathers only, no
    row of ``B^-1`` and no matrix product: a block costs O(k len(rows)).
    ``lodf`` is the transposed view of a row-major k x len(rows) array, one
    row per outage.
    """
    cols = np.atleast_1d(np.asarray(branch_idx, dtype=np.intp))
    rows = np.arange(sys.grid.n_branches) if rows is None else np.asarray(rows, dtype=np.intp)
    up, criterion, transfer, islands, live = _outage_kernel(sys, cols)
    if not (live.size and rows.size):
        return OutageFactors(criterion, transfer, islands, np.full((rows.size, cols.size), np.nan))
    lodf = _lodf_rows(sys, up, criterion[live], rows)
    if live.size < cols.size:  # NaN rows for the outages left out
        full = np.full((cols.size, rows.size), np.nan)
        full[live] = lodf
        lodf = full
    return OutageFactors(criterion, transfer, islands, lodf.T)


#: rows of largest |f| on which :func:`outage_peaks` first takes every
#: outage's exact post-outage flows, for a lower bound on its maximum
PEAK_ROWS = 16

_EPS = np.finfo(float).eps


def _switch_cuts(sys: GroundedSystem, closed=()):
    """Kirchhoff's current law across each of ``closed`` (default ``sys.closed_switches``).

    The closed switches form a forest (a redundant closing is refused), so
    cutting switch ``s`` out of it leaves the buses ``A`` that the other
    closed switches join to its from end: its component in
    ``grid_model._walk`` of those switches, on the forest's own buses (the
    slack's pad index among them). The switch carries what ``A`` injects
    less what leaves ``A`` over the branches with flows: ``z_s = sum_A p -
    sum_l sigma_l f_l`` with ``sigma_l = [from_l in A] - [to_l in A]``.
    Returns the branches with some nonzero ``sigma`` and, per closed
    switch, its ``(positions among them, sigma there, sum_A p)``; ``None``
    without closed switches.
    """
    grid = sys.grid
    sw = np.array([grid.branch_index[s] for s in closed or sys.closed_switches], dtype=np.intp)
    if not sw.size:
        return None
    frm, to = sys.branch_ends
    inj = grid.injections()
    p = np.append(sys.reduce(inj), inj[grid.bus_index[grid.slack]])  # the slack on the pad
    buses, ends = np.unique(np.concatenate([frm[sw], to[sw]]), return_inverse=True)
    f, t = ends.reshape(2, sw.size)
    carries = sys.b > 0.0  # closed switches carry no flow of their own in f
    carries[sw] = False
    sides = []
    for k in range(sw.size):
        comp = _walk(buses.size, np.delete(f, k), np.delete(t, k))[0]
        in_side = np.zeros(sys.n + 1, dtype=bool)
        in_side[buses[comp == comp[f[k]]]] = True
        sigma = np.where(carries, in_side[frm].astype(float) - in_side[to], 0.0)
        at = np.flatnonzero(sigma)
        sides.append((at, sigma[at], p[in_side].sum()))
    rows = np.unique(np.concatenate([at for at, _, _ in sides]))
    return rows, [(np.searchsorted(rows, at), sigma, ps) for at, sigma, ps in sides]


def _switch_flows(flows: np.ndarray, cuts) -> np.ndarray:
    """Closed-switch flows by :func:`_switch_cuts`, from branch flows on its
    rows: one row of ``flows`` per state, one column per closed switch."""
    return np.stack([ps - (flows[:, at] * sigma).sum(axis=1) for at, sigma, ps in cuts[1]], axis=1)


def outage_peaks(
    sys: GroundedSystem, f: np.ndarray, cols: Sequence[int], block_bytes: int
) -> np.ndarray:
    """Largest post-outage |flow| for outaging each branch at ``cols``.

    ``f`` holds the pre-outage flows of ``sys``. The post-outage flow on
    branch ``l`` is ``f_l + LODF_le f_e``, every entry from the arithmetic
    of :func:`outage_factors`, so each maximum is bit for bit the one over
    its full LODF column. A bridge's outage (left out by the kernel's
    ``islands`` flags, so ``cols`` may hold every in-service branch) or an
    ill-conditioned one's is NaN. Only non-bridge rows move, so every other
    ``|f|`` enters each maximum as one constant. Few moving rows are
    gathered: ``LODF_le`` is the post-outage PTDF of a transfer across
    ``e``'s terminals, so ``|LODF_le| <= 1`` and ``|f_l + LODF_le f_e| <=
    |f_l| + |f_e|``. With the rows sorted by ``|f|`` once, each outage gets
    its exact flows on the ``PEAK_ROWS`` rows of largest ``|f|`` and then on
    chunks of doubling length; after each chunk it goes on only while
    ``(1 + tau_e)(|f_l| + |f_e|) >= peak_e`` at the next row ``l``, with
    ``peak_e`` its running maximum (the constant included). ``tau_e = m^2
    eps (b_max / b_min) / |1 - b_e t_e|`` allows for the roundoff in the
    entries and in the flow itself; an outage with ``tau_e >= 1`` gets
    every row. Outages go in blocks ordered by ``|f_e|``, each with its
    k x m LODF entries at most near ``block_bytes``. Closed switches
    (``sys.closed_switches``) carry flows that ``f`` does not hold: theirs
    follow from the post-outage flows by Kirchhoff's current law on one
    side of the switch (:func:`_switch_cuts`), taken for every outage.
    """
    cols = np.asarray(cols, dtype=np.intp)
    m = sys.grid.n_branches
    a = np.abs(f)
    rows = np.flatnonzero((sys.b > 0.0) & ~sys.bridges)  # the rows an outage moves
    unmoved = np.delete(a, rows).max(initial=0.0)
    rows = rows[np.argsort(-a[rows], kind="stable")]
    cuts = _switch_cuts(sys)
    b = sys.b[sys.b > 0.0]
    spread = b.max() / b.min() if b.size else 1.0
    peaks = np.full(cols.size, np.nan)
    order = np.argsort(a[cols], kind="stable")
    block = max(1, block_bytes // (8 * max(m, 1)))
    for start in range(0, cols.size, block):
        at = order[start : start + block]
        up, criterion, _, _, live = _outage_kernel(sys, cols[at])
        if not live.size:
            continue
        crit = criterion[live]
        tau = (m * m * _EPS * spread) / np.abs(crit)
        fe = np.abs(f[up.cols])
        peak = np.full(live.size, unmoved)
        if cuts is not None:
            post = _switch_flows(_post_flows(sys, up, crit, f, cuts[0]), cuts)
            np.maximum(peak, np.abs(post).max(axis=1), out=peak)
        lo, hi, sub = 0, PEAK_ROWS, None
        while lo < rows.size and (sub is None or sub.size):
            post = _post_flows(sys, up, crit, f, rows[lo:hi], sub)
            np.abs(post, out=post)
            part = slice(None) if sub is None else sub
            peak[part] = np.maximum(peak[part], post.max(axis=1))
            lo, hi = hi, 2 * hi
            if lo < rows.size:  # the outages whose bound still reaches the next row
                go = (tau >= 1.0) | ((1.0 + tau) * (a[rows[lo]] + fe) >= peak)
                sub = None if go.all() else np.flatnonzero(go)
        peaks[at[live]] = peak
    return peaks


def _single_outage(
    sys: GroundedSystem, branch: int, rows: Sequence[int] | None = None
) -> tuple[int, OutageFactors]:
    """Position and outage factors of one in-service branch; IslandingError if ill-posed."""
    e = _branch_col(sys.grid, branch)
    if sys.b[e] <= 0.0:
        raise GridStructureError(f"branch {branch} is not in service")
    out = outage_factors(sys, [e], rows)
    if out.islands[0]:
        _require_connected(sys.grid, [branch], sys.closed_switches, f"grid without branch {branch}")
    # the 1 x 1 bracket, scaled by b_e: refused exactly where the LODF column is NaN
    scale = max(1.0, abs(out.transfer[0]))
    guarded_solve(out.criterion, np.ones(1), f"outage of branch {branch}", scale)
    return e, out


def lodf_column(sys: GroundedSystem, branch: int) -> np.ndarray:
    """LODF column for outaging ``branch``: ``f_m = f_r + col * f_r[e]``.

    The self-entry is exactly -1: the outaged branch carries no flow
    afterwards.
    """
    return _single_outage(sys, branch)[1].lodf[:, 0]


def post_outage_angle_diff(sys: GroundedSystem, branch: int, f_r: np.ndarray) -> float:
    """Angle difference across ``branch`` after its own outage.

    Evaluates ``[b_e + db (PTDF_ei - PTDF_ej)]^-1 u_e^T f_r`` with
    ``db = -b_e``, that is ``f_r[e] / (b_e (1 - b_e t_e))``; zero pre-outage
    flow gives zero angle difference.
    """
    e, out = _single_outage(sys, branch, rows=())
    return float(np.asarray(f_r)[e]) / (sys.b[e] * float(out.criterion[0]))


def lcdf_column(sys: GroundedSystem, branch: int, new_b: float) -> np.ndarray:
    """LCDF column for closing ``branch`` at susceptance ``new_b``.

    The branch must already be present in the incidence matrix with zero
    susceptance. Flows update as ``f_m = f_r + col * (nu_e^T theta_r)``,
    the angle difference across the still-open branch.
    """
    e = _branch_col(sys.grid, branch)
    if sys.b[e] != 0.0:
        raise GridStructureError(
            f"branch {branch} is already in service (b={sys.b[e]}); "
            "closing requires a zero-susceptance branch"
        )
    if new_b <= 0.0:
        raise GridStructureError(f"closing susceptance must be > 0, got {new_b}")
    up = _LowRank(sys, [e])
    # B^-1 nu_e / (1 / new_b + t_e)
    z = up.solve(up.W.T, f"closing branch {branch}", s_inv=np.array([1.0 / new_b]))[0]
    b_m = sys.b.copy()
    b_m[e] = new_b
    col = -b_m * _end_diff(sys.branch_ends, z)
    col[e] += new_b
    return col
