"""Independent referee: dense DC solves of each expected result.

Nothing here imports gridfactors. Every reference comes from one LU solve
of the (contracted, rewired or outaged) grid that the generator describes,
so a change to the library cannot change its own check. Each check returns
a list of mismatch messages; an empty list means the output is correct.
"""

from __future__ import annotations

import json
import math
import re
from functools import cached_property

import numpy as np

from gen import LINE, Case, UnionFind, merge_switches

#: relative tolerance on flows, scaled by max(1, |reference|)
FLOW_RTOL = 1e-6
#: absolute tolerance on factor entries (per unit, order one)
FACTOR_ATOL = 1e-8
#: the paper's anchor: 44.922 MW on branch (3,6) of case6ww
ANCHOR_MW = 44.922


def close(a: float, b: float) -> bool:
    return abs(a - b) <= FLOW_RTOL * max(1.0, abs(b))


class Solution:
    """Angles of a grounded dense DC solve, with the inverse on demand."""

    def __init__(self, case: Case, merge: UnionFind | None = None,
                 shifts: dict[int, float] | None = None, removed: int | None = None):
        self.case = case
        self.root = [merge.find(k) if merge else k for k in range(1, case.n + 1)]
        slack_root = self.root[case.slack - 1]
        nodes = sorted(set(self.root) - {slack_root})
        self.pos = {r: i for i, r in enumerate(nodes)}
        m = len(nodes)
        L = np.zeros((m, m))
        p = np.zeros(m)
        for k, r in enumerate(self.root):
            if r in self.pos:
                p[self.pos[r]] += case.inj[k]
        shifts = shifts or {}
        self.shift = np.zeros(len(case.ids))
        for e, (bid, f, t, b, kind) in enumerate(
            zip(case.ids, case.frm, case.to, case.b, case.kind)
        ):
            if kind != LINE or b <= 0 or bid == removed:
                continue
            if self.root[f - 1] == self.root[t - 1]:
                continue  # a line inside a merged bus carries no flow
            i, j = self.pos.get(self.root[f - 1]), self.pos.get(self.root[t - 1])
            for a, c, s in ((i, i, 1), (j, j, 1), (i, j, -1), (j, i, -1)):
                if a is not None and c is not None:
                    L[a, c] += s * b
            if bid in shifts:
                self.shift[e] = shifts[bid]
                for a, s in ((i, -1), (j, 1)):
                    if a is not None:
                        p[a] += s * b * shifts[bid]
        self.L = L
        x = np.linalg.solve(L, p)
        self.theta = np.array([x[self.pos[r]] if r in self.pos else 0.0 for r in self.root])
        self.removed = removed

    def flows(self, closed: list[int] = ()) -> np.ndarray:
        """Flow per branch in case order; closed switches get their KCL flow."""
        c = self.case
        f = np.zeros(len(c.ids))
        for e, (bid, a, t, b, kind) in enumerate(zip(c.ids, c.frm, c.to, c.b, c.kind)):
            if kind == LINE and b > 0 and bid != self.removed:
                f[e] = b * (self.theta[a - 1] - self.theta[t - 1] + self.shift[e])
        if closed:
            residual = np.array(c.inj, dtype=float)
            np.subtract.at(residual, np.array(c.frm) - 1, f)
            np.add.at(residual, np.array(c.to) - 1, f)
            A = np.zeros((c.n, len(closed)))
            for k, s in enumerate(closed):
                A[c.frm[c.index(s)] - 1, k] = 1.0
                A[c.to[c.index(s)] - 1, k] = -1.0
            x, *_ = np.linalg.lstsq(A, residual, rcond=None)
            for k, s in enumerate(closed):
                f[c.index(s)] = x[k]
        return f

    @cached_property
    def inverse(self) -> np.ndarray:
        """Dense inverse of the grounded Laplacian."""
        return np.linalg.inv(self.L)

    def ptdf(self, e: int, bus: int) -> float:
        """PTDF entry of branch index ``e`` for an injection at ``bus``."""
        c = self.case
        if bus == c.slack:
            return 0.0
        col = self.pos[bus]
        xf = self.inverse[self.pos[c.frm[e]], col] if c.frm[e] != c.slack else 0.0
        xt = self.inverse[self.pos[c.to[e]], col] if c.to[e] != c.slack else 0.0
        return c.b[e] * (xf - xt)


def _rows(text: str) -> list[dict]:
    return [json.loads(line) for line in text.splitlines() if line.strip()]


# --- checks, one per request kind ---------------------------------------------

def check_n1(text: str, case: Case, bridge_ids: set[int], expected: dict[int, float]) -> list[str]:
    """Every islands flag against the bridge set; sampled outages by solve."""
    errs = []
    rows = _rows(text)
    lines = set(case.lines())
    if sorted(r["branch"] for r in rows) != sorted(lines):
        errs.append(f"n1: {len(rows)} rows for {len(lines)} in-service lines")
    for r in rows:
        if r["islands"] != (r["branch"] in bridge_ids):
            errs.append(f"n1: branch {r['branch']} islands={r['islands']}")
        want = expected.get(r["branch"])
        if want is not None and not close(r["post_max_flow"], want):
            errs.append(f"n1: branch {r['branch']} post_max_flow {r['post_max_flow']} != {want}")
    return errs


def check_sweep(text: str, case: Case, switches: list[int], expected: dict[str, float]) -> list[str]:
    """Every islands flag against a traversal; sampled settings by solve."""
    errs = []
    rows = _rows(text)
    if len(rows) != 2 ** len(switches):
        errs.append(f"sweep: {len(rows)} rows for {len(switches)} switches")
    order = sorted(switches)
    for r in rows:
        closed = [s for s, bit in zip(order, r["setting"]) if bit == "1"]
        if r["islands"] != merge_switches(case, closed)[1]:
            errs.append(f"sweep: setting {r['setting']} islands={r['islands']}")
        want = expected.get(r["setting"])
        if want is not None and not close(r["max_flow"], want):
            errs.append(f"sweep: setting {r['setting']} max_flow {r['max_flow']} != {want}")
    return errs


def check_flows(text: str, case: Case, expected: np.ndarray) -> list[str]:
    rows = _rows(text)
    if [r["branch"] for r in rows] != case.ids:
        return [f"flows: branch rows {len(rows)} do not match the case"]
    return [
        f"flows: branch {r['branch']} flow {r['flow']} != {want}"
        for r, want in zip(rows, expected)
        if not close(r["flow"], want)
    ]


def check_factors(path: str, shape: tuple[int, int], expected: dict[tuple[int, int], float]) -> list[str]:
    """Shape of the CSV and sampled entries, keyed by (row, column) position."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if len(lines) - 1 != shape[0] or lines[0].count(",") != shape[1]:
        return [f"factors: CSV is {len(lines) - 1}x{lines[0].count(',')}, expected {shape}"]
    errs = []
    for (r, c), want in expected.items():
        cells = lines[1 + r].split(",")
        if cells[0] != str(r + 1):
            errs.append(f"factors: row {r} is labelled {cells[0]}")
        got = float(cells[1 + c])
        if abs(got - want) > FACTOR_ATOL:
            errs.append(f"factors: entry ({r},{c}) {got} != {want}")
    return errs


def check_whatif(text: str, expected: dict[int, tuple[int, int, float, float]]) -> list[str]:
    """Per-branch endpoints, pre and post flows of a staged what-if."""
    rows = _rows(text)
    if sorted(r["branch"] for r in rows) != sorted(expected):
        return [f"whatif: {len(rows)} rows for {len(expected)} branches"]
    errs = []
    for r in rows:
        f, t, pre, post = expected[r["branch"]]
        if (r["from"], r["to"]) != (f, t):
            errs.append(f"whatif: branch {r['branch']} ends ({r['from']},{r['to']}) != ({f},{t})")
        if not close(r["pre"], pre) or not close(r["post"], post):
            errs.append(f"whatif: branch {r['branch']} pre/post {r['pre']}/{r['post']} != {pre}/{post}")
    return errs


def check_anchor(text: str) -> list[str]:
    """The summary line of ``flows case6ww.m`` must state the paper's number."""
    m = re.search(r"max \|f\| = ([0-9.]+) on branch \((\d+),(\d+)\)", text)
    if m is None:
        return ["case6ww: no summary line"]
    value, ends = float(m.group(1)), (int(m.group(2)), int(m.group(3)))
    if ends != (3, 6) or not math.isclose(value, ANCHOR_MW, abs_tol=5e-4):
        return [f"case6ww: max flow {value} on {ends}, expected {ANCHOR_MW} on (3, 6)"]
    return []

