"""Property test of the ``n1`` screen and its outage kernel.

``n1`` takes the islanding criteria of every in-service branch first, then
gathers LODF rows only for the outages that keep the grid connected and
only on their own rows; the bridges' flows enter each maximum unchanged.
The grids drawn here hold what that split meets: a meshed core, pendant
trees (bridges), series chains (eliminated by the reduction, not bridges),
parallel lines, zero-susceptance lines, open switches and a phase shifter,
and the two extremes, grids of bridges only and grids without one.
Susceptances share one scale in 10^[-6, 6] and spread over at most four
decades inside a grid, the range the islanding flag is tested for.
"""
import contextlib
import io
import json
import math
import tempfile
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from gridfactors import (
    Branch,
    Bus,
    Grid,
    build_grounded_system,
    connected_components,
    grid_to_json,
    lodf_column,
    outage_factors,
    outage_islands,
    rebuild_and_solve,
    solve_flow,
)
from gridfactors import cli
from gridfactors.factors_base import _LowRank

FAMILIES = ("mixed", "all-bridge", "no-bridge")


@st.composite
def screen_grids(draw):
    """A connected grid of one family.

    ``mixed``: a ring core with chords, pendant trees, series chains between
    core buses, parallel copies, a zero-susceptance line, an open switch and
    a phase shifter. ``all-bridge``: a tree, with the same zero line and
    open switch, which add no cycle. ``no-bridge``: a ring core with chords,
    chains and parallel copies only.
    """
    family = draw(st.sampled_from(FAMILIES))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pairs: list[tuple[int, int]] = []
    if family == "all-bridge":
        n = draw(st.integers(2, 14))
        pairs = [(int(rng.integers(0, i)), i) for i in range(1, n)]
    else:
        n = draw(st.integers(3, 8))  # the ring core
        pairs = [(i, (i + 1) % n) for i in range(n)]
        pairs += [tuple(int(v) for v in rng.choice(n, 2, replace=False))
                  for _ in range(draw(st.integers(0, 3)))]
        for _ in range(draw(st.integers(0, 3))):  # series chains between core buses
            a, z = (int(v) for v in rng.choice(n, 2, replace=False))
            length = int(rng.integers(1, 4))
            chain = [a, *range(n, n + length), z]
            n += length
            pairs += list(zip(chain[:-1], chain[1:]))
        if family == "mixed":
            for _ in range(draw(st.integers(1, 4))):  # pendant trees
                root = int(rng.integers(0, n))
                size = int(rng.integers(1, 4))
                nodes = [root, *range(n, n + size)]
                n += size
                pairs += [(nodes[int(rng.integers(0, i))], nodes[i]) for i in range(1, len(nodes))]
        parallel = draw(st.integers(0, 2))
        pairs += [pairs[int(k)][::-1] for k in rng.integers(0, len(pairs), parallel)]
    scale = draw(st.floats(-6.0, 6.0))
    b = 10.0 ** (scale + rng.uniform(0.0, 4.0, len(pairs)))
    branches = [
        Branch(id=k + 1, from_bus=f + 1, to_bus=t + 1, susceptance=float(x))
        for k, ((f, t), x) in enumerate(zip(pairs, b))
    ]
    if family != "no-bridge" and n >= 2:
        i, j, k, l = (int(v) + 1 for v in rng.choice(n, 4, replace=n < 4))
        nxt = len(branches) + 1
        branches.append(Branch(id=nxt, from_bus=i, to_bus=j if j != i else i % n + 1,
                               susceptance=0.0))
        branches.append(Branch(id=nxt + 1, from_bus=k, to_bus=l if l != k else k % n + 1,
                               susceptance=0.0, kind="switch"))
    if family == "mixed":
        e = int(rng.integers(0, len(pairs)))
        branches[e] = replace(branches[e], kind="pst",
                              shift_angle=float(rng.uniform(-0.2, 0.2)))
    p = rng.normal(size=n)
    slack = int(rng.integers(0, n))
    buses = tuple(Bus(id=i + 1, injection=float(p[i] - p.mean()), is_slack=i == slack)
                  for i in range(n))
    return family, Grid(buses=buses, branches=tuple(branches))


def _n1_text(path: Path) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["n1", str(path), "--format", "jsonl"]) == 0
    return out.getvalue()


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(case=screen_grids())
def test_n1_rows_match_per_branch_calls(case):
    family, grid = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "grid.json"
        path.write_text(grid_to_json(grid))
        text = _n1_text(path)
        # blocks of 7 outages: the sweep crosses block boundaries
        with mock.patch.object(cli, "N1_BLOCK_BYTES", 8 * grid.n_branches * 7):
            assert _n1_text(path) == text
    rows = [json.loads(ln) for ln in text.splitlines()]
    live = [br for br in grid.branches if br.in_service]
    assert sorted(r["branch"] for r in rows) == sorted(br.id for br in live)

    sys = build_grounded_system(grid)
    f = solve_flow(sys).flows
    by_branch = {r["branch"]: r for r in rows}
    for br in live:
        row = by_branch[br.id]
        islands, criterion = outage_islands(sys, br.id)
        assert row["islands"] is islands
        assert row["criterion"] == criterion
        bridge = len(connected_components(grid, removed_branches=[br.id])) > 1
        assert islands == bridge
        if islands:
            assert math.isnan(row["post_max_flow"])
            continue
        col = lodf_column(sys, br.id)
        want = float(np.max(np.abs(f + col * f[grid.branch_index[br.id]])))
        assert row["post_max_flow"] == pytest.approx(want, rel=1e-9, abs=1e-300)
        # and against the grid rebuilt without the branch
        ref = rebuild_and_solve(grid, deltas=[(br.id, -br.susceptance)]).flow.flows
        assert row["post_max_flow"] == pytest.approx(np.abs(ref).max(), rel=1e-7, abs=1e-300)
    if family == "all-bridge":
        assert all(r["islands"] for r in rows)
    if family == "no-bridge":
        assert not any(r["islands"] for r in rows)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(case=screen_grids(), data=st.data())
def test_outage_factors_monitored_rows_are_rows_of_the_full_block(case, data):
    _, grid = case
    sys = build_grounded_system(grid)
    m = grid.n_branches
    cols = np.array(data.draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=m)))
    cols = cols[sys.b[cols] > 0.0]
    rows = np.array(data.draw(st.lists(st.integers(0, m - 1), max_size=m, unique=True)),
                    dtype=np.intp)
    full = outage_factors(sys, cols)
    part = outage_factors(sys, cols, rows)
    assert full.lodf.shape == (m, len(cols)) and part.lodf.shape == (len(rows), len(cols))
    for name in ("criterion", "transfer", "islands"):
        assert np.array_equal(getattr(part, name), getattr(full, name))
    assert np.array_equal(part.lodf, full.lodf[rows], equal_nan=True)
    assert np.isnan(full.lodf[:, full.islands]).all()
    none = outage_factors(sys, cols, rows=())
    assert none.lodf.shape == (0, len(cols))
    assert np.array_equal(none.criterion, full.criterion)
    # the criteria come from four entries of B^-1 each: the diagonal of K, bit for bit
    up = _LowRank(sys, cols)
    assert np.array_equal(up.K_d, np.diag(_LowRank(sys, cols).K))
