"""Property test of ``whatif --enumerate`` against the rebuild oracle."""
import contextlib
import io
import itertools
import json
import tempfile
from dataclasses import replace

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from gridfactors import Grid, grid_to_json, random_grid
from gridfactors.cli import main

from conftest import add_switches


def _redundant(grid, closed):
    """Union-find over closed switches: does one join already-merged buses?"""
    parent = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            x = parent[x]
        return x

    for sid in closed:
        br = grid.branch(sid)
        a, b = find(br.from_bus), find(br.to_bus)
        if a == b:
            return True
        parent[a] = b
    return False


@st.composite
def _sweep_cases(draw):
    n = draw(st.integers(3, 10))
    grid = random_grid(draw(st.integers(0, 10_000)), n, draw(st.sampled_from([1.8, 2.4, 3.2])))
    if draw(st.booleans()):
        first = grid.branches[0]
        shifted = replace(first, kind="pst", shift_angle=draw(st.sampled_from([-0.2, 0.1])))
        grid = Grid(buses=grid.buses, branches=(shifted,) + grid.branches[1:])
    pair = st.tuples(st.integers(1, n), st.integers(1, n)).filter(lambda t: t[0] != t[1])
    pairs = draw(st.lists(pair, min_size=1, max_size=4))
    return add_switches(grid, pairs)


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(case=_sweep_cases())
def test_enumerate_rows_agree_with_rebuild_or_flag_redundancy(case):
    from gridfactors import rebuild_and_solve

    grid, sids = case
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/grid.json"
        with open(path, "w") as fh:
            fh.write(grid_to_json(grid))
        doc = json.dumps({"switches": {str(s): "open" for s in sids}})
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["whatif", path, "--mods", doc, "--enumerate", "--format", "jsonl"]) == 0
    rows = [json.loads(ln) for ln in out.getvalue().splitlines()]
    settings_ = list(itertools.product((False, True), repeat=len(sids)))
    assert len(rows) == len(settings_)
    for row, bits in zip(rows, settings_):
        closed = [s for s, b in zip(sids, bits) if b]
        assert row["islands"] == _redundant(grid, closed), row
        if row["islands"]:
            continue
        # closed switches are emulated by 1e9 lines, good to about 1e-5
        ref = rebuild_and_solve(grid, closed_switches=closed).flow.flows
        assert row["max_flow"] == pytest.approx(np.abs(ref).max(), rel=1e-5, abs=1e-5)
