"""The bounded ``n1`` screen against the all-rows block loop it replaced.

``single_mod.outage_peaks`` gathers, per outage, only the rows whose
``|f_l| + |f_e|`` bound can reach the outage's maximum. Every entry it
gathers comes from ``outage_factors``' arithmetic, so its maxima must equal
the all-rows loop's bit for bit, NaN positions included. The loop is kept
here as the reference. Closed switches (``n1 --after``) carry flows that the
line flows do not hold; their rows are checked against ``whatif`` runs.
"""
import contextlib
import io
import json
import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

from gridfactors import Branch, Bus, Grid, build_grounded_system, random_grid, solve_flow
from gridfactors import cli, single_mod
from gridfactors.cli import apply_modifications
from gridfactors.factors_base import _LowRank
from gridfactors.single_mod import _switch_cuts, _switch_flows, outage_factors, outage_peaks

from conftest import add_switches


def _all_rows_peaks(sys, f, live, block_bytes=cli.N1_BLOCK_BYTES):
    """The loop ``n1`` ran before the screen: every outage on every moving row."""
    unmoved = np.abs(np.delete(f, live)).max(initial=0.0)
    peaks = np.empty(len(live))
    block = max(1, block_bytes // (8 * max(1, sys.grid.n_branches)))
    for start in range(0, len(live), block):
        cols = live[start : start + block]
        flows = outage_factors(sys, cols, live).lodf.T  # one row per outage
        flows *= f[cols, None]
        flows += f[live]
        np.abs(flows, out=flows)
        peaks[start : start + len(cols)] = flows.max(axis=1)
    peaks = np.maximum(peaks, unmoved)
    cuts = _switch_cuts(sys)
    if cuts is not None and len(live):  # the closed switches' rows, from every line row
        flows = outage_factors(sys, live, cuts[0]).lodf.T
        flows *= f[live, None]
        flows += f[cuts[0]]
        peaks = np.maximum(peaks, np.abs(_switch_flows(flows, cuts)).max(axis=1))
    return peaks


def _live(sys):
    cand = np.flatnonzero(sys.b > 0.0)
    return cand[~sys.bridges[cand]]


def _check_screen(sys, block_bytes=cli.N1_BLOCK_BYTES):
    f = solve_flow(sys).flows
    live = _live(sys)
    got = outage_peaks(sys, f, live, block_bytes)
    want = _all_rows_peaks(sys, f, live)
    assert np.array_equal(np.isnan(got), np.isnan(want))
    assert np.array_equal(got, want, equal_nan=True)


def _spread(grid, decades, seed):
    """``grid`` with its susceptances scaled by ``10^u``, ``u`` uniform on [0, decades]."""
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.uniform(0.0, decades, grid.n_branches)
    branches = tuple(replace(br, susceptance=br.susceptance * s)
                     for br, s in zip(grid.branches, scale))
    return Grid(grid.buses, branches)


@pytest.mark.parametrize("seed, n, degree", [(1, 300, 2.4), (2, 700, 3.0), (3, 1500, 3.0)])
def test_screen_matches_all_rows_loop(seed, n, degree):
    _check_screen(build_grounded_system(random_grid(seed, n, degree)))


@pytest.mark.parametrize("decades", [4.0, 8.0, 12.0, 16.0, 20.0])
def test_screen_matches_all_rows_loop_across_spreads(decades):
    grid = _spread(random_grid(int(decades), 300, 3.0), decades, int(decades))
    _check_screen(build_grounded_system(grid))


def test_screen_blocks_do_not_change_the_maxima():
    grid = random_grid(4, 300, 3.0)
    sys = build_grounded_system(grid)
    f = solve_flow(sys).flows
    live = _live(sys)
    want = outage_peaks(sys, f, live, cli.N1_BLOCK_BYTES)
    for k in (1, 7, 64):
        block_bytes = 8 * max(grid.n_branches, sys.n + 1) * k
        assert np.array_equal(outage_peaks(sys, f, live, block_bytes), want, equal_nan=True)


@contextlib.contextmanager
def _pairs_gathered():
    """Count the (outage, row) pairs that reach ``_LowRank.at_ends``."""
    pairs = []
    at_ends = _LowRank.at_ends

    def counted(self, ends, sub=None):
        pairs.append((len(self.cols) if sub is None else len(sub)) * len(ends[0]))
        return at_ends(self, ends, sub)

    with mock.patch.object(_LowRank, "at_ends", counted):
        yield pairs


def test_screen_gathers_few_pairs():
    # b uniform in [0.5, 2]: the bound leaves about 1% of the pairs
    sys = build_grounded_system(random_grid(7, 1500, 3.0))
    f = solve_flow(sys).flows
    live = _live(sys)
    with _pairs_gathered() as pairs:
        got = outage_peaks(sys, f, live, cli.N1_BLOCK_BYTES)
    assert sum(pairs) <= 0.05 * len(live) * len(live)
    assert np.array_equal(got, _all_rows_peaks(sys, f, live), equal_nan=True)


def test_full_spread_takes_every_row():
    # at 12 decades tau_e >= 1 for every outage: the screen is the all-rows loop
    grid = _spread(random_grid(8, 200, 3.0), 12.0, 8)
    sys = build_grounded_system(grid)
    f = solve_flow(sys).flows
    live = _live(sys)
    with _pairs_gathered() as pairs:
        got = outage_peaks(sys, f, live, cli.N1_BLOCK_BYTES)
    assert sum(pairs) >= np.count_nonzero(~np.isnan(got)) * len(live)
    assert np.array_equal(got, _all_rows_peaks(sys, f, live), equal_nan=True)


# --- after a modification set: closed switches carry flows -------------------

def _switched_grid(seed, n):
    """A random grid with a phase shifter and three switches, two of them
    sharing a bus (a tree of two closed switches), and the document that
    closes them all and weakens one line."""
    grid = random_grid(seed, n, 2.6)
    rng = np.random.default_rng(seed)
    branches = list(grid.branches)
    e = int(rng.integers(0, len(branches)))
    branches[e] = replace(branches[e], kind="pst", shift_angle=float(rng.uniform(-0.2, 0.2)))
    a, b, c, d, g = (int(v) + 1 for v in rng.choice(n, 5, replace=False))
    grid, sids = add_switches(Grid(grid.buses, tuple(branches)), [(a, b), (b, c), (d, g)])
    weak = grid.branches[int(rng.integers(0, n - 1))]
    doc = {
        "switches": {str(s): "closed" for s in sids},
        "deltas": [{"branch": weak.id, "db": -0.3 * weak.susceptance}],
    }
    return grid, doc


@pytest.mark.parametrize("seed", range(3))
def test_screen_after_closings_matches_all_rows_loop(seed):
    grid, doc = _switched_grid(seed, 400)
    _, sys = apply_modifications(grid, doc)
    assert len(sys.closed_switches) == 3
    _check_screen(sys)


def _chain():
    buses = (Bus(1, 0.0, is_slack=True), Bus(2, 0.5), Bus(3, -0.5))
    lines = (Branch(1, 1, 2, 1.0), Branch(2, 2, 3, 1.0))
    return add_switches(Grid(buses, lines), [(2, 3)])


def _run(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([str(a) for a in argv])
    return code, [json.loads(ln) for ln in out.getvalue().splitlines()]


def test_after_counts_a_closed_switch_in_the_maximum(tmp_path):
    from gridfactors import grid_to_json

    grid, (sid,) = _chain()
    path = tmp_path / "chain.json"
    path.write_text(grid_to_json(grid))
    doc = json.dumps({"switches": {str(sid): "closed"}})
    code, rows = _run("n1", path, "--after", doc, "--format", "jsonl")
    assert code == 0
    by_branch = {r["branch"]: r for r in rows}
    assert by_branch[1]["islands"] and math.isnan(by_branch[1]["post_max_flow"])
    # line (2,3) out: the closed switch in parallel carries the 0.5
    assert by_branch[2]["post_max_flow"] == 0.5


@pytest.mark.parametrize("seed", range(3))
def test_after_rows_match_whatif_with_the_outage(seed, tmp_path):
    from gridfactors import grid_to_json

    grid, doc = _switched_grid(seed, 30)
    path = tmp_path / "grid.json"
    path.write_text(grid_to_json(grid))
    code, rows = _run("n1", path, "--after", json.dumps(doc), "--format", "jsonl")
    assert code == 0
    base_b = {br.id: br.susceptance for br in grid.branches}
    checked = 0
    for row in rows:
        if row["islands"] or math.isnan(row["post_max_flow"]):
            continue
        deltas = {d["branch"]: d["db"] for d in doc["deltas"]}
        deltas[row["branch"]] = -base_b[row["branch"]]  # the outage, from the base grid
        mods = dict(doc, deltas=[{"branch": b, "db": d} for b, d in deltas.items()])
        code, post = _run("whatif", path, "--mods", json.dumps(mods), "--format", "jsonl")
        assert code == 0
        want = max(abs(r["post"]) for r in post)
        assert row["post_max_flow"] == pytest.approx(want, rel=1e-9, abs=1e-300)
        checked += 1
    assert checked > 10


def _forest_grid(seed, n, forest):
    """A random grid with three closed switches in the given forest: a star
    on one bus, a chain, or a chain from the slack (bus 1) plus one apart."""
    grid = random_grid(seed, n, 2.6)
    a, b, c, d = (int(v) + 2 for v in np.random.default_rng(seed).choice(n - 1, 4, replace=False))
    pairs = {
        "star": [(a, b), (a, c), (a, d)],
        "chain": [(a, b), (b, c), (c, d)],
        "slack": [(1, a), (a, b), (c, d)],
    }[forest]
    grid, sids = add_switches(grid, pairs)
    return grid, {"switches": {str(s): "closed" for s in sids}}


@pytest.mark.parametrize("forest", ["star", "chain", "slack"])
@pytest.mark.parametrize("seed", range(2))
def test_after_rows_match_whatif_on_switch_forests(forest, seed, tmp_path):
    from gridfactors import grid_to_json

    grid, doc = _forest_grid(seed, 30, forest)
    _, sys = apply_modifications(grid, doc)
    assert len(sys.closed_switches) == 3
    _check_screen(sys)
    path = tmp_path / "grid.json"
    path.write_text(grid_to_json(grid))
    code, rows = _run("n1", path, "--after", json.dumps(doc), "--format", "jsonl")
    assert code == 0
    checked = 0
    for row in rows:
        if row["islands"] or math.isnan(row["post_max_flow"]):
            continue
        outage = {"branch": row["branch"], "db": -grid.branch(row["branch"]).susceptance}
        mods = json.dumps(dict(doc, deltas=[outage]))
        code, post = _run("whatif", path, "--mods", mods, "--format", "jsonl")
        assert code == 0
        want = max(abs(r["post"]) for r in post)
        assert row["post_max_flow"] == pytest.approx(want, rel=1e-9, abs=1e-300)
        checked += 1
    assert checked > 10


# --- hypothesis: reducible grids up to 24 decades of spread ------------------

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from test_reduction_property import reducible_grids  # noqa: E402


@st.composite
def loaded_grids(draw):
    """A reducible grid (up to 24 decades of spread) with balanced injections."""
    _, grid = draw(reducible_grids())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p = rng.normal(size=grid.n_buses) * 10.0 ** draw(st.floats(-6.0, 6.0))
    buses = tuple(replace(bus, injection=float(x)) for bus, x in zip(grid.buses, p - p.mean()))
    return Grid(buses, grid.branches)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(grid=loaded_grids(), peak_rows=st.sampled_from([1, 2, 16]))
def test_screen_matches_all_rows_loop_on_reducible_grids(grid, peak_rows):
    # few peak rows, so that the small grids drawn here are pruned too; blocks of 3 outages
    sys = build_grounded_system(grid)
    with mock.patch.object(single_mod, "PEAK_ROWS", peak_rows):
        _check_screen(sys, block_bytes=8 * max(grid.n_branches, sys.n + 1) * 3)
