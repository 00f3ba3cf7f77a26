"""The two reads of the grounded inverse in ``_LowRank``.

Brackets and LODF blocks are entries of ``B^-1`` on end pairs
(``_LowRank.at_ends``, ``K``, ``K_d``); only the updates gather rows of it
(``Wt``, through ``W``). ``n1`` and ``whatif --enumerate`` read brackets
alone, so they never gather a k x n block of rows.
"""
import json
import math
from unittest import mock

import numpy as np
import pytest

from gridfactors import build_grounded_system, grid_to_json, lodf_column, solve_flow
from gridfactors.cli import main
from gridfactors.factors_base import _end_diff, _LowRank

from conftest import screening_grid, sweep_grid
from test_cli import _assert_rows_match, _enumerate_rows, _per_setting_inverse_rows


@pytest.mark.parametrize("seed", range(12))
def test_at_ends_is_the_difference_of_end_rows(seed):
    grid = screening_grid(seed, int(np.random.default_rng(seed).integers(4, 40)))
    sys = build_grounded_system(grid)
    frm, to = sys.branch_ends
    n, m = sys.n, grid.n_branches
    rng = np.random.default_rng(100 + seed)
    slack_from, slack_to = np.flatnonzero(frm == n), np.flatnonzero(to == n)
    assert slack_from.size and slack_to.size  # screening_grid reverses a slack branch
    cols = np.concatenate([slack_from[:1], slack_to[:1], rng.choice(m, rng.integers(0, m + 1))])
    rows = np.concatenate([slack_to[:1], slack_from[:1], rng.choice(m, rng.integers(0, m + 1))])
    up = _LowRank(sys, cols)
    # rows of B^-1 at the outages' ends, then their columns at the monitored ends
    want = _end_diff((frm[rows], to[rows]), _end_diff(up.ends, sys.B_inv).T).T
    for sub in (None, np.sort(rng.choice(len(cols), rng.integers(0, len(cols) + 1))), np.arange(2)):
        got = up.at_ends((frm[rows], to[rows]), sub)
        assert got.tobytes() == (want if sub is None else want[sub]).tobytes()
    # the slack at the outage's end, at the monitored end, and at both
    assert (up.ends[0][:2] == n).any() and (up.ends[1][:2] == n).any()
    assert (frm[rows[:2]] == n).any() and (to[rows[:2]] == n).any()
    assert up.K.tobytes() == _end_diff(up.ends, _end_diff(up.ends, sys.B_inv).T).tobytes()
    assert np.diag(up.K).tobytes() == up.K_d.tobytes()


class _Spy:
    """Counts the evaluations of ``_LowRank.Wt`` and still returns its rows."""

    def __init__(self):
        self.calls, self.rows = 0, _LowRank.__dict__["Wt"].func

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        self.calls += 1
        return self.rows(obj)


def test_n1_forms_no_kernel_rows(tmp_path, capsys):
    grid = screening_grid(3, 60, 2.6)
    path = tmp_path / "grid.json"
    path.write_text(grid_to_json(grid))
    spy = _Spy()
    with mock.patch.object(_LowRank, "Wt", spy):
        assert main(["n1", str(path), "--format", "jsonl"]) == 0
    assert spy.calls == 0
    rows = {r["branch"]: r for r in map(json.loads, capsys.readouterr().out.splitlines())}
    sys = build_grounded_system(grid)
    f = solve_flow(sys).flows
    assert sorted(rows) == sorted(br.id for br in grid.branches if br.in_service)
    for bid, row in rows.items():
        if row["islands"]:
            assert math.isnan(row["post_max_flow"])
            continue
        post = f + lodf_column(sys, bid) * f[grid.branch_index[bid]]
        assert row["post_max_flow"] == float(np.abs(post).max())


def test_enumerate_forms_no_kernel_rows(tmp_path, capsys):
    grid, sids = sweep_grid(17, 24, n_switches=5)
    spy = _Spy()
    with mock.patch.object(_LowRank, "Wt", spy):
        rows = _enumerate_rows(grid, sids, tmp_path, capsys)
    assert spy.calls == 0
    _assert_rows_match(rows, _per_setting_inverse_rows(grid, sids))
