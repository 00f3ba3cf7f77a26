"""The batched switch sweep ``SwitchKernel.sweep`` against a per-setting loop,
its stacked pivots and its memory."""
import itertools
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from gridfactors import (
    Branch,
    Bus,
    DegenerateSwitchError,
    Grid,
    IslandingError,
    SwitchKernel,
    SwitchStates,
    build_grounded_system,
    compute_flows,
    random_grid,
    solve_flow,
    system_from_inverse,
)
from gridfactors import multi_mod
from gridfactors._linalg import _lu_pivots
from gridfactors.cli import N1_BLOCK_BYTES

from conftest import add_switches, sweep_grid

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st


def _loop(grid, sids):
    """One setting at a time: merged angles, then the flows off the endpoints."""
    sys = build_grounded_system(grid)
    kernel = SwitchKernel(sys, sids)
    theta0, shifts = solve_flow(sys).angles, grid.shift_angles()
    closed, peak, islands = [], [], []
    for bits in itertools.product((False, True), repeat=len(sids)):
        closed.append(bits)
        try:
            theta, y = kernel.merged_angles(SwitchStates(sids, bits), theta0)
        except (DegenerateSwitchError, IslandingError):
            peak.append(np.nan)
            islands.append(True)
            continue
        flows = compute_flows(sys, theta, shifts).flows
        flows[kernel.cols] += y
        peak.append(np.abs(flows).max())
        islands.append(False)
    return np.array(closed), np.array(peak), np.array(islands)


def _batch(grid, sids, block_bytes=N1_BLOCK_BYTES):
    sys = build_grounded_system(grid)
    pre = solve_flow(sys)
    return SwitchKernel(sys, sids).sweep(pre.angles, pre.flows, block_bytes)


def _assert_same(got, want):
    closed, peak, islands = got
    np.testing.assert_array_equal(closed, want[0])
    np.testing.assert_array_equal(islands, want[2])
    assert np.isnan(peak[islands]).all()
    np.testing.assert_allclose(peak[~islands], want[1][~islands], rtol=1e-12, atol=0)


@pytest.mark.parametrize("seed, n_buses, n_switches", [(3, 14, 4), (8, 14, 4), (21, 30, 6), (34, 60, 7)])
def test_sweep_equals_per_setting_loop(seed, n_buses, n_switches):
    grid, sids = sweep_grid(seed, n_buses, n_switches)
    want = _loop(grid, sids)
    assert want[2].any() and not want[2].all()  # the parallel pair islands some
    _assert_same(_batch(grid, sids), want)


@pytest.mark.parametrize("seed, n_buses, n_switches", [(3, 14, 4), (21, 30, 6), (34, 60, 7)])
def test_sweep_equals_per_setting_loop_with_ids_out_of_branch_order(seed, n_buses, n_switches):
    # ids fall as branch positions rise, so the listed (sorted) switches run
    # against the per-setting route's branch-position order
    grid, sids = sweep_grid(seed, n_buses, n_switches)
    renumber = {s: 2000 - k for k, s in enumerate(sids)}
    branches = tuple(replace(br, id=renumber.get(br.id, br.id)) for br in grid.branches)
    grid = Grid(buses=grid.buses, branches=branches)
    listed = tuple(sorted(renumber.values()))
    want = _loop(grid, listed)
    assert want[2].any() and not want[2].all()
    _assert_same(_batch(grid, listed), want)


def test_sweep_with_lines_and_a_pst_listed_as_switches():
    grid, sids = sweep_grid(13, 25, 4)
    pst = next(br.id for br in grid.branches if br.kind == "pst")
    lines = [br.id for br in grid.branches if br.kind == "line"][3:5]
    listed = tuple(sorted((*sids[1:3], pst, *lines)))
    _assert_same(_batch(grid, listed), _loop(grid, listed))


def test_degenerate_switch_islands_exactly_the_settings_that_close_it():
    # a switch in parallel with a line 1e12 times stiffer than the rest has no
    # transfer impedance left in the all-open reference
    grid = random_grid(5, 20, 2.4)
    stiff = 1e12 * max(br.susceptance for br in grid.branches)
    nxt = max(grid.branch_ids) + 1
    grid = Grid(
        buses=grid.buses,
        branches=grid.branches + (Branch(id=nxt, from_bus=4, to_bus=9, susceptance=stiff),),
    )
    grid, sids = add_switches(grid, [(4, 9), (2, 7), (3, 11)])
    sys = build_grounded_system(grid)
    assert SwitchKernel(sys, sids).degenerate.tolist() == [True, False, False]
    want = _loop(grid, sids)
    assert np.array_equal(want[2], want[0][:, 0])  # flagged exactly where (4,9) is closed
    _assert_same(_batch(grid, sids), want)


def test_marginal_settings_flag_like_the_loop():
    # closing (2,5) and (2,8) closes a cycle through a stiff (5,8) line: the
    # closed block's smallest pivot falls through the threshold as it stiffens
    base = random_grid(6, 12, 2.4)
    nxt = max(base.branch_ids) + 1
    flags = []
    for stiff in np.logspace(8, 12, 33):
        line = Branch(id=nxt, from_bus=5, to_bus=8, susceptance=float(stiff))
        grid, sids = add_switches(Grid(buses=base.buses, branches=base.branches + (line,)), [(2, 5), (2, 8)])
        want = _loop(grid, sids)
        _assert_same(_batch(grid, sids), want)
        flags.append(bool(want[2][-1]))
    assert flags[0] is False and flags[-1] is True


def test_blocked_sweep_equals_single_block(monkeypatch):
    grid, sids = sweep_grid(9, 40, 6)
    whole = _batch(grid, sids)
    calls = []

    def counting(A):
        calls.append(len(A))
        return _lu_pivots(A)

    monkeypatch.setattr(multi_mod, "_lu_pivots", counting)
    m, M = grid.n_branches, len(sids)
    blocked = _batch(grid, sids, block_bytes=8 * (m + M * M) * 20)
    assert len(calls) >= 3 and sum(calls) == 2**M
    _assert_same(blocked, whole)


def test_non_finite_angles_raise():
    grid, sids = sweep_grid(3, 14)
    sys = build_grounded_system(grid)
    pre = solve_flow(sys)
    theta = np.full_like(pre.angles, np.nan)
    with pytest.raises(ValueError, match="infs or NaNs"):
        SwitchKernel(sys, sids).sweep(theta, pre.flows, N1_BLOCK_BYTES)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(1, 7),
    count=st.integers(1, 9),
    zero_share=st.sampled_from([0.0, 0.3, 0.7]),
    spread=st.integers(0, 12),
)
def test_stacked_pivots_equal_per_matrix_pivots(seed, k, count, zero_share, spread):
    rng = np.random.default_rng(seed)
    stack = rng.standard_normal((count, k, k)) * 10.0 ** rng.integers(-spread, spread + 1, (count, k, 1))
    stack[:, :, rng.random(k) < zero_share] = 0.0  # zero columns
    stack[rng.random(count) < 0.3, -1] = 0.0  # and a zero row in some
    got = _lu_pivots(stack)
    assert got.shape == (count, k)
    for A, piv in zip(stack, got):
        assert np.array_equal(piv, _lu_pivots(A))


def test_sweep_memory_stays_within_blocks():
    grid, sids = sweep_grid(2, 200, 12)
    sys = build_grounded_system(grid)
    pre = solve_flow(sys)
    kernel = SwitchKernel(sys, sids)
    kernel.K, kernel.degenerate  # the kernel's own gathers are not the sweep's
    block_bytes = 1 << 18
    M = len(sids)
    tracemalloc.start()
    try:
        closed, peak, islands = kernel.sweep(pre.angles, pre.flows, block_bytes)
        _, peak_traced = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(peak) == 2**M and islands.any() and not islands.all()
    out = closed.nbytes + peak.nbytes + islands.nbytes
    assert peak_traced <= 4 * block_bytes + out, peak_traced
    assert peak_traced < 2**M * M * M * 8  # no stack of every setting's bracket


def test_bracket_at_roundoff_against_its_largest_entry_islands():
    # an inverse carrying roundoff, as a derived system may: switch (2,3)
    # has t = 2e-24 off entries of 1e-15, switch (4, slack) t = 1, and their
    # coupling is 1e-12. Closing both gives the bracket [[2e-24, 1e-12],
    # [1e-12, 1]]: its LU pivots are 1e-12 and 1e-12, balanced among
    # themselves, but 1e-12 of its largest entry. Only the max |K_cc| term
    # of the scale, in the sweep and in _LowRank.solve, flags it.
    buses = tuple(Bus(id=i, injection=0.0, is_slack=i == 1) for i in range(1, 5))
    lines = tuple(Branch(id=i, from_bus=i, to_bus=i + 1, susceptance=1.0) for i in range(1, 4))
    grid, sids = add_switches(Grid(buses=buses, branches=lines), [(2, 3), (4, 1)])
    X = np.zeros((3, 3))
    X[0, 0] = X[1, 1] = 1e-15
    X[0, 1] = X[1, 0] = 1e-15 - 1e-24
    X[0, 2] = X[2, 0] = 1e-12
    X[2, 2] = 1.0
    kernel = SwitchKernel(system_from_inverse(grid, X), sids)
    assert not kernel.degenerate.any()
    assert np.allclose(_lu_pivots(kernel.K), 1e-12, rtol=1e-6, atol=0)
    assert np.abs(kernel.K).max() == 1.0
    closed, peak, islands = kernel.sweep(np.zeros(3), np.zeros(grid.n_branches), N1_BLOCK_BYTES)
    assert closed[-1].all() and islands.tolist() == [False, False, False, True]
    assert np.isnan(peak[-1]) and np.isfinite(peak[:-1]).all()
    both = SwitchStates(sids, (True, True))
    with pytest.raises(IslandingError):
        kernel.merged_angles(both, np.zeros(3))
    for one in ((True, False), (False, True)):
        kernel.merged_angles(SwitchStates(sids, one), np.zeros(3))


def test_sweep_judges_each_bracket_in_branch_order():
    # in branch order K = [[a, b], [b, 1]] with b = 1e-3 and a - b^2 = 1e-12:
    # LU pivots 1e-3 and 1e-9, kept; listed the other way round they would be
    # 1 and 1e-12, refused. The per-setting route orders by branch position,
    # and the sweep's flags must follow it whatever order the switches are listed in
    buses = tuple(Bus(id=i, injection=0.0, is_slack=i == 1) for i in range(1, 5))
    lines = tuple(Branch(id=i, from_bus=i, to_bus=i + 1, susceptance=1.0) for i in range(1, 4))
    grid, sids = add_switches(Grid(buses=buses, branches=lines), [(2, 3), (4, 1)])
    X = np.zeros((3, 3))
    X[0, 0], X[2, 2] = 1e-6 + 1e-12, 1.0
    X[0, 2] = X[2, 0] = 1e-3
    for listed in (sids, sids[::-1]):
        kernel = SwitchKernel(system_from_inverse(grid, X), listed)
        closed, peak, islands = kernel.sweep(np.zeros(3), np.zeros(grid.n_branches), N1_BLOCK_BYTES)
        assert not islands.any()
        kernel.merged_angles(SwitchStates(listed, (True, True)), np.zeros(3))
