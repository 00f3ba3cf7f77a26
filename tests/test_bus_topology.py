import tracemalloc

import numpy as np
import pytest

from gridfactors import (
    Branch,
    Bus,
    Grid,
    GridStructureError,
    IslandingError,
    SplitSpec,
    apply_split,
    bsdf_vector,
    build_grounded_system,
    contract_buses,
    idle_bus_split,
    lodf_after_split,
    lodf_column,
    merge_inverse,
    merged_ptdf,
    pad_inverse,
    ptdf_matrix,
    random_grid,
    rebuild_and_solve,
    solve_flow,
    split_inverse,
    split_ptdf,
    switch_flow,
    system_from_inverse,
    updated_inverse,
    BranchDelta,
)

from gridfactors.bus_topology import _split_solve

from conftest import add_switches, rel_fro, screening_grid, sweep_grid, triangle, two_bus


def random_split(grid, rng, parent=None):
    """A random two-sided split of a bus with at least two incident branches."""
    candidates = [
        b.id
        for b in grid.buses
        if len(grid.branches_at(b.id)) >= 2 and (parent is None or b.id == parent)
    ]
    if not candidates:
        pytest.skip("no splittable bus in this sample")
    parent = int(rng.choice(candidates))
    incident = [br.id for br in grid.branches_at(parent)]
    while True:
        mask = rng.integers(0, 2, size=len(incident))
        if 0 < mask.sum() < len(incident):
            break
    assignments = {
        bid: ("new" if m else "parent") for bid, m in zip(incident, mask)
    }
    inj = grid.bus(parent).injection
    return SplitSpec(
        parent_bus=parent,
        assignments=assignments,
        injection_to_new=float(rng.uniform(0, 1)) * inj,
    )


# --- merges -------------------------------------------------------------------


def test_merge_inverse_annihilates_switch_vector(small_grids):
    for grid in small_grids[:6]:
        g, (sid,) = add_switches(grid, [(1, grid.buses[-1].id)])
        sys = build_grounded_system(g)
        B_m = merge_inverse(sys, sid)
        assert np.max(np.abs(B_m @ sys.nu(sid))) < 1e-10


def test_merge_matches_large_b_oracle():
    grid = triangle()
    g, (sid,) = add_switches(grid, [(1, 2)])
    sys = build_grounded_system(g)
    B_m = merge_inverse(sys, sid)
    p = np.array([1.0, 0.0, -1.0])
    theta = B_m @ sys.reduce(p)
    ref = rebuild_and_solve(g, closed_switches=[sid], p=p, large_b=1e9)
    np.testing.assert_allclose(theta, ref.flow.angles, atol=1e-6)


def test_merge_matches_sherman_morrison_limit():
    grid = triangle()
    g, (sid,) = add_switches(grid, [(1, 2)])
    sys = build_grounded_system(g)
    B_m = merge_inverse(sys, sid)
    # finite-susceptance surrogate through the ordinary rank-one update
    finite = updated_inverse(sys, BranchDelta(branch=sid, delta_b=1e8))
    assert rel_fro(B_m, finite) < 1e-6


def test_merge_matches_contracted_oracle(small_grids):
    for grid in small_grids[:6]:
        far = grid.buses[-1].id
        g, (sid,) = add_switches(grid, [(2, far)])
        sys = build_grounded_system(g)
        B_m = merge_inverse(sys, sid)
        contracted = contract_buses(g, keep=2, drop=far)
        sys_c = build_grounded_system(contracted)
        pad = np.zeros_like(B_m)
        rows = []
        for bid in sys.bus_ids:
            origin = 2 if bid == far else bid
            rows.append(sys_c.index_map.get(origin))
        present = [k for k, r in enumerate(rows) if r is not None]
        src = [rows[k] for k in present]
        pad[np.ix_(present, present)] = sys_c.B_inv[np.ix_(src, src)]
        assert rel_fro(B_m, pad) < 1e-8


def test_merged_ptdf_flows_match_oracle():
    grid = random_grid(4, 9, 2.4)
    g, (sid,) = add_switches(grid, [(3, 7)])
    sys = build_grounded_system(g)
    mp = merged_ptdf(sys, sid)
    assert sid not in mp.row_labels
    p = g.injections()
    flows = mp.values @ sys.reduce(p)
    ref = rebuild_and_solve(g, closed_switches=[sid], large_b=1e9)
    by_id = dict(zip(ref.grid.branch_ids, ref.flow.flows))
    for branch_id, flow in zip(mp.row_labels, flows):
        assert flow == pytest.approx(by_id[branch_id], abs=1e-6)


def test_zero_injection_gives_zero_factor_flows():
    grid = triangle()
    g, (sid,) = add_switches(grid, [(1, 2)])
    sys = build_grounded_system(g)
    mp = merged_ptdf(sys, sid)
    np.testing.assert_allclose(mp.values @ np.zeros(sys.n), 0.0)


def test_switch_flow_cut_balance():
    # path 1 - 2 - 3 - 4 with a switch parallel to the middle line and all
    # load on the far side: merged, the parallel line carries nothing, so
    # the switch takes the whole cut flow
    buses = (
        Bus(id=1, injection=1.0, is_slack=True),
        Bus(id=2),
        Bus(id=3),
        Bus(id=4, injection=-1.0),
    )
    branches = (
        Branch(id=1, from_bus=1, to_bus=2, susceptance=1.0),
        Branch(id=2, from_bus=2, to_bus=3, susceptance=1.0),
        Branch(id=3, from_bus=3, to_bus=4, susceptance=1.0),
        Branch(id=4, from_bus=2, to_bus=3, susceptance=0.0, kind="switch"),
    )
    g = Grid(buses=buses, branches=branches)
    sys = build_grounded_system(g)
    mp = merged_ptdf(sys, 4)
    # the line parallel to the closed switch sees the merged-node solution
    flows = mp.values @ sys.reduce(g.injections())
    assert flows[list(mp.row_labels).index(2)] == pytest.approx(0.0, abs=1e-12)
    assert switch_flow(sys, 4) == pytest.approx(1.0)
    assert switch_flow(sys, 4, p=np.zeros(4)) == pytest.approx(0.0)


def test_switch_flow_matches_large_b_oracle():
    grid = random_grid(8, 8, 2.2)
    g, (sid,) = add_switches(grid, [(2, 6)])
    sys = build_grounded_system(g)
    got = switch_flow(sys, sid)
    ref = rebuild_and_solve(g, closed_switches=[sid], large_b=1e9)
    want = ref.flow.flows[ref.grid.branch_index[sid]]
    assert got == pytest.approx(want, abs=1e-6)


# --- padding ------------------------------------------------------------------


def test_pad_one_by_one():
    grid = two_bus(b=2.0, slack=1)
    sys = build_grounded_system(grid)
    x = sys.B_inv[0, 0]
    tri = pad_inverse(sys, SplitSpec(parent_bus=2, assignments={1: "new"}))
    np.testing.assert_allclose(tri.B_c_inv, [[x, x], [x, x]])


def test_pad_case6ww_bus5(ww_sys):
    split = SplitSpec(
        parent_bus=5,
        assignments={3: "new", 8: "new"},
        injection_to_new=-0.7,
    )
    tri = pad_inverse(ww_sys, split)
    assert tri.B_c_inv.shape == (6, 6)
    i5 = tri.index_map_o[5]
    i7 = tri.index_map_o[7]
    np.testing.assert_array_equal(tri.B_c_inv[i5], tri.B_c_inv[i7])
    np.testing.assert_array_equal(tri.B_c_inv[:, i5], tri.B_c_inv[:, i7])
    assert tri.grid_o.bus(7).injection == pytest.approx(-0.7)
    assert tri.grid_o.bus(5).injection == pytest.approx(0.0)


def test_pad_then_unpad_round_trip(ww_sys):
    split = SplitSpec(parent_bus=5, assignments={3: "new"}, injection_to_new=0.0)
    tri = pad_inverse(ww_sys, split)
    back_rows = [tri.index_map_o[b] for b in ww_sys.bus_ids]
    np.testing.assert_array_equal(
        tri.B_c_inv[np.ix_(back_rows, back_rows)], ww_sys.B_inv
    )
    assert tri.B_c_inv.shape[0] == ww_sys.B_inv.shape[0] + 1
    assert tri.B_o.shape == tri.B_c_inv.shape


def _origin_chain_pad(sys, tri):
    """Reference padding: each open-grid bus reads the merged row and column
    of the base bus its split chain started from (zeros for the slack)."""
    origin = {r.new_bus: r.parent for r in tri.splits}

    def merged_row(bus_id):
        while bus_id in origin:
            bus_id = origin[bus_id]
        return sys.index_map.get(bus_id)

    rows = [merged_row(bid) for bid in tri.bus_ids_o]
    pad = np.zeros((len(rows), len(rows)))
    present = [i for i, r in enumerate(rows) if r is not None]
    src = [rows[i] for i in present]
    pad[np.ix_(present, present)] = sys.B_inv[np.ix_(src, src)]
    return pad


def test_pad_matches_origin_chain_gather():
    # each list splits a bus elsewhere, the slack, and the new bus of the
    # split elsewhere (and that split's new bus in turn in some lists)
    orders = (
        ("else", "chain", "slack"),
        ("else", "slack", "chain"),
        ("slack", "else", "chain"),
        ("else", "chain", "chain", "slack"),
    )
    for seed in range(12):
        rng = np.random.default_rng(seed)
        grid = random_grid(seed, int(rng.integers(8, 30)), 3.0)
        sys = build_grounded_system(grid)
        g, splits, last_new = grid, [], None
        for kind in orders[seed % len(orders)]:
            if kind == "slack":
                parent = grid.slack
            elif kind == "chain":
                parent = last_new
            else:
                parent = int(rng.choice([b for b in grid.bus_ids if b != grid.slack]))
            incident = [br.id for br in g.branches_at(parent)]
            take = rng.random(len(incident)) < 0.5
            split = SplitSpec(
                parent_bus=parent,
                assignments={i: "new" for i, t in zip(incident, take) if t},
                injection_to_new=float(rng.uniform()) * g.bus(parent).injection,
            )
            splits.append(split)
            g = apply_split(g, split)
            if kind != "slack":
                last_new = max(g.bus_ids)
        tri = pad_inverse(sys, splits)
        assert tri.B_c_inv is tri.sys_c.B_inv
        assert np.array_equal(tri.B_c_inv, _origin_chain_pad(sys, tri))
        for k, r in enumerate(tri.splits):
            nu = np.zeros(len(tri.bus_ids_o))
            if r.parent != grid.slack:
                nu[tri.index_map_o[r.parent]] = 1.0
            nu[tri.index_map_o[r.new_bus]] = -1.0
            assert np.array_equal(tri.U[:, k], nu)


def test_pad_inverse_memory_is_one_padded_copy():
    grid = random_grid(3, 400, 3.0)
    sys = build_grounded_system(grid)
    parent = max(
        (b.id for b in grid.buses if not b.is_slack),
        key=lambda bid: len(grid.branches_at(bid)),
    )
    incident = [br.id for br in grid.branches_at(parent)]
    split = SplitSpec(
        parent_bus=parent,
        assignments={i: "new" for i in incident[::2]},
        injection_to_new=0.5 * grid.bus(parent).injection,
    )
    pad_inverse(sys, split)  # warm-up: the base grid caches its lookups on first use
    tracemalloc.start()
    try:
        tri = pad_inverse(sys, split)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    n_o = len(tri.bus_ids_o)
    assert peak <= 1.25 * 8 * n_o**2, peak / (8 * n_o**2)


def test_split_requires_explicit_injection_assignment(ww_sys):
    with pytest.raises(GridStructureError, match="injection_to_new"):
        pad_inverse(ww_sys, SplitSpec(parent_bus=5, assignments={3: "new"}))


def test_apply_split_rejects_non_incident_branch():
    grid = triangle()
    with pytest.raises(GridStructureError, match="not incident"):
        apply_split(grid, SplitSpec(parent_bus=1, assignments={2: "new"}))


# --- splits -------------------------------------------------------------------


def case6ww_split():
    return SplitSpec(
        parent_bus=5,
        assignments={3: "new", 8: "new"},  # branches (1,5) and (3,5)
        new_bus=7,
        injection_to_new=-0.7,
    )


def test_case6ww_split_flow(ww_case, ww_sys):
    tri = pad_inverse(ww_sys, case6ww_split())
    B_o_inv = split_inverse(tri)
    sys_o = system_from_inverse(tri.grid_o, B_o_inv)
    state = solve_flow(sys_o)
    branch_id, value = state.max_loaded()
    br = tri.grid_o.branch(branch_id)
    assert {br.from_bus, br.to_bus} == {1, 7}
    assert value * ww_case.base_mva == pytest.approx(42.233, abs=1e-3)


def test_degenerate_split_islands(ww_sys):
    split = SplitSpec(parent_bus=5, assignments={}, injection_to_new=-0.7)
    tri = pad_inverse(ww_sys, split)
    with pytest.raises(IslandingError):
        split_inverse(tri)


def test_random_splits_match_oracle(small_grids):
    rng = np.random.default_rng(17)
    checked = 0
    for grid in small_grids[:20]:
        split = random_split(grid, rng)
        tri = pad_inverse(build_grounded_system(grid), split)
        try:
            B_o_inv = split_inverse(tri)
        except IslandingError:
            continue
        ref = rebuild_and_solve(grid, splits=[split])
        assert rel_fro(B_o_inv, ref.B_inv) < 1e-8
        checked += 1
    assert checked >= 10


def test_split_of_slack_bus():
    grid = random_grid(21, 9, 2.6)
    sys = build_grounded_system(grid)
    rng = np.random.default_rng(2)
    checked = 0
    for _ in range(20):
        split = random_split(grid, rng, parent=grid.slack)
        tri = pad_inverse(sys, split)
        try:
            B_o_inv = split_inverse(tri)
        except IslandingError:
            continue
        ref = rebuild_and_solve(grid, splits=[split])
        assert rel_fro(B_o_inv, ref.B_inv) < 1e-8
        checked += 1
    assert checked >= 1


def test_bsdf_and_split_ptdf(ww_case, ww_sys):
    tri = pad_inverse(ww_sys, case6ww_split())
    B_o_inv = split_inverse(tri)
    ptdf_o = split_ptdf(tri)
    p_o = tri.grid_o.injections()
    p_r = np.array(
        [p_o[tri.grid_o.bus_index[b]] for b in tri.bus_ids_o]
    )
    flows_factors = ptdf_o.values @ p_r
    sys_o = system_from_inverse(tri.grid_o, B_o_inv)
    state = solve_flow(sys_o)
    np.testing.assert_allclose(flows_factors, state.flows, atol=1e-9)
    # the correction over the padded PTDF is the rank-one product of the
    # bsdf vector with the opening's driving row
    bsdf = bsdf_vector(tri)
    ptdf_c = (tri.b_o[:, None] * tri.E_o_r.T) @ tri.B_c_inv
    correction = ptdf_o.values - ptdf_c
    lead = int(np.argmax(np.abs(bsdf)))
    driving_row = correction[lead] / bsdf[lead]
    np.testing.assert_allclose(correction, np.outer(bsdf, driving_row), atol=1e-9)


def _slack_side_splits(seed):
    """Seeded splits of a neighbour of the slack bus 1 and of the slack itself."""
    rng = np.random.default_rng(seed)
    for grid in (screening_grid(seed, 30), sweep_grid(seed, 30)[0]):
        ends = [(br.from_bus, br.to_bus) for br in grid.branches_at(1)]
        nbrs = sorted({f if t == 1 else t for f, t in ends})
        nbr = next(b for b in nbrs if len(grid.branches_at(b)) >= 2)
        for parent in (nbr, 1):
            yield grid, random_split(grid, rng, parent=parent)


def _assert_rel(values, ref):
    assert values.shape == ref.shape
    assert np.abs(values - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("seed", [1, 6, 23])
def test_split_factors_match_dense_incidence(seed):
    # the open grid's Laplacian, bsdf and PTDF as dense incidence products
    checked = 0
    for grid, split in _slack_side_splits(seed):
        tri = pad_inverse(build_grounded_system(grid), split)
        E, b = tri.E_o_r, tri.b_o
        _assert_rel(tri.B_o, (E * b) @ E.T)
        assert np.array_equal(tri.B_o, tri.B_o.T)
        try:
            GU, X = _split_solve(tri)
        except IslandingError:
            continue
        g_nu = GU[:, 0]
        bsdf = b * (E.T @ X[0])
        _assert_rel(bsdf_vector(tri), bsdf)
        dense = (b[:, None] * E.T) @ tri.B_c_inv + np.outer(bsdf, g_nu)
        _assert_rel(split_ptdf(tri).values, dense)
        checked += 1
    assert checked >= 2


def test_split_ptdf_matches_oracle_random(small_grids):
    rng = np.random.default_rng(23)
    for grid in small_grids[5:15]:
        split = random_split(grid, rng)
        tri = pad_inverse(build_grounded_system(grid), split)
        try:
            ptdf_o = split_ptdf(tri)
        except IslandingError:
            continue
        ref = rebuild_and_solve(grid, splits=[split])
        ref_ptdf = ptdf_matrix(ref.sys)
        np.testing.assert_allclose(ptdf_o.values, ref_ptdf.values, atol=1e-8)


def test_lodf_after_split_matches_rebuilt_grid(ww_sys):
    tri = pad_inverse(ww_sys, case6ww_split())
    grid_o = tri.grid_o
    sys_o = build_grounded_system(grid_o)
    from gridfactors import outage_islands

    swept = 0
    for br in grid_o.branches:
        if not br.in_service:
            continue
        islands, _ = outage_islands(sys_o, br.id)
        if islands:
            continue
        col = lodf_after_split(tri, br.id)
        ref = lodf_column(sys_o, br.id)
        np.testing.assert_allclose(col, ref, atol=1e-8)
        assert col[grid_o.branch_index[br.id]] == -1.0
        swept += 1
    assert swept >= 8


# --- idle-bus route -----------------------------------------------------------


def test_idle_bus_route_equals_padded_route(ww_sys):
    tri = pad_inverse(ww_sys, case6ww_split())
    a = split_inverse(tri)
    b = idle_bus_split(ww_sys, case6ww_split())
    assert rel_fro(a, b) < 1e-8


def test_idle_bus_empty_split_list(ww_sys):
    out = idle_bus_split(ww_sys, [])
    np.testing.assert_array_equal(out, ww_sys.B_inv)


def test_idle_bus_single_move_on_cycle():
    grid = random_grid(31, 6, 2.6)
    sys = build_grounded_system(grid)
    parent = next(b.id for b in grid.buses if len(grid.branches_at(b.id)) >= 3)
    incident = [br.id for br in grid.branches_at(parent)]
    split = SplitSpec(
        parent_bus=parent,
        assignments={incident[0]: "new"},
        injection_to_new=grid.bus(parent).injection,
    )
    try:
        got = idle_bus_split(sys, split)
    except IslandingError:
        pytest.skip("single move islanded this sample")
    ref = rebuild_and_solve(grid, splits=[split])
    assert np.abs(got - ref.B_inv).max() < 1e-10


def test_idle_bus_isolating_split_raises(ww_sys):
    split = SplitSpec(parent_bus=5, assignments={}, injection_to_new=-0.7)
    with pytest.raises(IslandingError):
        idle_bus_split(ww_sys, split)


# --- split/merge duality and limits --------------------------------------------


def test_split_then_merge_restores_padded_inverse(ww_sys):
    tri = pad_inverse(ww_sys, case6ww_split())
    B_o_inv = split_inverse(tri)
    grid_sw = Grid(
        buses=tri.grid_o.buses,
        branches=tri.grid_o.branches
        + (Branch(id=999, from_bus=5, to_bus=7, susceptance=0.0, kind="switch"),),
    )
    sys_o = system_from_inverse(grid_sw, B_o_inv)
    remerged = merge_inverse(sys_o, 999)
    assert rel_fro(remerged, tri.B_c_inv) < 1e-8


def test_split_limit_matches_finite_coupler(ww_sys):
    # the padded inverse is the infinite-susceptance limit of the closed
    # configuration: compare it against a dense b_s = 1e8 coupler, and run
    # the split expression from that finite inverse as well. (Outaging the
    # finite coupler through the plain rank-one update instead is hopeless
    # in double precision: the update denominator cancels to roundoff.)
    tri = pad_inverse(ww_sys, case6ww_split())
    b_s = 1e8
    grid_c = Grid(
        buses=tri.grid_o.buses,
        branches=tri.grid_o.branches
        + (Branch(id=999, from_bus=5, to_bus=7, susceptance=b_s),),
    )
    sys_c = build_grounded_system(grid_c)
    assert rel_fro(tri.B_c_inv, sys_c.B_inv) < 1e-5

    B_o_inv = split_inverse(tri)
    nu = tri.U[:, 0]
    g_nu = nu - sys_c.B_inv @ (tri.B_o @ nu)
    s_val = float(nu @ (tri.B_o @ nu) - (tri.B_o @ nu) @ (sys_c.B_inv @ (tri.B_o @ nu)))
    finite = sys_c.B_inv + np.outer(g_nu, g_nu) / s_val
    assert rel_fro(B_o_inv, finite) < 1e-5


def test_split_criterion_positive_for_viable_splits(small_grids):
    from gridfactors.bus_topology import split_criterion

    rng = np.random.default_rng(3)
    positives = 0
    for grid in small_grids[:15]:
        split = random_split(grid, rng)
        tri = pad_inverse(build_grounded_system(grid), split)
        s_val, tol = split_criterion(tri)
        try:
            rebuild_and_solve(grid, splits=[split])
        except IslandingError:
            assert abs(s_val) <= tol
            continue
        assert s_val > tol
        positives += 1
    assert positives >= 8


def test_composed_update_refuses_a_repeated_delta():
    # a branch given two deltas would otherwise keep only the last one
    from gridfactors.bus_topology import ComposedUpdate

    sys = build_grounded_system(random_grid(3, 12, 2.6))
    with pytest.raises(GridStructureError, match=r"duplicate branch ids .*\[4, 4\]"):
        ComposedUpdate(sys, [(4, -0.5), (4, -0.3)])


def test_composed_update_angles_checks_the_reference_length():
    # reference angles span the base rows and one row per split's new bus
    from gridfactors.bus_topology import ComposedUpdate

    buses = (Bus(1, 0.0, is_slack=True), Bus(2, 0.5), Bus(3, -0.2), Bus(4, -0.3))
    ends = ((10, 1, 2), (11, 2, 3), (12, 3, 4), (13, 4, 1), (14, 2, 4))
    sys = build_grounded_system(Grid(buses, tuple(Branch(i, f, t, 1.0) for i, f, t in ends)))
    theta = solve_flow(sys).angles
    spec = SplitSpec(2, {10: "new", 14: "new"}, injection_to_new=0.1)
    split = ComposedUpdate(sys, splits=[spec])
    with pytest.raises(GridStructureError, match=r"shape \(3,\), expected \(4,\)"):
        split.angles(theta)
    assert split.angles(np.r_[theta, 0.0])[0].shape == (4,)
    with pytest.raises(GridStructureError, match=r"shape \(7,\), expected \(3,\)"):
        ComposedUpdate(sys).angles(np.zeros(7))
    got, z = ComposedUpdate(sys).angles(theta)
    assert np.array_equal(got, theta) and z.shape == (0,)


def _rebased(grid, closed):
    """The base system of ``grid`` and the system that closing ``closed`` leaves."""
    from gridfactors.bus_topology import ComposedUpdate

    base = build_grounded_system(grid)
    up = ComposedUpdate(base, switches={s: True for s in closed})
    return base, system_from_inverse(up.grid, up.inverse(), up.closed)


def test_composed_update_on_a_rebased_system():
    # switch 13 closes the ring: lines 10 and 12 with it keep the grid
    # connected when line 11 goes out, and it carries flow after a delta
    from gridfactors import DegenerateSwitchError
    from gridfactors.bus_topology import ComposedUpdate

    buses = (Bus(1, 0.0, is_slack=True), Bus(2, 0.5), Bus(3, -0.2), Bus(4, -0.3))
    lines = tuple(Branch(i, i - 9, i - 8, b) for i, b in ((10, 1.0), (11, 2.0), (12, 1.5)))
    grid, _ = add_switches(Grid(buses, lines), [(4, 1), (1, 4)], first_id=13)
    base, sys1 = _rebased(grid, [13])
    assert sys1.closed_switches == (13,)
    got = ComposedUpdate(sys1, deltas=[(11, -2.0)]).flows()
    np.testing.assert_allclose(got[:4], [-0.5, 0.0, -0.2, -0.5], rtol=0, atol=1e-12)
    for deltas in ([(10, 0.5)], [(11, -2.0)], [(10, 0.5), (12, -0.7)]):
        chained = ComposedUpdate(sys1, deltas=deltas).flows()
        one_shot = ComposedUpdate(base, deltas, {13: True}).flows()
        np.testing.assert_allclose(chained, one_shot, rtol=1e-12, atol=1e-15)
        ref = rebuild_and_solve(grid, deltas=deltas, closed_switches=[13]).flow.flows
        np.testing.assert_allclose(chained, ref, rtol=0, atol=1e-6)
    assert ComposedUpdate(sys1, deltas=[(10, 0.5)]).flows()[3] == pytest.approx(-0.245455, abs=1e-6)
    with pytest.raises(DegenerateSwitchError, match="closing switch 14 is redundant"):
        ComposedUpdate(sys1, switches={14: True}).flows()
    # reopening 13, by its setting or by a split that moves it, would split the merged bus
    moving = SplitSpec(parent_bus=4, assignments={12: "new", 13: "new"}, injection_to_new=-0.1)
    for kwargs in ({"switches": {13: False}}, {"splits": [moving]}):
        with pytest.raises(GridStructureError, match=r"switches \[13\] are closed in the ref"):
            ComposedUpdate(sys1, **kwargs)


def _ring_with_parallel_switches():
    """Ring 1-2-3-4 (lines 10-13, bus 1 the slack) and switches 20, 21, both 2-4."""
    buses = (Bus(1, 0.0, is_slack=True), Bus(2, 0.5), Bus(3, -0.2), Bus(4, -0.3))
    lines = (Branch(10, 1, 2, 1.0), Branch(11, 2, 3, 2.0), Branch(12, 3, 4, 1.5),
             Branch(13, 4, 1, 1.0))
    return add_switches(Grid(buses, lines), [(2, 4), (2, 4)], first_id=20)[0]


def test_redundant_closing_at_moved_ends_names_the_switch():
    # the split moves both switches onto the new bus; the error names switch
    # 21 with the split as without it, not a column of the update
    from gridfactors import DegenerateSwitchError
    from gridfactors.bus_topology import ComposedUpdate

    sys = build_grounded_system(_ring_with_parallel_switches())
    split = SplitSpec(parent_bus=2, assignments={10: "new", 20: "new", 21: "new"},
                      injection_to_new=0.1)
    for splits in ([], [split]):
        up = ComposedUpdate(sys, switches={20: True, 21: True}, splits=splits)
        for read in (up.flows, up.inverse):
            with pytest.raises(DegenerateSwitchError, match="closing switch 21 is redundant"):
                read()


@pytest.mark.parametrize("split", [False, True])
def test_an_update_makes_one_coordinate_pass(split, monkeypatch):
    # the final grid's grounded coordinates are computed once, and only for
    # a split: without one they are the base system's own
    from gridfactors import bus_topology, cli, grid_model, multi_mod, pst, single_mod
    from gridfactors.bus_topology import ComposedUpdate

    real, calls = grid_model._branch_ends, []

    def counted(*args):
        calls.append(args)
        return real(*args)

    for mod in (grid_model, bus_topology, cli, multi_mod, pst, single_mod):
        if getattr(mod, "_branch_ends", None) is real:
            monkeypatch.setattr(mod, "_branch_ends", counted)
    grid = _ring_with_parallel_switches()
    sys = build_grounded_system(grid)
    spec = SplitSpec(parent_bus=2, assignments={10: "new", 20: "new"}, injection_to_new=0.1)
    calls.clear()
    up = ComposedUpdate(sys, [(12, -0.5)], {20: True}, [spec] if split else [])
    flows, inverse = up.flows(), up.inverse()
    assert len(calls) == split
    ref = rebuild_and_solve(grid, deltas=[(12, -0.5)], closed_switches=[20],
                            splits=[spec] if split else [])
    np.testing.assert_allclose(flows, ref.flow.flows, rtol=0, atol=1e-6)
    doc = {"deltas": [{"branch": 12, "db": -0.5}], "switches": {"20": "closed"}}
    if split:
        doc["splits"] = [{"parent": 2, "assignments": {"10": "new", "20": "new"},
                          "injection_to_new": 0.1}]
    calls.clear()
    grid_m, sys_m = cli.apply_modifications(grid, doc)
    assert len(calls) == 1 + split  # the base build's pass, and the update's
    assert np.array_equal(sys_m.B_inv, inverse)
    for got, want in zip(sys_m.branch_ends, grid_model._grounded_coords(grid_m)[1]):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("seed", range(6))
def test_chained_closures_and_deltas_equal_the_one_shot_update(seed):
    from gridfactors import DegenerateSwitchError
    from gridfactors.bus_topology import ComposedUpdate

    n, rng = 30, np.random.default_rng(seed)
    pairs = [tuple(int(b) for b in rng.choice(n, 2, replace=False) + 1) for _ in range(3)]
    grid, sids = add_switches(random_grid(seed, n, 2.6), pairs + [pairs[0][::-1]])
    base, sys1 = _rebased(grid, sids[:2])
    lines = [br for br in grid.branches if br.kind == "line"]
    picked = rng.choice(len(lines), 3, replace=False)
    deltas = [(lines[i].id, f * lines[i].susceptance) for i, f in zip(picked, (-1.0, -0.5, 0.7))]
    chained = ComposedUpdate(sys1, deltas, {sids[2]: True})
    one_shot = ComposedUpdate(base, deltas, {s: True for s in sids[:3]})
    try:
        want = one_shot.flows()
    except IslandingError as exc:
        assert exc.components is not None
        with pytest.raises(IslandingError) as got:
            chained.flows()
        assert got.value.components == exc.components
    else:
        got = chained.flows()
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-13 * np.abs(want).max())
        ref = rebuild_and_solve(grid, deltas=deltas, closed_switches=sids[:3]).flow.flows
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-5 * np.abs(ref).max())
    with pytest.raises(DegenerateSwitchError, match=f"closing switch {sids[3]} is redundant"):
        ComposedUpdate(sys1, switches={sids[3]: True}).inverse()
