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

from gridfactors.bus_topology import _single_split_pieces

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
            g_nu, s_val = _single_split_pieces(tri)
        except IslandingError:
            continue
        bsdf = b * (E.T @ g_nu) / s_val
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


def test_idle_bus_grounding_value_cancels(ww_sys):
    a = idle_bus_split(ww_sys, case6ww_split(), grounding_b=1.0)
    b = idle_bus_split(ww_sys, case6ww_split(), grounding_b=37.5)
    assert rel_fro(a, b) < 1e-10


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
