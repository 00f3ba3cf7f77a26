import concurrent.futures
import itertools
import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest

import gridfactors
from gridfactors import (
    Grid, build_grounded_system, cli, grid_to_json, oracle, random_grid, solve_flow,
)
from gridfactors.cases import case6ww_text
from gridfactors.cli import main

from conftest import add_switches, screening_grid, sweep_grid, triangle, two_bus


@pytest.fixture()
def ww_path(tmp_path):
    path = tmp_path / "case6ww.m"
    path.write_text(case6ww_text())
    return str(path)


SPLIT_DOC = {
    "splits": [
        {
            "parent": 5,
            "assignments": {"3": "new", "8": "new"},
            "new_bus": 7,
            "injection_to_new": -0.7,
        }
    ]
}


def test_flows_reports_paper_number(ww_path, capsys):
    assert main(["flows", ww_path]) == 0
    out = capsys.readouterr().out
    assert "max |f| = 44.922 on branch (3,6)" in out


def test_flows_csv_round_trips(ww_path, capsys):
    assert main(["flows", ww_path, "--format", "csv"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0] == "branch,from,to,flow"
    assert len(lines) == 12
    values = {int(ln.split(",")[0]): float(ln.split(",")[3]) for ln in lines[1:]}
    assert values[9] == pytest.approx(44.922, abs=1e-3)


def test_flows_jsonl(ww_path, capsys):
    assert main(["flows", ww_path, "--format", "jsonl"]) == 0
    rows = [json.loads(ln) for ln in capsys.readouterr().out.strip().splitlines()]
    assert len(rows) == 11
    assert {r["branch"] for r in rows} == set(range(1, 12))


def test_flows_zero_injection_grid(tmp_path, capsys):
    path = tmp_path / "grid.json"
    path.write_text(grid_to_json(triangle()))
    assert main(["flows", str(path), "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert all(float(ln.split(",")[3]) == 0.0 for ln in lines[1:])


def test_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "broken.m"
    path.write_text("mpc.baseMVA = 100;\nmpc.bus = [\n1 3 oops;\n];")
    assert main(["flows", str(path)]) == 2


def test_disconnected_exit_code(tmp_path):
    doc = {
        "buses": [{"id": 1, "slack": True}, {"id": 2}, {"id": 3}],
        "branches": [{"id": 1, "from": 1, "to": 2, "b": 1.0}],
    }
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(doc))
    assert main(["flows", str(path)]) == 3


def test_factors_ptdf_dimensions(ww_path, capsys):
    assert main(["factors", ww_path, "--kind", "ptdf"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "branch,bus2,bus3,bus4,bus5,bus6"
    assert len(lines) == 12


def test_factors_to_file(ww_path, tmp_path):
    out = tmp_path / "ptdf.csv"
    assert main(["factors", ww_path, "--kind", "ptdf", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 12


def test_factors_psdf_without_psts(ww_path, capsys):
    assert main(["factors", ww_path, "--kind", "psdf"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    values = np.array(
        [[float(c) for c in ln.split(",")[1:]] for ln in lines[1:]]
    )
    # diagonal pattern b_e (1 - PTDF drop across the branch); off-diagonals
    # couple through the network
    assert values.shape == (11, 11)
    assert np.all(np.abs(np.diag(values)) > 0)


def test_whatif_split_reports_paper_number(ww_path, capsys, tmp_path):
    mods = tmp_path / "split.json"
    mods.write_text(json.dumps(SPLIT_DOC))
    assert main(["whatif", ww_path, "--mods", f"@{mods}"]) == 0
    out = capsys.readouterr().out
    assert "max |f| = 42.233 on branch (1,7)" in out


def test_whatif_bridge_outage_exit_4(tmp_path, capsys):
    path = tmp_path / "grid.json"
    path.write_text(grid_to_json(two_bus(b=1.0, slack=2, p=0.0)))
    doc = {"deltas": [{"branch": 1, "db": -1.0}]}
    assert main(["whatif", str(path), "--mods", json.dumps(doc)]) == 4
    assert "islands" in capsys.readouterr().err


def test_whatif_enumerate_counts(tmp_path, capsys):
    grid = triangle()
    from gridfactors import Branch, Grid

    g = Grid(
        buses=grid.buses,
        branches=grid.branches
        + (
            Branch(id=10, from_bus=1, to_bus=2, susceptance=0.0, kind="switch"),
            Branch(id=11, from_bus=2, to_bus=3, susceptance=0.0, kind="switch"),
        ),
    )
    path = tmp_path / "grid.json"
    path.write_text(grid_to_json(g))
    doc = {"switches": {"10": "closed", "11": "open"}}
    assert main(
        ["whatif", str(path), "--mods", json.dumps(doc), "--enumerate",
         "--format", "jsonl"]
    ) == 0
    rows = [json.loads(ln) for ln in capsys.readouterr().out.strip().splitlines()]
    assert len(rows) == 4
    assert {r["setting"] for r in rows} == {"00", "01", "10", "11"}


def test_n1_case6ww_row_count(ww_path, capsys):
    assert main(["n1", ww_path, "--format", "jsonl"]) == 0
    rows = [json.loads(ln) for ln in capsys.readouterr().out.strip().splitlines()]
    assert len(rows) == 11
    assert not any(r["islands"] for r in rows)


def test_n1_radial_grid_all_bridges(tmp_path, capsys):
    from gridfactors import random_grid

    grid = random_grid(5, 8, avg_degree=1.0)
    path = tmp_path / "grid.json"
    path.write_text(grid_to_json(grid))
    assert main(["n1", str(path), "--format", "jsonl"]) == 0
    rows = [json.loads(ln) for ln in capsys.readouterr().out.strip().splitlines()]
    assert len(rows) == grid.n_branches
    assert all(r["islands"] for r in rows)


def test_n1_after_split_matches_rebuilt(ww_path, tmp_path, capsys):
    mods = tmp_path / "split.json"
    mods.write_text(json.dumps(SPLIT_DOC))
    assert main(["n1", ww_path, "--after", f"@{mods}", "--format", "jsonl"]) == 0
    rows = [json.loads(ln) for ln in capsys.readouterr().out.strip().splitlines()]
    by_branch = {r["branch"]: r for r in rows}

    # oracle: rebuild the split grid, run the sweep directly
    from gridfactors import (
        SplitSpec,
        lodf_column,
        outage_islands,
        rebuild_and_solve,
        to_grid,
    )
    from gridfactors.cases import case6ww

    case = case6ww()
    split = SplitSpec(
        parent_bus=5, assignments={3: "new", 8: "new"}, new_bus=7,
        injection_to_new=-0.7,
    )
    res = rebuild_and_solve(to_grid(case), splits=[split])
    state = res.flow
    for br in res.grid.branches:
        islands, _ = outage_islands(res.sys, br.id)
        row = by_branch[br.id]
        assert row["islands"] == islands
        if islands:
            continue
        col = lodf_column(res.sys, br.id)
        post = state.flows + col * state.flows[res.grid.branch_index[br.id]]
        want = float(np.max(np.abs(post))) * case.base_mva
        assert row["post_max_flow"] == pytest.approx(want, abs=1e-8)


def test_n1_respects_thread_env(ww_path, capsys, monkeypatch):
    monkeypatch.setenv("GRIDFACTORS_THREADS", "1")
    assert main(["n1", ww_path, "--format", "jsonl"]) == 0
    rows1 = capsys.readouterr().out
    monkeypatch.setenv("GRIDFACTORS_THREADS", "4")
    assert main(["n1", ww_path, "--format", "jsonl"]) == 0
    rows4 = capsys.readouterr().out
    assert rows1 == rows4


def test_whatif_mixed_stages_match_oracle(tmp_path, capsys):
    # one susceptance delta, one switch closing and one bus split in a
    # single modification set, checked against a full rebuild
    from gridfactors import Branch, Grid, random_grid, rebuild_and_solve

    grid = random_grid(19, 10, 2.6)
    grid = Grid(
        buses=grid.buses,
        branches=grid.branches
        + (Branch(id=200, from_bus=2, to_bus=7, susceptance=0.0, kind="switch"),),
    )
    path = tmp_path / "grid.json"
    path.write_text(grid_to_json(grid))
    target = grid.branches[0]
    parent = 4
    incident = [br.id for br in grid.branches_at(parent) if br.id != 200]
    doc = {
        "deltas": [{"branch": target.id, "db": 0.4 * target.susceptance}],
        "switches": {"200": "closed"},
        "splits": [
            {
                "parent": parent,
                "assignments": {str(incident[0]): "new"},
                "injection_to_new": grid.bus(parent).injection,
            }
        ],
    }
    code = main(["whatif", str(path), "--mods", json.dumps(doc), "--format", "jsonl"])
    if code == 4:
        pytest.skip("sampled modification islanded the grid")
    assert code == 0
    rows = [json.loads(ln) for ln in capsys.readouterr().out.strip().splitlines()]
    got = {r["branch"]: r["post"] for r in rows}

    from gridfactors import SplitSpec

    ref = rebuild_and_solve(
        grid,
        deltas=[(target.id, 0.4 * target.susceptance)],
        closed_switches=[200],
        splits=[
            SplitSpec(
                parent_bus=parent,
                assignments={incident[0]: "new"},
                injection_to_new=grid.bus(parent).injection,
            )
        ],
        large_b=1e9,
    )
    for e, br in enumerate(ref.grid.branches):
        assert got[br.id] == pytest.approx(ref.flow.flows[e], abs=2e-5), br.id


def test_bench_smoke(capsys):
    assert main(["bench", "--n-buses", "80", "--mods", "2", "--reps", "3"]) == 0
    out = capsys.readouterr().out
    assert "speedup" in out
    assert "relative_deviation" in out


def test_shift_flag_changes_flows(ww_path, capsys):
    assert main(["flows", ww_path, "--shift", "9=0.05", "--format", "jsonl"]) == 0
    rows = [json.loads(ln) for ln in capsys.readouterr().out.strip().splitlines()]
    flows_shifted = {r["branch"]: r["flow"] for r in rows}
    assert main(["flows", ww_path, "--format", "jsonl"]) == 0
    rows0 = [json.loads(ln) for ln in capsys.readouterr().out.strip().splitlines()]
    flows_base = {r["branch"]: r["flow"] for r in rows0}
    assert flows_shifted[9] != pytest.approx(flows_base[9])


def _n1_jsonl(path, capsys):
    assert main(["n1", str(path), "--format", "jsonl"]) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("seed", range(4))
def test_n1_matches_per_branch_calls(seed, tmp_path, capsys, monkeypatch):
    from gridfactors import build_grounded_system, lodf_column, outage_islands, solve_flow

    grid = screening_grid(seed, 40, 2.2)
    path = tmp_path / "grid.json"
    path.write_text(grid_to_json(grid))
    text = _n1_jsonl(path, capsys)
    # blocks of 7 outages: the sweep crosses several block boundaries
    monkeypatch.setattr(cli, "N1_BLOCK_BYTES", 8 * grid.n_branches * 7)
    assert _n1_jsonl(path, capsys) == text
    rows = [json.loads(ln) for ln in text.strip().splitlines()]

    live = [br for br in grid.branches if br.in_service]
    assert sorted(r["branch"] for r in rows) == sorted(br.id for br in live)
    assert any(r["islands"] for r in rows) and not all(r["islands"] for r in rows)

    sys = build_grounded_system(grid)
    f = solve_flow(sys).flows
    by_branch = {r["branch"]: r for r in rows}
    for br in live:
        row = by_branch[br.id]
        islands, criterion = outage_islands(sys, br.id)
        assert row["islands"] is islands
        assert row["criterion"] == pytest.approx(criterion, rel=1e-9, abs=1e-12)
        if islands:
            assert math.isnan(row["post_max_flow"])
            continue
        col = lodf_column(sys, br.id)
        want = float(np.max(np.abs(f + col * f[grid.branch_index[br.id]])))
        assert row["post_max_flow"] == pytest.approx(want, rel=1e-9)

    keys = [
        (not r["islands"], 0.0 if r["islands"] else -r["post_max_flow"], r["branch"])
        for r in rows
    ]
    assert keys == sorted(keys)


def test_n1_all_bridge_grid_raises_no_runtime_warning(tmp_path, capsys):
    from gridfactors import random_grid

    grid = random_grid(5, 8, avg_degree=1.0)
    path = tmp_path / "grid.json"
    path.write_text(grid_to_json(grid))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        text = _n1_jsonl(path, capsys)
    rows = [json.loads(ln) for ln in text.strip().splitlines()]
    assert len(rows) == grid.n_branches
    assert all(r["islands"] and math.isnan(r["post_max_flow"]) for r in rows)


def test_n1_runs_without_thread_pool(ww_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("n1 started a thread pool")

    monkeypatch.setattr(concurrent.futures.ThreadPoolExecutor, "__init__", refuse)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", refuse)
    rows = [json.loads(ln) for ln in _n1_jsonl(ww_path, capsys).strip().splitlines()]
    assert len(rows) == 11


def test_n1_branchless_grid_prints_no_rows(tmp_path, capsys):
    path = tmp_path / "grid.json"
    path.write_text(json.dumps({"buses": [{"id": 1, "slack": True}], "branches": []}))
    assert _n1_jsonl(path, capsys).strip() == ""


@pytest.mark.parametrize(
    "name, text",
    [
        ("nan_pd.m", case6ww_text().replace("\t4\t1\t70\t", "\t4\t1\tNaN\t", 1)),
        ("nan_inj.json", grid_to_json(two_bus(p=0.5)).replace("0.5", '"NaN"', 1)),
    ],
)
def test_non_finite_injection_exit_2(name, text, tmp_path, capsys):
    path = tmp_path / name
    path.write_text(text)
    assert main(["flows", str(path)]) == 2
    assert "must be finite" in capsys.readouterr().err


def _pst_json(shift):
    grid = two_bus(p=0.5)
    pst = replace(grid.branches[0], kind="pst", shift_angle=0.25)
    return grid_to_json(Grid(grid.buses, (pst,))).replace("0.25", shift, 1)


@pytest.mark.parametrize(
    "name, text, flags, message",
    [
        ("shift.m", case6ww_text(), ["--shift", "3=nan"], "branch 3: shift_angle must be finite"),
        ("shift.m", case6ww_text(), ["--shift", "3=inf"], "branch 3: shift_angle must be finite"),
        ("shift.json", _pst_json('"NaN"'), [], "branch 1: shift_angle must be finite"),
        ("base.m", case6ww_text().replace("baseMVA = 100;", "baseMVA = Inf;"), [],
         "baseMVA must be finite and positive, got inf"),
        ("base.m", case6ww_text().replace("baseMVA = 100;", "baseMVA = NaN;"), [],
         "baseMVA must be finite and positive, got nan"),
    ],
    ids=["shift-nan", "shift-inf", "json-shift-nan", "base-inf", "base-nan"],
)
def test_non_finite_shift_or_base_exit_2(name, text, flags, message, tmp_path, capsys):
    path = tmp_path / name
    path.write_text(text)
    assert main(["flows", str(path), *flags]) == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


def _enumerate_rows(grid, switches, tmp_path, capsys):
    path = tmp_path / "sweep.json"
    path.write_text(grid_to_json(grid))
    doc = {"switches": {str(s): "closed" for s in switches}}
    argv = ["whatif", str(path), "--mods", json.dumps(doc), "--enumerate",
            "--format", "jsonl"]
    assert main(argv) == 0
    return [json.loads(ln) for ln in capsys.readouterr().out.strip().splitlines()]


def _per_setting_inverse_rows(grid, switches):
    """Enumerate settings by a merged n x n inverse, a flow solve and the
    KCL recovery of the closed-switch flows: the reference sweep route."""
    from gridfactors import (
        DegenerateSwitchError, IslandingError, SwitchKernel, SwitchStates,
        system_from_inverse,
    )

    kernel = SwitchKernel(build_grounded_system(grid), switches)
    rows = []
    for bits in itertools.product((False, True), repeat=len(switches)):
        setting = "".join("1" if b else "0" for b in bits)
        try:
            B = kernel.merged_inverse(SwitchStates(switches=switches, closed=bits))
            flows = solve_flow(system_from_inverse(grid, B)).flows.copy()
        except (IslandingError, DegenerateSwitchError):
            rows.append({"setting": setting, "max_flow": math.nan, "islands": True})
            continue
        closed = [s for s, b in zip(switches, bits) if b]
        recovered = oracle._closed_switch_flows(grid, grid.injections(), flows, closed)
        for sid, f in recovered.items():
            flows[grid.branch_index[sid]] = f
        rows.append(
            {"setting": setting, "max_flow": float(np.abs(flows).max()), "islands": False}
        )
    return rows


def _assert_rows_match(rows, ref):
    assert [r["setting"] for r in rows] == [r["setting"] for r in ref]
    for row, want in zip(rows, ref):
        assert row["islands"] is want["islands"], row["setting"]
        if want["islands"]:
            assert math.isnan(row["max_flow"])
        else:
            assert row["max_flow"] == pytest.approx(want["max_flow"], rel=1e-9)


@pytest.mark.parametrize("seed", [4, 17, 29])
def test_whatif_enumerate_matches_per_setting_inverse(seed, tmp_path, capsys):
    grid, sids = sweep_grid(seed, 24, n_switches=5)
    rows = _enumerate_rows(grid, sids, tmp_path, capsys)
    _assert_rows_match(rows, _per_setting_inverse_rows(grid, sids))
    assert sum(r["islands"] for r in rows) == 8


@pytest.mark.parametrize("pst", [False, True])
def test_whatif_enumerate_lines_match_per_setting_inverse(pst, ww_grid, tmp_path, capsys):
    # lines and phase shifters listed as switches keep their own flow while
    # open and add it to the closure's flow while closed
    grid = ww_grid
    if pst:
        branches = list(grid.branches)
        branches[2] = replace(branches[2], kind="pst", shift_angle=0.1)
        grid = Grid(buses=grid.buses, branches=tuple(branches))
    sids = (3, 5, 9)
    rows = _enumerate_rows(grid, sids, tmp_path, capsys)
    ref = _per_setting_inverse_rows(grid, sids)
    _assert_rows_match(rows, ref)
    base = np.abs(solve_flow(build_grounded_system(grid)).flows).max()
    assert rows[0]["max_flow"] == pytest.approx(base, rel=1e-12)
    assert not all(r["islands"] for r in rows[1:])


def test_whatif_enumerate_forms_no_inverse_per_setting(tmp_path, capsys, monkeypatch):
    from gridfactors import SwitchKernel

    def refuse(*args, **kwargs):
        raise AssertionError("per-setting inverse route used")

    monkeypatch.setattr(cli, "system_from_inverse", refuse)
    monkeypatch.setattr(oracle, "_closed_switch_flows", refuse)
    monkeypatch.setattr(SwitchKernel, "merged_inverse", refuse)
    grid, sids = sweep_grid(6, 30)
    rows = _enumerate_rows(grid, sids, tmp_path, capsys)
    assert len(rows) == 16
    assert sum(r["islands"] for r in rows) == 4


def test_json_structural_error_reported_as_plain_text(tmp_path, capsys):
    path = tmp_path / "grid.json"
    path.write_text(grid_to_json(two_bus(p=0.5)).replace("0.5", '"NaN"', 1))
    assert main(["flows", str(path)]) == 2
    err = capsys.readouterr().err
    assert "bus 1: injection must be finite, got nan" in err
    assert "GridStructureError(" not in err


@pytest.mark.parametrize(
    "doc",
    [SPLIT_DOC, {"deltas": [{"branch": 2, "db": -0.3}], **SPLIT_DOC}],
    ids=["split", "delta-split"],
)
def test_staged_whatif_factorizes_once(doc, ww_path, capsys, monkeypatch):
    calls = []

    def counting(grid):
        calls.append(grid)
        return build_grounded_system(grid)

    monkeypatch.setattr(cli, "build_grounded_system", counting)
    assert main(["whatif", ww_path, "--mods", json.dumps(doc)]) == 0
    assert len(calls) == 1
    if doc is SPLIT_DOC:
        assert "max |f| = 42.233 on branch (1,7)" in capsys.readouterr().out


def test_cli_import_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(gridfactors.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    code = (
        "import sys, gridfactors.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True, timeout=120,
    )
    assert out.stdout.strip() == "[]"


def test_cli_import_loads_no_logging():
    # case_io logs only when it rebalances a case; the import is paid there
    src = os.path.dirname(os.path.dirname(os.path.abspath(gridfactors.__file__)))
    code = "import sys, gridfactors.cli; print('logging' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True, timeout=120,
    )
    assert out.stdout.strip() == "False"


#: the package's public names, as its eager ``__init__`` imported them
PUBLIC_NAMES = (
    "CaseConversionError CaseParseError DegenerateSwitchError GridFactorsError "
    "GridStructureError IslandingError Branch Bus Grid GroundedSystem IncidenceMatrix "
    "LINE PST SWITCH build_grounded_system build_incidence connected_components "
    "system_from_inverse MatpowerCase grid_from_json grid_to_json parse_matpower "
    "read_factors to_grid write_factors FactorMatrix FlowState compute_flows ptdf_matrix "
    "solve_angles solve_flow BranchDelta OutageFactors lcdf_column lodf_column "
    "outage_factors post_outage_angle_diff ptdf_after_mod updated_inverse "
    "effective_injections psdf_matrix shift_vector ComposedUpdate SplitSpec TriConfig "
    "apply_split bsdf_vector idle_bus_split lodf_after_split merge_inverse merged_ptdf "
    "pad_inverse split_inverse split_ptdf switch_flow ModificationSet SwitchKernel "
    "SwitchStates multi_merge_inverse multi_merge_ptdf multi_ptdf multi_split_inverse "
    "woodbury_update xi_from_states outage_islands split_islands traversal_connectivity "
    "bench_update_vs_rebuild contract_buses pseudo_inverse_check random_grid "
    "rebuild_and_solve rebuild_grid"
).split()


def test_cli_import_loads_only_the_common_modules_and_names_stay_public():
    src = os.path.dirname(os.path.dirname(os.path.abspath(gridfactors.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    code = (
        "import json, sys, gridfactors.cli\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('gridfactors.'))\n"
        "import gridfactors\n"
        "names = json.loads(sys.argv[1])\n"
        "resolved = [n for n in names if getattr(gridfactors, n, None) is not None]\n"
        "in_all = [n for n in names if n in gridfactors.__all__]\n"
        "in_dir = [n for n in names if n in dir(gridfactors)]\n"
        "star = {}\n"
        "exec('from gridfactors import *', star)\n"
        "bound = [n for n in names if n in star]\n"
        "print(json.dumps([loaded, resolved, in_all, in_dir, bound]))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, json.dumps(PUBLIC_NAMES)], env=env,
        capture_output=True, text=True, check=True, timeout=120,
    )
    loaded, resolved, in_all, in_dir, bound = json.loads(out.stdout)
    lazy = {"single_mod", "pst", "bus_topology", "multi_mod", "islanding", "oracle"}
    assert not lazy & {m.split(".", 1)[1] for m in loaded}, loaded
    assert "gridfactors.cli" in loaded
    for got in (resolved, in_all, in_dir, bound):
        assert got == PUBLIC_NAMES
    assert len(set(PUBLIC_NAMES)) == len(PUBLIC_NAMES) == 73
    with pytest.raises(AttributeError, match="no_such_name"):
        gridfactors.no_such_name  # noqa: B018


@pytest.mark.parametrize(
    "argv, n_buses, read_first",
    [
        (["factors"], 200, True),
        (["n1", "--format", "jsonl"], 700, True),
        (["flows", "--format", "jsonl"], 5, False),
    ],
    ids=["factors", "n1-jsonl", "flows-closed-at-once"],
)
def test_closed_stdout_pipe_exits_without_traceback(argv, n_buses, read_first, tmp_path):
    # the factors and n1 outputs are well over a 64 KB pipe buffer, so the
    # writer is still writing when the reader closes its end; the short
    # flows output meets the closed pipe only when stdout is flushed
    path = tmp_path / "grid.json"
    path.write_text(grid_to_json(random_grid(3, n_buses, 2.4)))
    src = os.path.dirname(os.path.dirname(os.path.abspath(gridfactors.__file__)))
    entry = "import sys; from gridfactors.cli import main; sys.exit(main())"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}  # buffered stdout
    proc = subprocess.Popen(
        [sys.executable, "-c", entry, argv[0], str(path), *argv[1:]],
        env={**env, "PYTHONPATH": src},
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    if read_first:
        assert proc.stdout.readline()
    proc.stdout.close()
    _, stderr = proc.communicate(timeout=120)
    assert proc.returncode == cli.EXIT_ERROR
    assert b"Traceback" not in stderr


def _staged_doc(grid, switches):
    """Deltas, switch closings and one split that keep the grid connected."""
    from gridfactors import SplitSpec, connected_components, rebuild_grid

    lines = [br for br in grid.branches if br.in_service]
    deltas = [(lines[1].id, -0.5 * lines[1].susceptance), (lines[2].id, 0.3)]
    for bus in grid.buses:
        incident = [br.id for br in grid.branches_at(bus.id)]
        if len(incident) < 3:
            continue
        split = SplitSpec(
            parent_bus=bus.id, assignments={incident[0]: "new"},
            injection_to_new=0.5 * bus.injection,
        )
        rebuilt = rebuild_grid(grid, deltas=deltas, closed_switches=switches, splits=[split])
        if len(connected_components(rebuilt)) == 1:
            break
    else:
        raise AssertionError("no split keeps this grid connected")
    return {
        "deltas": [{"branch": b, "db": d} for b, d in deltas],
        "switches": {str(s): "closed" for s in switches},
        "splits": [{
            "parent": split.parent_bus,
            "assignments": {str(b): side for b, side in split.assignments.items()},
            "injection_to_new": split.injection_to_new,
        }],
    }


def test_no_request_builds_the_dense_incidence(tmp_path, capsys, monkeypatch):
    from gridfactors import bus_topology, grid_model

    def refuse(*args, **kwargs):
        raise AssertionError("dense incidence or open-grid Laplacian built")

    monkeypatch.setattr(grid_model, "_incidence", refuse)
    monkeypatch.setattr(bus_topology, "_incidence", refuse)
    monkeypatch.setattr(bus_topology, "_grounded_laplacian", refuse)
    screening = screening_grid(4, 40)
    sweep, sids = sweep_grid(4, 40)
    cases = [(screening, [screening.branches[-1].id]), (sweep, list(sids[1:3]))]
    for k, (grid, closed) in enumerate(cases):
        path = tmp_path / f"grid_{k}.json"
        path.write_text(grid_to_json(grid))
        mods = tmp_path / f"mods_{k}.json"
        mods.write_text(json.dumps(_staged_doc(grid, closed)))
        sweep_mods = json.dumps({"switches": {str(s): "open" for s in closed}})
        for argv in (
            ["flows", str(path)],
            ["factors", str(path), "--kind", "ptdf"],
            ["factors", str(path), "--kind", "psdf"],
            ["whatif", str(path), "--mods", str(mods)],
            ["whatif", str(path), "--mods", sweep_mods, "--enumerate"],
            ["n1", str(path)],
            ["n1", str(path), "--after", str(mods)],
        ):
            assert main(argv) == 0, argv
            assert capsys.readouterr().out


def test_no_request_factorizes_the_full_grounded_matrix(tmp_path, capsys, monkeypatch):
    # buses of degree <= 2 are eliminated first: only the meshed core is
    # scattered and factorized, never the full n x n grounded Laplacian
    from gridfactors import grid_model

    screening = screening_grid(4, 40)
    sweep, sids = sweep_grid(4, 40)
    full = 39  # the grounded order of both grids
    scatter, cholesky = grid_model._grounded_laplacian, np.linalg.cholesky
    orders = []

    def core_only(ends, b, n):
        if n == full:
            raise AssertionError("full grounded Laplacian scattered")
        return scatter(ends, b, n)

    def recording(a):
        orders.append(a.shape[0])
        return cholesky(a)

    monkeypatch.setattr(grid_model, "_grounded_laplacian", core_only)
    monkeypatch.setattr(np.linalg, "cholesky", recording)
    cases = [(screening, [screening.branches[-1].id]), (sweep, list(sids[1:3]))]
    for k, (grid, closed) in enumerate(cases):
        assert grid.n_buses - 1 == full
        path = tmp_path / f"grid_{k}.json"
        path.write_text(grid_to_json(grid))
        mods = tmp_path / f"mods_{k}.json"
        mods.write_text(json.dumps(_staged_doc(grid, closed)))
        sweep_mods = json.dumps({"switches": {str(s): "open" for s in closed}})
        for argv in (
            ["flows", str(path)],
            ["factors", str(path), "--kind", "ptdf"],
            ["factors", str(path), "--kind", "psdf"],
            ["whatif", str(path), "--mods", str(mods)],
            ["whatif", str(path), "--mods", sweep_mods, "--enumerate"],
            ["n1", str(path)],
            ["n1", str(path), "--after", str(mods)],
        ):
            orders.clear()
            assert main(argv) == 0, argv
            assert capsys.readouterr().out
            assert orders and max(orders) < full, (argv, orders)


@pytest.mark.parametrize(
    "mods", ['{"deltas": [{"db": 1}]}', '{"switches": {"x": "closed"}}'],
    ids=["delta-without-branch", "non-integer-switch-id"],
)
def test_malformed_modification_entry_exits_2(mods, ww_path, capsys):
    for argv in (["whatif", ww_path, "--mods", mods], ["n1", ww_path, "--after", mods]):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: bad ") and "Traceback" not in err


def test_delta_on_a_switch_is_rejected(tmp_path, capsys):
    # a delta would close the switch at a finite susceptance while the final
    # grid still counts it as an open switch, breaking the bus balance
    grid, (sid,) = add_switches(random_grid(3, 8, 2.4), [(2, 6)])
    path = tmp_path / "grid.json"
    path.write_text(grid_to_json(grid))
    doc = json.dumps({"deltas": [{"branch": sid, "db": 1.0}]})
    assert main(["whatif", str(path), "--mods", doc]) == 2
    assert f"branch {sid} is a switch" in capsys.readouterr().err
    assert main(["n1", str(path), "--after", doc]) == 2
    assert f"branch {sid} is a switch" in capsys.readouterr().err


def test_split_connected_only_through_a_moved_closed_switch(tmp_path, capsys):
    # the new bus keeps one branch, a closed switch: the final grid is
    # connected and the switch carries the injection moved to the new bus
    from gridfactors import SplitSpec, rebuild_and_solve

    grid, (sid,) = add_switches(random_grid(3, 8, 2.4), [(7, 4)])
    split = SplitSpec(parent_bus=4, assignments={sid: "new"},
                      injection_to_new=0.5 * grid.bus(4).injection)
    path = tmp_path / "grid.json"
    path.write_text(grid_to_json(grid))
    doc = {
        "switches": {str(sid): "closed"},
        "splits": [{"parent": 4, "assignments": {str(sid): "new"},
                    "injection_to_new": split.injection_to_new}],
    }
    assert main(["whatif", str(path), "--mods", json.dumps(doc), "--format", "jsonl"]) == 0
    rows = [json.loads(ln) for ln in capsys.readouterr().out.strip().splitlines()]
    ref = rebuild_and_solve(grid, closed_switches=[sid], splits=[split])
    assert [r["branch"] for r in rows] == list(ref.grid.branch_ids)
    scale = max(1.0, np.abs(ref.flow.flows).max())  # the 1e9-line oracle is good to ~1e-5
    np.testing.assert_allclose(
        [r["post"] for r in rows], ref.flow.flows, rtol=0, atol=1e-5 * scale
    )
    assert rows[-1]["post"] == pytest.approx(-split.injection_to_new, rel=1e-9)


def test_whatif_forms_no_updated_inverse(ww_path, tmp_path, capsys, monkeypatch):
    from gridfactors import bus_topology, factors_base, multi_mod

    def refuse(*args, **kwargs):
        raise AssertionError("updated inverse formed")

    monkeypatch.setattr(factors_base._LowRank, "updated", refuse)
    monkeypatch.setattr(bus_topology, "pad_inverse", refuse)
    for name in ("multi_split_inverse", "woodbury_update", "multi_merge_inverse"):
        monkeypatch.setattr(multi_mod, name, refuse)
    mods = tmp_path / "split.json"
    mods.write_text(json.dumps(SPLIT_DOC))
    assert main(["whatif", ww_path, "--mods", f"@{mods}"]) == 0
    assert "max |f| = 42.233 on branch (1,7)" in capsys.readouterr().out
    # deltas, closings and a split together
    grid, sids = sweep_grid(4, 40)
    path = tmp_path / "grid.json"
    path.write_text(grid_to_json(grid))
    doc = json.dumps(_staged_doc(grid, list(sids[1:3])))
    assert main(["whatif", str(path), "--mods", doc]) == 0
    assert "max |f| = " in capsys.readouterr().out


def test_enumerate_rejects_a_bad_switch_state(tmp_path, capsys):
    grid, sids = sweep_grid(3, 14)
    path = tmp_path / "sweep.json"
    path.write_text(grid_to_json(grid))
    doc = json.dumps({"switches": {str(sids[0]): "bogus", str(sids[1]): "open"}})
    assert main(["whatif", str(path), "--mods", doc, "--enumerate"]) == 2
    err = capsys.readouterr().err
    assert f"switch {sids[0]}: state must be 'open' or 'closed'" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "extra, named",
    [
        ({"deltas": [{"branch": 1, "db": 0.5}]}, "['deltas']"),
        ({"splits": []}, "['splits']"),
        ({"splits": [], "deltas": []}, "['deltas', 'splits']"),
    ],
    ids=["deltas", "splits", "both"],
)
def test_enumerate_rejects_entries_it_would_ignore(extra, named, tmp_path, capsys):
    grid, sids = sweep_grid(3, 14)
    path = tmp_path / "sweep.json"
    path.write_text(grid_to_json(grid))
    doc = json.dumps({"switches": {str(s): "open" for s in sids}, **extra})
    assert main(["whatif", str(path), "--mods", doc, "--enumerate"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --enumerate") and named in err


def test_multi_mod_import_loads_neither_bus_topology_nor_single_mod():
    src = os.path.dirname(os.path.dirname(os.path.abspath(gridfactors.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    code = (
        "import sys\n"
        "import numpy as np\n"
        "import gridfactors.multi_mod as mm\n"
        "print(sorted(m for m in ('gridfactors.bus_topology', 'gridfactors.single_mod')"
        " if m in sys.modules))\n"
        "from gridfactors import (SplitSpec, build_grounded_system, merge_inverse,\n"
        "    pad_inverse, random_grid, switch_flow)\n"
        "from gridfactors.cases import case6ww\n"
        "from gridfactors.case_io import to_grid\n"
        "sys6 = build_grounded_system(to_grid(case6ww()))\n"
        "mods = mm.ModificationSet(entries=((1, 0.5), (4, -0.2)))\n"
        "assert np.isfinite(mm.woodbury_update(sys6, mods)).all()\n"
        "assert np.isfinite(mm.multi_ptdf(sys6, mods).values).all()\n"
        "split = SplitSpec(parent_bus=5, assignments={3: 'new', 8: 'new'}, new_bus=7,\n"
        "    injection_to_new=-0.7)\n"
        "assert np.isfinite(mm.multi_split_inverse(pad_inverse(sys6, split))).all()\n"
        "assert np.isfinite(merge_inverse(sys6, 1)).all()\n"
        "assert np.isfinite(switch_flow(sys6, 1))\n"
        "print('ok')\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True, timeout=120,
    )
    assert out.stdout.split() == ["[]", "ok"]
