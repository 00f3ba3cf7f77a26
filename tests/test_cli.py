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
from gridfactors import Grid, build_grounded_system, cli, grid_to_json, random_grid, solve_flow
from gridfactors.cases import case6ww_text
from gridfactors.cli import main

from conftest import screening_grid, sweep_grid, triangle, two_bus


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
        recovered = cli._closed_switch_flows(grid, grid.injections(), flows, closed)
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
    monkeypatch.setattr(cli, "_closed_switch_flows", refuse)
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
