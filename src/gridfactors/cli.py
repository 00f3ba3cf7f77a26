"""Command-line front end: flows, factor export, what-if studies, (n-1)
screening and the update-versus-rebuild benchmark.

Exit codes: 0 success, 2 unreadable input, 3 disconnected base grid,
4 modification islands the grid, 1 other errors. Matpower-derived flows
are reported in MW (per-unit values scaled by the case base); native JSON
grids are reported as-is.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys as _sys
from dataclasses import replace

import numpy as np

from . import (
    CaseConversionError,
    CaseParseError,
    DegenerateSwitchError,
    FactorMatrix,
    Grid,
    GridStructureError,
    GroundedSystem,
    IslandingError,
    ModificationSet,
    SplitSpec,
    SwitchKernel,
    SwitchStates,
    bench_update_vs_rebuild,
    build_grounded_system,
    compute_flows,
    grid_from_json,
    multi_merge_inverse,
    multi_split_inverse,
    outage_factors,
    pad_inverse,
    parse_matpower,
    psdf_matrix,
    ptdf_matrix,
    rebuild_grid,
    solve_flow,
    system_from_inverse,
    to_grid,
    woodbury_update,
    write_factors,
)
from .grid_model import PST, SWITCH

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_PARSE = 2
EXIT_DISCONNECTED = 3
EXIT_ISLANDS = 4

#: target size of one m x k LODF block in the n-1 sweep
N1_BLOCK_BYTES = 4 << 20


def load_case(path: str) -> tuple[Grid, float]:
    """Read a Matpower .m or native .json grid; returns (grid, power base)."""
    with open(path) as fh:
        text = fh.read()
    if path.endswith(".json") or text.lstrip().startswith("{"):
        return grid_from_json(text), 1.0
    case = parse_matpower(text)
    return to_grid(case), case.base_mva


def _apply_shift_flags(grid: Grid, shift_args: list[str]) -> Grid:
    """Turn --shift branch=radians flags into PST branches on the grid."""
    if not shift_args:
        return grid
    shifts: dict[int, float] = {}
    for arg in shift_args:
        branch_id, _, angle = arg.partition("=")
        try:
            shifts[int(branch_id)] = float(angle)
        except ValueError:
            raise CaseParseError(f"bad --shift value {arg!r}, expected branch=radians")
    branches = []
    for br in grid.branches:
        if br.id in shifts:
            if br.kind == SWITCH:
                raise GridStructureError(f"branch {br.id}: cannot shift a switch")
            branches.append(replace(br, kind=PST, shift_angle=shifts[br.id]))
        else:
            branches.append(br)
    return Grid(buses=grid.buses, branches=tuple(branches))


def _print_rows(rows: list[dict], fmt: str) -> None:
    if not rows:
        return
    keys = list(rows[0])
    if fmt == "jsonl":
        for row in rows:
            print(json.dumps(row))
    elif fmt == "csv":
        print(",".join(keys))
        for row in rows:
            print(",".join(_cell(row[k]) for k in keys))
    else:
        widths = {
            k: max(len(k), *(len(_cell(r[k])) for r in rows)) for k in keys
        }
        print("  ".join(k.ljust(widths[k]) for k in keys))
        for row in rows:
            print("  ".join(_cell(row[k]).ljust(widths[k]) for k in keys))


def _cell(v) -> str:
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)


def _flow_rows(grid: Grid, flows: np.ndarray, scale: float) -> list[dict]:
    return [
        {
            "branch": br.id,
            "from": br.from_bus,
            "to": br.to_bus,
            "flow": float(flows[e] * scale),
        }
        for e, br in enumerate(grid.branches)
    ]


def _closed_switch_flows(
    grid: Grid, p: np.ndarray, flows: np.ndarray, closed: list[int]
) -> dict[int, float]:
    """Recover the flows over closed switches from the bus balances.

    The merged solution leaves closed switches with zero formal flow (their
    assembly susceptance is zero); the physical flows are the unique values
    that restore Kirchhoff's law at every bus, a small least-squares solve
    over the closed-switch incidence.
    """
    if not closed:
        return {}
    residual = np.asarray(p, dtype=float).copy()
    bidx = grid.bus_index
    closed_set = set(closed)
    for e, br in enumerate(grid.branches):
        if br.id in closed_set:
            continue
        residual[bidx[br.from_bus]] -= flows[e]
        residual[bidx[br.to_bus]] += flows[e]
    cols = np.zeros((grid.n_buses, len(closed)))
    for k, sid in enumerate(closed):
        br = grid.branch(sid)
        cols[bidx[br.from_bus], k] = 1.0
        cols[bidx[br.to_bus], k] = -1.0
    x, *_ = np.linalg.lstsq(cols, residual, rcond=None)
    return dict(zip(closed, x))


def cmd_flows(args) -> int:
    grid, base = load_case(args.case)
    grid = _apply_shift_flags(grid, args.shift)
    sys = build_grounded_system(grid)
    state = solve_flow(sys)
    rows = _flow_rows(grid, state.flows, base)
    _print_rows(rows, args.format)
    branch_id, value = state.max_loaded()
    br = grid.branch(branch_id)
    if args.format == "table":
        print(
            f"max |f| = {value * base:.3f} on branch ({br.from_bus},{br.to_bus}) "
            f"[id {branch_id}]"
        )
    return EXIT_OK


def cmd_factors(args) -> int:
    grid, _ = load_case(args.case)
    grid = _apply_shift_flags(grid, args.shift)
    sys = build_grounded_system(grid)
    matrix: FactorMatrix
    if args.kind == "ptdf":
        matrix = ptdf_matrix(sys)
    else:
        matrix = psdf_matrix(sys)
    write_factors(matrix, args.out or _sys.stdout)
    return EXIT_OK


def _load_modset(raw: str) -> dict:
    """Modification JSON, given inline or as @file / plain file path."""
    if raw.startswith("@"):
        with open(raw[1:]) as fh:
            raw = fh.read()
    elif os.path.exists(raw):
        with open(raw) as fh:
            raw = fh.read()
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise CaseParseError(f"bad modification JSON: {exc}")
    if not isinstance(doc, dict):
        raise CaseParseError("modification JSON must be an object")
    return doc


def _split_from_doc(doc: dict) -> SplitSpec:
    try:
        return SplitSpec(
            parent_bus=int(doc["parent"]),
            assignments={int(k): str(v) for k, v in doc.get("assignments", {}).items()},
            new_bus=int(doc["new_bus"]) if "new_bus" in doc else None,
            injection_to_new=(
                float(doc["injection_to_new"]) if "injection_to_new" in doc else None
            ),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise CaseParseError(f"bad split specification: {exc!r}")


def apply_modifications(grid: Grid, doc: dict, sys: GroundedSystem | None = None):
    """Run the staged update pipeline: deltas, then merges, then splits.

    Returns the final grid and the system carrying its updated inverse;
    every stage works on the previous stage's inverse without any
    refactorization. ``sys`` is the grounded system of ``grid`` when the
    caller has already built it; otherwise it is built here. A switch that
    ends at a split's parent bus (other than the slack) or moves to its new
    bus is set after the splits, on the split grid: the split expression
    holds only while no closed switch ends at a grounded bus of an opened
    coupler.
    """
    if sys is None:
        sys = build_grounded_system(grid)

    deltas = [(int(d["branch"]), float(d["db"])) for d in doc.get("deltas", [])]
    if deltas:
        B1 = woodbury_update(sys, ModificationSet(entries=tuple(deltas)))
        grid = rebuild_grid(grid, deltas=deltas)
        sys = system_from_inverse(grid, B1)

    switches = {int(k): v for k, v in doc.get("switches", {}).items()}
    splits = [_split_from_doc(d) for d in doc.get("splits", [])]
    late = {
        s for s in switches if s in grid.branch_index and any(
            sp.parent_bus in (grid.branch(s).from_bus, grid.branch(s).to_bus)
            and (sp.parent_bus != grid.slack or sp.assignments.get(s) == "new")
            for sp in splits
        )
    }

    def merge(grid: Grid, sys: GroundedSystem, picked: dict) -> GroundedSystem:
        if not picked:
            return sys
        return system_from_inverse(
            grid, multi_merge_inverse(sys, SwitchStates.from_mapping(picked))
        )

    sys = merge(grid, sys, {s: v for s, v in switches.items() if s not in late})
    if splits:
        tri = pad_inverse(sys, splits)
        B3 = multi_split_inverse(tri)
        grid = tri.grid_o
        sys = system_from_inverse(grid, B3)
    return grid, merge(grid, sys, {s: switches[s] for s in late})


def cmd_whatif(args) -> int:
    grid, base = load_case(args.case)
    doc = _load_modset(args.mods)
    sys0 = build_grounded_system(grid)
    pre = solve_flow(sys0)

    if args.enumerate:
        switches = sorted(int(k) for k in doc.get("switches", {}))
        if not switches:
            raise CaseParseError("--enumerate requires a 'switches' entry")
        kernel = SwitchKernel(sys0, switches)
        shifts = grid.shift_angles()
        rows = []
        for bits in itertools.product((False, True), repeat=len(switches)):
            states = SwitchStates(switches=tuple(switches), closed=bits)
            setting = "".join("1" if b else "0" for b in bits)
            try:
                theta, switch_flows = kernel.merged_angles(states, pre.angles)
            except DegenerateSwitchError:
                rows.append({"setting": setting, "max_flow": float("nan"), "islands": True})
                continue
            flows = compute_flows(sys0, theta, shifts).flows
            # a closed entry carries its own flow plus the closure's; an open
            # one (a line or PST listed as a switch) has a zero closure flow
            flows[kernel.cols] += switch_flows
            rows.append(
                {
                    "setting": setting,
                    "max_flow": float(np.max(np.abs(flows))) * base,
                    "islands": False,
                }
            )
        _print_rows(rows, args.format)
        return EXIT_OK

    try:
        grid_m, sys_m = apply_modifications(grid, doc, sys0)
    except IslandingError as exc:
        print(f"modification islands the grid: {exc}", file=_sys.stderr)
        if exc.criterion is not None:
            print(f"criterion value: {exc.criterion:.6g}", file=_sys.stderr)
        return EXIT_ISLANDS
    post = solve_flow(sys_m)
    closed = [
        int(k)
        for k, v in doc.get("switches", {}).items()
        if v in ("closed", True)
    ]
    switch_flows = _closed_switch_flows(
        grid_m, grid_m.injections(), post.flows, closed
    )
    pre_by_id = dict(zip(grid.branch_ids, pre.flows))
    rows = []
    flows_out = post.flows.copy()
    for e, br in enumerate(grid_m.branches):
        if br.id in switch_flows:
            flows_out[e] = switch_flows[br.id]
        f_post = float(flows_out[e]) * base
        f_pre = float(pre_by_id.get(br.id, 0.0)) * base
        rows.append(
            {
                "branch": br.id,
                "from": br.from_bus,
                "to": br.to_bus,
                "pre": f_pre,
                "post": f_post,
                "delta": f_post - f_pre,
            }
        )
    _print_rows(rows, args.format)
    worst = int(np.argmax(np.abs(flows_out)))
    br = grid_m.branches[worst]
    if args.format == "table":
        print(
            f"max |f| = {abs(flows_out[worst]) * base:.3f} on branch "
            f"({br.from_bus},{br.to_bus}) [id {br.id}]"
        )
    return EXIT_OK


def cmd_n1(args) -> int:
    grid, base = load_case(args.case)
    if args.after:
        doc = _load_modset(args.after)
        try:
            grid, sys = apply_modifications(grid, doc)
        except IslandingError as exc:
            print(f"pre-modification islands the grid: {exc}", file=_sys.stderr)
            return EXIT_ISLANDS
    else:
        sys = build_grounded_system(grid)
    f = solve_flow(sys).flows
    candidates = np.flatnonzero([br.in_service for br in grid.branches])
    # blocks of outages keep every m x k temporary near N1_BLOCK_BYTES
    block = max(1, N1_BLOCK_BYTES // (8 * max(1, grid.n_branches)))
    results = []
    for start in range(0, len(candidates), block):
        cols = candidates[start : start + block]
        out = outage_factors(sys, cols)
        ok = ~out.islands
        post = np.full(len(cols), np.nan)
        post[ok] = np.abs(f[:, None] + out.lodf[:, ok] * f[cols[ok]]).max(axis=0) * base
        for j, e in enumerate(cols):
            br = grid.branches[e]
            results.append(
                {
                    "branch": br.id,
                    "from": br.from_bus,
                    "to": br.to_bus,
                    "islands": bool(out.islands[j]),
                    "criterion": float(out.criterion[j]),
                    "post_max_flow": float(post[j]),
                }
            )
    results.sort(
        key=lambda r: (
            not r["islands"],
            -(r["post_max_flow"] if r["post_max_flow"] == r["post_max_flow"] else 0.0),
            r["branch"],
        )
    )
    _print_rows(results, args.format)
    return EXIT_OK


def cmd_bench(args) -> int:
    result = bench_update_vs_rebuild(
        n_buses=args.n_buses, n_mods=args.mods, reps=args.reps, seed=args.seed
    )
    for key, value in result.items():
        print(f"{key}: {_cell(value)}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridfactors",
        description="Distribution factors and topology what-ifs for DC power flow.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("case", help="Matpower .m or native .json grid file")
        p.add_argument(
            "--format", choices=("table", "csv", "jsonl"), default="table"
        )

    p = sub.add_parser("flows", help="baseline branch flows")
    add_common(p)
    p.add_argument(
        "--shift",
        action="append",
        default=[],
        metavar="BRANCH=RAD",
        help="apply a phase shift to a branch (repeatable)",
    )
    p.set_defaults(func=cmd_flows)

    p = sub.add_parser("factors", help="export a factor matrix as CSV")
    p.add_argument("case")
    p.add_argument("--kind", choices=("ptdf", "psdf"), default="ptdf")
    p.add_argument("--out", help="output path (default: stdout)")
    p.add_argument("--shift", action="append", default=[], metavar="BRANCH=RAD")
    p.set_defaults(func=cmd_factors)

    p = sub.add_parser("whatif", help="evaluate a modification set")
    add_common(p)
    p.add_argument(
        "--mods",
        required=True,
        help="modification JSON (inline, @file, or file path)",
    )
    p.add_argument(
        "--enumerate",
        action="store_true",
        help="sweep all switch settings of the modification set",
    )
    p.set_defaults(func=cmd_whatif)

    p = sub.add_parser("n1", help="single-outage screening")
    add_common(p)
    p.add_argument("--after", help="modification JSON applied before screening")
    p.set_defaults(func=cmd_n1)

    p = sub.add_parser("bench", help="update vs rebuild timing")
    p.add_argument("--n-buses", type=int, default=500)
    p.add_argument("--mods", type=int, default=3)
    p.add_argument("--reps", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        _sys.stdout.flush()  # a closed pipe raises here rather than at exit
        return code
    except BrokenPipeError:
        # the reader went away; point stdout at devnull so the interpreter's
        # own flush at exit cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, _sys.stdout.fileno())
        os.close(devnull)
        return EXIT_ERROR
    except (CaseParseError, CaseConversionError, GridStructureError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_PARSE
    except IslandingError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_DISCONNECTED
    except DegenerateSwitchError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
