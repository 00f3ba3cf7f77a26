"""Command-line front end: flows, factor export, what-if studies, (n-1)
screening and the update-versus-rebuild benchmark.

Exit codes: 0 success, 2 unreadable input, 3 disconnected base grid,
4 modification islands the grid, 1 other errors (an ill-conditioned update
among them). Matpower-derived flows are reported in MW (per-unit values
scaled by the case base); native JSON grids are reported as-is.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys as _sys
from dataclasses import replace
from typing import TYPE_CHECKING

import numpy as np

from .case_io import grid_from_json, parse_matpower, to_grid, write_factors
from .errors import (
    CaseConversionError,
    CaseParseError,
    DegenerateSwitchError,
    GridStructureError,
    IslandingError,
)
from .factors_base import ptdf_rows, solve_flow
from .grid_model import (
    PST,
    SWITCH,
    Grid,
    GroundedSystem,
    _branch_col,
    _system,
    build_grounded_system,
)

if TYPE_CHECKING:
    from .bus_topology import ComposedUpdate, SplitSpec

# Modules that only some commands use (single_mod, pst, bus_topology,
# multi_mod, oracle) are imported inside those commands, so a request
# compiles and runs only the code it calls.

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_PARSE = 2
EXIT_DISCONNECTED = 3
EXIT_ISLANDS = 4

#: target size of one block of the n-1 screen (at most k x m LODF entries) and
#: of a switch sweep's blocks
N1_BLOCK_BYTES = 4 << 20


def _read_text(path: str) -> str:
    """The text of a file; CaseParseError (exit 2) if it cannot be opened or decoded."""
    try:
        with open(path) as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise CaseParseError(f"cannot read {path}: {getattr(exc, 'strerror', None) or exc}")


def load_case(path: str) -> tuple[Grid, float]:
    """Read a Matpower .m or native .json grid; returns (grid, power base)."""
    text = _read_text(path)
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
    branches = list(grid.branches)
    for branch_id, angle in shifts.items():
        e = _branch_col(grid, branch_id)  # GridStructureError if unknown
        if branches[e].kind == SWITCH:
            raise GridStructureError(f"branch {branch_id}: cannot shift a switch")
        branches[e] = replace(branches[e], kind=PST, shift_angle=angle)
    return Grid(buses=grid.buses, branches=tuple(branches))


def _print_rows(rows: list[dict], fmt: str) -> None:
    if not rows:
        return
    keys = list(rows[0])
    if fmt == "jsonl":
        print("\n".join(_jsonl_lines(rows)))
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


def _jsonl_lines(rows: list[dict]) -> list[str]:
    """``json.dumps`` per row: unlike the factor CSV's, a faster writer shows in no request."""
    return [json.dumps(r) for r in rows]


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


def _print_max(grid: Grid, flows: np.ndarray, scale: float, fmt: str) -> None:
    """Table footer: the largest |flow| and its branch."""
    if fmt == "table":
        e = int(np.argmax(np.abs(flows)))
        br = grid.branches[e]
        print(
            f"max |f| = {abs(flows[e]) * scale:.3f} on branch "
            f"({br.from_bus},{br.to_bus}) [id {br.id}]"
        )


def cmd_flows(args) -> int:
    grid, base = load_case(args.case)
    grid = _apply_shift_flags(grid, args.shift)
    sys = build_grounded_system(grid)
    state = solve_flow(sys)
    rows = _flow_rows(grid, state.flows, base)
    _print_rows(rows, args.format)
    _print_max(grid, state.flows, base, args.format)
    return EXIT_OK


def cmd_factors(args) -> int:
    grid, _ = load_case(args.case)
    grid = _apply_shift_flags(grid, args.shift)
    sys = build_grounded_system(grid)
    if args.kind == "ptdf":
        rows = ptdf_rows(sys)
    else:
        from .pst import psdf_rows

        rows = psdf_rows(sys)
    try:
        sink = open(args.out, "w") if args.out else contextlib.nullcontext(_sys.stdout)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc.strerror or exc}", file=_sys.stderr)
        return EXIT_ERROR
    with sink as fh:
        write_factors(rows, fh)  # each block computed as it is written
    return EXIT_OK


def _load_modset(raw: str) -> dict:
    """Modification JSON from an existing file, else inline (starting with ``{``
    or ``[``), else an @file / plain file path; its keys are ``deltas``,
    ``switches`` and ``splits``."""
    if os.path.exists(raw) or not raw.lstrip().startswith(("{", "[")):
        raw = _read_text(raw.removeprefix("@"))
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise CaseParseError(f"bad modification JSON: {exc}")
    if not isinstance(doc, dict):
        raise CaseParseError("modification JSON must be an object")
    if unknown := sorted(doc.keys() - {"deltas", "switches", "splits"}):
        raise CaseParseError(
            f"unknown modification keys {unknown}; expected deltas, switches, splits"
        )
    return doc


def _id(v, key: bool = False) -> int:
    """A bus or branch id of a modification JSON: a JSON integer (no bool), or
    as an object key, always a string in JSON, a string of decimal digits."""
    if not (v.isascii() and v.removeprefix("-").isdigit() if key else type(v) is int):
        raise ValueError(f"id must be an integer, got {v!r}")
    return int(v)


def _splits_from_doc(doc: dict) -> list[SplitSpec]:
    from .bus_topology import SplitSpec

    try:
        return [
            SplitSpec(
                parent_bus=_id(d["parent"]),
                assignments={_id(k, key=True): str(v) for k, v in d.get("assignments", {}).items()},
                new_bus=_id(d["new_bus"]) if "new_bus" in d else None,
                injection_to_new=float(d["injection_to_new"]) if "injection_to_new" in d else None,
            )
            for d in doc.get("splits", [])
        ]
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise CaseParseError(f"bad split specification: {exc!r}")


def _switches_from_doc(doc: dict) -> dict:
    """The ``switches`` entry of a modification JSON, keyed by integer id."""
    try:
        return {_id(k, key=True): v for k, v in doc.get("switches", {}).items()}
    except (AttributeError, TypeError, ValueError) as exc:
        raise CaseParseError(f"bad switch settings: {exc!r}")


def _composed_update(doc: dict, sys: GroundedSystem) -> ComposedUpdate:
    """The modification JSON as one composed low-rank update of ``sys``."""
    from .bus_topology import ComposedUpdate
    from .multi_mod import SwitchStates

    try:
        deltas = [(_id(d["branch"]), float(d["db"])) for d in doc.get("deltas", [])]
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise CaseParseError(f"bad susceptance delta: {exc!r}")
    states = SwitchStates.from_mapping(_switches_from_doc(doc))
    splits = _splits_from_doc(doc)
    return ComposedUpdate(sys, deltas, dict(zip(states.switches, states.closed)), splits)


def apply_modifications(grid: Grid, doc: dict):
    """Apply a modification set (deltas, switch settings, splits) at once.

    Returns the final grid and the system carrying its grounded inverse,
    one :class:`ComposedUpdate` of the base inverse: no refactorization.
    """
    up = _composed_update(doc, build_grounded_system(grid))
    coords = (up._sys.index_map, up._sys.branch_ends)
    return up.grid, _system(up.grid, coords, up.inverse(), up.closed)


def cmd_whatif(args) -> int:
    grid, base = load_case(args.case)
    doc = _load_modset(args.mods)
    sys0 = build_grounded_system(grid)
    pre = solve_flow(sys0)

    if args.enumerate:
        from .multi_mod import SwitchKernel, SwitchStates

        ignored = sorted(k for k in ("deltas", "splits") if k in doc)
        if ignored:
            raise CaseParseError(f"--enumerate sweeps switch settings only; remove {ignored}")
        states = SwitchStates.from_mapping(_switches_from_doc(doc))
        if not states.switches:
            raise CaseParseError("--enumerate requires a 'switches' entry")
        kernel = SwitchKernel(sys0, states.switches)
        closed, peak, islands = kernel.sweep(pre.angles, pre.flows, N1_BLOCK_BYTES)
        rows = [
            {"setting": "".join("01"[b] for b in bits), "max_flow": p * base, "islands": i}
            for bits, p, i in zip(closed.tolist(), peak.tolist(), islands.tolist())
        ]
        _print_rows(rows, args.format)
        return EXIT_OK

    up = _composed_update(doc, sys0)
    try:
        flows_out = up.flows()
    except IslandingError as exc:
        if exc.components is None:  # a connected grid's ill-conditioned update
            raise
        print(f"modification islands the grid: {exc}", file=_sys.stderr)
        return EXIT_ISLANDS
    grid_m = up.grid
    pre_by_id = dict(zip(grid.branch_ids, pre.flows))
    rows = []
    for e, br in enumerate(grid_m.branches):
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
    _print_max(grid_m, flows_out, base, args.format)
    return EXIT_OK


def cmd_n1(args) -> int:
    from .single_mod import outage_factors, outage_peaks

    grid, base = load_case(args.case)
    if args.after:
        doc = _load_modset(args.after)
        try:
            grid, sys = apply_modifications(grid, doc)
        except IslandingError as exc:
            if exc.components is None:
                raise
            print(f"pre-modification islands the grid: {exc}", file=_sys.stderr)
            return EXIT_ISLANDS
    else:
        sys = build_grounded_system(grid)
    f = solve_flow(sys).flows
    candidates = np.flatnonzero(sys.b > 0.0)  # the in-service branches
    screen = outage_factors(sys, candidates, rows=())
    post = outage_peaks(sys, f, candidates, N1_BLOCK_BYTES) * base  # NaN where islands
    results = []
    for j, e in enumerate(candidates):
        br = grid.branches[e]
        results.append(
            {
                "branch": br.id,
                "from": br.from_bus,
                "to": br.to_bus,
                "islands": bool(screen.islands[j]),
                "criterion": float(screen.criterion[j]),
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
    from .oracle import bench_update_vs_rebuild

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
        return EXIT_DISCONNECTED if exc.components is not None else EXIT_ERROR
    except DegenerateSwitchError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
