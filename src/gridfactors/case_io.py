"""Case import/export: Matpower-subset files, native JSON grids, CSV factors.

The Matpower reader covers the matrix-assignment subset used by standard
test cases: ``mpc.baseMVA``, ``mpc.bus``, ``mpc.gen`` and ``mpc.branch``
with '%' comments; other ``mpc`` fields are read and ignored.
"""

from __future__ import annotations

import io
import json
import logging
from dataclasses import dataclass

import numpy as np

from .errors import CaseConversionError, CaseParseError, GridStructureError
from .factors_base import PTDF, FactorMatrix
from .grid_model import LINE, PST, Branch, Bus, Grid

logger = logging.getLogger(__name__)

# table name -> minimum number of columns we rely on
_REQUIRED_TABLES = {"bus": 3, "gen": 2, "branch": 4}


@dataclass(frozen=True, eq=False)
class MatpowerCase:
    """Raw numeric tables of a Matpower case, untouched by any conversion."""

    base_mva: float
    bus: np.ndarray
    gen: np.ndarray
    branch: np.ndarray

    def __post_init__(self):
        if self.base_mva <= 0:
            raise CaseParseError(f"baseMVA must be positive, got {self.base_mva}")
        bus_ids = set(int(b) for b in self.bus[:, 0]) if self.bus.size else set()
        # Pd and Pg make up the injections; a NaN would pass the balance check
        for table, col, label in ((self.bus, 2, "Pd"), (self.gen, 1, "Pg")):
            for row in table:
                if not np.isfinite(row[col]):
                    raise CaseParseError(
                        f"{label} of bus {int(row[0])} must be finite, got {row[col]}"
                    )
        for g in self.gen:
            if int(g[0]) not in bus_ids:
                raise CaseParseError(f"generator references unknown bus {int(g[0])}")
        for br in self.branch:
            for end in (int(br[0]), int(br[1])):
                if end not in bus_ids:
                    raise CaseParseError(f"branch references unknown bus {end}")


def _strip_comment(line: str) -> str:
    cut = line.find("%")
    return line if cut < 0 else line[:cut]


def parse_matpower(text) -> MatpowerCase:
    """Parse a Matpower-subset case from a string or readable stream."""
    if hasattr(text, "read"):
        text = text.read()
    scalars: dict[str, float] = {}
    tables: dict[str, list[list[float]]] = {}
    current: str | None = None
    row_buf: list[str] = []

    def finish_row(lineno: int) -> None:
        tokens = " ".join(row_buf).split()
        row_buf.clear()
        if not tokens:
            return
        try:
            row = [float(t) for t in tokens]
        except ValueError as exc:
            raise CaseParseError(f"non-numeric token in mpc.{current}: {exc}", line=lineno)
        rows = tables[current]
        if rows and len(rows[0]) != len(row):
            raise CaseParseError(
                f"row with {len(row)} values in mpc.{current}, expected {len(rows[0])}",
                line=lineno,
            )
        rows.append(row)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        if current is not None:
            closing = "];" in line or line.endswith("]")
            body = line.split("]")[0]
            for piece in body.split(";"):
                piece = piece.strip()
                if piece:
                    row_buf.append(piece)
                    finish_row(lineno)
            if closing:
                finish_row(lineno)
                current = None
            continue
        if not line.startswith("mpc."):
            continue  # function header, return statements, etc.
        name, _, rhs = line.partition("=")
        name = name[4:].strip()
        rhs = rhs.strip()
        if rhs.startswith("["):
            tables[name] = []
            current = name
            rest = rhs[1:].strip()
            if rest:
                closing = "];" in rest or rest.endswith("]")
                body = rest.split("]")[0]
                for piece in body.split(";"):
                    piece = piece.strip()
                    if piece:
                        row_buf.append(piece)
                        finish_row(lineno)
                if closing:
                    finish_row(lineno)
                    current = None
        else:
            value = rhs.rstrip(";").strip().strip("'\"")
            try:
                scalars[name] = float(value)
            except ValueError:
                pass  # string fields such as mpc.version

    if current is not None:
        raise CaseParseError(f"unterminated table mpc.{current}")
    if "baseMVA" not in scalars:
        raise CaseParseError("missing mpc.baseMVA")
    for name, mincols in _REQUIRED_TABLES.items():
        if name not in tables:
            raise CaseParseError(f"missing required table mpc.{name}")
        for row in tables[name]:
            if len(row) < mincols:
                raise CaseParseError(
                    f"mpc.{name} rows need at least {mincols} columns, got {len(row)}"
                )

    def as_array(name: str) -> np.ndarray:
        rows = tables[name]
        if not rows:
            return np.empty((0, _REQUIRED_TABLES.get(name, 0)))
        return np.array(rows, dtype=float)

    return MatpowerCase(
        base_mva=scalars["baseMVA"],
        bus=as_array("bus"),
        gen=as_array("gen"),
        branch=as_array("branch"),
    )


def to_grid(case: MatpowerCase) -> Grid:
    """Convert parsed Matpower tables to a per-unit Grid.

    Injections are ``(sum Pg - Pd) / baseMVA``; branch susceptance is the
    reactance-only DC value ``1/x``. Out-of-service branches (status 0) are
    kept with susceptance 0 so they stay available for closing analysis.
    The slack is the type-3 bus (lowest bus id if none) and any residual
    imbalance is absorbed into the slack injection.
    """
    inj: dict[int, float] = {}
    slack = None
    for row in case.bus:
        bus_id = int(row[0])
        inj[bus_id] = -float(row[2]) / case.base_mva
        if int(row[1]) == 3 and slack is None:
            slack = bus_id
    if slack is None:
        slack = min(inj)
    for row in case.gen:
        inj[int(row[0])] += float(row[1]) / case.base_mva

    residual = sum(inj.values())
    if residual != 0.0:
        inj[slack] -= residual
        logger.info(
            "rebalanced case at slack bus %d by %+.6g pu", slack, -residual
        )

    buses = tuple(
        Bus(id=int(row[0]), injection=inj[int(row[0])], is_slack=int(row[0]) == slack)
        for row in case.bus
    )
    branches = []
    for k, row in enumerate(case.branch, start=1):
        x = float(row[3])
        status = int(row[10]) if row.shape[0] > 10 else 1
        if x <= 0.0:
            raise CaseConversionError(
                f"branch {k} ({int(row[0])},{int(row[1])}): reactance must be > 0, got {x}"
            )
        b = (1.0 / x) if status != 0 else 0.0
        branches.append(
            Branch(id=k, from_bus=int(row[0]), to_bus=int(row[1]), susceptance=b)
        )
    return Grid(buses=buses, branches=tuple(branches))


# --- native JSON grid format -------------------------------------------------

def grid_to_json(grid: Grid, indent: int | None = 2) -> str:
    """Serialize a grid to the native JSON document."""
    doc = {
        "buses": [
            {"id": b.id, "injection": b.injection, **({"slack": True} if b.is_slack else {})}
            for b in grid.buses
        ],
        "branches": [
            {
                "id": br.id,
                "from": br.from_bus,
                "to": br.to_bus,
                "b": br.susceptance,
                "kind": br.kind,
                **({"shift_angle": br.shift_angle} if br.kind == PST else {}),
            }
            for br in grid.branches
        ],
    }
    return json.dumps(doc, indent=indent)


def grid_from_json(text) -> Grid:
    """Parse the native JSON grid document (string or readable stream)."""
    if hasattr(text, "read"):
        text = text.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CaseParseError(f"invalid JSON: {exc}", line=exc.lineno)
    try:
        buses = tuple(
            Bus(
                id=int(b["id"]),
                injection=float(b.get("injection", 0.0)),
                is_slack=bool(b.get("slack", False)),
            )
            for b in doc["buses"]
        )
        branches = tuple(
            Branch(
                id=int(br["id"]),
                from_bus=int(br["from"]),
                to_bus=int(br["to"]),
                susceptance=float(br.get("b", 0.0)),
                kind=str(br.get("kind", LINE)),
                shift_angle=float(br.get("shift_angle", 0.0)),
            )
            for br in doc["branches"]
        )
    except GridStructureError as exc:
        raise CaseParseError(f"malformed grid document: {exc}") from exc
    except (KeyError, TypeError, ValueError) as exc:
        raise CaseParseError(f"malformed grid document: {exc!r}")
    return Grid(buses=buses, branches=branches)


# --- factor matrix CSV -------------------------------------------------------

def _col_prefix(kind: str) -> str:
    return "bus" if kind == PTDF else "branch"


def write_factors(matrix: FactorMatrix, sink=None) -> str | None:
    """Write a factor matrix as CSV with full double precision.

    Header row holds the column labels, each data row starts with its
    branch id. ``sink`` may be a path or a writable stream, which receive
    the CSV row by row; with no sink the CSV text is returned instead.
    """
    if sink is None:
        buf = io.StringIO()
        _write_csv(matrix, buf)
        return buf.getvalue()
    if hasattr(sink, "write"):
        _write_csv(matrix, sink)
    else:
        with open(sink, "w") as fh:
            _write_csv(matrix, fh)
    return None


def _write_csv(matrix: FactorMatrix, fh) -> None:
    prefix = _col_prefix(matrix.kind)
    fh.write("branch," + ",".join(f"{prefix}{c}" for c in matrix.col_labels) + "\n")
    # one %-template per row formats the same digits as f"{v:.17g}" per value
    template = "%d," + ",".join(["%.17g"] * len(matrix.col_labels)) + "\n"
    for rid, row in zip(matrix.row_labels, matrix.values):
        fh.write(template % (rid, *row.tolist()))


def read_factors(source, kind: str = PTDF) -> FactorMatrix:
    """Read a factor matrix written by :func:`write_factors`."""
    if hasattr(source, "read"):
        text = source.read()
    elif isinstance(source, str) and "\n" in source:
        text = source
    else:
        with open(source) as fh:
            text = fh.read()
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise CaseParseError("empty factor CSV")
    header = lines[0].split(",")
    prefix = _col_prefix(kind)
    try:
        cols = tuple(int(h.removeprefix(prefix)) for h in header[1:])
    except ValueError as exc:
        raise CaseParseError(f"bad factor CSV header: {exc}", line=1)
    rows = []
    values = []
    for i, ln in enumerate(lines[1:], start=2):
        cells = ln.split(",")
        if len(cells) != len(header):
            raise CaseParseError(
                f"row has {len(cells)} cells, header has {len(header)}", line=i
            )
        rows.append(int(cells[0]))
        values.append([float(c) for c in cells[1:]])
    return FactorMatrix(
        values=np.array(values, dtype=float),
        row_labels=tuple(rows),
        col_labels=cols,
        kind=kind,
    )
