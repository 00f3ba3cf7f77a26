"""Case import/export: Matpower-subset files, native JSON grids, CSV factors.

The Matpower reader covers the matrix-assignment subset used by standard
test cases: ``mpc.baseMVA``, ``mpc.bus``, ``mpc.gen`` and ``mpc.branch``
with '%' comments; other ``mpc`` fields are read and ignored.
"""

from __future__ import annotations

import functools
import io
import json
import os
from dataclasses import dataclass

import numpy as np

from .errors import CaseConversionError, CaseParseError, GridStructureError
from .factors_base import PTDF, FactorMatrix, FactorRows
from .grid_model import LINE, PST, Branch, Bus, Grid

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
        if not (np.isfinite(self.base_mva) and self.base_mva > 0):
            raise CaseParseError(f"baseMVA must be finite and positive, got {self.base_mva}")
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

    def add_row(piece: str, lineno: int) -> None:
        try:
            row = [float(t) for t in piece.split()]
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
        if current is None:
            if not line.startswith("mpc."):
                continue  # function header, return statements, etc.
            name, _, rhs = line.partition("=")
            name, rhs = name[4:].strip(), rhs.strip()
            if not rhs.startswith("["):
                try:
                    scalars[name] = float(rhs.rstrip(";").strip().strip("'\""))
                except ValueError:
                    pass  # string fields such as mpc.version
                continue
            tables[name], current, line = [], name, rhs[1:].strip()
        # one row per ';'-separated piece, up to the closing ']'
        for piece in line.split("]")[0].split(";"):
            if piece.strip():
                add_row(piece, lineno)
        if "];" in line or line.endswith("]"):
            current = None

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
        import logging  # here only: every request would pay for its import

        logging.getLogger(__name__).info(
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


def write_factors(matrix: FactorMatrix | FactorRows, sink=None) -> str | None:
    """Write a factor matrix as CSV with full double precision.

    Header row holds the column labels, each data row starts with its
    branch id. Every value is written as ``"%.17g" % v`` writes it, byte
    for byte. Blocks of rows are formatted with numpy; a row holding a
    non-finite or subnormal value, or one within the error bound of a
    17-digit rounding tie, is written by that %-template instead, as is a
    matrix with no columns. ``sink`` may be a path or a writable stream,
    which receive the CSV block by block; with no sink the CSV text is
    returned instead. :class:`FactorRows` blocks are computed as written,
    by two processes on a file or pipe on Linux (:func:`_write_chunks`).
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


#: working memory of one block of rows in the factor CSV writer, at 400 bytes a value
CSV_BLOCK_BYTES = 4 << 20
_KMIN, _KMAX = -309, 309  # decimal exponents of normal doubles, and one to spare
_TIE_MARGIN = 1e-9  # the scaled value is known to 2e-14: closer to a half may be a tie


@functools.cache
def _format_tables():
    """Tables of the exact ``%.17g`` formatter, built on the first call.

    ``pow10[k + 309]`` is ``10**(16-k) = (hi + lo) * 2**E`` as (hi, hi's
    Dekker halves, lo, E), exact to ``2**-106`` by integer arithmetic.
    ``quads`` spells 0000..9999, then 0..9, in uint32 words; ``zeros4``
    counts trailing zeros. A value's 32 text bytes (NULs dropped) are the
    ``prefix`` word (sign, "0." and zeros), the digits at bytes 8-25 and
    the ``suffix`` (exponent, separator) at 26-31. For each (digit the
    point follows, length), ``low``, ``point`` and ``high`` mask the digits
    before the point, the point, and the digits after it shifted a byte.
    """
    pow10 = []
    for k in range(_KMIN, _KMAX + 1):
        num, den = (10 ** (16 - k), 1) if k <= 16 else (1, 10 ** (k - 16))
        e = num.bit_length() - den.bit_length()
        num, den = (num, den << e) if e >= 0 else (num << -e, den)
        hi = num / den  # int / int is correctly rounded
        hn, hd = hi.as_integer_ratio()
        split = 134217729.0 * hi
        hh = split - (split - hi)
        pow10.append((hi, hh, hi - hh, (num * hd - hn * den) / (den * hd), e))
    n = np.arange(10000)
    quads = np.zeros((10010, 4), np.uint8)
    quads[:10000] = 48 + n[:, None] // [1000, 100, 10, 1] % 10
    quads[10000:, 0] = 48 + n[:10]
    p, end = np.divmod(np.arange(19 * 18), 18)
    p, end, j = p[:, None], end[:, None] + 1, np.arange(32) - 8
    low = 255 * ((j >= 0) & (j < np.minimum(p + 1, end)))
    point = ord(".") * ((j == p + 1) & (p + 1 < end))
    high = 255 * ((j >= p + 2) & (j < end))
    zeros = ["0." + "0" * (-k - 1) if -4 <= k < 0 else "" for k in range(-5, 1)]
    prefix = b"".join((sign + z).encode().rjust(8, b"\0") for z in zeros for sign in ("", "-"))
    exponents = ["" if -4 <= k <= 16 else f"e{k:+03d}" for k in range(_KMIN, _KMAX + 1)]
    suffix = b"".join(f"\0\0{x}{sep}".encode().ljust(8, b"\0") for x in exponents for sep in ",\n")
    return (
        np.array(pow10), quads.view("<u4").ravel(), sum(n % m == 0 for m in (10, 100, 1000)),
        *(m.astype(np.uint8).view("<u8") for m in (low, point, high)),
        np.frombuffer(prefix, "<u8"), np.frombuffer(suffix, "<u8"),
    )


def _scaled_digits(a, k, pow10):
    """Integer and fractional parts of ``a * 10**(16-k)`` for normal ``a > 0``."""
    f, e = np.frexp(a)
    hi, hh, hl, lo, ex = np.take(pow10, k - _KMIN, axis=0).T
    split = 134217729.0 * f
    fh = split - (split - f)
    fl = f - fh
    ph = f * hi  # ph + pl == f * hi exactly (Dekker's product)
    pl = ((fh * hh - ph) + fh * hl + fl * hh) + fl * hl
    scale = e + ex.astype(np.int32)
    rh = np.ldexp(ph, scale)  # an integer whenever the result has 17 digits
    rl = np.ldexp(pl + f * lo, scale)
    whole = np.floor(rl)
    return rh.astype(np.int64) + whole.astype(np.int64), rl - whole


def _format_block(values):
    """``%.17g`` text of each row of a 2-D block, values joined by ",", and a
    mask of the rows holding a value whose digits are not certified: one
    that is not finite, is subnormal or lies near a rounding tie."""
    pow10, quads, zeros4, low, point_at, high, prefix, suffix = _format_tables()
    v = values.ravel()
    a = np.abs(v)
    zero = a == 0.0
    normal = (a >= 2.2250738585072014e-308) & (a <= 1.7976931348623157e308)
    bad = ~(normal | zero)
    a[~normal] = 1.0  # a zero is formatted as 1.0, then its digit is replaced
    k = np.floor(np.log10(a)).astype(np.intp)
    t, frac = _scaled_digits(a, k, pow10)
    # the floor of the logarithm is off by one only next to a power of ten
    redo = np.flatnonzero((t < 10**16) | (t >= 10**17))
    k[redo] += np.where(t[redo] >= 10**17, 1, -1)
    t[redo], frac[redo] = _scaled_digits(a[redo], k[redo], pow10)
    bad |= (np.abs(frac - 0.5) < _TIE_MARGIN) | (t < 10**16) | (t >= 10**17)
    d = t + (frac > 0.5)
    up = d == 10**17
    d[up], k[up] = 10**16, k[up] + 1
    # uint32 columns: prefix, four groups of four digits, the last digit, suffix
    spelled = np.empty((v.size, 8), "<u4")  # the masks below clear unused bytes
    tail = 0  # trailing zero digits
    for col, scale in enumerate((10**13, 10**9, 10**5, 10, 1), start=2):
        group = d // scale
        d -= group * scale
        spelled[:, col] = quads[group if scale > 1 else group + 10000]
        tail = np.where(group == 0, tail + (4 if scale > 1 else 1), zeros4[group])
    spelled[zero, 2] = quads[0]
    length = 17 - tail
    fixed = (k >= -4) & (k <= 16)
    point = np.where(fixed, k, 0)  # the point follows this digit, if any follows it
    point[(length <= point + 1) | (point < 0)] = 18
    end = np.maximum(length, np.where(fixed, k + 1, 1)) + (point < 18)
    digits = spelled.view("<u8")
    shifted = digits << np.uint64(8)
    shifted.ravel()[1:] |= digits.ravel()[:-1] >> np.uint64(56)
    pair = 18 * point + end - 1
    text = (digits & np.take(low, pair, axis=0)) | np.take(point_at, pair, axis=0)
    text |= shifted & np.take(high, pair, axis=0)
    text[:, 0] = prefix[2 * np.clip(k, -5, 0) + 10 + np.signbit(v)]
    ends = 2 * (k - _KMIN)
    ends.reshape(values.shape)[:, -1] += 1
    text[:, 3] |= suffix[ends]
    text = text.astype("<u8", copy=False).tobytes()  # ufuncs return native byte order
    lines = text.translate(None, b"\0").decode("ascii").split("\n")[:-1]
    return lines, bad.reshape(values.shape).any(axis=1)


def _write_csv(matrix: FactorMatrix | FactorRows, fh) -> None:
    prefix = _col_prefix(matrix.kind)
    fh.write("branch," + ",".join(f"{prefix}{c}" for c in matrix.col_labels) + "\n")
    # one %-template per row formats the same digits as f"{v:.17g}" per value;
    # it writes the rows that _format_block does not certify
    template = "%d," + ",".join(["%.17g"] * len(matrix.col_labels)) + "\n"
    if not matrix.col_labels:
        fh.writelines(template % (rid,) for rid in matrix.row_labels)
        return
    step = max(1, CSV_BLOCK_BYTES // (400 * len(matrix.col_labels)))

    def chunk(i: int) -> str:
        rows = slice(i * step, (i + 1) * step)
        block = np.asarray(matrix.block(rows), dtype=float)
        lines, bad = _format_block(block)
        return "".join(
            template % (rid, *row.tolist()) if b else "%d,%s\n" % (rid, line)
            for rid, row, line, b in zip(matrix.row_labels[rows], block, lines, bad)
        )

    _write_chunks(fh, chunk, -(-len(matrix.row_labels) // step))


_EPIPE_EXIT = 32  # exit status of a writer child whose sink's reader went away


def _write_chunks(fh, chunk, n: int) -> None:
    """Write ``chunk(0)``, ..., ``chunk(n - 1)`` to the text stream ``fh`` in order:
    with two or more chunks and CPUs and a sink writing to a file descriptor,
    a forked child computes and writes the odd chunks, this process the even
    ones, each only while it holds a turn token passed over a pipe pair. The
    child calls no BLAS and ends with ``os._exit``; this process reaps it,
    killed first if this process fails, and never returns after a short output.
    """

    def turns(mine, wait_fd=None, pass_fd=None) -> bool:
        for i in mine:
            text = chunk(i)
            if wait_fd is not None and i > 0 and not os.read(wait_fd, 1):
                return False  # the other process is gone
            fh.write(text)
            fh.flush()
            if pass_fd is not None and i + 1 < n:
                os.write(pass_fd, b"t")
        return True

    try:  # a text stream over a buffered or raw OS file
        fork = n > 1 and isinstance(getattr(fh.buffer, "raw", fh.buffer), io.FileIO)
        fork = fork and len(os.sched_getaffinity(0)) > 1
    except AttributeError:  # no such stream, or not Linux
        fork = False
    if not fork:
        turns(range(n))
        return
    fh.flush()  # or the child would write the buffered text again
    # each process closes the write end of the pipe it reads: its wait ends
    # when the other process is gone; a token written never meets a closed pipe
    to_child, to_parent = os.pipe(), os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(to_child[1])
            code = 0 if turns(range(1, n, 2), to_child[0], to_parent[1]) else 1
        except BrokenPipeError:
            code = _EPIPE_EXIT
        except BaseException:
            import traceback

            traceback.print_exc()
            raise
        finally:  # the child never returns: no caller's code runs twice
            os._exit(code)
    os.close(to_parent[1])
    try:
        done = turns(range(0, n, 2), to_parent[0], to_child[1])
        status = os.waitpid(pid, 0)[1]
        pid = 0
    finally:
        if pid:  # this process failed: the child's chunks have no use
            import signal

            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for fd in (*to_child, to_parent[0]):
            os.close(fd)
    code = os.waitstatus_to_exitcode(status)
    if code == _EPIPE_EXIT:
        raise BrokenPipeError("the reader of the factor CSV went away")
    if code or not done:
        raise ChildProcessError(f"factor CSV writer process failed (exit status {code})")


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
    labels = header[1:] if header[1:] != [""] else []  # "branch," has no columns
    try:
        cols = tuple(int(h.removeprefix(prefix)) for h in labels)
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
        values.append([float(c) for c in cells[1 : 1 + len(cols)]])
    return FactorMatrix(
        values=np.array(values, dtype=float).reshape(len(rows), len(cols)),
        row_labels=tuple(rows),
        col_labels=cols,
        kind=kind,
    )
