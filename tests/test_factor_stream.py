"""The streamed factor CSV writer: two processes write what one writes, byte
for byte, and no process outlives a request."""
import os
import signal
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

import gridfactors
from gridfactors import FactorMatrix, build_grounded_system, case_io, grid_to_json, random_grid, write_factors
from gridfactors.factors_base import FactorRows, ptdf_rows
from gridfactors.pst import psdf_rows

SRC = os.path.dirname(os.path.dirname(os.path.abspath(gridfactors.__file__)))
ENTRY = "import sys; from gridfactors.cli import main; sys.exit(main())"
COLS, STEP = 8, 3  # rows per chunk once CSV_BLOCK_BYTES is shrunk


def _awkward_matrix():
    """20 x 8 values; the rows next to the chunk boundaries 2|3, 5|6, 8|9 and
    17|18 hold values _format_block does not certify."""
    rng = np.random.default_rng(12)
    values = rng.standard_normal((20, COLS)) * 10.0 ** rng.integers(-20, 20, (20, COLS))
    values[2, 1], values[3, 0] = np.nan, 5e-324  # NaN and a subnormal, chunks 0 | 1
    values[5, 7], values[6, 3] = 1e15 + 0.25, -np.inf  # a 17-digit tie, chunks 1 | 2
    values[8, 2], values[9, 5] = 2.5e-310, 1e15 + 0.75
    values[17, 0], values[18, 0] = np.nan, -1e15 - 0.25  # the last two chunks
    return FactorMatrix(values=values, row_labels=tuple(range(100, 120)), col_labels=tuple(range(COLS)))


def _percent_csv(matrix):
    head = "branch," + ",".join(f"bus{c}" for c in matrix.col_labels) + "\n"
    return head + "".join(
        f"{rid}," + ",".join("%.17g" % v for v in row) + "\n"
        for rid, row in zip(matrix.row_labels, matrix.values)
    )


@pytest.fixture
def two_processes(monkeypatch):
    """Small chunks, two CPUs seen whatever the machine has, and the pid of
    every forked child."""
    monkeypatch.setattr(case_io, "CSV_BLOCK_BYTES", 400 * COLS * STEP)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    forks = []
    real_fork = os.fork

    def counting_fork():
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    return forks


def test_two_process_file_equals_one_process_text(two_processes, tmp_path):
    matrix = _awkward_matrix()
    one = write_factors(matrix)  # a StringIO has no descriptor: one process
    assert not two_processes
    assert one == _percent_csv(matrix)
    assert case_io._format_block(matrix.values)[1][[2, 3, 5, 6, 8, 9, 17, 18]].all()
    path = tmp_path / "factors.csv"
    assert write_factors(matrix, path) is None
    assert len(two_processes) == 1
    assert path.read_text() == one


def test_two_process_pipe_equals_one_process_text(two_processes):
    matrix = _awkward_matrix()
    read_fd, write_fd = os.pipe()
    got = []

    def read():
        with os.fdopen(read_fd, "rb") as fh:
            got.append(fh.read())

    reader = threading.Thread(target=read)
    reader.start()
    with open(write_fd, "w") as sink:
        write_factors(matrix, sink)
    reader.join(timeout=60)
    assert not reader.is_alive()
    assert len(two_processes) == 1
    assert got == [_percent_csv(matrix).encode()]


@pytest.mark.parametrize("kind", ["ptdf", "psdf"])
def test_streamed_rows_equal_the_matrix_byte_for_byte(kind, two_processes, tmp_path):
    from gridfactors import psdf_matrix, ptdf_matrix

    sys_ = build_grounded_system(random_grid(4, 40, 2.4))
    matrix, rows = (ptdf_matrix(sys_), ptdf_rows(sys_)) if kind == "ptdf" else (psdf_matrix(sys_), psdf_rows(sys_))
    assert (rows.row_labels, rows.col_labels, rows.kind) == (matrix.row_labels, matrix.col_labels, matrix.kind)
    for part in (slice(0, 1), slice(5, 12), slice(-2, None), slice(None, 3)):
        assert np.array_equal(rows.block(part), matrix.values[part])
    path = tmp_path / "factors.csv"
    write_factors(rows, path)
    assert two_processes
    assert path.read_text() == write_factors(matrix)


def test_one_cpu_keeps_one_process(tmp_path):
    code = (
        "import os, sys\n"
        "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
        "from gridfactors import build_grounded_system, case_io, random_grid, write_factors\n"
        "from gridfactors.factors_base import ptdf_rows\n"
        "forks = []\n"
        "real_fork = os.fork\n"
        "os.fork = lambda: forks.append(1) or real_fork()\n"
        "case_io.CSV_BLOCK_BYTES = 400 * 39 * 3\n"
        "write_factors(ptdf_rows(build_grounded_system(random_grid(4, 40, 2.4))), sys.argv[1])\n"
        "print(len(forks))\n"
    )
    path = tmp_path / "factors.csv"
    out = subprocess.run(
        [sys.executable, "-c", code, str(path)], env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True, text=True, check=True, timeout=120,
    )
    assert out.stdout.strip() == "0"
    sys_ = build_grounded_system(random_grid(4, 40, 2.4))
    assert path.read_text() == write_factors(ptdf_rows(sys_))


@pytest.mark.parametrize("bad_chunk, error", [(1, ChildProcessError), (2, KeyError)], ids=["child", "parent"])
def test_failing_row_source_raises_and_leaves_no_child(bad_chunk, error, two_processes, tmp_path):
    matrix = _awkward_matrix()

    def block(rows):
        if rows.start == bad_chunk * STEP:
            raise KeyError("row source failed")
        return matrix.values[rows]

    rows = FactorRows(block, matrix.row_labels, matrix.col_labels)
    with pytest.raises(error):
        write_factors(rows, tmp_path / "factors.csv")
    assert len(two_processes) == 1
    with pytest.raises(ProcessLookupError):  # reaped: not even a zombie is left
        os.kill(two_processes[0], 0)


# --- whole requests in their own session ---------------------------------------


def _request(tmp_path, kind="ptdf"):
    path = tmp_path / "grid.json"
    path.write_text(grid_to_json(random_grid(3, 200, 2.4)))  # 5 chunks of PTDF rows, 6 of PSDF
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    return subprocess.Popen(
        [sys.executable, "-c", ENTRY, "factors", str(path), "--kind", kind],
        env={**env, "PYTHONPATH": SRC}, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        start_new_session=True,
    )


def _group_members(pgid):
    members = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat") as fh:
                    fields = fh.read().rsplit(")", 1)[1].split()
            except OSError:
                continue
            if int(fields[2]) == pgid and fields[0] != "Z":
                members.append(int(entry))
    return members


def _assert_group_gone(pgid):
    with pytest.raises(ProcessLookupError):
        os.killpg(pgid, 0)


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="one CPU: one process")
@pytest.mark.parametrize("kind", ["ptdf", "psdf"])
def test_normal_request_leaves_no_process(kind, tmp_path):
    proc = _request(tmp_path, kind)
    out, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, err
    assert out.count(b"\n") == 1 + 240  # header and one row per branch
    _assert_group_gone(proc.pid)


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="one CPU: one process")
def test_reader_closing_after_one_line_leaves_no_process(tmp_path):
    proc = _request(tmp_path)
    assert proc.stdout.readline().startswith(b"branch,")
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 1
    assert b"Traceback" not in err
    _assert_group_gone(proc.pid)


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="one CPU: one process")
def test_killed_writer_child_fails_the_request(tmp_path):
    proc = _request(tmp_path)
    # the output is far larger than a pipe buffer: unread, both writers block
    deadline = time.monotonic() + 60
    while len(children := [p for p in _group_members(proc.pid) if p != proc.pid]) != 1:
        assert time.monotonic() < deadline, "the request never forked"
        time.sleep(0.01)
    os.kill(children[0], signal.SIGKILL)
    out, err = proc.communicate(timeout=120)
    assert proc.returncode == 1
    assert b"ChildProcessError" in err
    assert out.count(b"\n") < 1 + 240
    _assert_group_gone(proc.pid)
