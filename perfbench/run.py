"""gridfactors benchmark: three CLI study workloads and a traced run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload n1-screen --seed 1 --seconds 20 --trace 0

The benchmark generates seeded inputs, runs one workload's study through
the ``gridfactors`` command line (one request is one new process, issued
one after another by a single client: a closed loop), checks every output
against the independent referee in ``referee.py``, and prints one JSON
object as the last line of standard output.

With ``--trace 0`` it repeats the study for about ``--seconds`` seconds (at
least twice) and reports the end-to-end metrics as medians. With ``--trace 1`` it runs the study
in-process through ``gridfactors.cli.main`` in a child process, once
untraced and once traced with the program's default threads, then once
traced with BLAS and the ``n1`` pool pinned to one thread, and reports the
per-layer metrics.

Children run with the thread variables below cleared, so the caller's
shell cannot change results; the values used are printed with each result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

import gen
import referee
from gen import Case
from tracing import LAYERS

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "GRIDFACTORS_THREADS")
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "GRIDFACTORS_THREADS": "1"}
ENTRY = "import sys; from gridfactors.cli import main; sys.exit(main())"
SETUP_PROCS = 7
CHILD_TIMEOUT_S = 170

N1_BUSES, N1_GRIDS, N1_SAMPLES = 1500, 2, 6
SWEEP_BUSES, SWEEP_GRIDS, SWEEP_SAMPLES, SWEEP_RANDOM_SWITCHES = 900, 2, 6, 5
MIX_BUSES, MIX_WHATIFS, FACTOR_SAMPLES = 900, 2, 40

#: functions reported on their own in the traced run
FUNCS = (
    "grid_model.build_grounded_system", "grid_model.build_incidence",
    "grid_model.system_from_inverse", "factors_base.solve_flow",
    "factors_base.ptdf_matrix", "pst.psdf_matrix", "case_io.parse_matpower",
    "case_io.write_factors", "single_mod.lodf_column", "islanding.outage_islands",
    "multi_mod.SwitchKernel.merged_inverse", "multi_mod.woodbury_update",
    "multi_mod.multi_split_inverse", "bus_topology.pad_inverse", "_linalg.guarded_solve",
)


@dataclass
class Request:
    """One CLI call, where its standard output goes, and how to check it."""

    argv: list[str]
    stdout: str
    check: Callable[[str], list[str]]


@dataclass
class Workload:
    inputs: list[dict]
    study: Callable[[str], list[Request]]


def _max_abs(flows: np.ndarray) -> float:
    return float(np.max(np.abs(flows)))


def _describe(label: str, case: Case) -> dict:
    return {"input": os.path.basename(label), "buses": case.n, "branches": len(case.ids)}


# --- workloads ------------------------------------------------------------------

def n1_screen(rng: np.random.Generator, work: str, root: str) -> Workload:
    """``n1 --format jsonl`` on grids with bridges; sampled outages solved densely."""
    protos, inputs = [], []
    for g in range(N1_GRIDS):
        case = gen.random_case(rng, N1_BUSES)
        path = os.path.join(work, f"n1_{g}.json")
        gen.write_json(case, path)
        br = gen.bridges(case)
        safe = [b for b in case.lines() if b not in br]
        picks = [safe[int(i)] for i in rng.choice(len(safe), size=N1_SAMPLES, replace=False)]
        expected = {b: _max_abs(referee.Solution(case, removed=b).flows()) for b in picks}
        inputs.append(_describe(path, case) | {"bridges": len(br)})
        protos.append((["n1", path, "--format", "jsonl"], case, br, expected))

    def study(tag: str) -> list[Request]:
        return [
            Request(argv, os.path.join(work, f"{tag}_n1_{k}.out"),
                    lambda text, c=case, b=br, e=exp: referee.check_n1(text, c, b, e))
            for k, (argv, case, br, exp) in enumerate(protos)
        ]

    return Workload(inputs, study)


def switch_sweep(rng: np.random.Generator, work: str, root: str) -> Workload:
    """``whatif --enumerate`` over 8 open switches: 256 settings per request."""
    protos, inputs = [], []
    for g in range(SWEEP_GRIDS):
        case = gen.random_case(rng, SWEEP_BUSES)
        switches = gen.add_switches(rng, case, SWEEP_RANDOM_SWITCHES)
        path = os.path.join(work, f"sweep_{g}.json")
        mods = os.path.join(work, f"sweep_{g}_mods.json")
        gen.write_json(case, path)
        with open(mods, "w") as fh:
            json.dump({"switches": {str(s): "closed" for s in switches}}, fh)
        order = sorted(switches)
        # all open, and all closed but the last triangle switch (the most closings)
        settings = ["0" * len(order), "1" * (len(order) - 1) + "0"]
        while len(settings) < SWEEP_SAMPLES + 2:
            bits = "".join(str(int(v)) for v in rng.integers(0, 2, size=len(order)))
            closed = [s for s, bit in zip(order, bits) if bit == "1"]
            if bits not in settings and not gen.merge_switches(case, closed)[1]:
                settings.append(bits)
        expected = {}
        for bits in settings:
            closed = [s for s, bit in zip(order, bits) if bit == "1"]
            merge, _ = gen.merge_switches(case, closed)
            expected[bits] = _max_abs(referee.Solution(case, merge=merge).flows(closed))
        inputs.append(_describe(path, case) | {"switches": len(switches)})
        protos.append((["whatif", path, "--mods", mods, "--enumerate", "--format", "jsonl"],
                       case, switches, expected))

    def study(tag: str) -> list[Request]:
        return [
            Request(argv, os.path.join(work, f"{tag}_sweep_{k}.out"),
                    lambda text, c=case, s=sw, e=exp: referee.check_sweep(text, c, s, e))
            for k, (argv, case, sw, exp) in enumerate(protos)
        ]

    return Workload(inputs, study)


def study_mix(rng: np.random.Generator, work: str, root: str) -> Workload:
    """A session of flows, factor exports, staged what-ifs and case6ww."""
    case = gen.random_case(rng, MIX_BUSES)
    switches = gen.add_switches(rng, case, SWEEP_RANDOM_SWITCHES)
    grid_json = os.path.join(work, "mix.json")
    grid_m = os.path.join(work, "mix.m")
    gen.write_json(case, grid_json)
    xs = gen.write_matpower(case, grid_m)
    # the .m file holds the lines only, with susceptance 1/x as the program reads it
    lines = Case(n=case.n, inj=case.inj)
    for e in range(len(case.ids)):
        if case.kind[e] == gen.LINE:
            lines.add(case.frm[e], case.to[e], 1.0 / xs[len(lines.ids)])
    inputs = [_describe(grid_json, case) | {"switches": len(switches)}, _describe(grid_m, lines)]

    base_flows = referee.Solution(case).flows()
    line_ids = case.lines()
    shift_ids = [line_ids[int(i)] for i in rng.choice(len(line_ids), size=2, replace=False)]
    shifts = dict(zip(shift_ids, (0.05, -0.04)))
    shifted_flows = referee.Solution(case, shifts=shifts).flows()

    sol = referee.Solution(lines)
    m, n = len(lines.ids), lines.n
    cells = list(zip(rng.integers(0, m, FACTOR_SAMPLES), rng.integers(0, n - 1, FACTOR_SAMPLES)))
    ptdf = {(int(r), int(c)): sol.ptdf(int(r), int(c) + 2) for r, c in cells}
    psdf = {}
    for r, c in zip(rng.integers(0, m, FACTOR_SAMPLES), rng.integers(0, m, FACTOR_SAMPLES)):
        c = int(c)
        for row in (int(r), c):  # each sampled column also checks its diagonal entry
            own = lines.b[c] if row == c else 0.0
            psdf[(row, c)] = own - lines.b[c] * (sol.ptdf(row, lines.frm[c]) - sol.ptdf(row, lines.to[c]))

    whatifs = []
    for k in range(MIX_WHATIFS):
        mods = gen.draw_mods(rng, case, switches)
        path = os.path.join(work, f"mix_mods_{k}.json")
        with open(path, "w") as fh:
            json.dump(mods.doc(), fh)
        after, merge = gen.apply_mods(case, mods)
        post = referee.Solution(after, merge=merge).flows(mods.closed)
        expected = {
            bid: (after.frm[e], after.to[e], float(base_flows[e]), float(post[e]))
            for e, bid in enumerate(after.ids)
        }
        whatifs.append((path, expected))
    case6ww = os.path.join(root, "src", "gridfactors", "cases", "case6ww.m")

    def study(tag: str) -> list[Request]:
        out = lambda name: os.path.join(work, f"{tag}_{name}")  # noqa: E731
        shift_args = [a for bid, t in shifts.items() for a in ("--shift", f"{bid}={t!r}")]
        reqs = [
            Request(["flows", grid_json, "--format", "jsonl"], out("flows.out"),
                    lambda text: referee.check_flows(text, case, base_flows)),
            Request(["flows", grid_json, "--format", "jsonl", *shift_args], out("shift.out"),
                    lambda text: referee.check_flows(text, case, shifted_flows)),
            Request(["factors", grid_m, "--kind", "ptdf", "--out", out("ptdf.csv")], out("ptdf.out"),
                    lambda text: referee.check_factors(out("ptdf.csv"), (m, n - 1), ptdf)),
            Request(["factors", grid_m, "--kind", "psdf", "--out", out("psdf.csv")], out("psdf.out"),
                    lambda text: referee.check_factors(out("psdf.csv"), (m, m), psdf)),
        ]
        for k, (path, expected) in enumerate(whatifs):
            reqs.append(Request(["whatif", grid_json, "--mods", path, "--format", "jsonl"],
                                out(f"whatif_{k}.out"),
                                lambda text, e=expected: referee.check_whatif(text, e)))
        reqs.append(Request(["flows", case6ww], out("case6ww.out"), referee.check_anchor))
        return reqs

    return Workload(inputs, study)


WORKLOADS = {"n1-screen": n1_screen, "switch-sweep": switch_sweep, "study-mix": study_mix}


# --- running --------------------------------------------------------------------

def child_env(root: str, pinned: bool = False) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = os.path.join(root, "src")
    if pinned:
        env.update(PINNED)
    return env


def spawn(argv: list[str], stdout: str | None, env: dict, root: str) -> tuple[int, float, float]:
    """Run one Python child; returns exit code, seconds from spawn to exit, peak RSS in MB."""
    err_path = stdout + ".err" if stdout else os.devnull
    with open(stdout or os.devnull, "w") as out, open(err_path, "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], stdout=out, stderr=err, env=env, cwd=root)
        _, status, usage = os.wait4(proc.pid, 0)
        dt = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, dt, usage.ru_maxrss / 1024.0


def verify(req: Request, rc: int) -> list[str]:
    """Mismatches of one finished request; an unexpected exit code is one."""
    if rc != 0:
        tail = ""
        if os.path.exists(req.stdout + ".err"):  # in-process runs print errors to stderr
            with open(req.stdout + ".err") as fh:
                tail = fh.read()[-300:]
        return [f"{req.argv[0]}: exit code {rc} {tail}"]
    with open(req.stdout) as fh:
        try:
            return req.check(fh.read())
        except (ValueError, KeyError, IndexError, OSError) as exc:
            return [f"{req.argv[0]}: unreadable output ({exc!r})"]


def cpu_steal_s() -> float:
    """Seconds of CPU time the hypervisor took from this machine so far (Linux)."""
    with open("/proc/stat") as fh:
        return int(fh.readline().split()[8]) / os.sysconf("SC_CLK_TCK")


def timed_run(wl: Workload, seconds: float, env: dict, root: str) -> tuple[dict, int, int]:
    setup = [spawn(["-c", "import gridfactors.cli"], None, env, root) for _ in range(SETUP_PROCS)]
    if any(rc != 0 for rc, _, _ in setup):
        raise SystemExit("error: gridfactors.cli does not import")
    studies, latencies, rss = [], [], 0.0
    attempted = failed = 0
    steal0 = cpu_steal_s()
    # at least two studies, so that wall_s is a median; then more while one fits
    while len(studies) < 2 or sum(studies) + statistics.median(studies) <= seconds:
        reqs = wl.study(f"s{len(studies)}")
        t0 = time.perf_counter()
        codes = []
        for req in reqs:
            rc, dt, mb = spawn(["-c", ENTRY, *req.argv], req.stdout, env, root)
            codes.append(rc)
            latencies.append(dt)
            rss = max(rss, mb)
        studies.append(time.perf_counter() - t0)
        for req, rc in zip(reqs, codes):  # outside the timed region
            attempted += 1
            errs = verify(req, rc)
            if errs:
                failed += 1
                print(f"MISMATCH {req.argv}: {errs[:3]}", file=sys.stderr)
    metrics = {
        "wall_s": (statistics.median(studies), "s"),
        "request_p50_s": (statistics.median(latencies), "s"),
        "setup_s": (statistics.median(dt for _, dt, _ in setup), "s"),
        "peak_rss_mb": (rss, "MB"),
        "success_rate": ((attempted - failed) / attempted, "ratio"),
    }
    print(
        f"studies={len(studies)} requests={attempted} fail_rate={failed / attempted:.4g} (ratio) "
        f"cpu_steal={cpu_steal_s() - steal0:.2f} (s) "
        + " ".join(f"{k}={v:.6g} ({u})" for k, (v, u) in metrics.items())
    )
    return metrics, attempted, failed


def traced_run(wl: Workload, work: str, root: str, envs: dict[str, dict]) -> tuple[dict, int, int]:
    """In-process study: untraced, traced, then traced with pinned threads."""
    runs = {}
    # untraced passes on both sides of the traced one, so drift cancels in the overhead
    for name, tags in (("default", ("u", "t", "v")), ("pinned", ("p",))):
        plan = {
            "passes": [
                {"trace": tag in ("t", "p"),
                 "requests": [{"argv": r.argv, "stdout": r.stdout} for r in wl.study(tag)]}
                for tag in tags
            ]
        }
        plan_path = os.path.join(work, f"plan_{name}.json")
        summary_path = os.path.join(work, f"summary_{name}.json")
        with open(plan_path, "w") as fh:
            json.dump(plan, fh)
        subprocess.run(
            [sys.executable, os.path.join(os.path.dirname(os.path.abspath(__file__)), "inproc.py"),
             plan_path, summary_path],
            env=envs[name], cwd=root, check=True, timeout=CHILD_TIMEOUT_S,
        )
        with open(summary_path) as fh:
            runs.update(zip(tags, json.load(fh)))
    attempted = failed = 0
    for tag, result in runs.items():
        for req, rc in zip(wl.study(tag), result["codes"]):
            attempted += 1
            errs = verify(req, rc)
            if errs:
                failed += 1
                print(f"MISMATCH ({tag}) {req.argv}: {errs[:3]}", file=sys.stderr)

    t, p = runs["t"]["trace"], runs["p"]["trace"]
    n_req = len(runs["t"]["codes"])
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (t["self_s"].get(layer, 0.0), "s")
        metrics[f"{layer}.calls"] = (t["calls"].get(layer, 0), "count")
        metrics[f"{layer}.out_mb"] = (t["out_bytes"].get(layer, 0) / 1e6, "MB")
    for fn in FUNCS:
        metrics[f"{fn}.self_s"] = (t["self_s"].get(fn, 0.0), "s")
        metrics[f"{fn}.calls"] = (t["calls"].get(fn, 0), "count")
    metrics["grid_model.factorizations_per_request"] = (
        t["calls"].get("grid_model.build_grounded_system", 0) / n_req, "ratio")
    metrics["trace.span_s_over_wall"] = (t["root_span_s"] / runs["t"]["wall_s"], "ratio")
    metrics["trace.threads"] = (t["threads"], "count")
    untraced = 0.5 * (runs["u"]["wall_s"] + runs["v"]["wall_s"])
    metrics["trace.overhead_frac"] = (runs["t"]["wall_s"] / untraced - 1.0, "ratio")
    for layer in LAYERS:
        metrics[f"st.{layer}.self_s"] = (p["self_s"].get(layer, 0.0), "s")
    print(
        f"traced wall {runs['t']['wall_s']:.3f} s, untraced {untraced:.3f} s, "
        f"pinned {runs['p']['wall_s']:.3f} s, spans {t['spans']}"
    )
    return metrics, attempted, failed


def environment(envs: dict[str, dict], inputs: list[dict]) -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "child_threads": {
            name: {k: env.get(k, "unset") for k in THREAD_VARS} for name, env in envs.items()
        },
        "inputs": inputs,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "gridfactors", "cli.py")):
        print("error: run from the root of a gridfactors checkout (src/gridfactors missing)",
              file=sys.stderr)
        return 2
    work = os.path.join(root, ".perfbench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        rng = np.random.default_rng([args.seed, sorted(WORKLOADS).index(args.workload)])
        wl = WORKLOADS[args.workload](rng, work, root)
        envs = {"default": child_env(root)}
        if args.trace:
            envs["pinned"] = child_env(root, pinned=True)
            metrics, attempted, failed = traced_run(wl, work, root, envs)
        else:
            metrics, attempted, failed = timed_run(wl, args.seconds, envs["default"], root)
        print("env: " + json.dumps(environment(envs, wl.inputs)))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
