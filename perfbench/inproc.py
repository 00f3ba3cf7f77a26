"""Run a study in-process through ``gridfactors.cli.main(argv)``.

Usage: ``python3 inproc.py PLAN.json SUMMARY.json``. The plan lists passes;
each pass runs its requests one after another, writing each request's
standard output to the file the plan names. A traced pass installs the
tracer around the whole pass. The summary records per pass the exit codes,
the wall time summed over requests and, when traced, the span totals.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
import traceback

from tracing import Tracer


def run_pass(main, requests: list[dict], tracer: Tracer | None) -> tuple[list[int], float]:
    codes, wall = [], 0.0
    for k, req in enumerate(requests):
        if tracer is not None:
            tracer.request = k
        with open(req["stdout"], "w") as out, contextlib.redirect_stdout(out):
            t0 = time.perf_counter()
            try:
                rc = main(req["argv"])
            except Exception:  # one failed request must not end the study
                traceback.print_exc()
                rc = -1
            wall += time.perf_counter() - t0
        codes.append(rc)
    return codes, wall


def main() -> int:
    plan_path, summary_path = sys.argv[1:3]
    with open(plan_path) as fh:
        plan = json.load(fh)
    import gridfactors.cli as cli

    summary = []
    for p in plan["passes"]:
        tracer = Tracer() if p["trace"] else None
        if tracer is not None:
            tracer.install()
        try:
            # looked up after install, so the traced pass enters through the wrapper
            codes, wall = run_pass(cli.main, p["requests"], tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        summary.append(
            {"codes": codes, "wall_s": wall, "trace": tracer.summary() if tracer else None}
        )
    with open(summary_path, "w") as fh:
        json.dump(summary, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
