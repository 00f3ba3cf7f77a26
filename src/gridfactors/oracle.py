"""Brute-force reference implementations for the property and equivalence
suites: rebuild the modified grid from scratch, dense-solve, compare.

Nothing here is meant to be fast; it realizes the direct computation that
the low-rank update paths are measured against. Also provides seeded random
grids and the update-versus-rebuild benchmark harness.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from ._linalg import SUSCEPTANCE_FLOOR
from .bus_topology import SplitSpec, apply_split
from .errors import GridStructureError
from .factors_base import FlowState, solve_flow
from .grid_model import (
    Branch,
    Bus,
    Grid,
    GroundedSystem,
    LINE,
    SWITCH,
    _require_connected,
    build_grounded_system,
    build_incidence,
)
from .multi_mod import ModificationSet, woodbury_update

#: susceptance used to emulate a closed ideal switch with a finite branch;
#: conditioning degrades in double precision much beyond 1e10
LARGE_B = 1e9


@dataclass(frozen=True, eq=False)
class OracleResult:
    """Fully rebuilt modified grid with its dense solution."""

    grid: Grid
    sys: GroundedSystem
    flow: FlowState
    B_inv: np.ndarray


def rebuild_grid(
    grid: Grid,
    deltas: Iterable[tuple[int, float]] = (),
    closed_switches: Iterable[int] = (),
    splits: Sequence[SplitSpec] = (),
    large_b: float = LARGE_B,
) -> Grid:
    """Apply modifications structurally and return the new grid.

    Susceptance deltas change branch values in place; closed switches are
    emulated as lines of susceptance ``large_b``; splits are applied in
    order.
    """
    deltas = list(deltas)
    closed = set(closed_switches)
    branches = []
    for br in grid.branches:
        b_new = br.susceptance
        for branch_id, delta in deltas:
            if branch_id == br.id:
                b_new = b_new + delta
        if br.id in closed:
            if br.kind != SWITCH:
                raise GridStructureError(f"branch {br.id} is not a switch")
            branches.append(replace(br, kind=LINE, susceptance=large_b))
        else:
            if b_new < SUSCEPTANCE_FLOOR * br.susceptance:
                raise GridStructureError(
                    f"branch {br.id}: susceptance would become negative"
                )
            branches.append(replace(br, susceptance=max(b_new, 0.0)))
    out = Grid(buses=grid.buses, branches=tuple(branches))
    for split in splits:
        out = apply_split(out, split)
    return out


def rebuild_and_solve(
    grid: Grid,
    deltas: Iterable[tuple[int, float]] = (),
    closed_switches: Iterable[int] = (),
    splits: Sequence[SplitSpec] = (),
    p: np.ndarray | None = None,
    large_b: float = LARGE_B,
) -> OracleResult:
    """Rebuild the modified grid, factorize densely, and solve the flows.

    Raises IslandingError (from the grounded assembly) when the modified
    grid is disconnected.
    """
    grid_m = rebuild_grid(
        grid,
        deltas=deltas,
        closed_switches=closed_switches,
        splits=splits,
        large_b=large_b,
    )
    sys_m = build_grounded_system(grid_m)
    flow = solve_flow(sys_m, p)
    return OracleResult(grid=grid_m, sys=sys_m, flow=flow, B_inv=sys_m.B_inv)


def _closed_switch_flows(
    grid: Grid, p: np.ndarray, flows: np.ndarray, closed: list[int]
) -> dict[int, float]:
    """Kirchhoff reference for the flows over closed switches.

    A merged solution leaves closed switches with zero formal flow (their
    assembly susceptance is zero); the physical flows are the unique values
    that restore Kirchhoff's law at every bus: a least-squares solve on the
    closed switches' columns of the incidence ``E``.
    """
    if not closed:
        return {}
    E = build_incidence(grid).full
    cols = [grid.branch_index[s] for s in closed]
    rest = np.setdiff1d(np.arange(grid.n_branches), cols)
    residual = np.asarray(p, dtype=float) - E[:, rest] @ np.asarray(flows)[rest]
    x, *_ = np.linalg.lstsq(E[:, cols], residual, rcond=None)
    return dict(zip(closed, x))


def pseudo_inverse_check(grid: Grid) -> np.ndarray:
    """Moore-Penrose pseudo-inverse of the full (ungrounded) Laplacian.

    Computed as ``(B + J/n)^-1 - J/n`` with ``J`` the all-ones matrix; kept
    as a cross-check against the grounded-inverse path, which is the
    production route.
    """
    _require_connected(grid)
    inc = build_incidence(grid)
    b = grid.susceptances()
    B_full = (inc.full * b) @ inc.full.T
    n = grid.n_buses
    J = np.full((n, n), 1.0 / n)
    shifted = B_full + J
    plus = np.linalg.inv(shifted) - J
    return 0.5 * (plus + plus.T)


def contract_buses(grid: Grid, keep: int, drop: int) -> Grid:
    """Exact bus merge: rewire every branch at ``drop`` onto ``keep``.

    Branches running between the two buses are removed; injections add up.
    This is the exact oracle for switch closings, free of the large-b
    surrogate.
    """
    if keep == drop:
        raise GridStructureError("cannot contract a bus with itself")
    buses = []
    for bus in grid.buses:
        if bus.id == drop:
            continue
        if bus.id == keep:
            add = grid.bus(drop).injection
            slack = bus.is_slack or grid.bus(drop).is_slack
            buses.append(replace(bus, injection=bus.injection + add, is_slack=slack))
        else:
            buses.append(bus)
    branches = []
    for br in grid.branches:
        ends = {br.from_bus, br.to_bus}
        if ends == {keep, drop}:
            continue
        branches.append(
            replace(
                br,
                from_bus=keep if br.from_bus == drop else br.from_bus,
                to_bus=keep if br.to_bus == drop else br.to_bus,
            )
        )
    return Grid(buses=tuple(buses), branches=tuple(branches))


def random_grid(seed: int, n_buses: int, avg_degree: float = 2.0) -> Grid:
    """Seeded random connected grid: spanning tree plus extra edges.

    Susceptances are uniform in [0.5, 2], injections are balanced draws
    from a unit normal, bus 1 is the slack. Extra edges may duplicate an
    existing pair, which yields a legitimate parallel branch.
    """
    if n_buses < 2:
        raise GridStructureError("need at least 2 buses")
    rng = np.random.default_rng(seed)
    edges: list[tuple[int, int]] = []
    for k in range(2, n_buses + 1):
        edges.append((int(rng.integers(1, k)), k))
    n_target = int(round(n_buses * avg_degree / 2.0))
    for _ in range(max(0, n_target - len(edges))):
        i = int(rng.integers(1, n_buses + 1))
        j = int(rng.integers(1, n_buses + 1))
        if i != j:
            edges.append((min(i, j), max(i, j)))
    inj = rng.normal(size=n_buses)
    inj -= inj.mean()
    buses = tuple(
        Bus(id=i + 1, injection=float(inj[i]), is_slack=(i == 0))
        for i in range(n_buses)
    )
    branches = tuple(
        Branch(
            id=e + 1,
            from_bus=f,
            to_bus=t,
            susceptance=float(rng.uniform(0.5, 2.0)),
        )
        for e, (f, t) in enumerate(edges)
    )
    return Grid(buses=buses, branches=branches)


def _median_seconds(paths, reps: int) -> list[float]:
    """Median wall-clock of ``reps`` calls of each of ``paths``.

    The paths take turns over up to four rounds, each path in a loop of its
    own that opens with an untimed call, so one path's timings do not depend
    on the state (caches, BLAS worker threads) the other left behind, and a
    slow spell of the machine lands on both paths rather than on one.
    """
    times: list[list[float]] = [[] for _ in paths]
    rounds = min(reps, 4)
    for k in range(rounds):
        share = reps // rounds + (k < reps % rounds)
        for run, out in zip(paths, times):
            run()
            for _ in range(share):
                t0 = time.perf_counter()
                run()
                out.append(time.perf_counter() - t0)
    return [float(np.median(t)) for t in times]


def bench_update_vs_rebuild(
    n_buses: int,
    n_mods: int,
    reps: int = 20,
    seed: int = 0,
) -> dict:
    """Median wall-clock of the Woodbury update versus a full re-inversion.

    Both paths produce the full modified inverse; their results are checked
    for agreement before any timing is accepted.
    """
    if n_buses < 2 or n_mods < 0 or reps < 1:
        raise GridStructureError("benchmark parameters must be positive")
    grid = random_grid(seed, n_buses, avg_degree=3.0)
    sys = build_grounded_system(grid)
    rng = np.random.default_rng(seed + 1)
    candidates = [br.id for br in grid.branches]
    picks = rng.choice(len(candidates), size=n_mods, replace=False) if n_mods else []
    entries = tuple(
        (candidates[int(i)], 0.5 * grid.branches[int(i)].susceptance) for i in picks
    )
    mods = ModificationSet(entries=entries)

    updated = woodbury_update(sys, mods)
    rebuilt = rebuild_and_solve(grid, deltas=mods.entries).B_inv
    dev = np.linalg.norm(updated - rebuilt) / max(np.linalg.norm(rebuilt), 1e-300)
    if dev > 1e-8:
        raise AssertionError(
            f"update and rebuild disagree (relative deviation {dev:.3g})"
        )

    def rebuild():
        build_grounded_system(rebuild_grid(grid, deltas=mods.entries))

    med_update, med_rebuild = _median_seconds((lambda: woodbury_update(sys, mods), rebuild), reps)
    return {
        "n_buses": n_buses,
        "n_mods": n_mods,
        "reps": reps,
        "median_update_s": med_update,
        "median_rebuild_s": med_rebuild,
        "speedup": med_rebuild / max(med_update, 1e-12),
        "relative_deviation": float(dev),
    }
