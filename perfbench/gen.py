"""Seeded input generator for the benchmark, independent of gridfactors.

A ``Case`` is the generator's own plain description of a grid. The same
object feeds the file writers (native JSON and Matpower ``.m``) and the
referee, so the program under test only ever sees the files.

Random choices that would make invalid input (a split that leaves a bus
cut off, a redundant pair of closings, an outage of a bridge) are redrawn
here, at generation time, after a check by graph traversal.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

LINE = "line"
SWITCH = "switch"


@dataclass
class Case:
    """Buses ``1..n`` with bus 1 the slack; branches as parallel lists."""

    n: int
    inj: np.ndarray  # per-unit injection per bus, index = bus id - 1
    ids: list[int] = field(default_factory=list)
    frm: list[int] = field(default_factory=list)
    to: list[int] = field(default_factory=list)
    b: list[float] = field(default_factory=list)
    kind: list[str] = field(default_factory=list)

    slack = 1

    def add(self, f: int, t: int, b: float, kind: str = LINE) -> int:
        bid = len(self.ids) + 1
        self.ids.append(bid)
        self.frm.append(f)
        self.to.append(t)
        self.b.append(b)
        self.kind.append(kind)
        return bid

    def index(self, branch_id: int) -> int:
        return branch_id - 1

    def lines(self) -> list[int]:
        """Ids of in-service lines (switches and zero susceptance excluded)."""
        return [i for i, k, b in zip(self.ids, self.kind, self.b) if k == LINE and b > 0]

    def incident(self, bus: int) -> list[int]:
        return [
            i for i, f, t in zip(self.ids, self.frm, self.to) if bus in (f, t)
        ]


class UnionFind:
    def __init__(self):
        self.parent: dict[int, int] = {}

    def find(self, x: int) -> int:
        self.parent.setdefault(x, x)
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: int, b: int) -> bool:
        """Join two sets; False when they were already one."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[ra] = rb
        return True


def merge_switches(case: Case, closed: list[int]) -> tuple[UnionFind, bool]:
    """Buses merged by the closed switches, and whether a closing was redundant.

    A closing is redundant when its switch joins buses that the other
    closed switches have already merged.
    """
    uf = UnionFind()
    redundant = False
    for s in closed:
        e = case.index(s)
        redundant |= not uf.union(case.frm[e], case.to[e])
    return uf, redundant


def connected(n: int, edges) -> bool:
    """Whether buses ``1..n`` form one component over ``(from, to)`` edges."""
    uf = UnionFind()
    for f, t in edges:
        uf.union(f, t)
    root = uf.find(1)
    return all(uf.find(k) == root for k in range(2, n + 1))


def random_case(rng: np.random.Generator, n: int, avg_degree: float = 3.0) -> Case:
    """Connected grid: a random recursive tree plus random extra lines.

    The tree leaves many degree-one buses, so the grid keeps bridges.
    Extra lines may repeat a bus pair, which is a legitimate parallel line.
    """
    inj = rng.normal(size=n)
    inj -= inj.mean()
    case = Case(n=n, inj=inj)
    edges = [(int(rng.integers(1, k)), k) for k in range(2, n + 1)]
    n_extra = int(round(n * avg_degree / 2.0)) - len(edges)
    while n_extra > 0:
        i, j = (int(v) for v in rng.integers(1, n + 1, size=2))
        if i != j:
            edges.append((min(i, j), max(i, j)))
            n_extra -= 1
    order = rng.permutation(len(edges))
    for k in order:
        f, t = edges[k]
        case.add(f, t, float(rng.uniform(0.5, 2.0)))
    return case


def add_switches(rng: np.random.Generator, case: Case, n_random: int) -> list[int]:
    """Open switches: ``n_random`` between random bus pairs, then a triangle.

    Closing all three triangle switches is a redundant closing, so every
    setting with the triangle closed reports islands. The buses are drawn
    distinct, and a traversal over the switch edges confirms that the
    triangle is their only cycle.
    """
    buses = [int(v) for v in rng.choice(np.arange(2, case.n + 1), size=2 * n_random + 3, replace=False)]
    pairs = [(buses[2 * k], buses[2 * k + 1]) for k in range(n_random)]
    a, b, c = buses[-3:]
    pairs += [(a, b), (b, c), (c, a)]
    uf = UnionFind()
    if sum(0 if uf.union(f, t) else 1 for f, t in pairs) != 1:
        raise AssertionError("switch edges must hold exactly one cycle")
    return [case.add(f, t, 0.0, SWITCH) for f, t in pairs]


def bridges(case: Case) -> set[int]:
    """Ids of in-service lines whose removal disconnects the grid (Tarjan)."""
    adj: dict[int, list[tuple[int, int]]] = {k: [] for k in range(1, case.n + 1)}
    for bid in case.lines():
        e = case.index(bid)
        adj[case.frm[e]].append((case.to[e], bid))
        adj[case.to[e]].append((case.frm[e], bid))
    disc: dict[int, int] = {}
    low: dict[int, int] = {}
    out: set[int] = set()
    counter = 0
    for root in adj:
        if root in disc:
            continue
        disc[root] = low[root] = counter
        counter += 1
        stack = [(root, 0, iter(adj[root]))]
        while stack:
            node, via, it = stack[-1]
            advanced = False
            for nxt, bid in it:
                if bid == via:
                    continue
                if nxt in disc:
                    low[node] = min(low[node], disc[nxt])
                else:
                    disc[nxt] = low[nxt] = counter
                    counter += 1
                    stack.append((nxt, bid, iter(adj[nxt])))
                    advanced = True
                    break
            if not advanced:
                stack.pop()
                if stack:
                    parent = stack[-1][0]
                    low[parent] = min(low[parent], low[node])
                    if low[node] > disc[parent]:
                        out.add(via)
    return out


# --- modification sets -------------------------------------------------------

@dataclass
class Mods:
    """A staged what-if: deltas, then switch closings, then one split."""

    deltas: list[tuple[int, float]]
    closed: list[int]
    switches: list[int]
    split_parent: int
    split_moved: list[int]
    new_bus: int
    injection_to_new: float

    def doc(self) -> dict:
        return {
            "deltas": [{"branch": b, "db": d} for b, d in self.deltas],
            "switches": {
                str(s): ("closed" if s in self.closed else "open") for s in self.switches
            },
            "splits": [
                {
                    "parent": self.split_parent,
                    "assignments": {str(b): "new" for b in self.split_moved},
                    "new_bus": self.new_bus,
                    "injection_to_new": self.injection_to_new,
                }
            ],
        }


def apply_mods(case: Case, mods: Mods) -> tuple[Case, UnionFind]:
    """Modified grid (deltas applied, split rewired) and the closed-switch merge.

    Closed switches are not rewired here: the returned union-find says which
    buses they merge, and the referee contracts them.
    """
    out = Case(n=case.n + 1, inj=np.append(case.inj, mods.injection_to_new))
    out.inj[mods.split_parent - 1] -= mods.injection_to_new
    deltas = dict(mods.deltas)
    moved = set(mods.split_moved)
    for bid, f, t, b, k in zip(case.ids, case.frm, case.to, case.b, case.kind):
        if bid in moved:
            f = mods.new_bus if f == mods.split_parent else f
            t = mods.new_bus if t == mods.split_parent else t
        out.add(f, t, max(b + deltas.get(bid, 0.0), 0.0), k)
    return out, merge_switches(case, mods.closed)[0]


def draw_mods(rng: np.random.Generator, case: Case, switches: list[int]) -> Mods:
    """Deltas (one full outage, two halvings), two closings and one split.

    Every draw is checked by traversal: the outage must not be a bridge,
    the closings must not be redundant, and the split must leave the grid
    connected. Invalid draws are redrawn.
    """
    touched = {case.frm[case.index(s)] for s in switches} | {
        case.to[case.index(s)] for s in switches
    }
    br = bridges(case)
    candidates = [b for b in case.lines() if b not in br]
    parents = [
        k for k in range(2, case.n + 1) if k not in touched and len(case.incident(k)) >= 3
    ]
    while True:
        picks = [candidates[int(i)] for i in rng.choice(len(candidates), size=3, replace=False)]
        deltas = [(picks[0], -case.b[case.index(picks[0])])]
        deltas += [(p, -0.5 * case.b[case.index(p)]) for p in picks[1:]]
        closed = sorted(int(s) for s in rng.choice(switches, size=2, replace=False))
        if merge_switches(case, closed)[1]:
            continue
        parent = int(parents[int(rng.integers(len(parents)))])
        inc = case.incident(parent)
        moved = sorted(int(b) for b in rng.choice(inc, size=len(inc) // 2, replace=False))
        mods = Mods(
            deltas=deltas,
            closed=closed,
            switches=list(switches),
            split_parent=parent,
            split_moved=moved,
            new_bus=case.n + 1,
            injection_to_new=float(0.5 * case.inj[parent - 1]),
        )
        after, _ = apply_mods(case, mods)
        edges = [
            (after.frm[e], after.to[e])
            for e in range(len(after.ids))
            if after.kind[e] == LINE and after.b[e] > 0
        ]
        edges += [(after.frm[case.index(s)], after.to[case.index(s)]) for s in closed]
        if connected(after.n, edges):
            return mods


# --- file writers ------------------------------------------------------------

def write_json(case: Case, path: str) -> None:
    """Native gridfactors JSON grid document."""
    doc = {
        "buses": [
            {"id": k, "injection": float(case.inj[k - 1]), **({"slack": True} if k == case.slack else {})}
            for k in range(1, case.n + 1)
        ],
        "branches": [
            {"id": i, "from": f, "to": t, "b": b, "kind": k}
            for i, f, t, b, k in zip(case.ids, case.frm, case.to, case.b, case.kind)
        ],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)


def write_matpower(case: Case, path: str, base_mva: float = 100.0) -> list[float]:
    """Matpower case file of the grid's lines; returns the written reactances.

    Switches have no Matpower form and are left out, so the file's branch
    ``k`` is the ``k``-th line of the case. Loads and generators carry the
    injections; the program rebalances any rounding residue at the slack.
    """
    rows_bus, rows_gen, rows_br, xs = [], [], [], []
    for k in range(1, case.n + 1):
        p = float(case.inj[k - 1]) * base_mva
        kind = 3 if k == case.slack else (2 if p > 0 else 1)
        rows_bus.append(f"\t{k}\t{kind}\t{max(-p, 0.0)!r}\t0\t0\t0\t1\t1\t0\t230\t1\t1.1\t0.9;")
        if p > 0 or k == case.slack:
            rows_gen.append(f"\t{k}\t{max(p, 0.0)!r}\t0\t100\t-100\t1\t100\t1\t1000\t0;")
    for f, t, b, kind in zip(case.frm, case.to, case.b, case.kind):
        if kind != LINE:
            continue
        x = 1.0 / b
        xs.append(x)
        rows_br.append(f"\t{f}\t{t}\t0\t{x!r}\t0\t0\t0\t0\t0\t0\t1\t-360\t360;")
    text = "\n".join(
        [
            "function mpc = generated",
            "mpc.version = '2';",
            f"mpc.baseMVA = {base_mva!r};",
            "mpc.bus = [", *rows_bus, "];",
            "mpc.gen = [", *rows_gen, "];",
            "mpc.branch = [", *rows_br, "];",
            "",
        ]
    )
    with open(path, "w") as fh:
        fh.write(text)
    return xs
