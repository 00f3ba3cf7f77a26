"""Outside-in span tracing of the gridfactors modules.

``Tracer.install`` wraps every public function of each layer module, in
every gridfactors namespace that holds a reference to it, and the public
methods of ``SwitchKernel`` on the class. No source file changes. Each call
becomes a span (name, layer, start, end, parent, thread). Spans sit on a
thread-local stack; work handed to a ``ThreadPoolExecutor`` keeps the span
that submitted it as its parent, so the ``n1`` pool is accounted for.

A span's self time is its duration minus the union of the intervals its
child spans cover, which also holds when children on pool threads overlap.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import sys
import threading
import time
import weakref
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor

import numpy as np

#: the modules timed as layers, in import-dependency order
LAYERS = (
    "case_io", "grid_model", "factors_base", "single_mod", "pst", "bus_topology",
    "multi_mod", "islanding", "_linalg", "oracle", "cli",
)


def _arrays(obj, depth: int = 2):
    """ndarrays held by a return value: itself, or inside tuples and dataclasses."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif depth and isinstance(obj, (tuple, list)):
        for item in obj:
            yield from _arrays(item, depth - 1)
    elif depth and dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        for f in dataclasses.fields(obj):
            yield from _arrays(getattr(obj, f.name), depth - 1)


def _covered(t0: float, t1: float, intervals: list[tuple[float, float]]) -> float:
    """Length of the part of [t0, t1] that the union of intervals covers."""
    total, end = 0.0, t0
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, t1)
        if b > a:
            total += b - a
            end = b
    return total


class Tracer:
    """Span recorder; ``install`` patches, ``uninstall`` restores."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        self._seen: dict[int, weakref.ref] = {}
        #: index -> (name, layer, t0, t1, parent index, thread root, thread id, request)
        self.spans: list[tuple | None] = []
        self.out_bytes: dict[str, int] = defaultdict(int)
        #: request number stamped on every span; the caller sets it
        self.request = 0

    # --- patching -------------------------------------------------------------

    def install(self) -> None:
        importlib.import_module("gridfactors.cli")
        wrapped = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"gridfactors.{layer}")
            for name, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and not name.startswith("_")
                    and obj.__module__ == mod.__name__
                ):
                    wrapped[obj] = self._wrap(obj, layer, f"{layer}.{name}")
        for modname, mod in list(sys.modules.items()):
            if modname != "gridfactors" and not modname.startswith("gridfactors."):
                continue
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._patch(mod, name, wrapped[obj])
        kernel = importlib.import_module("gridfactors.multi_mod").SwitchKernel
        for name, obj in list(vars(kernel).items()):
            if inspect.isfunction(obj) and (name == "__init__" or not name.startswith("_")):
                self._patch(kernel, name, self._wrap(obj, "multi_mod", f"multi_mod.SwitchKernel.{name}"))
        self._patch(ThreadPoolExecutor, "submit", self._linked(ThreadPoolExecutor.submit))

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def _patch(self, owner, name: str, replacement) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, replacement)

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, layer: str, name: str):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else getattr(tracer._local, "cause", None)
            with tracer._lock:
                idx = len(tracer.spans)
                tracer.spans.append(None)
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                tracer.spans[idx] = (
                    name, layer, t0, t1, parent, not stack,
                    threading.get_ident(), tracer.request,
                )
            tracer._count_out(layer, result)
            return result

        return traced

    def _linked(self, submit):
        """``ThreadPoolExecutor.submit`` that parents pool spans to the submitter."""
        tracer = self

        def linked(pool, fn, /, *args, **kwargs):
            stack = tracer._stack()
            cause = stack[-1] if stack else None

            def run(*a, **k):
                tracer._local.cause = cause
                try:
                    return fn(*a, **k)
                finally:
                    tracer._local.cause = None

            return submit(pool, run, *args, **kwargs)

        return linked

    def _count_out(self, layer: str, result) -> None:
        """Add the bytes of ndarrays a call returns that no earlier call returned."""
        with self._lock:
            for arr in _arrays(result):
                root = arr
                while isinstance(root.base, np.ndarray):
                    root = root.base
                ref = self._seen.get(id(root))
                if ref is not None and ref() is root:
                    continue
                self._seen[id(root)] = weakref.ref(root)
                self.out_bytes[layer] += arr.nbytes

    # --- accounting -----------------------------------------------------------

    def summary(self) -> dict:
        """Self time and calls per layer and per function, plus span totals."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for s in self.spans:
            if s is not None and s[4] is not None:
                children[s[4]].append((s[2], s[3]))
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        root_s = 0.0
        threads: dict[int, set[int]] = defaultdict(set)
        for idx, s in enumerate(self.spans):
            if s is None:
                continue
            name, layer, t0, t1, _, thread_root, tid, request = s
            own = (t1 - t0) - _covered(t0, t1, children.get(idx, []))
            for key in (name, layer):
                self_s[key] += own
                calls[key] += 1
            if thread_root:
                root_s += t1 - t0
            threads[request].add(tid)
        return {
            "self_s": dict(self_s),
            "calls": dict(calls),
            "out_bytes": dict(self.out_bytes),
            "root_span_s": root_s,
            "threads": max((len(t) for t in threads.values()), default=0),
            "spans": sum(s is not None for s in self.spans),
        }
