"""Spans recorded from outside the library.

``Tracer.install`` wraps named functions of the ``ksupport`` package at every
module binding that holds them (``ksupport.solver.top_norm`` is a binding of
``ksupport.norms.top_norm`` as well), so calls made inside the library are
recorded too.  Module-level dicts that hold a traced function, such as
``ksupport.verify.SUITES``, get the wrapper as well.  Each span keeps its name,
start, end, parent span and the id of the benchmark operation that caused it.
``uninstall`` puts the original objects back.  Nothing is installed unless a
traced run asks for it.
"""

from __future__ import annotations

import array
import functools
import importlib
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

ROOT_SPAN = "bench.op"


@dataclass(frozen=True)
class Target:
    """A function to trace: where it is defined and the span name it gets."""

    module: str
    function: str
    span: str
    observe: Callable[[Counter, Any], None] | None = None


class Tracer:
    def __init__(self, package: str = "ksupport") -> None:
        self.package = package
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array.array("d")
        self.end = array.array("d")
        self.name = array.array("i")
        self.parent = array.array("q")
        self.op = array.array("q")
        self.counts: Counter = Counter()
        self.op_id = -1
        self._stack: list[int] = []
        self._first = 0  # root span of the current operation
        self._installed: list[tuple[dict, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        i = len(self.start)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.name.append(nid)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def begin(self, op_id: int) -> None:
        """Open the root span of one benchmark operation."""
        self.op_id = op_id
        self._first = self._open(self.name_id(ROOT_SPAN))

    def finish(self) -> None:
        """Close the operation begun last, whatever state it left behind.

        An operation stopped by an asynchronous exception (the benchmark's
        time limit) can leave a span open, an index on the stack or, when it
        lands inside ``_open``, the arrays at different lengths.  The arrays
        are cut back to their common length, every span of the operation
        left open is closed now, and the stack is emptied.  Call it where no
        such exception can arrive any more.
        """
        now = time.perf_counter()
        n = min(len(self.start), len(self.end), len(self.name), len(self.parent), len(self.op))
        for a in (self.start, self.end, self.name, self.parent, self.op):
            del a[n:]
        for i in range(self._first, n):
            if self.end[i] == 0.0:
                self.end[i] = now
        self._stack.clear()

    def _wrap(self, target: Target, fn: Callable) -> Callable:
        nid = self.name_id(target.span)
        observe = target.observe
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self._open(nid)
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                counts[f"{target.span}.raised.{type(exc).__name__}"] += 1
                raise
            finally:
                self._close(i)
            if observe is not None:
                observe(counts, out)
            return out

        return traced

    def _modules(self) -> list:
        return [
            m
            for n, m in sorted(sys.modules.items())
            if m is not None and (n == self.package or n.startswith(self.package + "."))
        ]

    def install(self, targets: Sequence[Target]) -> None:
        if self._installed:
            raise RuntimeError("tracer already installed")
        for t in targets:
            importlib.import_module(t.module)
        modules = self._modules()
        tables = [v for m in modules for v in vars(m).values() if type(v) is dict]
        for t in targets:
            orig = getattr(sys.modules[t.module], t.function)
            wrapper = self._wrap(t, orig)
            for ns in [vars(m) for m in modules] + tables:
                for key, val in list(ns.items()):
                    if val is orig:
                        ns[key] = wrapper
                        self._installed.append((ns, key, orig))

    def uninstall(self) -> None:
        for ns, key, orig in reversed(self._installed):
            ns[key] = orig
        self._installed.clear()

    @contextmanager
    def installed(self, targets: Sequence[Target]):
        self.install(targets)
        try:
            yield self
        finally:
            self.uninstall()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "start": np.frombuffer(self.start, dtype=float),
            "end": np.frombuffer(self.end, dtype=float),
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "op": np.frombuffer(self.op, dtype=np.int64),
        }

    def per_name(self) -> dict[str, tuple[int, float]]:
        """Call count and summed self time of every span name."""
        a = self.arrays()
        own = self_times(a["start"], a["end"], a["parent"])
        calls = np.bincount(a["name"], minlength=len(self.names))
        selfs = np.bincount(a["name"], weights=own, minlength=len(self.names))
        return {n: (int(calls[i]), float(selfs[i])) for i, n in enumerate(self.names)}

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the time its child spans cover.

    Children of one span come from one call stack, so they never overlap and
    their durations add up to the covered time.
    """
    dur = np.asarray(end, dtype=float) - np.asarray(start, dtype=float)
    parent = np.asarray(parent)
    has = parent >= 0
    covered = np.bincount(parent[has], weights=dur[has], minlength=dur.size)
    return dur - covered
