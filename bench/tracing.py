"""Span tracer that instruments roadlift from the outside.

The program is never edited.  ``Tracer.install`` replaces the
module-level bindings that callers resolve at call time (every
``roadlift.*`` module global that is the traced function, so a name
re-imported into ``roadlift.cli`` or ``roadlift.synthetic_world`` is
wrapped beside its home binding) and the class attributes of traced
methods.  ``uninstall`` puts the originals back, so untraced passes run
the pristine code.

Each span has a name, a start, an end and a parent (the span open when
it began); spans live in flat arrays in memory and are written out once,
at the end.  A span's self time is its duration minus the time its child
spans cover.  Counters that observers derive from arguments and results
(positive IoUs, skipped mask points, ...) are kept per pass beside the
spans.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager

import numpy as np


class Tracer:
    def __init__(self, failure_types: tuple[type[BaseException], ...] = ()):
        self.failure_types = failure_types
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.failed = array("b")
        self._stack = [-1]
        self.counters: Counter = Counter()
        self._installed: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.failed.append(0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """Span around a block of the benchmark's own code."""
        idx = self._open(self.name_id(name))
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name: str, fn, observe=None):
        """``fn`` recording one span per call.  ``observe(counters, args,
        result)`` runs after a call that returned; a call that raised one
        of ``failure_types`` is flagged failed."""
        nid = self.name_id(name)
        failure_types = self.failure_types
        open_, close = self._open, self._close
        failed = self.failed

        def traced(*args, **kwargs):
            idx = open_(nid)
            try:
                result = fn(*args, **kwargs)
            except failure_types:
                failed[idx] = 1
                raise
            finally:
                close(idx)
            if observe is not None:
                observe(self.counters, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self, targets) -> None:
        """Wrap every target (an object with ``span``, ``module``,
        ``attribute`` and ``observe``).  ``attribute`` is a function
        name, wrapped at every ``roadlift.*`` binding of that function
        object, or ``Class.method``, wrapped on the class."""
        if self._installed:
            raise RuntimeError("tracer already installed")
        modules = [m for k, m in sorted(sys.modules.items()) if k.split(".")[0] == "roadlift"]
        for target in targets:
            module = sys.modules[target.module]
            if "." in target.attribute:
                cls_name, meth = target.attribute.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[meth]
                self._patch(owner, meth, original,
                            self.wrap(target.span, original, target.observe))
                continue
            original = getattr(module, target.attribute)
            wrapper = self.wrap(target.span, original, target.observe)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)

    def _patch(self, owner, key: str, original, wrapper) -> None:
        setattr(owner, key, wrapper)
        self._installed.append((owner, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._installed):
            setattr(owner, key, original)
        self._installed.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        """The spans as numpy columns, plus each span's self time."""
        parent = np.frombuffer(self.parent, dtype=np.int32).astype(np.int64)
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        duration = end - start
        has_parent = parent >= 0
        covered = np.bincount(
            parent[has_parent], weights=duration[has_parent], minlength=len(duration)
        )
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": parent,
            "start": start.copy(),
            "end": end.copy(),
            "failed": np.frombuffer(self.failed, dtype=np.int8).astype(bool),
            "self": duration - covered,
        }

    def save(self, path) -> None:
        cols = self.arrays()
        np.savez(path, names=np.array(self.names), **cols)
