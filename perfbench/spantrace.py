"""In-memory span tracer that hooks srgbounds from outside.

A span is (name, start, end, parent, op): the parent is the span that was
open when this one began, and ``op`` is the id of the benchmark operation
the span belongs to.  Spans live in flat ``array`` columns so that a traced
catalogue scan (a few hundred thousand spans) stays small.

Hooks rebind public names at run time -- a module global such as
``srgbounds.cab.cap_min_over_b`` or a class attribute such as
``QuadExt.sqrt`` -- and restore them on ``uninstall``.  A hook whose target
no longer exists is recorded in ``missing`` instead of failing, so metrics
that depend on it can be reported as missing rather than as zero.
"""

from __future__ import annotations

import gzip
import importlib
from array import array
from collections import Counter
from time import perf_counter


class Tracer:
    """Spans of one traced pass, the hooks that record them, and counts
    (``counts``) that the hooks and the benchmark add at the same places."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op_of = array("i")
        self.op = 0
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.missing: dict[str, str] = {}
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin(self, name: str) -> int:
        idx = len(self.start)
        self.name.append(self._name_id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op_of.append(self.op)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        idx = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.finish(idx)

    def _wrap(self, name: str, fn, on_result=None):
        def wrapper(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _wrap_generator(self, name: str, fn):
        """Each ``next`` on the generator is one span, so the time a consumer
        spends between items is not charged to the generator."""
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                idx = self.begin(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self.finish(idx)
                yield item

        return wrapper

    # -- hooks --------------------------------------------------------------

    def hook(self, target: str, attr: str, name: str, *, generator: bool = False,
             on_result=None) -> None:
        """Rebind ``target.attr`` (a module, or ``module:Class``) to a
        span-recording wrapper."""
        module_name, _, class_name = target.partition(":")
        try:
            owner = importlib.import_module(module_name)
            if class_name:
                owner = getattr(owner, class_name)
            raw = owner.__dict__[attr] if class_name else getattr(owner, attr)
        except (ImportError, AttributeError, KeyError) as exc:
            self.missing[f"{target}.{attr}"] = f"hook target not found ({exc!r})"
            return
        fn = raw.__func__ if isinstance(raw, staticmethod) else raw
        wrapped = (self._wrap_generator(name, fn) if generator
                   else self._wrap(name, fn, on_result))
        setattr(owner, attr, staticmethod(wrapped) if isinstance(raw, staticmethod) else wrapped)
        self._undo.append((owner, attr, raw))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    # -- analysis -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.start)

    def durations(self) -> list[float]:
        return [e - s for s, e in zip(self.start, self.end)]

    def self_times(self) -> list[float]:
        """Duration minus the time covered by direct children.  Spans nest
        strictly (one thread, stack discipline), so children never overlap."""
        dur = self.durations()
        own = list(dur)
        for idx, par in enumerate(self.parent):
            if par >= 0:
                own[par] -= dur[idx]
        return own

    def by_name(self) -> dict[str, list[int]]:
        out: dict[str, list[int]] = {n: [] for n in self.names}
        for idx, nid in enumerate(self.name):
            out[self.names[nid]].append(idx)
        return out

    def write(self, path) -> None:
        """Spans as gzip-compressed CSV: name,start,end,parent,op."""
        with gzip.open(path, "wt", compresslevel=3) as fh:
            fh.write("name,start,end,parent,op\n")
            for i in range(len(self.start)):
                fh.write(f"{self.names[self.name[i]]},{self.start[i]!r},{self.end[i]!r},"
                         f"{self.parent[i]},{self.op_of[i]}\n")
