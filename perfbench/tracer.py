"""Span tracer that times calls into a package from outside it.

The tracer replaces chosen functions with timing wrappers at every place
they are bound: the defining module, every module that imported them by
name, and the class for methods.  Each call records one span (name, start,
end, parent) in flat arrays kept in memory; `write` saves them when the run
ends.  Self time is computed afterwards: a span's duration minus the time
its direct child spans cover (spans nest strictly, as the traced program is
single-threaded).
"""

from __future__ import annotations

import functools
import json
from array import array
from contextlib import contextmanager
from time import perf_counter
from types import ModuleType
from typing import Callable, Iterable


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: dict[str, int] = {}
        self.sites: dict[str, list[tuple[object, str]]] = {}
        self._restore: list[tuple[object, str, object]] = []

    # --- spans -----------------------------------------------------------

    def _id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    @contextmanager
    def span(self, name: str):
        idx = len(self.start)
        self.name_id.append(self._id(name))
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        try:
            yield idx
        finally:
            self.end[idx] = perf_counter()
            self._stack.pop()

    def add(self, counter: str, value: int) -> None:
        self.counts[counter] = self.counts.get(counter, 0) + value

    # --- wrapping --------------------------------------------------------

    def _wrapper(self, name: str, fn: Callable, observe: Callable | None) -> Callable:
        nid = self._id(name)
        name_id, parent, start, end, stack = self.name_id, self.parent, self.start, self.end, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if observe is not None:
                observe(self, result)
            return result

        return traced

    def install(
        self,
        modules: Iterable[ModuleType],
        targets: Iterable[tuple[str, object, str, Callable | None]],
    ) -> None:
        """Wrap each target (span name, owner, attribute, result observer)
        at every binding site; see `rebind`."""
        modules = list(modules)
        for name, owner, attr, observe in targets:
            original = vars(owner)[attr]
            sites = rebind(modules, owner, attr, self._wrapper(name, original, observe))
            self.sites[name] = sites
            self._restore.extend((site, key, original) for site, key in sites)

    def uninstall(self) -> None:
        while self._restore:
            site, key, original = self._restore.pop()
            setattr(site, key, original)

    # --- analysis and output --------------------------------------------

    def summarize(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds."""
        n = len(self.start)
        child = [0.0] * n
        parent, start, end = self.parent, self.start, self.end
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        out = {name: {"calls": 0, "total": 0.0, "self": 0.0} for name in self.names}
        for i in range(n):
            rec = out[self.names[self.name_id[i]]]
            dur = end[i] - start[i]
            rec["calls"] += 1
            rec["total"] += dur
            rec["self"] += dur - child[i]
        return out

    def under(self, ancestors: Iterable[str]) -> bytearray:
        """Flag per span: 1 when some proper ancestor is named in `ancestors`."""
        ids = {self._ids[a] for a in ancestors if a in self._ids}
        flags = bytearray(len(self.start))
        parent, name_id = self.parent, self.name_id
        for i in range(len(flags)):
            p = parent[i]
            if p >= 0 and (flags[p] or name_id[p] in ids):
                flags[i] = 1
        return flags

    def select(self, names: Iterable[str], mask: bytearray | None = None, invert: bool = False):
        """(calls, total seconds) of spans named in `names`, filtered by mask."""
        ids = {self._ids[a] for a in names if a in self._ids}
        calls, total = 0, 0.0
        for i in range(len(self.start)):
            if self.name_id[i] in ids and (mask is None or bool(mask[i]) != invert):
                calls += 1
                total += self.end[i] - self.start[i]
        return calls, total

    def write(self, path: str, meta: dict) -> None:
        """One JSON header line, then name_id, parent (int32) and start,
        end (float64) as raw native-endian arrays; see `read_spans`."""
        header = {"meta": meta, "names": self.names, "spans": len(self.start), "counts": self.counts}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_id, self.parent, self.start, self.end):
                arr.tofile(fh)


def rebind(modules: Iterable[ModuleType], owner: object, attr: str, replacement) -> list[tuple[object, str]]:
    """Bind `replacement` wherever `owner.attr` is bound: on the owner (the
    defining module or class) and under any name in the globals of
    `modules` that holds the same object.  Returns the sites rebound."""
    original = vars(owner)[attr]
    sites = [(owner, attr)] + [
        (m, k)
        for m in modules
        for k, v in vars(m).items()
        if v is original and not (m is owner and k == attr)
    ]
    for site, key in sites:
        setattr(site, key, replacement)
    return sites


def read_spans(path: str) -> tuple[dict, array, array, array, array]:
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        n = header["spans"]
        arrays = []
        for code in ("i", "i", "d", "d"):
            arr = array(code)
            arr.fromfile(fh, n)
            arrays.append(arr)
    return (header, *arrays)
