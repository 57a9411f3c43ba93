"""In-memory span recorder and the rebinding that installs its wrappers.

A span is (name, start, end, parent span).  Spans are appended to flat
arrays so a run with about a million kernel calls stays small, and are
written out once, when the run ends.  Counters record work at the same
boundaries where a span would cost more than the call it wraps.
"""

from __future__ import annotations

import json
import sys
from array import array
from collections import Counter
from math import ceil
from time import perf_counter


def rebind(original, replacement, package: str = "exactcomb") -> int:
    """Replace every module-level binding of ``original`` inside ``package``.

    This covers the defining module and every module that took the object
    with ``from ... import``.  Returns how many bindings were replaced.
    """
    replaced = 0
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == package or modname.startswith(package + ".")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                replaced += 1
    return replaced


class Tracer:
    """Spans and counters of one traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self._stack: list[int] = []
        self.counts: Counter = Counter()

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def spanned(self, name: str, fn, on_result=None):
        """``fn`` wrapped so each call records a span under ``name``."""
        nid = self._id(name)
        name_id, start, end, parent, stack = (
            self.name_id, self.start, self.end, self.parent, self._stack)

        def wrapper(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if on_result is not None:
                on_result(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, name: str, fn, count_true: bool = False):
        """``fn`` wrapped so calls (and, optionally, truthy results) are counted."""
        counts = self.counts
        true_key = name + ".true"

        def wrapper(*args, **kwargs):
            counts[name] += 1
            result = fn(*args, **kwargs)
            if count_true and result:
                counts[true_key] += 1
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counted_yields(self, name: str, gen_fn):
        """A generator function wrapped so every yielded item is counted."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            for item in gen_fn(*args, **kwargs):
                counts[name] += 1
                yield item

        wrapper.__wrapped__ = gen_fn
        return wrapper

    # -- read-out -----------------------------------------------------------

    def per_name(self) -> dict[str, dict]:
        """calls, total seconds, self seconds and sorted durations per name.

        Self time is a span's duration minus the time its child spans
        cover; spans nest strictly because the run is single-threaded.
        """
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        out: dict[str, dict] = {}
        for i in range(n):
            name = self.names[self.name_id[i]]
            rec = out.get(name)
            if rec is None:
                rec = out[name] = {"calls": 0, "s": 0.0, "self_s": 0.0, "durations": []}
            rec["calls"] += 1
            rec["s"] += dur[i]
            rec["self_s"] += dur[i] - child[i]
            rec["durations"].append(dur[i])
        for rec in out.values():
            rec["durations"].sort()
        return out

    def write(self, path) -> None:
        """Dump the spans: a JSON header line, then the four raw arrays."""
        with open(path, "wb") as fh:
            header = {"names": self.names, "spans": len(self.start),
                      "arrays": ["name_id:H", "start:d", "end:d", "parent:l"],
                      "counts": dict(self.counts)}
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_id, self.start, self.end, self.parent):
                arr.tofile(fh)


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list (0 for an empty list)."""
    if not sorted_values:
        return 0.0
    k = min(len(sorted_values), max(1, ceil(q * len(sorted_values))))
    return sorted_values[k - 1]
