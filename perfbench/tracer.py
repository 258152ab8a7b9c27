"""Outside-in span recording for the traced benchmark runs.

A ``Tracer`` wraps public callables of ``ifnlab``; every call through a
wrapper becomes one span (name, start, end, parent).  Spans are kept in
compact in-memory arrays, because the continuity workload makes about a
hundred thousand scalar ``mu``/``nu`` calls, and are written out once at the
end of the run.  Nothing inside ``src/ifnlab`` is touched.
"""
from __future__ import annotations

from array import array
from collections import Counter
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: Counter = Counter()

    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn, count=None):
        """Return ``fn`` recording one span per call.

        ``count(counts, args, kwargs, result)`` runs after the span closes,
        so counting never inflates the callee's time.
        """
        nid = self._id(name)
        stack, starts, ends = self._stack, self.start, self.end

        def traced(*args, **kwargs):
            i = len(starts)
            self.name_id.append(nid)
            self.parent.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                stack.pop()
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result

        return traced

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` once under a span named ``name``."""
        return self.wrap(name, fn)(*args, **kwargs)

    def _arrays(self):
        names = np.array(self.name_id, dtype=np.int32)
        parent = np.array(self.parent, dtype=np.int32)
        start = np.array(self.start, dtype=np.float64)
        end = np.array(self.end, dtype=np.float64)
        return names, parent, start, end

    def summary(self) -> dict:
        """Per-name call count, total time and self time.

        Self time is a span's duration minus the durations of its direct
        children.  Raises if a child span is not contained in its parent,
        since self time would then be meaningless.
        """
        names, parent, start, end = self._arrays()
        dur = end - start
        has_parent = parent >= 0
        p = parent[has_parent]
        if np.any(start[has_parent] < start[p]) or np.any(end[has_parent] > end[p]):
            raise RuntimeError("a traced span escapes its parent span")
        child_time = np.zeros(dur.size)
        np.add.at(child_time, p, dur[has_parent])
        self_time = dur - child_time
        out = {}
        for nid, name in enumerate(self.names):
            sel = names == nid
            out[name] = {"calls": int(np.count_nonzero(sel)),
                         "total_s": float(dur[sel].sum()),
                         "self_s": float(self_time[sel].sum())}
        return out

    def children(self, parent_name: str) -> dict:
        """Calls and total time of the direct children of ``parent_name`` spans, by name."""
        if parent_name not in self._name_ids:
            return {}
        names, parent, start, end = self._arrays()
        under = np.zeros(names.size, dtype=bool)
        has_parent = parent >= 0
        under[has_parent] = names[parent[has_parent]] == self._name_ids[parent_name]
        out = {}
        for nid in np.unique(names[under]):
            sel = under & (names == nid)
            out[self.names[nid]] = {"calls": int(np.count_nonzero(sel)),
                                    "total_s": float((end[sel] - start[sel]).sum())}
        return out

    def write(self, path) -> None:
        names, parent, start, end = self._arrays()
        np.savez(path, names=np.array(self.names), name_id=names, parent=parent,
                 start=start, end=end)


def count_terms(counts, args, kwargs, result) -> None:
    counts["sequences.terms_evaluated"] += int(np.size(result))


def count_degrees(counts, args, kwargs, result) -> None:
    """Rows are the degrees returned; a call returning one degree is a scalar call."""
    rows = int(np.size(result))
    counts["space.rows"] += rows
    if rows == 1:
        counts["space.scalar_calls"] += 1
    x, t = args
    counts["space.bytes_computed"] += (np.asarray(x, dtype=float).nbytes
                                       + np.asarray(t, dtype=float).nbytes
                                       + np.asarray(result).nbytes)


def count_scanned(counts, args, kwargs, result) -> None:
    counts["density.indices_scanned"] += int(result.n_max)
