"""Span recorder for the traced benchmark run.

The wrappers replace module-level names of vanetflow from outside the
package. Each wrapper is pass-through: it forwards every argument, returns
the result unchanged, draws no random number and reorders nothing. A span is
(name, start, end, parent span) in host seconds from ``time.perf_counter``,
which reads the same monotonic clock in every process of the machine.

Spans live in growable arrays while the run goes on and are written out as
one ``.npz`` file at the end. A span's self time is its duration minus the
durations of its direct children, which nest inside it on one thread.
"""

from __future__ import annotations

import os
import time
from array import array

import numpy as np


class Tracer:
    """Spans and outcome counters of one process."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts: dict[str, int] = {}
        self.last_state = None
        self.pid = os.getpid()
        self._patches = []

    def clear(self):
        """Drop every span and counter in place; wrappers keep working."""
        del self.name_id[:], self.parent[:], self.start[:], self.end[:]
        del self.stack[1:]
        self.counts.clear()
        self.last_state = None
        self.pid = os.getpid()

    def count(self, key: str):
        self.counts[key] = self.counts.get(key, 0) + 1

    def wrap(self, name: str, fn, on_result=None):
        """A pass-through wrapper of ``fn`` that records one span per call.

        ``on_result(args, result)`` runs after the span closes; it may count
        outcomes but must not touch the arguments or the result.
        """
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        name_ids, parents, starts, ends = self.name_id, self.parent, self.start, self.end
        stack = self.stack
        clock = time.perf_counter

        # the clock reads come first and last, so the wrapper's own
        # bookkeeping lands in this span rather than in the caller's self time
        def traced(*args, **kwargs):
            t0 = clock()
            i = len(ends)
            name_ids.append(nid)
            parents.append(stack[-1])
            starts.append(t0)
            ends.append(0.0)
            stack.append(i)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                ends[i] = clock()
            if on_result is not None:
                on_result(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, replacement):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def spans(self) -> "Spans":
        """The spans so far; the arrays are copies, so clear() leaves them intact."""
        return Spans(list(self.names), np.array(self.name_id, dtype=np.int32),
                     np.array(self.parent, dtype=np.int64),
                     np.array(self.start), np.array(self.end))


class Spans:
    """A closed set of spans: a name table plus one row per span."""

    def __init__(self, names, name_id, parent, start, end):
        self.names = names
        self.name_id = name_id
        self.parent = parent
        self.start = start
        self.end = end

    def __len__(self):
        return len(self.name_id)

    @classmethod
    def merge(cls, parts) -> "Spans":
        """Concatenate span sets, remapping names and parent indices."""
        ids, name_ids, parents = {}, [], []
        offset = 0
        for part in parts:
            remap = np.array([ids.setdefault(n, len(ids)) for n in part.names], dtype=np.int32)
            name_ids.append(remap[part.name_id])
            parents.append(np.where(part.parent >= 0, part.parent + offset, -1))
            offset += len(part)
        return cls(sorted(ids, key=ids.get), np.concatenate(name_ids),
                   np.concatenate(parents), np.concatenate([p.start for p in parts]),
                   np.concatenate([p.end for p in parts]))

    def save(self, path):
        np.savez(path, names=np.array(self.names, dtype=str), name_id=self.name_id,
                 parent=self.parent, start=self.start, end=self.end)

    @classmethod
    def load(cls, path) -> "Spans":
        with np.load(path) as data:
            return cls([str(n) for n in data["names"]], data["name_id"], data["parent"],
                       data["start"], data["end"])

    def durations(self) -> np.ndarray:
        return self.end - self.start

    def self_times(self) -> np.ndarray:
        """Duration minus the time covered by direct children."""
        dur = self.durations()
        child = self.parent >= 0
        covered = np.bincount(self.parent[child], weights=dur[child], minlength=len(dur))
        return dur - covered

    def by_name(self, name: str) -> np.ndarray:
        """Boolean mask of the spans called ``name``."""
        if name not in self.names:
            return np.zeros(len(self), dtype=bool)
        return self.name_id == self.names.index(name)
