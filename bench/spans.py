"""Span recorder for the traced run.

Each wrapped call records its name, start, end and parent span in flat
in-memory arrays; the spans are written out once, when the run ends. A
layer's self time is a span's duration minus the time its direct child spans
cover (calls are single-threaded, so children never overlap).
"""

from __future__ import annotations

import functools
import time
from array import array
from contextlib import contextmanager

import numpy as np


class SpanRecorder:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.active = True  # cleared while the benchmark checks outputs

    def wrap(self, fn, name: str):
        """Return fn wrapped so that every call records one span."""
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        clock = time.perf_counter
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            i = len(rec.start)
            rec.name_id.append(nid)
            rec.parent.append(rec._stack[-1])
            rec.end.append(0.0)
            rec._stack.append(i)
            rec.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                rec.end[i] = clock()
                rec._stack.pop()

        return traced

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, inclusive seconds and self seconds."""
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child
        out = {}
        for nid, name in enumerate(self.names):
            sel = ids == nid
            out[name] = {
                "calls": int(sel.sum()),
                "s": float(dur[sel].sum()),
                "self_s": float(self_time[sel].sum()),
            }
        return out

    def durations(self, name: str) -> np.ndarray:
        if name not in self._ids:
            return np.zeros(0)
        sel = np.frombuffer(self.name_id, dtype=np.int32) == self._ids[name]
        return (np.frombuffer(self.end) - np.frombuffer(self.start))[sel]

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )


@contextmanager
def patched(recorder: SpanRecorder, targets):
    """Wrap each (owner, attribute, span name) for the duration of the block:
    the owner is the module or class whose attribute the callers look up."""
    saved = []
    try:
        for owner, attr, name in targets:
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, recorder.wrap(original, name))
        yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
