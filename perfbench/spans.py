"""Spans around the benchmark's calls into the package, and run-time counters.

A recorder is passed to every item explicitly.  `Recorder` only forwards
the call; `Tracer` also keeps one span per call in memory (name, start,
end, parent, item id) and writes them out when the run ends.  Span names
are "<module>.<function>", so the module is the layer.
"""

from __future__ import annotations

import gc
import json
from time import process_time as clock

# The package is single-threaded and CPU-bound, so its time is the
# process's CPU time (user + system, collector included).  Unlike the wall
# clock, it leaves out time the machine gives to other processes.


class Recorder:
    """Untraced: calls straight through."""

    def call(self, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def begin_item(self, item_id):
        pass

    def end_item(self):
        pass


class Tracer(Recorder):
    def __init__(self):
        self.spans = []  # (name, start, end, parent, item id); parent is an index or None
        self.gc = GcMonitor()  # collections inside items; the caller may replace it per pass
        self._stack = []
        self._item = None

    def call(self, fn, *args, **kwargs):
        sid = self._open(f"{fn.__module__.rpartition('.')[2]}.{fn.__name__}")
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(sid)

    def begin_item(self, item_id):
        self._item = item_id
        gc.callbacks.append(self.gc.callback)
        self._open("bench.item")

    def end_item(self):
        self._close(self._stack[-1])
        gc.callbacks.remove(self.gc.callback)
        self._item = None

    def _open(self, name):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, clock(), None, parent, self._item])
        self._stack.append(sid)
        return sid

    def _close(self, sid):
        self.spans[sid][2] = clock()
        self._stack.pop()

    def self_times(self, first=0):
        """Busy and self time per span name, over spans[first:]."""
        child_time = {}
        for name, start, end, parent, _ in self.spans[first:]:
            if parent is not None:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        busy, own = {}, {}
        for sid in range(first, len(self.spans)):
            name, start, end, _, _ = self.spans[sid]
            busy[name] = busy.get(name, 0.0) + (end - start)
            own[name] = own.get(name, 0.0) + (end - start) - child_time.get(sid, 0.0)
        return busy, own

    def write(self, path):
        rows = [
            {"name": n, "start": s, "end": e, "parent": p, "item": i}
            for n, s, e, p, i in self.spans
        ]
        with open(path, "w", encoding="ascii") as fh:
            json.dump(rows, fh)


class GcMonitor:
    """Collector pauses and gen-2 collections, from gc.callbacks.  Only
    collections inside items count, not the full collection the runner
    makes before each item."""

    def __init__(self):
        self.pause_s = 0.0
        self.gen2 = 0
        self._start = None

    def callback(self, phase, info):
        if phase == "start":
            self._start = clock()
        elif self._start is not None:
            self.pause_s += clock() - self._start
            self._start = None
            if info["generation"] == 2:
                self.gen2 += 1
