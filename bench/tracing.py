"""Spans around the benchmark's own calls into homfactor's modules.

Every call the benchmark makes into a public function of the program goes
through ``Tracer.call``. With tracing off that is a plain call. With tracing
on it records one span (id, name, start, end, parent span, row id); spans
stay in memory and are written out once, when the run ends. A layer's time
is the summed duration of its spans: layer spans have no children, so
duration equals self time.
"""

from __future__ import annotations

import json
import time

SETUP_ROW = -1


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans = []  # [id, name, start, end, parent, row]
        self._parent = None
        self._row = SETUP_ROW

    def call(self, name, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        span = [len(self.spans), name, time.perf_counter(), 0.0, self._parent, self._row]
        self.spans.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            span[3] = time.perf_counter()

    def begin(self, name, row):
        """Open a parent span (a row, or the set-up) for the calls that follow."""
        if not self.enabled:
            return None
        span = [len(self.spans), name, time.perf_counter(), 0.0, None, row]
        self.spans.append(span)
        self._parent, self._row = span[0], row
        return span

    def end(self, span):
        if span is not None:
            span[3] = time.perf_counter()
            self._parent, self._row = None, SETUP_ROW

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, row in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start,
                                     "end": end, "parent": parent, "row": row}))
                fh.write("\n")

    def totals(self, *, setup: bool, adjust):
        """{span name: (summed seconds, count)} over set-up or row spans;
        ``adjust(start, seconds)`` converts each span's duration."""
        out = {}
        for _, name, start, end, parent, row in self.spans:
            if parent is None or (row == SETUP_ROW) != setup:
                continue
            secs, count = out.get(name, (0.0, 0))
            out[name] = (secs + adjust(start, end - start), count + 1)
        return out

    def row_seconds(self, *, adjust):
        return sum(adjust(start, end - start) for _, name, start, end, _, _ in self.spans
                   if name == "row")
