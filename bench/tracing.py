"""In-memory spans recorded around the benchmark's calls into each layer.

A span is (id, name, start, end, parent). The layer is the part of the name
before the first dot: `grammar.apply` belongs to `grammar`. Root spans are
named `bench.*`; their self time is the benchmark's own work (slicing
documents, comparing outputs, hashing), not time spent in the program.

The untraced run uses NullTracer, whose span() returns a no-op context,
so end-to-end numbers carry no tracing cost.
"""

from __future__ import annotations

import contextlib
import json
import time
from bisect import bisect_left
from collections import defaultdict

LAYERS = ("corpus", "repair", "grammar", "stats", "embed", "evaluate")
# Spans of speed-calibration samples: left out of every total, and of their
# parent's self time, because normalized pass times leave the samples out.
CALIBRATION = "bench.calibrate"


class NullTracer:
    enabled = False

    def span(self, name: str):
        return contextlib.nullcontext()


class Tracer:
    enabled = True

    def __init__(self) -> None:
        # each span: [id, name, start, end, parent]
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        rec = [sid, name, time.perf_counter(), None, parent]
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield
        finally:
            rec[3] = time.perf_counter()
            self._stack.pop()

    def subtree_totals(self, root_id: int) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
        """Per-name total duration, per-layer self time and per-name call
        count for the spans under one root (the root included), all with
        the calibration spans inside them left out."""
        children: dict[int, list[list]] = defaultdict(list)
        for s in self.spans:
            if s[4] is not None:
                children[s[4]].append(s)
        cal_starts: list[float] = []
        cal_sums = [0.0]
        for s in sorted(s for s in self.spans if s[1] == CALIBRATION):
            cal_starts.append(s[2])
            cal_sums.append(cal_sums[-1] + s[3] - s[2])

        def net(s: list) -> float:
            i, j = bisect_left(cal_starts, s[2]), bisect_left(cal_starts, s[3])
            return s[3] - s[2] - (cal_sums[j] - cal_sums[i])

        by_name: dict[str, float] = defaultdict(float)
        self_by_layer: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        todo = [self.spans[root_id]]
        while todo:
            s = todo.pop()
            kids = [k for k in children.get(s[0], []) if k[1] != CALIBRATION]
            dur = net(s)
            by_name[s[1]] += dur
            calls[s[1]] += 1
            self_by_layer[s[1].split(".", 1)[0]] += dur - sum(net(k) for k in kids)
            todo.extend(kids)
        return dict(by_name), dict(self_by_layer), dict(calls)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump(
                {
                    "fields": ["id", "name", "start", "end", "parent"],
                    "spans": self.spans,
                },
                f,
            )
