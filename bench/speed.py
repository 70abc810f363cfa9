"""Machine-speed calibration for a shared, noisy host.

On the 2-core shared machine the benchmark was built on, the speed of the
same single-threaded Python loop drifts by up to 2x within a minute (other
tenants; the guest sees no steal time, so CPU time drifts the same way).
Raw times of two runs minutes apart therefore differ by more than the
changes the benchmark must resolve.

So a Probe times a short fixed calibration loop (dict and list work, string
building, numpy calls on large and tiny arrays: the kinds of work rgrams
does) before and after every timed stretch and, through tick(), about every
INTERVAL_S seconds at safe points inside it. A time is reported at reference speed: each piece of
a stretch between two samples counts

    raw length * REFERENCE_S / median of the samples within WINDOW_S

and the samples' own time is left out. REFERENCE_S is a constant, the
loop's typical time on that machine, so a normalized time reads in seconds
and falls only when the program does less work. Runs also print raw times.
"""

from __future__ import annotations

import statistics
import time
from bisect import bisect_left, bisect_right

import numpy as np

from tracing import CALIBRATION, NullTracer

REFERENCE_S = 0.009
INTERVAL_S = 0.25
WINDOW_S = 1.5
BRACKET = 3


def _loop() -> None:
    counts: dict[int, int] = {}
    keys: list[int] = []
    for i in range(20000):
        k = (i * 2654435761) & 0xFFFF
        counts[k] = counts.get(k, 0) + 1
        keys.append(k)
    keys.sort()
    text = "".join([chr(97 + (k % 26)) for k in keys[:5000]])
    a = np.frombuffer(text.encode(), dtype=np.uint8).astype(np.int64)
    np.cumsum(a)
    np.unique(a)
    # many calls on tiny arrays, as in skipgram training's per-pair updates
    v = np.arange(16.0)
    m = np.zeros((64, 16))
    for i in range(200):
        m[i % 64] += 0.001 * float(v @ m[(i * 7) % 64]) * v
        np.add.at(m, [i % 64, (i * 5) % 64], v)


class Probe:
    def __init__(self) -> None:
        self.starts: list[float] = []
        self.lengths: list[float] = []
        # inside a traced pass, samples get their own span so that no
        # layer's self time includes them
        self.tracer = NullTracer()
        self._due = 0.0

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            with self.tracer.span(CALIBRATION):
                t0 = time.perf_counter()
                _loop()
                t1 = time.perf_counter()
            self.starts.append(t0)
            self.lengths.append(t1 - t0)
        self._due = t1 + INTERVAL_S

    def bracket(self) -> None:
        self.sample(BRACKET)

    def tick(self) -> None:
        """Take a sample if one is due; call between operations, never
        inside one being timed."""
        if time.perf_counter() >= self._due:
            self.sample()

    def factor_at(self, t: float) -> float:
        """Reference time over the median of the samples within WINDOW_S of
        t, and of at least the two before and the two after it."""
        j = bisect_right(self.starts, t)
        lo = min(max(0, j - 2), bisect_left(self.starts, t - WINDOW_S))
        hi = max(j + 2, bisect_right(self.starts, t + WINDOW_S))
        return REFERENCE_S / statistics.median(self.lengths[lo:hi])

    def inside(self, t0: float, t1: float) -> float:
        """Total length of the samples taken within [t0, t1]."""
        i, j = bisect_left(self.starts, t0), bisect_left(self.starts, t1)
        return sum(self.lengths[i:j])

    def normalize(self, t0: float, t1: float) -> float:
        """Length of [t0, t1] at reference speed, samples left out. Needs a
        sample taken after t1."""
        total = 0.0
        start = t0
        j = bisect_left(self.starts, t0)
        while j < len(self.starts) and self.starts[j] < t1:
            total += (self.starts[j] - start) * self.factor_at(start)
            start = self.starts[j] + self.lengths[j]
            j += 1
        return total + (t1 - start) * self.factor_at(start)
