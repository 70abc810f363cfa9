"""Shared fixtures; the expensive 10 MB training run happens once per session."""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass

import pytest
from hypothesis import HealthCheck, settings

import corpus_gen
from rgrams import grammar
from rgrams.corpus import encode, normalize
from rgrams.grammar import Grammar, write_segmented
from rgrams.repair import PairMerger, StopCriteria

settings.register_profile(
    "suite",
    derandomize=True,
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

CHECKPOINTS = (0, 100, 1000, 10000, 20000)


@pytest.fixture
def batched(monkeypatch):
    """apply's batch phase runs on every input and down to one candidate
    pair, so the heap replays only what the last batch leaves."""
    monkeypatch.setattr(grammar, "_BATCH_MIN_CHARS", 0)
    monkeypatch.setattr(grammar, "_BATCH_MIN_CANDIDATES", 1)


@dataclass
class BigRun:
    """Artifacts of one 20000-merge training run on the 10 MB sample."""

    text: str
    grammar: Grammar
    merges: int
    event_counts: list[int]
    rank1: dict[int, int]  # checkpoint -> max token count
    max_monotone: bool  # max token count never rose, checked at every merge
    segmented_path: str
    compressed_len: int
    original_len: int
    train_seconds: float
    boundaries: int


@pytest.fixture(scope="session")
def sample_text_10mb() -> str:
    return corpus_gen.generate(10_000_000, seed=42)


@pytest.fixture(scope="session")
def big_run(sample_text_10mb, tmp_path_factory) -> BigRun:
    import time

    seq = encode(normalize(sample_text_10mb))
    counts = Counter(seq.symbols.tolist())
    # lazy max-heap over token counts; every count change pushes a new entry
    heap = [(-c, t) for t, c in counts.items()]
    heapq.heapify(heap)

    def current_max() -> int:
        while heap:
            negc, t = heap[0]
            if counts.get(t, 0) == -negc:
                return -negc
            heapq.heappop(heap)
        return 0

    merger = PairMerger(seq)
    rank1: dict[int, int] = {}
    monotone = True
    prev_max = current_max()
    seen = 0
    t0 = time.perf_counter()
    for ck in CHECKPOINTS:
        merger.run(StopCriteria(max_merges=ck))
        # replay this stretch's merges so the max is checked after every one
        for ev in merger.grammar().rules[seen:]:
            m = ev.freq_at_merge
            if ev.left == ev.right:
                counts[ev.left] -= 2 * m
            else:
                counts[ev.left] -= m
                counts[ev.right] -= m
            counts[ev.id] = m
            heapq.heappush(heap, (-counts[ev.left], ev.left))
            heapq.heappush(heap, (-counts[ev.right], ev.right))
            heapq.heappush(heap, (-m, ev.id))
            cur = current_max()
            if cur > prev_max:
                monotone = False
            prev_max = cur
        seen = merger.merges
        rank1[ck] = current_max()
    train_seconds = time.perf_counter() - t0

    g = merger.grammar()
    compressed = merger.sequence()
    seg_path = str(tmp_path_factory.mktemp("bigrun") / "segmented.txt")
    write_segmented(g, compressed, seg_path)
    return BigRun(
        text=sample_text_10mb,
        grammar=g,
        merges=merger.merges,
        event_counts=[e.freq_at_merge for e in g.rules],
        rank1=rank1,
        max_monotone=monotone,
        segmented_path=seg_path,
        compressed_len=len(compressed),
        original_len=len(seq),
        train_seconds=train_seconds,
        boundaries=len(compressed.boundaries),
    )
