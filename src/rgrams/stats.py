"""Token frequency distributions and how merging flattens them.

rank_frequency/flatness summarize any token sequence; checkpoint_curves
resumes one training run across a list of merge counts and reports the top
ranked counts at each stop, which is the data behind rank-frequency plots.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

from .corpus import BoundedSequence
from .errors import DomainError
from .repair import PairMerger, StopCriteria


@dataclass(frozen=True)
class RankedDistribution:
    """(token, count) entries, count descending, token ascending on ties.

    Tokens are symbol ids, or strings when counting a segmented file.
    """

    entries: tuple[tuple[int, int], ...]
    total: int

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class FlatnessReport:
    top1_share: float
    top1_over_median: float
    normalized_entropy: float
    vocab_size: int
    token_count: int


@dataclass(frozen=True)
class CurveRow:
    checkpoint: int
    rank: int  # 1-based
    token: int
    count: int


def rank_frequency(tokens: Iterable[int]) -> RankedDistribution:
    counts = Counter(tokens)
    entries = tuple(sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])))
    return RankedDistribution(entries, sum(counts.values()))


def flatness(d: RankedDistribution) -> FlatnessReport:
    """Summary numbers for how dominated the distribution is by its head.

    Entropy uses natural log, normalized by log(support); a single-token
    distribution is defined as 0.0. Median is the lower median of the count
    list, which for the descending entries sits at index n // 2.
    """
    n = len(d.entries)
    if n == 0:
        raise DomainError("flatness of an empty distribution is undefined")
    total = d.total
    top1 = d.entries[0][1]
    median = d.entries[n // 2][1]
    if n == 1:
        ent = 0.0
    else:
        h = 0.0
        for _, c in d.entries:
            p = c / total
            h -= p * math.log(p)
        ent = h / math.log(n)
    return FlatnessReport(
        top1_share=top1 / total,
        top1_over_median=top1 / median,
        normalized_entropy=ent,
        vocab_size=n,
        token_count=total,
    )


def checkpoint_curves(
    seq: BoundedSequence,
    merge_checkpoints: Sequence[int],
    min_frequency: int = 2,
    top: int = 100,
):
    """Top-`top` ranked counts after each checkpoint's worth of merges.

    One training run is resumed across checkpoints (restarting could diverge
    under tie-breaking). Returns (rows, achieved, grammar): achieved maps
    each checkpoint to the merge count actually reached (a checkpoint beyond
    what the corpus supports reports the final state, visible as achieved <
    asked), and grammar is the final rule set for rendering token ids.
    """
    if list(merge_checkpoints) != sorted(set(merge_checkpoints)):
        raise DomainError("checkpoints must be strictly ascending")
    if any(k < 0 for k in merge_checkpoints):
        raise DomainError("checkpoints must be non-negative")
    if top < 0:
        raise DomainError("top must be >= 0")
    stop = StopCriteria(min_frequency=min_frequency)
    stop.validate()
    merger = PairMerger(seq)
    rows: list[CurveRow] = []
    achieved: dict[int, int] = {}
    for k in merge_checkpoints:
        merger.run(replace(stop, max_merges=k))
        achieved[k] = merger.merges
        dist = rank_frequency(merger.sequence().symbols)
        for rank, (tok, cnt) in enumerate(dist.entries[:top], start=1):
            rows.append(CurveRow(k, rank, tok, cnt))
    return rows, achieved, merger.grammar()


def compression_ratio(
    original_len: int, compressed_len: int, rules_added: int
) -> tuple[float, float]:
    """(sequence ratio, net ratio); net charges 2 symbols of storage per rule."""
    if original_len <= 0:
        raise DomainError("original length must be positive")
    return (
        compressed_len / original_len,
        (compressed_len + 2 * rules_added) / original_len,
    )
