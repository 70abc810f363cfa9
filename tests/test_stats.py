import math

import pytest

from rgrams.corpus import encode
from rgrams.errors import DomainError
from rgrams.repair import StopCriteria, train
from rgrams.stats import (
    RankedDistribution,
    checkpoint_curves,
    compression_ratio,
    flatness,
    rank_frequency,
)

NL = frozenset("\n")


class TestRankFrequency:
    def test_ordering(self):
        d = rank_frequency([2, 0, 0, 1, 0, 1])
        assert d.entries == ((0, 3), (1, 2), (2, 1))
        assert d.total == 6

    def test_tie_break_by_id(self):
        d = rank_frequency([5, 3, 3, 5])
        assert d.entries == ((3, 2), (5, 2))

    def test_empty(self):
        d = rank_frequency([])
        assert d.entries == () and d.total == 0


class TestFlatness:
    def test_hand_computed(self):
        d = RankedDistribution(((0, 3), (1, 2), (2, 1)), 6)
        r = flatness(d)
        assert r.top1_share == pytest.approx(0.5)
        assert r.top1_over_median == pytest.approx(1.5)  # lower median is 2
        h = -(0.5 * math.log(0.5) + (1 / 3) * math.log(1 / 3) + (1 / 6) * math.log(1 / 6))
        assert r.normalized_entropy == pytest.approx(h / math.log(3))
        assert r.normalized_entropy == pytest.approx(0.9206, abs=5e-5)
        assert r.vocab_size == 3 and r.token_count == 6

    def test_uniform_is_one(self):
        d = rank_frequency([0, 1, 2, 3] * 5)
        assert flatness(d).normalized_entropy == pytest.approx(1.0)
        assert flatness(d).top1_over_median == pytest.approx(1.0)

    def test_single_token_is_zero(self):
        r = flatness(rank_frequency([7, 7, 7]))
        assert r.normalized_entropy == 0.0
        assert r.top1_share == 1.0

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            flatness(rank_frequency([]))

    def test_merging_flattens(self):
        # after enough merges the head count must shrink
        seq = encode("the cat and the dog and the bird " * 30, NL)
        before = flatness(rank_frequency(seq.symbols))
        rows, achieved, _ = checkpoint_curves(seq, [0, 40])
        top_after = max(r.count for r in rows if r.checkpoint == 40)
        assert top_after < before.top1_share * before.token_count


class TestCheckpointCurves:
    @pytest.mark.parametrize("mf", [1, 0, -3])
    def test_min_frequency_below_two_rejected(self, mf):
        with pytest.raises(DomainError, match="min_frequency"):
            checkpoint_curves(encode("abab"), [0, 3], min_frequency=mf)

    def test_negative_top_rejected(self):
        with pytest.raises(DomainError, match="top must be >= 0"):
            checkpoint_curves(encode("abababab\nabab"), [0, 1], top=-1)

    def test_zero_checkpoint_is_raw_distribution(self):
        seq = encode("aaaa")
        rows, achieved, g = checkpoint_curves(seq, [0])
        assert achieved == {0: 0}
        assert [(r.rank, r.token, r.count) for r in rows] == [(1, 0, 4)]
        assert g.rules == ()

    def test_two_checkpoints(self):
        seq = encode("βββαβββαβββ")
        rows, achieved, g = checkpoint_curves(seq, [0, 2])
        assert achieved == {0: 0, 2: 2}
        at0 = [r for r in rows if r.checkpoint == 0]
        assert [(r.token, r.count) for r in at0] == [(0, 9), (1, 2)]
        at2 = [r for r in rows if r.checkpoint == 2]
        # after ββ then βββ the sequence is δ α δ α δ
        assert sorted((r.token, r.count) for r in at2) == [(1, 2), (3, 3)]
        assert g.expand(3) == "βββ"

    def test_counts_sum_to_sequence_length(self):
        seq = encode("mississippi river runs " * 12, NL)
        rows, achieved, _ = checkpoint_curves(seq, [0, 5, 15], top=10_000)
        for k, reached in achieved.items():
            assert sum(r.count for r in rows if r.checkpoint == k) > 0

    def test_unreachable_checkpoint_reports_short(self):
        seq = encode("abab")
        rows, achieved, _ = checkpoint_curves(seq, [0, 50])
        assert achieved[50] < 50
        assert achieved[50] == 1  # only (a,b) is mergeable at min_frequency 2

    def test_max_count_non_increasing_across_checkpoints(self):
        seq = encode("she sells sea shells by the sea shore " * 20, NL)
        rows, achieved, _ = checkpoint_curves(seq, [0, 3, 10, 30])
        tops = [max(r.count for r in rows if r.checkpoint == k) for k in (0, 3, 10, 30)]
        assert tops == sorted(tops, reverse=True)

    def test_final_grammar_matches_train(self):
        seq = encode("she sells sea shells by the sea shore " * 20, NL)
        _, _, g = checkpoint_curves(seq, [0, 3, 10, 30])
        assert g == train(seq, StopCriteria(max_merges=30))[0]

    def test_top_limits_rows(self):
        seq = encode("abcdefgh")
        rows, _, _ = checkpoint_curves(seq, [0], top=3)
        assert len(rows) == 3

    def test_rejects_descending(self):
        with pytest.raises(DomainError):
            checkpoint_curves(encode("ab"), [5, 1])

    def test_rejects_duplicates(self):
        with pytest.raises(DomainError):
            checkpoint_curves(encode("ab"), [1, 1])

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            checkpoint_curves(encode("ab"), [-1, 2])


class TestCompressionRatio:
    def test_table_shaped(self):
        seq_ratio, net_ratio = compression_ratio(11, 5, 2)
        assert seq_ratio == pytest.approx(5 / 11)
        assert net_ratio == pytest.approx(9 / 11)

    def test_no_merges(self):
        assert compression_ratio(7, 7, 0) == (1.0, 1.0)

    def test_abab(self):
        seq_ratio, net_ratio = compression_ratio(8, 2, 2)
        assert seq_ratio == pytest.approx(2 / 8)
        assert net_ratio == pytest.approx(6 / 8)

    def test_zero_length_rejected(self):
        with pytest.raises(DomainError):
            compression_ratio(0, 0, 0)
