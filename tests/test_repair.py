import heapq
import random
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import corpus_gen
from rgrams import repair
from rgrams.corpus import encode, normalize
from rgrams.errors import DomainError
from rgrams.grammar import Grammar, apply, decode
from rgrams.repair import (
    NIL,
    PairMerger,
    StopCriteria,
    pair_count,
    train,
    train_naive,
)

NL = frozenset("\n")


def events_of(text, **stop):
    g, _ = train(encode(text, NL), StopCriteria(**stop))
    return list(g.rules)


class TestPairCount:
    def test_plain(self):
        seq = encode("abab")
        a, b = seq.symbols[0], seq.symbols[1]
        assert pair_count(seq, a, b) == 2
        assert pair_count(seq, b, a) == 1

    def test_overlap_is_not_double_counted(self):
        seq = encode("bbb")
        b = seq.symbols[0]
        assert pair_count(seq, b, b) == 1
        seq4 = encode("bbbb")
        assert pair_count(seq4, seq4.symbols[0], seq4.symbols[0]) == 2

    def test_boundary_blocks_pair(self):
        seq = encode("ab\nab", NL)
        a, b = seq.symbols[0], seq.symbols[1]
        assert pair_count(seq, a, b) == 2
        assert pair_count(seq, b, a) == 0


class TestSmallGrammars:
    def test_three_beta_alpha(self):
        # ββαββαββ: (β,β) wins with count 3, then (ββ,α) repeats 2 times
        # but the final ββ has no α after it, so the second merge pairs
        # γ=ββ with α at count 2... worked through by hand below.
        seq = encode("ββαββαββ")
        g, out = train(seq, StopCriteria(min_frequency=2))
        ev = g.rules
        assert [(e.left, e.right, e.freq_at_merge) for e in ev][0] == (0, 0, 3)
        joined = "".join(g.expand(s) for s in out.symbols)
        assert joined == "ββαββαββ"

    def test_abababab(self):
        seq = encode("abababab")
        g, out = train(seq, StopCriteria(min_frequency=2))
        ev = g.rules
        # (a,b) x4 -> X; (X,X) x2 -> Y; leaves YY
        assert len(ev) == 2
        assert ev[0].freq_at_merge == 4 and ev[1].freq_at_merge == 2
        assert list(out.symbols) == [ev[1].id] * 2
        assert g.expand(ev[1].id) == "abab"

    def test_no_repeats_is_identity(self):
        seq = encode("abc")
        g, out = train(seq)
        assert list(out.symbols) == list(seq.symbols)
        assert g.rules == ()

    def test_empty_input(self):
        g, out = train(encode(""))
        assert g.rules == () and len(out) == 0 and g.vocab_size == 0

    def test_single_symbol(self):
        g, out = train(encode("a"))
        assert g.rules == () and list(out.symbols) == [0]

    def test_tie_breaks_by_earliest_occurrence(self):
        # "cdcd abab abab": (a,b) and (c,d) both appear twice; (c,d) first.
        seq = encode("cdcdabab")
        ev = train(seq, StopCriteria(min_frequency=2, max_merges=1))[0].rules
        c, d = seq.symbols[0], seq.symbols[1]
        assert (ev[0].left, ev[0].right) == (c, d)

    def test_boundaries_survive(self):
        seq = encode("abab\nabab", NL)
        g, out = train(seq)
        assert out.boundaries == [len(out.symbols) // 2]
        out.validate()


class TestStopCriteria:
    def test_min_frequency_two_floor(self):
        with pytest.raises(DomainError):
            StopCriteria(min_frequency=1).validate()
        with pytest.raises(DomainError):
            StopCriteria(min_frequency=0).validate()

    def test_max_merges(self):
        ev = events_of("abababab", max_merges=1)
        assert len(ev) == 1

    def test_max_merges_zero(self):
        assert events_of("abababab", max_merges=0) == []

    def test_min_frequency_respected(self):
        for mf in (2, 3, 4):
            for e in events_of("ababab" * 3, min_frequency=mf):
                assert e.freq_at_merge >= mf

    def test_max_vocabulary(self):
        seq = encode("abababababab")
        g, _ = train(seq, StopCriteria(max_vocabulary=3))
        # 2 terminals + 1 rule + sentinel == 4 > 3 stops before the 2nd merge
        assert g.vocab_size <= 3
        g2, _ = train(seq, StopCriteria(max_vocabulary=2))
        assert len(g2.rules) == 0

    def test_bad_fields(self):
        for field in ("max_merges", "max_vocabulary"):
            for value in (-1, 2.5, float("nan"), True):
                with pytest.raises(DomainError, match=field):
                    StopCriteria(**{field: value}).validate()


class TestEventProperties:
    def test_counts_non_increasing(self):
        text = ("the cat sat on the mat " * 40) + "a rat sat on a hat " * 25
        ev = events_of(text)
        for prev, cur in zip(ev, ev[1:]):
            assert cur.freq_at_merge <= prev.freq_at_merge

    def test_new_ids_consecutive(self):
        seq = encode("abcabcabc xyxyxy")
        g, _ = train(seq)
        ev = g.rules
        nt = len(seq.alphabet)
        assert [e.id for e in ev] == list(range(nt, nt + len(ev)))

    def test_replacements_reported(self):
        seq = encode("abababab")
        m = PairMerger(seq)
        ev = m.merge_once()
        assert ev is not None and ev.freq_at_merge == 4
        assert m.replacements == 4

    @settings(max_examples=40)
    @given(
        st.lists(st.sampled_from(["a", "aa", "aaaaa", "b", "ab", "bbb", "\n"]), max_size=60),
        st.one_of(st.none(), st.integers(0, 8)),
    )
    def test_replacements_are_the_merge_counts(self, words, max_merges):
        # every replacement removes one slot, and a merge replaces its count
        seq = encode("".join(words), NL)
        m = PairMerger(seq)
        m.run(StopCriteria(max_merges=max_merges))
        freqs = sum(r.freq_at_merge for r in m.grammar().rules)
        assert m.replacements == freqs == len(seq) - len(m.sequence())


class TestNaiveEquivalence:
    def assert_same(self, text, stop):
        seq = encode(text, NL)
        g1, o1 = train(seq, stop)
        g2, o2 = train_naive(encode(text, NL), stop)
        assert g1.rules == g2.rules
        assert list(o1.symbols) == list(o2.symbols)
        assert o1.boundaries == o2.boundaries
        assert g1 == g2

    def test_run_heavy(self):
        for text in ("b" * 37, "xbbbbbbby" * 4, "aabaa" * 9, "zzzz\nzzzz"):
            self.assert_same(text, StopCriteria())

    def test_randomized(self):
        rng = random.Random(77)
        for trial in range(120):
            k = rng.randint(2, 10)
            n = rng.randint(0, 300)
            alpha = "abcdefghij"[:k] + ("\n" if rng.random() < 0.3 else "")
            text = "".join(rng.choice(alpha) for _ in range(n))
            mf = rng.choice([2, 3, 4])
            mm = rng.choice([None, None, 3, 10])
            self.assert_same(text, StopCriteria(min_frequency=mf, max_merges=mm))

    @settings(max_examples=40)
    @given(st.text(alphabet="ab", max_size=120), st.sampled_from([2, 3]))
    def test_binary_alphabet_property(self, text, mf):
        self.assert_same(text, StopCriteria(min_frequency=mf))

    @settings(max_examples=40)
    @given(
        st.lists(st.sampled_from(["a", "b", "ab", "abb", "\n"]), min_size=12, max_size=60),
        st.lists(st.integers(0, 12), max_size=5),
        st.one_of(st.none(), st.integers(0, 6)),
    )
    def test_resumed_run_matches_oracle(self, words, checkpoints, headroom):
        # each resumed stretch ends where a fresh oracle run to that point ends
        seq = encode("".join(words), NL)
        max_vocab = None if headroom is None else len(seq.alphabet) + headroom
        merger = PairMerger(seq)
        for k in sorted(set(checkpoints)) + [None]:
            stop = StopCriteria(max_vocabulary=max_vocab, max_merges=k)
            merger.run(stop)
            g, out = train_naive(seq, stop)
            assert merger.grammar().rules == g.rules
            assert list(merger.sequence().symbols) == list(out.symbols)

    @settings(max_examples=40)
    @given(
        st.lists(st.sampled_from(["a", "b", "ab", "abb", "ba", "\n"]), min_size=12, max_size=80),
        st.integers(3, 6),
    )
    def test_lower_min_frequency_resumes(self, words, k):
        # a min-frequency stop leaves heap entries behind; a later run with a
        # lower floor must continue exactly where a fresh oracle run would
        seq = encode("".join(words), NL)
        merger = PairMerger(seq)
        merger.run(StopCriteria(min_frequency=k))
        assert merger.grammar().rules == train_naive(seq, StopCriteria(min_frequency=k))[0].rules
        merger.run(StopCriteria(min_frequency=2))
        g, out = train_naive(seq, StopCriteria())
        assert merger.grammar().rules == g.rules
        assert list(merger.sequence().symbols) == list(out.symbols)

    def test_invariants_catch_a_live_removed_slot(self):
        m = PairMerger(encode("abab", NL))
        m.merge_once()
        m.check_invariants()
        m._sym[1] = 0  # slot 1 was merged away
        with pytest.raises(AssertionError, match="DEAD"):
            m.check_invariants()

    def test_invariants_catch_a_stray_occurrence_link(self):
        m = PairMerger(encode("abab", NL))
        m.merge_once()
        m.check_invariants()
        m._pocc[2] = NIL  # live slot 2 heads no occurrence of (X, X)
        with pytest.raises(AssertionError, match="pocc"):
            m.check_invariants()

    def test_invariants_catch_a_stray_count_one_pair(self):
        m = PairMerger(encode("abab", NL))
        m.check_invariants()
        b, a = m._sym[1], m._sym[2]
        m._pairs[(b << repair.SHIFT) | a] = [1, 1]  # (b, a) occurs once
        m._nocc[1] = m._pocc[1] = NIL
        with pytest.raises(AssertionError, match="index mismatch"):
            m.check_invariants()

    def test_invariants_catch_a_missing_pair(self):
        m = PairMerger(encode("abab", NL))
        m.check_invariants()
        del m._pairs[(m._sym[0] << repair.SHIFT) | m._sym[1]]  # (a, b) occurs twice
        with pytest.raises(AssertionError, match="index mismatch"):
            m.check_invariants()

    def test_invariants_catch_a_live_pair_off_the_heap(self):
        m = PairMerger(encode("abab", NL))
        m.check_invariants()
        key = (m._sym[0] << repair.SHIFT) | m._sym[1]  # (a, b) occurs twice
        m._heap = [e for e in m._heap if e & repair._KEY_MASK != key]
        heapq.heapify(m._heap)
        with pytest.raises(AssertionError, match="heap"):
            m.check_invariants()

    def test_invariants_hold_during_training(self):
        def run_checked(text):
            m = PairMerger(encode(text, NL))
            m.check_invariants()
            while m.merge_once() is not None:
                m.check_invariants()

        rng = random.Random(3)
        for _ in range(15):
            n = rng.randint(10, 120)
            run_checked("".join(rng.choice("abcd\n") for _ in range(n)))
        # same-symbol runs, with every merge of left != right in bulk
        with bulk_min(2):
            for _ in range(15):
                n = rng.randint(10, 60)
                words = rng.choices(["a", "aa", "aaa", "ab", "b", " "], k=n)
                run_checked("".join(words))

    @pytest.mark.parametrize("threshold", [repair._BULK_MIN, 2])
    def test_new_pair_regrows_in_its_pass(self, threshold):
        # merging (a, b) into X makes (X, a) at slots 0 and 4, unmakes it at
        # 4 when the (a, b) at 6 is replaced, and makes it again at 9: it
        # ends the pass at count 2 and is indexed only then
        text = "aba abab aba"
        with bulk_min(threshold):
            m = PairMerger(encode(text, NL))
            while m.merge_once() is not None:
                m.check_invariants()
        assert (m.grammar(), m.sequence()) == train_naive(encode(text, NL))

    def test_pair_keys_counts_indexed_pairs(self):
        # (a, b) occurs twice; (b, a), (b, " "), (" ", a) and (a, a) occur
        # once and are not indexed
        m = PairMerger(encode("abab aa", NL))
        assert m.pair_keys == 1
        # X = ab leaves "XX aa": (X, X), (X, " "), (" ", a) and (a, a) each
        # occur once
        m.merge_once()
        assert m.pair_keys == 0


@contextmanager
def bulk_min(n):
    """Merges of at least n occurrences take the bulk path inside this block."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(repair, "_BULK_MIN", n)
        yield


# heap-entry fields at their extremes: counts of mergeable pairs, and
# positions and symbol ids, which fit in 31 bits
_COUNT = st.integers(2, (1 << 31) - 1)
_ID = st.integers(0, (1 << 31) - 1)


class TestPassEndIndex:
    """A merge indexes the pairs its pass made once the pass ends."""

    @pytest.mark.parametrize("threshold", [repair._BULK_MIN, 2])
    @pytest.mark.parametrize(
        "text",
        [
            "abababab",  # adjacent occurrences: (X, a) is made, then unmade
            "abababab ab",
            # runs of X of lengths 1-7: greedy (X, X) heads at even offsets
            " ".join("ab" * n for n in range(1, 8)),
            "\n".join("ab" * n for n in range(7, 0, -1)),
            "aaaa aaa aa aaaaaaa a aaaaa",  # (a, a) merges over runs
            "aaaaaaa\naa\naaa",
            # (b, b) heads slots 1 and 5; replacing the (a, b) at 0 realigns
            # the run at 1 to head slot 2, so (b, b) ends the pass at count 2
            "abbb bb ab ab",
        ],
    )
    def test_matches_oracle(self, text, threshold):
        with bulk_min(threshold):
            m = PairMerger(encode(text, NL))
            m.check_invariants()
            while m.merge_once() is not None:
                m.check_invariants()
        assert (m.grammar(), m.sequence()) == train_naive(encode(text, NL))

    @pytest.mark.parametrize("threshold", [repair._BULK_MIN, 2])
    def test_twin_pair_made_once_is_not_indexed(self, threshold):
        # X = ab leaves "XX X": (X, X), (X, " ") and (" ", X) each occur
        # once, so none is indexed
        with bulk_min(threshold):
            m = PairMerger(encode("abab ab", NL))
            x = m.merge_once().id
        assert (x << repair.SHIFT) | x not in m._pairs
        assert m.pair_keys == 0
        m.check_invariants()

    @given(st.lists(st.tuples(_COUNT, _ID, _ID, _ID), min_size=2, max_size=12))
    @example([(2, 0, 0, 0), ((1 << 31) - 1, (1 << 31) - 1, (1 << 31) - 1, (1 << 31) - 1)])
    @example([((1 << 31) - 1, 0, 0, 0), (2, (1 << 31) - 1, (1 << 31) - 1, (1 << 31) - 1)])
    @example([(5, 7, 1, 2), (5, 7, 1, 3), (5, 7, 2, 0), (5, 6, (1 << 31) - 1, 0)])
    def test_heap_entry_sorts_like_the_tuple(self, recs):
        # (count, first, left, right) records, compared as (-count, first, key)
        keyed = [(c, f, (a << repair.SHIFT) | b) for c, f, a, b in recs]
        by_tuple = sorted(keyed, key=lambda r: (-r[0], r[1], r[2]))
        by_entry = sorted(keyed, key=lambda r: repair._entry(r[2], [r[0], r[1]]))
        assert by_entry == by_tuple
        for c, f, k in keyed:
            # _select reads the count and the key back out of the entry
            e = repair._entry(k, [c, f])
            assert ((1 << 31) - (e >> 95), e & repair._KEY_MASK) == (c, k)


class TestSelectionCounters:
    def test_known_values(self):
        # set-up heaps (a, b) 5@0, (b, c) 5@1, (c, " ") 4@2, (" ", a) 4@3,
        # (b, " ") 2@13 and (" ", b) 2@17: 6 entries for 6 pairs. X = ab
        # leaves (b, c) at 2@18, takes every (" ", a) and (b, " ") and
        # pushes (X, c) 3@0, (" ", X) 4@3 and (X, " ") 2@12: 8 entries for
        # 6 pairs; then:
        # - merge 2 re-ranks (b, c) (stale) and takes (c, " ") 4@2 = Y,
        #   which kills (X, c) and (" ", X) and leaves (b, c) and (" ", b)
        #   at count 1. It pushes (X, Y) 3@0 and (Y, X) 3@2: 9 entries for
        #   3 pairs, so the heap is rebuilt to those 3, all exact;
        # - merge 3 takes (X, Y) 3@0 = Z, which kills (Y, X) 3@2;
        # - merge 4 drops (Y, X) (dead) and takes (X, " ") 2@12
        m = PairMerger(encode("abc abc abc ab ab bc bc", NL))
        seen = [(m.stale_pops, m.dead_pops, m.heap_rebuilds)]
        while m.merge_once() is not None:
            seen.append((m.stale_pops, m.dead_pops, m.heap_rebuilds))
        assert [r.freq_at_merge for r in m.grammar().rules] == [5, 4, 3, 2]
        assert seen == [(0, 0, 0), (0, 0, 0), (1, 0, 1), (1, 0, 1), (1, 1, 1)]

    def test_repeatable(self):
        text = normalize(corpus_gen.generate(60_000, seed=9))

        def counters():
            m = PairMerger(encode(text))
            m.run(StopCriteria(max_merges=300))
            return m.stale_pops, m.dead_pops

        first = counters()
        assert min(first) > 0
        assert counters() == first

    def test_heap_bound(self):
        # a large alphabet prunes many pairs; without rebuilds the lazy heap
        # peaks at 2.43 entries per indexed pair on this text
        text = corpus_gen.generate(60_000, seed=9, spaceless=True)

        def counters():
            m = PairMerger(encode(text))
            while m.merges < 300 and m.merge_once() is not None:
                assert len(m._heap) <= 2 * m.pair_keys
            return m.heap_rebuilds, m.dead_pops

        first = counters()
        assert first[0] >= 1
        assert counters() == first


class TestBulkReplacement:
    """The vectorized path for frequent merges, forced on small inputs."""

    def run_checked(self, text, min_frequency=2):
        # threshold 2: every merge with left != right goes through the bulk path
        with bulk_min(2):
            m = PairMerger(encode(text, NL))
            m.check_invariants()
            while m.merge_once(min_frequency) is not None:
                m.check_invariants()
        g, out = train_naive(encode(text, NL), StopCriteria(min_frequency=min_frequency))
        assert m.grammar().rules == g.rules
        assert list(m.sequence().symbols) == list(out.symbols)
        assert m.sequence().boundaries == out.boundaries
        return m

    @settings(max_examples=60)
    @given(
        st.lists(
            st.sampled_from(["a", "b", "c", "ab", "abab", "bbb", "aaa", "cab", "ba", " ", "\n"]),
            max_size=60,
        ),
        st.sampled_from([2, 3]),
    )
    def test_matches_oracle(self, words, mf):
        self.run_checked("".join(words), mf)

    @pytest.mark.parametrize(
        "text",
        [
            "abababab",  # adjacent occurrences: every one is coupled
            "abbbbxab",  # a run of `right` after q is realigned
            "aaaab ab ab ab ab",  # a lost (a, a) head at x in a run of `left`
            "ab\nab\nab",  # slot 0 (x reads the trailing SENT) and boundaries
            "xab xab xab ab ab",  # three lost (x, a) nodes in a row in one list
            "cabab cab cab",  # (c, new) made by coupled and simple occurrences
        ],
    )
    def test_edge_cases(self, text):
        g = self.run_checked(text).grammar()
        assert g.expand(g.rules[0].id) == "ab"

    def test_counter(self):
        m = PairMerger(encode("ab ab ab", NL))
        m.merge_once()  # count 3, below _BULK_MIN
        assert (m.replacements, m.bulk_replacements) == (3, 0)
        with bulk_min(2):
            m = PairMerger(encode("ab ab ab", NL))
            m.merge_once()
        assert (m.replacements, m.bulk_replacements) == (3, 3)

    def test_same_symbol_merge_is_bulk(self):
        # (a, a) occurs _BULK_MIN times or more, isolated and in runs of 3-5
        rng = random.Random(7)
        words = ["aa", "aa", "aaa", "aaaa", "aaaaa", "b"]
        text = " ".join(rng.choice(words) for _ in range(300))
        m = PairMerger(encode(text, NL))
        rule = m.merge_once()
        assert m.grammar().expand(rule.id) == "aa"
        assert rule.freq_at_merge >= repair._BULK_MIN
        assert 0 < m.bulk_replacements < rule.freq_at_merge  # runs of 3-5 are coupled
        m.check_invariants()
        m.run(StopCriteria())
        g, out = train_naive(encode(text, NL))
        assert (m.grammar(), m.sequence()) == (g, out)

    def test_coupled_only_merge_is_not_bulk(self):
        with bulk_min(2):
            m = PairMerger(encode("abababab", NL))
            m.run(StopCriteria())
        assert m.replacements == 6 and m.bulk_replacements == 0

    @pytest.mark.parametrize("spaceless", [False, True], ids=["english", "spaceless"])
    def test_same_bytes_as_sequential(self, spaceless):
        # tier-1 guard: the default threshold changes nothing on real text,
        # over a 41-character alphabet or a large one without word spaces
        text = corpus_gen.generate(300_000, seed=5, spaceless=spaceless)
        if not spaceless:
            text = normalize(text)

        def run(n):
            with bulk_min(n):
                m = PairMerger(encode(text))
                m.run(StopCriteria(max_merges=1500))
            out = m.sequence()
            return m.grammar().rules, list(out.symbols), out.boundaries, m.bulk_replacements

        *bulk_out, bulk = run(repair._BULK_MIN)
        *loop_out, none = run(1 << 62)  # above every count: the loop alone
        assert bulk > 0 and none == 0
        assert bulk_out == loop_out

    def test_bulk_share_on_bench_corpus(self):
        # most replacements fall in frequent merges (0.90 of them at threshold 100)
        m = PairMerger(encode(normalize(corpus_gen.generate(1_000_000, seed=42))))
        m.run(StopCriteria(max_merges=4000))
        assert m.bulk_replacements / m.replacements >= 0.8


# pair ids on both sides of the packed-sort limit: a width above 2**16 takes
# the lexsort branch of _pair_order
_IDS = st.integers(0, (1 << 16) - 1) | st.integers(1 << 16, 1 << 20)


class TestPairOrder:
    """repair._pair_order against np.lexsort over (pair key, node)."""

    @given(
        pool=st.lists(st.tuples(_IDS, _IDS), min_size=1, max_size=4),
        nodes=st.lists(st.integers(0, (1 << 31) - 1), max_size=30, unique=True),
        picks=st.lists(st.integers(0, 3), min_size=30, max_size=30),
        pad=st.integers(0, 2),
    )
    @example(pool=[(0, 0)], nodes=[], picks=[0] * 30, pad=0)  # empty input
    @example(pool=[(5, 9)], nodes=[7], picks=[0] * 30, pad=0)  # a single node
    @example(pool=[((1 << 16) - 1, 3)], nodes=[2, 1], picks=[0] * 30, pad=0)  # widest packed
    @example(pool=[(1 << 16, 3)], nodes=[2, 1], picks=[0] * 30, pad=0)  # narrowest lexsort
    def test_matches_lexsort(self, pool, nodes, picks, pad):
        pairs = [pool[i % len(pool)] for i in picks[: len(nodes)]]
        left = np.array([a for a, _ in pairs], dtype=np.int64)
        right = np.array([b for _, b in pairs], dtype=np.int64)
        z = np.array(nodes, dtype=np.int32)
        width = max([0, *left.tolist(), *right.tolist()]) + 1 + pad
        k = (left << repair.SHIFT) | right
        order = np.lexsort((z, k))
        want_z = z[order]
        want_k = k[order]
        want_same = want_k[1:] == want_k[:-1]

        got_z, same, first, last, keys = repair._pair_order(z, left * width + right, width)
        assert got_z.tolist() == want_z.tolist()
        assert same.tolist() == want_same.tolist()
        starts = [i for i in range(len(nodes)) if i == 0 or not want_same[i - 1]]
        ends = [i - 1 for i in starts[1:] + [len(nodes)]] if nodes else []
        assert (first.tolist(), last.tolist()) == (starts, ends)
        assert keys.tolist() == want_k[starts].tolist()


class TestSizeEdges:
    """Both engine paths (training and replay) on the smallest inputs."""

    @pytest.mark.parametrize("text", ["", "\n", "\n\n", "a", "aa", "\u00e9\u00e9\u00e9\n\u00e9"])
    def test_train_and_apply(self, text):
        seq = encode(text, NL)
        g, out = train(seq)
        g2, out2 = train_naive(encode(text, NL))
        assert g == g2
        assert (list(out.symbols), out.boundaries) == (list(out2.symbols), out2.boundaries)
        assert decode(g, out) == decode(Grammar(seq.alphabet, []), seq)
        replayed = apply(g, encode(text, NL))
        assert list(replayed.symbols) == list(out.symbols)
        assert replayed.boundaries == out.boundaries
        # no input character is in this grammar's alphabet
        other, _ = train(encode("zzzz"))
        assert decode(other, apply(other, seq)) == decode(Grammar(seq.alphabet, []), seq)


class TestDeterminism:
    def test_same_input_same_output(self):
        text = "she sells sea shells by the sea shore " * 8
        a = events_of(text)
        b = events_of(text)
        assert a == b
