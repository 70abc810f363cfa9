import random

import pytest
from hypothesis import given, settings, strategies as st

from rgrams.corpus import decode_terminals, encode
from rgrams.errors import DomainError
from rgrams.grammar import apply, decode
from rgrams.repair import (
    MergeEvent,
    PairMerger,
    StopCriteria,
    pair_count,
    train,
    train_naive,
)

NL = frozenset("\n")


def events_of(text, **stop):
    _, _, ev = train(encode(text, NL), StopCriteria(**stop))
    return ev


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
        g, out, ev = train(seq, StopCriteria(min_frequency=2))
        assert [(e.left, e.right, e.count) for e in ev][0] == (0, 0, 3)
        joined = "".join(g.expand(s) for s in out.symbols)
        assert joined == "ββαββαββ"

    def test_abababab(self):
        seq = encode("abababab")
        g, out, ev = train(seq, StopCriteria(min_frequency=2))
        # (a,b) x4 -> X; (X,X) x2 -> Y; leaves YY
        assert len(ev) == 2
        assert ev[0].count == 4 and ev[1].count == 2
        assert list(out.symbols) == [ev[1].new_id] * 2
        assert g.expand(ev[1].new_id) == "abab"

    def test_no_repeats_is_identity(self):
        seq = encode("abc")
        g, out, ev = train(seq)
        assert ev == []
        assert list(out.symbols) == list(seq.symbols)
        assert g.rules == ()

    def test_empty_input(self):
        g, out, ev = train(encode(""))
        assert ev == [] and len(out) == 0 and g.vocab_size == 0

    def test_single_symbol(self):
        g, out, ev = train(encode("a"))
        assert ev == [] and list(out.symbols) == [0]

    def test_tie_breaks_by_earliest_occurrence(self):
        # "cdcd abab abab": (a,b) and (c,d) both appear twice; (c,d) first.
        seq = encode("cdcdabab")
        _, _, ev = train(seq, StopCriteria(min_frequency=2, max_merges=1))
        c, d = seq.symbols[0], seq.symbols[1]
        assert (ev[0].left, ev[0].right) == (c, d)

    def test_boundaries_survive(self):
        seq = encode("abab\nabab", NL)
        g, out, ev = train(seq)
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
                assert e.count >= mf

    def test_max_vocabulary(self):
        seq = encode("abababababab")
        g, _, _ = train(seq, StopCriteria(max_vocabulary=3))
        # 2 terminals + 1 rule + sentinel == 4 > 3 stops before the 2nd merge
        assert g.vocab_size <= 3
        g2, _, _ = train(seq, StopCriteria(max_vocabulary=2))
        assert len(g2.rules) == 0

    def test_bad_fields(self):
        with pytest.raises(DomainError):
            StopCriteria(max_merges=-1).validate()
        with pytest.raises(DomainError):
            StopCriteria(max_vocabulary=-1).validate()


class TestEventProperties:
    def test_counts_non_increasing(self):
        text = ("the cat sat on the mat " * 40) + "a rat sat on a hat " * 25
        ev = events_of(text)
        for prev, cur in zip(ev, ev[1:]):
            assert cur.count <= prev.count

    def test_new_ids_consecutive(self):
        seq = encode("abcabcabc xyxyxy")
        g, _, ev = train(seq)
        nt = len(seq.alphabet)
        assert [e.new_id for e in ev] == list(range(nt, nt + len(ev)))

    def test_replacements_reported(self):
        seq = encode("abababab")
        m = PairMerger(seq)
        ev = m.merge_once()
        assert ev is not None and ev.count == 4
        assert m.replacements == 4


class TestNaiveEquivalence:
    def assert_same(self, text, stop):
        seq = encode(text, NL)
        g1, o1, e1 = train(seq, stop)
        g2, o2, e2 = train_naive(encode(text, NL), stop)
        assert e1 == e2
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
            _, out, events = train_naive(seq, stop)
            assert merger.events == events
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
        assert merger.events == train_naive(seq, StopCriteria(min_frequency=k))[2]
        merger.run(StopCriteria(min_frequency=2))
        _, out, events = train_naive(seq, StopCriteria())
        assert merger.events == events
        assert list(merger.sequence().symbols) == list(out.symbols)

    def test_invariants_hold_during_training(self):
        rng = random.Random(3)
        for _ in range(15):
            n = rng.randint(10, 120)
            text = "".join(rng.choice("abcd\n") for _ in range(n))
            m = PairMerger(encode(text, NL))
            m.check_invariants()
            while m.merge_once() is not None:
                m.check_invariants()


class TestSizeEdges:
    """Both engine paths (training and replay) on the smallest inputs."""

    @pytest.mark.parametrize("text", ["", "\n", "\n\n", "a", "aa", "\u00e9\u00e9\u00e9\n\u00e9"])
    def test_train_and_apply(self, text):
        seq = encode(text, NL)
        g, out, ev = train(seq)
        g2, out2, ev2 = train_naive(encode(text, NL))
        assert (g, ev) == (g2, ev2)
        assert (list(out.symbols), out.boundaries) == (list(out2.symbols), out2.boundaries)
        assert decode(g, out) == decode_terminals(seq)
        replayed = apply(g, encode(text, NL))
        assert list(replayed.symbols) == list(out.symbols)
        assert replayed.boundaries == out.boundaries
        # no input character is in this grammar's alphabet
        other, _, _ = train(encode("zzzz"))
        assert decode(other, apply(other, seq)) == decode_terminals(seq)


class TestDeterminism:
    def test_same_input_same_output(self):
        text = "she sells sea shells by the sea shore " * 8
        a = events_of(text)
        b = events_of(text)
        assert a == b

    def test_events_are_plain_data(self):
        e = MergeEvent(new_id=5, left=1, right=2, count=9)
        assert e == MergeEvent(5, 1, 2, 9)
