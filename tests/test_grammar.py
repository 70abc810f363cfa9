import io
import re
from array import array

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import corpus_gen
from rgrams import grammar as grammar_mod
from rgrams.corpus import BoundedSequence, SymbolTable, encode, normalize
from rgrams.errors import (
    DomainError,
    GrammarFileError,
    GrammarVersionError,
    SegmentedFileError,
    UnknownSymbolError,
)
from rgrams.grammar import (
    OOV_BASE,
    Grammar,
    Rule,
    _replay_order,
    apply,
    apply_naive,
    apply_with_report,
    decode,
    engine_array,
    escape_token,
    from_engine,
    load,
    read_segmented,
    save,
    unescape_token,
    write_segmented,
)
from rgrams.repair import PairMerger, StopCriteria, train, train_naive

NL = frozenset("\n")


def trained(text, **stop):
    g, out = train(encode(text, NL), StopCriteria(**stop))
    return g, out


def abab_grammar():
    return Grammar(SymbolTable("ab"), [Rule(2, 0, 1, 4), Rule(3, 2, 2, 2)])


def repeated_rule_grammar(tmp_path):
    """A grammar file whose rule 4 repeats rule 2's (a, b); training never writes one."""
    path = tmp_path / "repeated.rgram"
    rules = [Rule(2, 0, 1, 4), Rule(3, 2, 2, 2), Rule(4, 0, 1, 2)]
    save(Grammar(SymbolTable("ab"), rules), str(path))
    return load(str(path))


def run_grammar():
    """Rules over one terminal: aa, (aa)a, (aa)(aa)."""
    return Grammar(SymbolTable("a"), [Rule(1, 0, 0, 2), Rule(2, 1, 0, 2), Rule(3, 1, 1, 2)])


GRAMMARS = {
    "abab": lambda tmp_path: abab_grammar(),
    "repeated_rule": repeated_rule_grammar,
    "runs": lambda tmp_path: run_grammar(),
    "other_corpus": lambda tmp_path: trained("the cat sat on the mat\nthe dog ran\n")[0],
}


NAIVE_TEXTS = ["", "\n\n", "QZ!", "a", "aa", "aaa", "aaaa", "aaaaa", "abab", "ab\nba\n\nabb", "the cat"]

# texts built from overlapping pieces, so that rules compete for positions
PIECES = st.lists(
    st.sampled_from(["a", "ab", "bc", "abc", "ca", "aa", " ", "\n", "z"]), max_size=25
).map("".join)


@st.composite
def grammars(draw):
    """Valid grammars over 1-3 terminals; a rule may repeat an earlier pair."""
    T = draw(st.integers(1, 3))
    pairs: list[tuple[int, int]] = []
    for _ in range(draw(st.integers(0, 12))):
        n = T + len(pairs)
        if pairs and draw(st.booleans()):
            pairs.append(draw(st.sampled_from(pairs)))
        else:
            pairs.append((draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))))
    rules = [Rule(T + i, left, right, 2) for i, (left, right) in enumerate(pairs)]
    return Grammar(SymbolTable("xyz"[:T]), rules)


# a grammar from the text itself or from another corpus; 'z' is outside
# every other corpus's alphabet
NAIVE_CASES = dict(
    corpus=PIECES.filter(lambda t: "z" not in t),
    text=PIECES,
    same=st.booleans(),
    merges=st.integers(0, 25),
)


def assert_matches_naive(g, text):
    seq = encode(text, NL)
    assert apply(g, seq) == apply_naive(g, seq)


class TestExpand:
    def test_terminal(self):
        g, _ = trained("abc")
        assert [g.expand(i) for i in range(3)] == ["a", "b", "c"]

    def test_nested_rules(self):
        g = abab_grammar()
        assert g.expand(2) == "ab"
        assert g.expand(3) == "abab"

    def test_homomorphism(self):
        g = abab_grammar()
        for r in g.rules:
            assert g.expand(r.id) == g.expand(r.left) + g.expand(r.right)
            assert len(g.expand(r.id)) == len(g.expand(r.left)) + len(g.expand(r.right))

    def test_unknown_symbol(self):
        g = abab_grammar()
        with pytest.raises(UnknownSymbolError):
            g.expand(17)

    def test_oov_symbol(self):
        g = abab_grammar()
        assert g.expand(OOV_BASE + ord("Q")) == "Q"

    def test_deep_chain_no_recursion_limit(self):
        t = SymbolTable("x")
        rules = [Rule(1, 0, 0, 2)]
        for i in range(2, 5000):
            rules.append(Rule(i, i - 1, 0, 2))
        g = Grammar(t, rules)
        assert len(g.expand(4999)) == 5000
        assert g.depth(4999) == 4999

    def test_depth(self):
        g = abab_grammar()
        assert g.depth(0) == 0
        assert g.depth(2) == 1
        assert g.depth(3) == 2
        assert g.depth(OOV_BASE + ord("z")) == 0

    @given(grammar=grammars())
    def test_tables_follow_the_rules(self, grammar):
        for r in grammar.rules:
            assert grammar.expand(r.id) == grammar.expand(r.left) + grammar.expand(r.right)
            assert grammar.depth(r.id) == 1 + max(grammar.depth(r.left), grammar.depth(r.right))

    @pytest.mark.parametrize("built", [False, True])
    @pytest.mark.parametrize("table", ["expand", "depth"])
    def test_out_of_range_before_and_after_build(self, table, built):
        g = abab_grammar()
        lookup = getattr(g, table)
        if built:
            lookup(0)
        for s in (-1, g.vocab_size):
            with pytest.raises(UnknownSymbolError):
                lookup(s)
        assert g.expand(OOV_BASE + 0x20000) == "\U00020000"
        assert g.depth(OOV_BASE + ord("Q")) == 0

    @pytest.mark.parametrize("table", ["expand", "depth"])
    def test_one_id_range(self, table):
        # expand and depth refuse the same ids: none above the last code point
        g = abab_grammar()
        lookup = getattr(g, table)
        for s in (-1, OOV_BASE + 0x110000, 1 << 63):
            with pytest.raises(UnknownSymbolError):
                lookup(s)
        assert g.depth(OOV_BASE + 0x10FFFF) == 0
        assert g.expand(OOV_BASE + 0x10FFFF) == "\U0010ffff"


class TestConstruction:
    def test_rule_ids_must_be_consecutive(self):
        t = SymbolTable("a")
        with pytest.raises(DomainError):
            Grammar(t, [Rule(5, 0, 0, 2)])

    def test_rule_must_reference_earlier(self):
        t = SymbolTable("a")
        with pytest.raises(DomainError):
            Grammar(t, [Rule(1, 0, 1, 2)])
        with pytest.raises(DomainError):
            Grammar(t, [Rule(1, 0, 2, 2)])

    def test_frequency_must_not_be_negative(self):
        # save() would write a file that load() refuses
        t = SymbolTable("a")
        with pytest.raises(DomainError, match="negative frequency -1"):
            Grammar(t, [Rule(1, 0, 0, -1)])


class TestApply:
    def test_compresses_new_text(self):
        g = abab_grammar()
        out = apply(g, encode("abab"))
        assert out.symbols.tolist() == [3]

    def test_partial_structure(self):
        g = abab_grammar()
        out = apply(g, encode("ba"))
        assert out.symbols.tolist() == [1, 0]

    def test_mixed(self):
        g = abab_grammar()
        out = apply(g, encode("ababab"))
        # two greedy merges of ab then abab+ab
        assert [g.expand(s) for s in out.symbols.tolist()] == ["abab", "ab"]

    def test_matches_training_output(self):
        text = "in the beginning the word was the word\nthe word stayed\n"
        g, out = trained(text)
        replayed = apply(g, encode(text, NL))
        assert replayed.symbols.tolist() == out.symbols.tolist()
        assert replayed.boundaries.tolist() == out.boundaries.tolist()

    def test_unseen_chars_pass_through(self):
        g = abab_grammar()
        seq = encode("aZb!Z")
        out, rep = apply_with_report(g, seq)
        assert rep.unknown_chars == {"Z": 2, "!": 1}
        assert len(out) == len(seq) == 5
        assert out.symbols[1] == OOV_BASE + ord("Z")

    def test_clean_report(self):
        g = abab_grammar()
        out, rep = apply_with_report(g, encode("abab"))
        assert rep.unknown_chars == {}
        assert len(out) == 1

    def test_boundaries_respected(self):
        g = abab_grammar()
        out = apply(g, encode("ab\nab", NL))
        assert [g.expand(s) for s in out.symbols.tolist()] == ["ab", "ab"]
        assert out.boundaries.tolist() == [1]

    def test_decode_round_trip(self):
        text = "to be or not to be\nthat is the question\n"
        g, _ = trained(text)
        out = apply(g, encode(text, NL))
        assert decode(g, out) == text

    def test_decode_oov_round_trip(self):
        g = abab_grammar()
        out = apply(g, encode("aQba"))
        assert decode(g, out) == "aQba"

    @pytest.mark.parametrize("text", NAIVE_TEXTS)
    @pytest.mark.parametrize("grammar", list(GRAMMARS))
    def test_matches_naive(self, tmp_path, grammar, text):
        assert_matches_naive(GRAMMARS[grammar](tmp_path), text)

    @pytest.mark.parametrize("text", NAIVE_TEXTS)
    @pytest.mark.parametrize("grammar", list(GRAMMARS))
    def test_matches_naive_batched(self, tmp_path, grammar, text, batched):
        assert_matches_naive(GRAMMARS[grammar](tmp_path), text)

    def test_repeated_rule_is_a_no_op(self, tmp_path):
        g = repeated_rule_grammar(tmp_path)
        assert apply(g, encode("abab")).symbols.tolist() == [3]

    @settings(max_examples=300, deadline=None)
    @given(**NAIVE_CASES)
    def test_matches_naive_property(self, corpus, text, same, merges):
        assert_matches_naive(trained(text if same else corpus, max_merges=merges)[0], text)

    # the fixture only sets two module constants, which hold for every example
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(**NAIVE_CASES)
    def test_matches_naive_property_batched(self, batched, corpus, text, same, merges):
        assert_matches_naive(trained(text if same else corpus, max_merges=merges)[0], text)


def runs_grammar():
    """(a, a), X = (a, b) and (X, X), then rules over their results."""
    return Grammar(
        SymbolTable("ab"),
        [Rule(2, 0, 0, 2), Rule(3, 0, 1, 2), Rule(4, 3, 3, 2), Rule(5, 2, 2, 2), Rule(6, 4, 0, 2)],
    )


def greedy_order(pos, rid):
    """_replay_order's literal form: candidates in (rule id, position) order,
    each merged unless an overlapping neighbour already was."""
    taken = set()
    for _, p in sorted(zip(rid, pos)):
        if p - 1 not in taken and p + 1 not in taken:
            taken.add(p)
    return [p in taken for p in pos]


class TestBatchPhase:
    """apply's numpy batch phase against the literal replay; the batched
    fixture forces it on for inputs below its cut-offs."""

    # gaps of 1 make overlapping candidates, and few rule ids make ties
    @given(st.lists(st.tuples(st.integers(1, 2), st.integers(0, 3)), max_size=40))
    def test_replay_order_is_greedy(self, steps):
        pos = np.cumsum([gap for gap, _ in steps], dtype=np.int64)
        rid = np.array([r for _, r in steps], dtype=np.int32)
        assert _replay_order(pos, rid).tolist() == greedy_order(pos.tolist(), rid.tolist())

    @pytest.mark.parametrize("length", range(1, 10))
    def test_same_symbol_runs(self, batched, length):
        g = runs_grammar()
        for text in ("a" * length, "ab" * length, "b" + "a" * length + "b", "a" * length + "ab" * length):
            assert_matches_naive(g, text)

    def test_pair_repeated_at_several_ids(self, batched):
        rules = [Rule(2, 0, 1, 2), Rule(3, 1, 0, 2), Rule(4, 0, 1, 2), Rule(5, 2, 2, 2), Rule(6, 1, 0, 2)]
        g = Grammar(SymbolTable("ab"), rules)
        for text in ("abab", "babab", "ababab\nba", "aabba" * 3):
            assert_matches_naive(g, text)

    def test_batch_ends_before_a_rule_reading_its_ids(self, batched):
        # rule 5 reads X = (a, b), so rule 6's (c, d) must wait for it: in
        # "abcd", X takes (X, c) from rule 6
        rules = [Rule(4, 0, 1, 2), Rule(5, 4, 2, 2), Rule(6, 2, 3, 2)]
        g = Grammar(SymbolTable("abcd"), rules)
        assert apply(g, encode("abcd")).symbols.tolist() == [5, 3]
        for text in ("abcdabcd", "cdabcd", "abcdcd\nabcd"):
            assert_matches_naive(g, text)

    @pytest.mark.parametrize("text", ["aQa", "Qaa", "aaQ", "a\na", "ab\nab\n\nab", "\naa\n", "QabQ\nZaaZ"])
    def test_unknown_characters_and_boundaries(self, batched, text):
        assert_matches_naive(runs_grammar(), text)

    @pytest.mark.parametrize("text", ["", "\n", "ab", "aab\nQ"])
    def test_grammar_without_rules(self, batched, text):
        g = Grammar(SymbolTable("ab"), [])
        out, report = apply_with_report(g, encode(text, NL))
        assert out == apply_naive(g, encode(text, NL))
        assert report.batch_merges == 0

    def test_empty_input(self, batched):
        out, report = apply_with_report(runs_grammar(), encode(""))
        assert len(out) == 0 and report.batch_merges == 0

    def test_batch_merges_at_default_thresholds(self):
        g, _ = trained(normalize(corpus_gen.generate(20_000, seed=1)), max_merges=300)
        text = normalize(corpus_gen.generate(6_000, seed=2))
        seq = encode(text, NL)
        out, report = apply_with_report(g, seq)
        assert 5_000 <= len(seq) <= 8_000 and len(g.rules) == 300
        assert out == apply_naive(g, seq)
        assert 0 < report.batch_merges <= len(seq) - len(out)
        assert apply_with_report(g, encode(text[:100], NL))[1].batch_merges == 0


class TestEngineFormat:
    ENTRY_POINTS = {
        "PairMerger": PairMerger,
        "train": train,
        "train_naive": train_naive,
        "apply": lambda seq: apply(abab_grammar(), seq),
        "apply_naive": lambda seq: apply_naive(abab_grammar(), seq),
    }

    @pytest.mark.parametrize("boundaries", [[5], [2, 1], [1, 1]])
    @pytest.mark.parametrize("entry", list(ENTRY_POINTS))
    def test_bad_boundaries_rejected(self, entry, boundaries):
        # the sequence is refused when it is made, before any entry point
        with pytest.raises(DomainError, match="boundar"):
            self.ENTRY_POINTS[entry](BoundedSequence([0, 1, 0, 1], boundaries, SymbolTable("ab")))

    def test_returned_sequences_compare_by_content(self):
        seq = encode("ab\nba\U00020000")
        assert train(seq, StopCriteria(max_merges=0))[1] == seq
        assert apply(Grammar(seq.alphabet, []), seq) == seq

    @pytest.mark.parametrize("boundaries", [[], [0], [2], [1, 3], [4]])
    def test_engine_array_is_int32_from_any_symbol_storage(self, boundaries):
        ids = [0, 2, 1, 2]
        want = ids[:]
        for b in reversed([*boundaries, len(ids)]):
            want.insert(b, -1)
        seqs = [
            BoundedSequence(symbols, boundaries, SymbolTable("abc"))
            for symbols in (array("i", ids), ids, array("q", ids), np.array(ids))
        ]
        for seq in seqs:
            assert seq == seqs[0] and seq.symbols.dtype == np.int32
            assert seq.boundaries.dtype == np.int64 and seq.boundaries.tolist() == boundaries
            a = engine_array(seq)
            assert a.dtype == np.int32 and a.tolist() == want

    def test_pass_through_ids_keep_int64(self):
        ids = [0, OOV_BASE + ord("z"), 0]
        for symbols in (ids, array("q", ids), np.array(ids)):
            seq = BoundedSequence(symbols, [1], SymbolTable("a"))
            assert seq.symbols.dtype == np.int64 and seq.symbols.tolist() == ids
        assert apply(abab_grammar(), encode("abz")).symbols.dtype == np.int64
        assert apply(abab_grammar(), encode("abb")).symbols.dtype == np.int32

    def test_an_id_array_is_shared_not_flagged(self):
        # the sequence's view is read-only; the caller's array is not touched
        ids = np.array([0, 1, 0], dtype=np.int32)
        seq = BoundedSequence(ids, [], SymbolTable("ab"))
        assert np.shares_memory(seq.symbols, ids) and ids.flags.writeable
        assert not seq.symbols.flags.writeable

    @pytest.mark.parametrize("sid", [3, -1, 1 << 31, 1 << 32, OOV_BASE + ord("a")])
    def test_engine_array_refuses_ids_outside_the_alphabet(self, sid):
        # checked before the cast to int32, so 2**32 cannot wrap to terminal 0
        seq = BoundedSequence(array("q", [0, sid]), [], SymbolTable("abc"))
        with pytest.raises(DomainError, match="non-terminal"):
            engine_array(seq)

    @pytest.mark.parametrize("chars", ["z", "a"])
    @pytest.mark.parametrize("sid", [-1, 1])
    def test_apply_refuses_ids_outside_the_alphabet(self, chars, sid):
        # the ids are range-checked before apply counts the characters the
        # grammar has never seen ("z"), as when it knows them all ("a")
        seq = BoundedSequence([sid, 0], [], SymbolTable(chars))
        for entry in (apply, apply_naive):
            with pytest.raises(DomainError, match="non-terminal"):
                entry(Grammar(SymbolTable("ab"), []), seq)

    @given(st.text(alphabet="ab\n", max_size=40))
    @example("")
    @example("\n")
    @example("\nab\n\nba\n")
    def test_from_engine_inverts_engine_array(self, text):
        seq = encode(text, NL)
        back = from_engine(engine_array(seq), seq.alphabet)
        assert back.symbols.tolist() == seq.symbols.tolist()
        assert back.boundaries.tolist() == seq.boundaries.tolist()


class TestSaveLoad:
    def test_round_trip_equality(self, tmp_path):
        g, _ = trained("compression is repetition detection " * 6)
        p = tmp_path / "g.rgram"
        save(g, str(p))
        assert load(str(p)) == g

    def test_resave_is_byte_identical(self, tmp_path):
        g, _ = trained("aabbaabbaabb\naabb")
        p1, p2 = tmp_path / "a.rgram", tmp_path / "b.rgram"
        save(g, str(p1))
        save(load(str(p1)), str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_format_shape(self, tmp_path):
        g = abab_grammar()
        p = tmp_path / "g.rgram"
        save(g, str(p))
        lines = p.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "RGRAM\t1"
        assert lines[1] == "T\t2"
        assert lines[2] == f"t\t0\t{ord('a')}"
        assert lines[4] == "r\t2\t0\t1\t4"

    def test_empty_grammar(self, tmp_path):
        g = Grammar(SymbolTable(), [])
        p = tmp_path / "e.rgram"
        save(g, str(p))
        assert load(str(p)) == g

    def _write(self, tmp_path, body):
        p = tmp_path / "bad.rgram"
        p.write_text(body, encoding="utf-8")
        return str(p)

    def test_bad_magic(self, tmp_path):
        with pytest.raises(GrammarFileError) as info:
            load(self._write(tmp_path, "NOPE\t1\nT\t0\n"))
        assert info.value.line == 1

    def test_version_mismatch(self, tmp_path):
        with pytest.raises(GrammarVersionError) as info:
            load(self._write(tmp_path, "RGRAM\t9\nT\t0\n"))
        assert "9" in str(info.value) and "1" in str(info.value)
        assert info.value.line == 1

    def test_truncated(self, tmp_path):
        with pytest.raises(GrammarFileError):
            load(self._write(tmp_path, "RGRAM\t1\nT\t2\nt\t0\t97\n"))

    def test_rule_referencing_later_symbol(self, tmp_path):
        body = "RGRAM\t1\nT\t1\nt\t0\t97\nr\t1\t0\t5\t2\n"
        with pytest.raises(GrammarFileError) as info:
            load(self._write(tmp_path, body))
        assert info.value.line == 4

    def test_duplicate_terminal(self, tmp_path):
        body = "RGRAM\t1\nT\t2\nt\t0\t97\nt\t1\t97\n"
        with pytest.raises(GrammarFileError) as info:
            load(self._write(tmp_path, body))
        assert info.value.line == 4

    def test_non_integer_field(self, tmp_path):
        body = "RGRAM\t1\nT\t1\nt\t0\tninetyseven\n"
        with pytest.raises(GrammarFileError) as info:
            load(self._write(tmp_path, body))
        assert info.value.line == 3

    def test_negative_frequency(self, tmp_path):
        body = "RGRAM\t1\nT\t1\nt\t0\t97\nr\t1\t0\t0\t2\nr\t2\t1\t1\t-7\n"
        with pytest.raises(GrammarFileError) as info:
            load(self._write(tmp_path, body))
        assert info.value.line == 5

    def test_non_canonical_grammar_file(self, tmp_path):
        # int() reads this as terminals a, b and rule 2 -> (0, 1); save()
        # would write it back as 97, 1, 98 and 0
        body = "RGRAM\t1\nT\t2\nt\t0\t9_7\nt\t+1\t 98\nr\t2\t٠\t1\t3\n"
        with pytest.raises(GrammarFileError, match="malformed code point") as info:
            load(self._write(tmp_path, body))
        assert info.value.line == 3

    @pytest.mark.parametrize("text", ["9_7", "+97", " 97", "97 ", "٩٧", "097", "-0"])
    def test_non_canonical_field(self, tmp_path, text):
        with pytest.raises(GrammarFileError, match="malformed code point") as info:
            load(self._write(tmp_path, f"RGRAM\t1\nT\t1\nt\t0\t{text}\n"))
        assert info.value.line == 3

    @pytest.mark.parametrize("version", ["١", "01", "+1", "-1"])
    def test_non_canonical_version(self, tmp_path, version):
        with pytest.raises(GrammarFileError, match="malformed version field") as info:
            load(self._write(tmp_path, f"RGRAM\t{version}\nT\t0\n"))
        assert info.value.line == 1

    # A file of 7000 rules, about 120 KB, more than one 64 KiB read: load
    # parses a rule section of well-formed lines at once and one with a bad
    # line line by line. Line 5003 is rule 5000, about 88 KB in, so a bad
    # line there is past the first read.
    LONG_RULES = 7000
    BAD_LINE = 5003

    def _long_lines(self):
        rules = [Rule(2, 0, 1, 9)]
        rules += [Rule(i, i - 1, i % 2, i * 7 % 1000) for i in range(3, self.LONG_RULES + 2)]
        lines = ["RGRAM\t1", "T\t2", "t\t0\t97", "t\t1\t98"]
        lines += [f"r\t{r.id}\t{r.left}\t{r.right}\t{r.freq_at_merge}" for r in rules]
        return lines

    def test_long_file_resaves_byte_for_byte(self, tmp_path):
        body = "\n".join(self._long_lines()) + "\n"
        assert len(body.encode()) > 1 << 16
        g = load(self._write(tmp_path, body))
        assert len(g.rules) == self.LONG_RULES
        out = tmp_path / "resaved.rgram"
        save(g, str(out))
        assert out.read_text(encoding="utf-8") == body

    @pytest.mark.parametrize(
        "line, reason",
        [
            ("r\t5000\tx\t1\t3", "malformed left id"),
            ("r\t5000\t+1\t1\t3", "malformed left id"),
            ("r\t5000\t4999\t1\t01", "malformed frequency"),
            ("r\t5000\t4999\t1\t-3", "negative frequency -3"),
            ("r\t5001\t4999\t1\t3", "rule ids must be consecutive; got 5001"),
            ("r\t5000\t5000\t1\t3", "references a later or negative symbol"),
        ],
        ids=["malformed", "plus", "leading-zero", "negative-frequency", "id", "forward-reference"],
    )
    def test_bad_rule_past_the_first_chunk(self, tmp_path, line, reason):
        lines = self._long_lines()
        assert lines[self.BAD_LINE - 1].startswith("r\t5000\t")
        assert len("\n".join(lines[: self.BAD_LINE]).encode()) > 1 << 16
        lines[self.BAD_LINE - 1] = line
        with pytest.raises(GrammarFileError, match=reason) as info:
            load(self._write(tmp_path, "\n".join(lines) + "\n"))
        assert info.value.line == self.BAD_LINE


class TestEscaping:
    CASES = ["ab", "a b", "_", "a_b", "\\", "a\\_b", " ", "", "嗯 哼"]

    def test_round_trip(self):
        for tok in self.CASES:
            assert unescape_token(escape_token(tok)) == tok

    def test_space_becomes_underscore(self):
        assert escape_token("of the") == "of_the"
        assert escape_token("a_b") == "a\\_b"
        assert escape_token("a\\b") == "a\\\\b"

    @given(st.text(max_size=30))
    def test_round_trip_property(self, tok):
        assert unescape_token(escape_token(tok)) == tok

    def test_bad_escape_rejected(self):
        with pytest.raises(SegmentedFileError):
            list(read_segmented(io.StringIO("a\\xb\n")))


class TestSegmentedIO:
    def round_trip(self, g, seq):
        buf = io.StringIO()
        write_segmented(g, seq, buf)
        return list(read_segmented(io.StringIO(buf.getvalue())))

    def test_basic(self):
        text = "ab ab\nba\n"
        g, out = trained(text)
        segs = self.round_trip(g, out)
        assert ["".join(unescape_token(escape_token(t)) for t in s) for s in segs] == [
            "ab ab",
            "ba",
            "",
        ]

    def test_tokens_with_spaces(self):
        g, out = trained("of the people, by the people, for the people")
        segs = self.round_trip(g, out)
        assert sum(len(s) for s in segs) == len(out.symbols)
        assert "".join(segs[0]) == "of the people, by the people, for the people"

    def test_boundary_count(self):
        g, out = trained("a\nb\nc", )
        segs = self.round_trip(g, out)
        assert len(segs) == 3

    def test_empty_sequence_is_one_empty_segment(self):
        g, out = trained("")
        assert self.round_trip(g, out) == [[]]

    def test_newline_in_token_rejected(self):
        t = SymbolTable("\n")
        g = Grammar(t, [])
        seq = BoundedSequence([0], [], t)
        buf = io.StringIO()
        with pytest.raises(DomainError):
            write_segmented(g, seq, buf)

    @pytest.mark.parametrize(
        "bad",
        [-1, 4, OOV_BASE - 1, OOV_BASE + 0x110000],
        ids=["negative", "vocab-size", "below-oov", "above-unicode"],
    )
    def test_unknown_symbol_writes_nothing(self, tmp_path, bad):
        g = abab_grammar()
        assert g.vocab_size == 4
        seq = BoundedSequence([2, 0, bad, OOV_BASE + ord("z")], [1], g.terminals)
        with pytest.raises(UnknownSymbolError):
            decode(g, seq)
        p = tmp_path / "seg.txt"
        with pytest.raises(UnknownSymbolError):
            write_segmented(g, seq, str(p))
        assert not p.exists()

    def test_pass_through_newline(self, tmp_path):
        # "|" separates, so "\n" is kept; the grammar has never seen it, so
        # apply passes it through as OOV_BASE + 10, which no line can hold
        text = "ab\nab|ba"
        g = abab_grammar()
        out = apply(g, encode(text, frozenset("|")))
        assert OOV_BASE + ord("\n") in out.symbols.tolist()
        p = tmp_path / "seg.txt"
        with pytest.raises(DomainError, match="newline"):
            write_segmented(g, out, str(p))
        assert not p.exists()
        assert decode(g, out) == "ab\nab\nba"

    def test_symbol_containers_write_the_same_bytes(self):
        g, out = trained("abab ab ba\nbaab\n\nab ab\n")
        written = []
        for symbols in (out.symbols.tolist(), array("i", out.symbols), array("q", out.symbols)):
            buf = io.StringIO()
            write_segmented(g, BoundedSequence(symbols, out.boundaries, out.alphabet), buf)
            written.append(buf.getvalue())
        assert written[0] == written[1] == written[2]

    def test_matches_a_per_symbol_reference(self, monkeypatch):
        # a corpus_gen document with boundaries at both ends and unknown
        # characters; small gather steps put boundaries on step edges
        text = "\n" + corpus_gen.generate(6000, seed=3) + "Ωβ\n\n"
        g, _ = trained(corpus_gen.generate(4000, seed=5), max_merges=200)
        out = apply(g, encode(text, NL))
        unknown = {g.expand(s) for s in out.symbols.tolist() if s >= OOV_BASE}
        assert unknown >= {"Ω", "β"} and out.boundaries[0] == 0
        lines = []
        for k, (lo, hi) in enumerate(out.segments()):
            if k:
                lines.append("")
            lines += [escape_token(g.expand(s)) for s in out.symbols[lo:hi].tolist()]
        want = "".join(line + "\n" for line in lines)
        expanded = "\n".join("".join(g.expand(s) for s in out.symbols[lo:hi].tolist()) for lo, hi in out.segments())
        for step in (1 << 16, 7, 1):
            monkeypatch.setattr(grammar_mod, "_GATHER", step)
            buf = io.StringIO()
            write_segmented(g, out, buf)
            assert buf.getvalue() == want
            assert decode(g, out) == expanded == re.sub("\n+", "\n", text)

    def test_file_path_io(self, tmp_path):
        g, out = trained("round and round and round\nwe go\n")
        p = tmp_path / "seg.txt"
        write_segmented(g, out, str(p))
        segs = list(read_segmented(str(p)))
        assert sum(len(s) for s in segs) == len(out.symbols)

    def test_missing_final_newline_tolerated(self):
        segs = list(read_segmented(io.StringIO("ab\ncd")))
        assert segs == [["ab", "cd"]]

    def test_underscore_means_space(self):
        segs = list(read_segmented(io.StringIO("of_the\n")))
        assert segs == [["of the"]]

    def test_repeated_token_then_bad_escape_names_its_line(self):
        # "a\_b" is unescaped once and reused; the bad line must still fail
        # with its own number, not be served from what was read before
        body = "a\\_b\n" * 50 + "\n" + "a\\_b\nc\\q\n"
        segs = read_segmented(io.StringIO(body))
        first = next(segs)
        assert first == ["a_b"] * 50
        with pytest.raises(SegmentedFileError) as info:
            next(segs)
        assert info.value.line == 53
