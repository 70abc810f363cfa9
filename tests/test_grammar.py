import io

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import corpus_gen
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
    t = SymbolTable()
    t.intern("a")
    t.intern("b")
    return Grammar(t, [Rule(2, 0, 1, 4), Rule(3, 2, 2, 2)])


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
        t = SymbolTable()
        t.intern("x")
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


class TestConstruction:
    def test_rule_ids_must_be_consecutive(self):
        t = SymbolTable()
        t.intern("a")
        with pytest.raises(DomainError):
            Grammar(t, [Rule(5, 0, 0, 2)])

    def test_rule_must_reference_earlier(self):
        t = SymbolTable()
        t.intern("a")
        with pytest.raises(DomainError):
            Grammar(t, [Rule(1, 0, 1, 2)])
        with pytest.raises(DomainError):
            Grammar(t, [Rule(1, 0, 2, 2)])


class TestApply:
    def test_compresses_new_text(self):
        g = abab_grammar()
        out = apply(g, encode("abab"))
        assert list(out.symbols) == [3]

    def test_partial_structure(self):
        g = abab_grammar()
        out = apply(g, encode("ba"))
        assert list(out.symbols) == [1, 0]

    def test_mixed(self):
        g = abab_grammar()
        out = apply(g, encode("ababab"))
        # two greedy merges of ab then abab+ab
        assert [g.expand(s) for s in out.symbols] == ["abab", "ab"]

    def test_matches_training_output(self):
        text = "in the beginning the word was the word\nthe word stayed\n"
        g, out = trained(text)
        replayed = apply(g, encode(text, NL))
        assert list(replayed.symbols) == list(out.symbols)
        assert replayed.boundaries == out.boundaries

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
        assert [g.expand(s) for s in out.symbols] == ["ab", "ab"]
        assert out.boundaries == [1]

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
        assert list(apply(g, encode("abab")).symbols) == [3]

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
        assert list(apply(g, encode("abcd")).symbols) == [5, 3]
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
        seq = BoundedSequence([0, 1, 0, 1], boundaries, SymbolTable("ab"))
        with pytest.raises(DomainError, match="boundar"):
            self.ENTRY_POINTS[entry](seq)

    def test_returned_sequences_compare_by_content(self):
        seq = encode("ab\nba\U00020000")
        assert train(seq, StopCriteria(max_merges=0))[1] == seq
        assert apply(Grammar(seq.alphabet.clone(), []), seq) == seq

    @given(st.text(alphabet="ab\n", max_size=40))
    @example("")
    @example("\n")
    @example("\nab\n\nba\n")
    def test_from_engine_inverts_engine_array(self, text):
        seq = encode(text, NL)
        back = from_engine(engine_array(seq), seq.alphabet)
        assert list(back.symbols) == list(seq.symbols)
        assert back.boundaries == seq.boundaries


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
        t = SymbolTable()
        t.intern("\n")
        g = Grammar(t, [])
        seq = encode("x")
        seq.symbols = [0]
        seq.alphabet = t
        buf = io.StringIO()
        with pytest.raises(DomainError):
            write_segmented(g, seq, buf)

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
