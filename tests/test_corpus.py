import io
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from rgrams import corpus
from rgrams.corpus import (
    BoundedSequence,
    NormalizationOptions,
    SymbolTable,
    encode,
    encode_file,
    normalize,
    read_lines,
    read_text_chunks,
    substitute_digits,
    write_lines,
)
from rgrams.errors import CorpusDecodeError, DomainError, ParameterError
from rgrams.grammar import Grammar, apply, apply_naive, apply_with_report, decode, load, save
from rgrams.repair import train, train_naive

NL = frozenset("\n")
BOTH = NormalizationOptions(lowercase=True, digits_to_N=True)


class TestNormalize:
    def test_lowercase_and_digits(self):
        assert normalize("Ranneberger (Born 1949)", BOTH) == "ranneberger (born NNNN)"

    def test_fixed_point(self):
        assert normalize("abc") == "abc"

    def test_nonascii(self):
        assert normalize("ÅÄÖ 12", BOTH) == "åäö NN"

    def test_digits_only(self):
        assert substitute_digits("a1b2") == "aNbN"
        assert normalize("A1", NormalizationOptions(lowercase=False, digits_to_N=True)) == "AN"

    def test_placeholder_survives(self):
        # 'N' is the digit placeholder and must not be lowercased away
        assert normalize("N9", BOTH) == "NN"
        assert normalize(normalize("N9", BOTH), BOTH) == "NN"

    @given(st.text(max_size=200))
    def test_idempotent_default(self, s):
        once = normalize(s)
        assert normalize(once) == once

    @given(st.text(max_size=200))
    def test_idempotent_with_digits(self, s):
        once = normalize(s, BOTH)
        assert normalize(once, BOTH) == once

    @given(st.text(max_size=200))
    def test_no_uppercase_remains(self, s):
        out = normalize(s)
        assert all(c.lower() == c for c in out)

    # non-ASCII digits (Arabic-Indic, Devanagari, Malayalam) are not digits
    # to either: only 0-9 become 'N'
    @given(st.text(max_size=200) | st.text(alphabet="a7N٣०൬ ", max_size=40))
    @example("٣ ١٠ 42")
    def test_substitute_digits_is_digits_only_normalize(self, s):
        want = normalize(s, NormalizationOptions(lowercase=False, digits_to_N=True))
        assert substitute_digits(s) == want


class TestEncode:
    def test_single_newline(self):
        seq = encode("ab\ncd", NL)
        assert len(seq.symbols) == 4
        assert seq.boundaries.tolist() == [2]

    def test_space_is_a_symbol(self):
        seq = encode("a b", NL)
        assert len(seq.symbols) == 3
        assert seq.boundaries.tolist() == []
        assert seq.alphabet.char_of(seq.symbols[1]) == " "

    def test_separator_runs_collapse(self):
        seq = encode("\n\nxy\n", NL)
        assert len(seq.symbols) == 2
        assert seq.boundaries.tolist() == [0, 2]

    def test_first_appearance_ids(self):
        seq = encode("bca")
        assert [seq.alphabet.char_of(i) for i in range(3)] == ["b", "c", "a"]

    def test_empty(self):
        seq = encode("")
        assert len(seq) == 0 and seq.boundaries.tolist() == []

    def test_multiple_separator_chars(self):
        seq = encode("a\tb\nc", frozenset("\n\t"))
        assert len(seq.symbols) == 3
        assert seq.boundaries.tolist() == [1, 2]

    def test_doc_ids_parallel_boundaries(self):
        seq = encode("a\nb\nc")
        BoundedSequence(seq.symbols, seq.boundaries, seq.alphabet)

    @pytest.mark.parametrize(
        "separators", [frozenset({"ab"}), frozenset({""}), frozenset({5})], ids=["two", "empty", "int"]
    )
    def test_a_separator_is_one_character(self, tmp_path, separators):
        with pytest.raises(ParameterError, match="separator is one character"):
            encode("ab", separators)
        # checked before the file is opened: this one does not exist
        with pytest.raises(ParameterError, match="separator is one character"):
            encode_file(str(tmp_path / "missing.txt"), separators, NormalizationOptions())

    def test_chunking_does_not_change_result(self):
        # a cut inside "\n\n" splits a separator run across two chunks
        text = "the cat\n\nsat on\nthe mat\n"
        whole = encode(text, NL)
        for cut1 in range(len(text)):
            got = corpus._encode_chunks([text[:cut1], text[cut1:]], NL)
            assert got.symbols.tolist() == whole.symbols.tolist()
            assert got.boundaries.tolist() == whole.boundaries.tolist()
            assert got.alphabet == whole.alphabet


def encode_reference(text, separators):
    """The literal encoding: each kept character numbered in order of first
    appearance, each maximal run of separators one boundary."""
    chars, ids, symbols, boundaries = [], {}, [], []
    in_run = False
    for ch in text:
        if ch in separators:
            if not in_run:
                boundaries.append(len(symbols))
            in_run = True
            continue
        in_run = False
        if ch not in ids:
            ids[ch] = len(chars)
            chars.append(ch)
        symbols.append(ids[ch])
    return symbols, boundaries, chars


def assert_encodes_like_reference(got, text, separators):
    symbols, boundaries, chars = encode_reference(text, separators)
    assert got.symbols.tolist() == symbols
    assert got.boundaries.tolist() == boundaries
    assert got.alphabet.chars() == tuple(chars)


# ASCII, Latin-1, astral code points up to U+10FFFF and lone surrogates, and
# a few characters that the separator sets below draw from
_CHARS = st.one_of(
    st.sampled_from("ab \n|\t\x00é\U0010ffff"),
    st.characters(max_codepoint=0xFF, exclude_categories=()),
    st.characters(min_codepoint=0x10000, max_codepoint=0x10FFFF, exclude_categories=()),
    st.characters(min_codepoint=0xD800, max_codepoint=0xDFFF, exclude_categories=()),
)


class TestEncodeReference:
    @given(
        text=st.text(alphabet=_CHARS, max_size=60),
        separators=st.frozensets(st.sampled_from("\n|\t \x00é\U0010ffff"), min_size=1, max_size=3),
        cut=st.integers(0, 60),
    )
    def test_matches_reference(self, text, separators, cut):
        assert_encodes_like_reference(encode(text, separators), text, separators)
        got = corpus._encode_chunks([text[:cut], text[cut:]], separators)
        assert_encodes_like_reference(got, text, separators)

    def test_lowest_and_highest_code_points(self):
        text = "\U0010ffffa\x00\n\x00\U0010ffff\n\n\ud800"
        seq = encode(text, NL)
        assert_encodes_like_reference(seq, text, NL)
        assert seq.alphabet.chars() == ("\U0010ffff", "a", "\x00", "\ud800")
        assert seq.symbols.tolist() == [0, 1, 2, 2, 0, 3]
        assert seq.boundaries.tolist() == [3, 5]

    def test_text_longer_than_a_chunk(self, monkeypatch):
        monkeypatch.setattr(corpus, "_CHUNK", 5)
        text = "ab\n\ncd\U0010ffff\n\nefgha\n\n\nb"
        assert_encodes_like_reference(encode(text, NL), text, NL)


class TestSymbolTable:
    def test_numbers_distinct_characters_in_first_given_order(self):
        table = SymbolTable("abca")
        assert [table.id_of(ch) for ch in "abc"] == [0, 1, 2]
        assert table.chars() == ("a", "b", "c")
        assert len(table) == 3 and table.id_of("z") is None

    @pytest.mark.parametrize(
        "chars", [["ab", "c"], ["a", ""], ["a", 98], [["a"]]], ids=["two", "empty", "int", "list"]
    )
    def test_a_terminal_is_one_character(self, chars):
        # a two-character terminal would expand as two characters and make
        # save fail with a TypeError
        with pytest.raises(DomainError, match="one character"):
            SymbolTable(chars)

    def test_no_stage_hands_out_a_changeable_table(self, tmp_path):
        g, _ = train(encode("abab abab abab"))
        path = tmp_path / "g.rgram"
        save(g, str(path))
        loaded = load(str(path))
        for table in (g.terminals, apply(g, encode("ba ab")).alphabet, loaded.terminals):
            with pytest.raises(AttributeError):
                table.intern("z")
        assert loaded == g
        save(loaded, str(tmp_path / "again.rgram"))
        assert (tmp_path / "again.rgram").read_bytes() == path.read_bytes()

    def test_grammar_and_its_sequences_share_one_table(self):
        seq = encode("abab abab abab")
        for g, out in (train(seq), train_naive(seq)):
            assert g.terminals is seq.alphabet and out.alphabet is seq.alphabet
            for segment in (apply, apply_naive, lambda g, s: apply_with_report(g, s)[0]):
                assert segment(g, encode("ba ab")).alphabet is g.terminals


def decode_terminals(seq):
    """decode over a grammar with no rules: the inverse of encode up to
    separator-run collapsing."""
    return decode(Grammar(seq.alphabet, []), seq)


class TestDecodeTerminals:
    def test_boundary_restored(self):
        seq = encode("a\nb", NL)
        assert decode_terminals(seq) == "a\nb"

    def test_no_boundary_round_trip(self):
        s = "hello world"
        assert decode_terminals(encode(s, NL)) == s

    def test_runs_collapse(self):
        assert decode_terminals(encode("a\n\nb", NL)) == "a\nb"

    def test_trailing_and_leading(self):
        assert decode_terminals(encode("\nab\n", NL)) == "\nab\n"

    def test_rejects_nonterminal(self):
        seq = encode("ab", NL)
        seq = replace(seq, symbols=seq.symbols.tolist() + [99])
        with pytest.raises(DomainError):
            decode_terminals(seq)

    @given(st.text(alphabet="ab é世", max_size=80))
    def test_round_trip_no_separators_involved(self, s):
        assert decode_terminals(encode(s, NL)) == s

    @given(
        st.lists(st.text(alphabet="abc é", min_size=1, max_size=8), min_size=1, max_size=6)
    )
    def test_round_trip_single_newlines(self, parts):
        s = "\n".join(parts)
        assert decode_terminals(encode(s, NL)) == s


class TestValidate:
    def test_bad_boundary_order(self):
        seq = encode("a\nb\nc", NL)
        with pytest.raises(DomainError):
            replace(seq, boundaries=[2, 1])

    def test_boundary_out_of_range(self):
        seq = encode("ab", NL)
        with pytest.raises(DomainError):
            replace(seq, boundaries=[5])

    @pytest.mark.parametrize("boundaries", [[5], [2, 1], [1, 1], [-1]])
    def test_bad_boundaries_rejected_when_made(self, boundaries):
        with pytest.raises(DomainError, match="boundar"):
            BoundedSequence([0, 1, 0, 1], boundaries, SymbolTable("ab"))

    def test_fields_are_read_only(self):
        # frozen alone left the held lists open to in-place changes, which
        # got past the boundary check and made decode raise IndexError
        seq = encode("ab\nab", NL)
        with pytest.raises(AttributeError):
            seq.boundaries.append(9)
        with pytest.raises(ValueError, match="read-only"):
            seq.symbols[0] = 1
        with pytest.raises(ValueError, match="read-only"):
            seq.boundaries[0] = 9
        assert decode(Grammar(seq.alphabet, []), seq) == "ab\nab"

    @pytest.mark.parametrize(
        "values",
        [[0.0, 1.0], np.array([1.0]), np.array([0, 1], dtype=object), [[0, 1]], 1, "ab", [True]],
        ids=["floats", "float-array", "objects", "2-d", "scalar", "string", "bools"],
    )
    def test_non_integer_ids_rejected(self, values):
        with pytest.raises(DomainError, match="integer"):
            BoundedSequence(values, [], SymbolTable("ab"))
        with pytest.raises(DomainError, match="integer"):
            BoundedSequence([0, 1, 0], values, SymbolTable("ab"))

    @pytest.mark.parametrize("field", ["symbols", "boundaries", "alphabet"])
    def test_fields_cannot_be_reassigned(self, field):
        seq = encode("ab\nab", NL)
        with pytest.raises(FrozenInstanceError):
            setattr(seq, field, getattr(seq, field))

    def test_segments(self):
        seq = encode("ab\ncd\n", NL)
        assert list(seq.segments()) == [(0, 2), (2, 4), (4, 4)]


class TestFiles:
    def test_encode_file_matches_encode(self, tmp_path, monkeypatch):
        text = "The Cat\nSat 99 Times\n"
        p = tmp_path / "c.txt"
        p.write_text(text, encoding="utf-8")
        monkeypatch.setattr(corpus, "_CHUNK", 4)
        via_file = encode_file(str(p), NL, BOTH)
        direct = encode(normalize(text, BOTH), NL)
        assert via_file.symbols.tolist() == direct.symbols.tolist()
        assert via_file.boundaries.tolist() == direct.boundaries.tolist()
        assert via_file.alphabet == direct.alphabet

    # ASCII, Latin-1 and astral characters, in words between separator runs
    _CHARS = (
        st.characters(max_codepoint=0x7F, exclude_characters="\n")
        | st.characters(min_codepoint=0x80, max_codepoint=0xFF)
        | st.characters(min_codepoint=0x10000, max_codepoint=0x10FFFF)
    )

    @given(
        pieces=st.lists(st.tuples(st.text(_CHARS, max_size=6), st.text("\n", max_size=3))),
        chunk_bytes=st.sampled_from([1, 2, 3, 5, None]),
    )
    def test_encode_file_any_chunking(self, tmp_path_factory, pieces, chunk_bytes):
        text = "".join(w + sep for w, sep in pieces)
        p = tmp_path_factory.getbasetemp() / "chunked.txt"
        p.write_bytes(text.encode("utf-8"))
        # @given cannot take the function-scoped monkeypatch fixture: patch per example
        with pytest.MonkeyPatch.context() as mp:
            if chunk_bytes is not None:
                mp.setattr(corpus, "_CHUNK", chunk_bytes)
            via_file = encode_file(str(p), NL, NormalizationOptions())
        direct = encode(normalize(text), NL)
        assert via_file.symbols.tolist() == direct.symbols.tolist()
        assert via_file.boundaries.tolist() == direct.boundaries.tolist()
        assert via_file.alphabet.chars() == direct.alphabet.chars()

    def test_bad_utf8_offset(self, tmp_path, monkeypatch):
        p = tmp_path / "bad.txt"
        p.write_bytes(b"abcd\xff\xfeef")
        monkeypatch.setattr(corpus, "_CHUNK", 3)
        chunks = []
        with pytest.raises(CorpusDecodeError) as info:
            for chunk in read_text_chunks(str(p)):
                chunks.append(chunk)
        assert info.value.byte_offset == 4
        assert chunks == ["abc", "d"]  # the text before the bad byte comes first

    def test_multibyte_across_chunk_boundary(self, tmp_path, monkeypatch):
        p = tmp_path / "multi.txt"
        p.write_text("世界 abc", encoding="utf-8")
        monkeypatch.setattr(corpus, "_CHUNK", 2)
        text = "".join(read_text_chunks(str(p)))
        assert text == "世界 abc"


class _Trickle:
    """A text handle whose read() returns a few characters whatever the size asked."""

    def __init__(self, text: str, sizes: list[int]):
        self.text, self.sizes, self.pos, self.calls = text, sizes, 0, 0

    def read(self, _size: int) -> str:
        step = self.sizes[self.calls % len(self.sizes)]
        self.calls += 1
        out = self.text[self.pos : self.pos + step]
        self.pos += len(out)
        return out


class TestLines:
    @given(
        st.text(st.characters() | st.sampled_from("\n\r"), max_size=60),
        st.lists(st.integers(1, 7), min_size=1),
    )
    def test_short_reads_split_like_str_split(self, text, sizes):
        want = text.split("\n")
        if want[-1] == "":
            want.pop()
        assert list(read_lines(_Trickle(text, sizes))) == list(enumerate(want, 1))

    def test_path_and_handle_agree(self, tmp_path):
        p = tmp_path / "l.txt"
        write_lines(str(p), ["a", "", "b\r"])
        assert p.read_bytes() == b"a\n\nb\r\n"
        buf = io.StringIO()
        write_lines(buf, ["a", "", "b\r"])
        assert buf.getvalue().encode() == p.read_bytes()
        assert list(read_lines(str(p))) == [(1, "a"), (2, ""), (3, "b\r")]

    def test_missing_final_newline(self):
        assert list(read_lines(io.StringIO("a\nb"))) == [(1, "a"), (2, "b")]

    def test_bad_utf8_offset(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_bytes(b"ab\ncd\xff\n")
        with pytest.raises(CorpusDecodeError) as info:
            list(read_lines(str(p)))
        assert info.value.byte_offset == 5
