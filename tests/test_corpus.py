import io

import pytest
from hypothesis import example, given, strategies as st

from rgrams import corpus
from rgrams.corpus import (
    ChunkEncoder,
    NormalizationOptions,
    encode,
    encode_file,
    normalize,
    read_lines,
    read_text_chunks,
    substitute_digits,
    write_lines,
)
from rgrams.errors import CorpusDecodeError, DomainError
from rgrams.grammar import Grammar, decode

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
        assert seq.boundaries == [2]

    def test_space_is_a_symbol(self):
        seq = encode("a b", NL)
        assert len(seq.symbols) == 3
        assert seq.boundaries == []
        assert seq.alphabet.char_of(seq.symbols[1]) == " "

    def test_separator_runs_collapse(self):
        seq = encode("\n\nxy\n", NL)
        assert len(seq.symbols) == 2
        assert seq.boundaries == [0, 2]

    def test_first_appearance_ids(self):
        seq = encode("bca")
        assert [seq.alphabet.char_of(i) for i in range(3)] == ["b", "c", "a"]

    def test_empty(self):
        seq = encode("")
        assert len(seq) == 0 and seq.boundaries == []

    def test_multiple_separator_chars(self):
        seq = encode("a\tb\nc", frozenset("\n\t"))
        assert len(seq.symbols) == 3
        assert seq.boundaries == [1, 2]

    def test_doc_ids_parallel_boundaries(self):
        seq = encode("a\nb\nc")
        seq.validate()

    def test_chunking_does_not_change_result(self):
        text = "the cat\nsat on\nthe mat\n"
        whole = encode(text, NL)
        for cut1 in range(len(text)):
            enc = ChunkEncoder(NL)
            enc.feed(text[:cut1])
            enc.feed(text[cut1:])
            got = enc.finish()
            assert list(got.symbols) == list(whole.symbols)
            assert got.boundaries == whole.boundaries
            assert got.alphabet == whole.alphabet


class TestSymbolTable:
    def test_clone_is_independent(self):
        table = encode("abc").alphabet
        copy = table.clone()
        assert copy == table
        assert [copy.id_of(ch) for ch in "abc"] == [0, 1, 2]
        assert copy.intern("z") == 3
        assert table.id_of("z") is None
        assert table.chars() == ("a", "b", "c")


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
        seq.symbols = list(seq.symbols) + [99]
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
        seq.boundaries = [2, 1]
        with pytest.raises(DomainError):
            seq.validate()

    def test_boundary_out_of_range(self):
        seq = encode("ab", NL)
        seq.boundaries = [5]
        with pytest.raises(DomainError):
            seq.validate()

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
        assert list(via_file.symbols) == list(direct.symbols)
        assert via_file.boundaries == direct.boundaries
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
        assert list(via_file.symbols) == list(direct.symbols)
        assert via_file.boundaries == direct.boundaries
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
