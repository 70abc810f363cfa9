"""Every file reader fails with a ToolError on bad input, never a traceback.

Regression tests drive each reader through the CLI with invalid UTF-8 or a
bad token escape; fuzz tests mutate the bytes of a valid file and require
that the reader either succeeds or raises a ToolError.
"""

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from rgrams.cli import main
from rgrams.corpus import encode
from rgrams.embed import VectorSet, build_vocab, export_vectors, import_vectors
from rgrams.errors import LineError, ToolError
from rgrams.evaluate import read_analogies, read_similarity
from rgrams.grammar import load, read_segmented, save, write_segmented
from rgrams.repair import train

TEXT = "the cat sat on the mat\nthe dog sat on the rug\n" * 4
ANALOGY = b": section\ncat dog mat rug\nthe\\_ cat sat_on mat\n"
SIMILARITY = b"cat\tdog\t7.5\nthe_\\\\\tmat\t-1e3\n"


@pytest.fixture
def files(tmp_path, capsys):
    """A trained grammar, its segmented corpus and vectors, via the CLI."""
    corpus = tmp_path / "corpus.txt"
    corpus.write_text(TEXT, encoding="utf-8")
    g, seg, vec = tmp_path / "g.rgram", tmp_path / "c.seg", tmp_path / "v.vec"
    # embed needs segments of two or more tokens: trained to exhaustion, every
    # sentence of TEXT is one token, and default subsampling drops most tokens
    train = ["train", str(corpus), "--grammar-out", str(g), "--segmented-out", str(seg)]
    assert main([*train, "--max-merges", "10"]) == 0
    embed = ["embed", str(seg), "--vectors-out", str(vec), "--dim", "4", "--epochs", "1"]
    assert main([*embed, "--subsample", "0"]) == 0
    capsys.readouterr()
    return corpus, g, seg, vec


def _corrupt(path, at: int = 1) -> None:
    data = path.read_bytes()
    path.write_bytes(data[:at] + b"\xff" + data[at:])


class TestInvalidUtf8IsDataError:
    @pytest.mark.parametrize(
        "argv",
        [
            ["decode", "{g}", "{seg}", "{out}"],
            ["stats", "--segmented", "{seg}"],
            ["embed", "{seg}", "--vectors-out", "{out}", "--dim", "4", "--epochs", "1"],
        ],
        ids=["decode", "stats", "embed"],
    )
    def test_segmented_reader(self, files, tmp_path, capsys, argv):
        _, g, seg, _ = files
        _corrupt(seg, 5)
        out = tmp_path / "out"
        args = [a.format(g=g, seg=seg, out=out) for a in argv]
        assert main(args) == 3
        assert "byte offset 5" in capsys.readouterr().err
        assert not out.exists()

    def test_grammar_reader(self, files, tmp_path, capsys):
        corpus, g, _, _ = files
        _corrupt(g, 3)
        assert main(["apply", str(g), str(corpus), str(tmp_path / "out")]) == 3
        assert "byte offset 3" in capsys.readouterr().err

    def test_vector_reader(self, files, capsys):
        *_, vec = files
        _corrupt(vec, 0)
        assert main(["eval", "neighbors", str(vec), "the"]) == 3
        assert "byte offset 0" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["analogy", "similarity"])
    def test_suite_reader(self, files, tmp_path, capsys, kind):
        *_, vec = files
        suite = tmp_path / "suite.txt"
        suite.write_bytes((ANALOGY if kind == "analogy" else SIMILARITY) + b"\xc3(\n")
        assert main(["eval", kind, str(vec), str(suite)]) == 3
        assert "invalid UTF-8" in capsys.readouterr().err


class TestBadEscape:
    @pytest.mark.parametrize(
        "kind, body",
        [("analogy", "cat dog mat the\\q\n"), ("similarity", "cat\tthe\\q\t1.0\n")],
    )
    def test_suite_is_data_error(self, files, tmp_path, capsys, kind, body):
        *_, vec = files
        suite = tmp_path / "suite.txt"
        suite.write_text(body, encoding="utf-8")
        assert main(["eval", kind, str(vec), str(suite)]) == 3
        assert "line 1: bad escape" in capsys.readouterr().err

    def test_query_is_usage_error(self, files, capsys):
        *_, vec = files
        assert main(["eval", "neighbors", str(vec), "the\\q"]) == 1
        assert "QUERY" in capsys.readouterr().err


class TestMalformedHeader:
    def test_vector_dim_numpy_cannot_shape(self, tmp_path, capsys):
        vec = tmp_path / "v.vec"
        vec.write_text("0 10000000000000000000\n", encoding="utf-8")
        assert main(["eval", "neighbors", str(vec), "the"]) == 3
        assert "line 1" in capsys.readouterr().err

    def test_grammar_version_non_decimal_digit(self, tmp_path, capsys):
        # "²".isdigit() holds, but int("²") raises
        g = tmp_path / "g.rgram"
        g.write_text("RGRAM\t\u00b2\nT\t0\n", encoding="utf-8")
        src = tmp_path / "in.txt"
        src.write_text("a\n", encoding="utf-8")
        assert main(["apply", str(g), str(src), str(tmp_path / "out")]) == 3
        assert "line 1: malformed version field" in capsys.readouterr().err


class TestBadLineAboveBadBytes:
    """The lines above bad bytes are parsed first: a bad one among them is
    the error, not the bytes, as when the file were read a line at a time."""

    @pytest.mark.parametrize(
        "reader, body, line, reason",
        [
            (import_vectors, b"3 2\na 1 x\nb 1 2\nc \xff 2\n", 2, "malformed float"),
            (load, b"RGRAM\t1\nT\tx\nt\t0\t97\n\xff\n", 2, "malformed terminal count"),
            (lambda p: list(read_segmented(p)), b"a\nb\\q\nc\xff\n", 2, "bad escape"),
            (build_vocab, b"a\nb\\q\nc\xff\n", 2, "bad escape"),
            (read_similarity, b"a\tb\tx\nc\td\t\xff\n", 1, "malformed score"),
            (read_analogies, b"a b c\n\xff\n", 1, "expected 4 tokens"),
        ],
        ids=["vectors", "grammar", "segmented", "embed-corpus", "similarity", "analogy"],
    )
    def test_line_error_wins(self, tmp_path, reader, body, line, reason):
        p = tmp_path / "bad"
        p.write_bytes(body)
        with pytest.raises(LineError, match=reason) as info:
            reader(str(p))
        assert info.value.line == line


# -- fuzzing -------------------------------------------------------------------

_BYTES = st.one_of(st.integers(0, 255), st.sampled_from(list(b"\n\t \\_-.:e0123456789\xff\xc3")))
MUTATIONS = st.lists(
    st.tuples(st.integers(0, 1 << 16), st.sampled_from(["set", "insert", "delete"]), _BYTES),
    min_size=1,
    max_size=6,
)


def mutate(data: bytes, ops) -> bytes:
    b = bytearray(data)
    for pos, op, val in ops:
        i = pos % (len(b) + 1)
        if op == "insert":
            b.insert(i, val)
        elif i < len(b):
            if op == "set":
                b[i] = val
            else:
                del b[i]
    return bytes(b)


def _valid_files(d):
    seq = encode(TEXT)
    g, out = train(seq)
    save(g, str(d / "g.rgram"))
    write_segmented(g, out, str(d / "c.seg"))
    tokens = ["the", "c_at", "\\x", " "]
    export_vectors(VectorSet(tokens, np.arange(12.0).reshape(4, 3) / 7), str(d / "v.vec"))
    (d / "a.txt").write_bytes(ANALOGY)
    (d / "s.tsv").write_bytes(SIMILARITY)


READERS = {
    "g.rgram": load,
    "c.seg": lambda p: list(read_segmented(p)),
    "v.vec": import_vectors,
    "a.txt": read_analogies,
    "s.tsv": read_similarity,
}


@pytest.fixture(scope="module")
def valid_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("valid")
    _valid_files(d)
    for name, reader in READERS.items():
        reader(str(d / name))  # the unmutated files read cleanly
    return d


@pytest.mark.parametrize("name", sorted(READERS))
class TestFuzzReaders:
    @given(ops=MUTATIONS)
    def test_only_tool_errors_escape(self, valid_dir, name, ops):
        data = mutate((valid_dir / name).read_bytes(), ops)
        path = valid_dir / ("mutated-" + name)
        path.write_bytes(data)
        try:
            READERS[name](str(path))
        except ToolError:
            pass


@example(ops=[(6, "insert", ord("0"))])  # version "01"
@example(ops=[(10, "insert", ord("0"))])  # terminal count "0N"
@given(ops=MUTATIONS)
def test_saving_a_loaded_grammar_reproduces_it(valid_dir, ops):
    # every field must be the decimal save() writes; only a missing final
    # newline is restored
    data = mutate((valid_dir / "g.rgram").read_bytes(), ops)
    path = valid_dir / "mutated-resave.rgram"
    path.write_bytes(data)
    try:
        g = load(str(path))
    except ToolError:
        return
    out = valid_dir / "resaved.rgram"
    save(g, str(out))
    assert out.read_bytes() in (data, data + b"\n")
