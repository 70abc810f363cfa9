"""Every file reader fails with a ToolError on bad input, never a traceback,
and no writer writes what its reader refuses.

Regression tests drive each reader through the CLI with invalid UTF-8 or a
bad token escape; fuzz tests mutate the bytes of a valid file and require
that the reader either succeeds or raises a ToolError, and that the two
segmented-file readers agree. Property tests require that each writer
either refuses its input, leaving no file, or writes what its reader
returns.
"""

import io
import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from rgrams.cli import main
from rgrams.corpus import SymbolTable, encode
from rgrams.embed import VectorSet, _corpus_ids, export_vectors, import_vectors, normalize_token
from rgrams.errors import CorpusDecodeError, DomainError, LineError, SegmentedFileError, ToolError
from rgrams.evaluate import read_analogies, read_similarity
from rgrams.grammar import Grammar, Rule, load, read_segmented, save, write_segmented
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
            (load, b"RGRAM\t1\nT\t1\nt\t0\t97\nr\t1\t0\t0\t2\nr\t3\t0\t0\t2\n\xff\n", 5, "consecutive"),
            (lambda p: list(read_segmented(p)), b"a\nb\\q\nc\xff\n", 2, "bad escape"),
            (lambda p: _corpus_ids(p, 1)[0], b"a\nb\\q\nc\xff\n", 2, "bad escape"),
            (read_similarity, b"a\tb\tx\nc\td\t\xff\n", 1, "malformed score"),
            (read_analogies, b"a b c\n\xff\n", 1, "expected 4 tokens"),
        ],
        ids=["vectors", "grammar", "grammar-rule", "segmented", "embed-corpus", "similarity", "analogy"],
    )
    def test_line_error_wins(self, tmp_path, reader, body, line, reason):
        p = tmp_path / "bad"
        p.write_bytes(body)
        with pytest.raises(LineError, match=reason) as info:
            reader(str(p))
        assert info.value.line == line


class TestBadBytesBelowValidLines:
    """Bad bytes below lines that parse are never dropped: the grammar
    reader raises them where its lines run out, or after the last rule."""

    @pytest.mark.parametrize(
        "body",
        [
            b"\xffRGRAM\t1\n",
            b"RGRAM\t1\n\xff",
            b"RGRAM\t1\nT\t2\nt\t0\t97\nt\t1\xff\t98\n",
            b"RGRAM\t1\nT\t0\n\xff\n",
            b"RGRAM\t1\nT\t1\nt\t0\t97\nr\t1\t0\t0\t2\n\xff\n",
        ],
        ids=["first-line", "no-terminal-count", "in-terminal-table", "no-rules", "after-rules"],
    )
    def test_bytes_error(self, tmp_path, body):
        p = tmp_path / "bad.rgram"
        p.write_bytes(body)
        with pytest.raises(CorpusDecodeError) as info:
            load(str(p))
        assert info.value.byte_offset == body.index(b"\xff")


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
    save(Grammar(g.terminals, []), str(d / "t.rgram"))
    # a frequency too long for int64: read by load's line-by-line parser
    save(Grammar(SymbolTable("ab"), [Rule(2, 0, 1, 10**19), Rule(3, 2, 0, 5)]), str(d / "n.rgram"))
    write_segmented(g, out, str(d / "c.seg"))
    # a segmented file with what embed normalizes: digits, edge and all-space
    # tokens, escapes and a run of blank lines
    (d / "e.seg").write_text("new_york\n_7\\\\_\n__\n\n\nborn_1949\na\\_b\n", encoding="utf-8")
    tokens = ["the", "c_at", "\\x", " "]
    export_vectors(VectorSet(tokens, np.arange(12.0).reshape(4, 3) / 7), str(d / "v.vec"))
    (d / "a.txt").write_bytes(ANALOGY)
    (d / "s.tsv").write_bytes(SIMILARITY)


READERS = {
    "g.rgram": load,
    "c.seg": lambda p: list(read_segmented(p)),
    "e.seg": lambda p: _corpus_ids(p, 1),
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


def _resaves_or_refuses(d, name, ops):
    """load either refuses the mutated file or reads exactly what save()
    writes back: every field must be the decimal save() writes; only a
    missing final newline is restored."""
    data = mutate((d / name).read_bytes(), ops)
    path = d / "mutated-resave.rgram"
    path.write_bytes(data)
    try:
        g = load(str(path))
    except ToolError:
        return
    out = d / "resaved.rgram"
    save(g, str(out))
    assert out.read_bytes() in (data, data + b"\n")


@example(ops=[(6, "insert", ord("0"))])  # version "01"
@example(ops=[(10, "insert", ord("0"))])  # terminal count "0N"
@given(ops=MUTATIONS)
def test_saving_a_loaded_grammar_reproduces_it(valid_dir, ops):
    _resaves_or_refuses(valid_dir, "g.rgram", ops)


@pytest.mark.parametrize("name", ["t.rgram", "n.rgram"], ids=["no-rules", "long-frequency"])
@example(ops=[(0, "set", ord("R"))])  # unchanged
@given(ops=MUTATIONS)
def test_load_accepts_exactly_what_save_writes(valid_dir, name, ops):
    _resaves_or_refuses(valid_dir, name, ops)


def _segmented_both_ways(path):
    """What read_segmented and embed's _corpus_ids read from path: each
    token, normalized as embed normalizes it, with its sentence number; or
    the error's type and its line or byte offset."""

    def outcome(read):
        try:
            return read()
        except (LineError, CorpusDecodeError) as exc:
            return type(exc), getattr(exc, "line", None), getattr(exc, "byte_offset", None)

    def via_read_segmented():
        segs = read_segmented(path)
        return [(normalize_token(t), k) for k, seg in enumerate(segs) for t in seg]

    def via_corpus_ids():
        vocab, ids, sid = _corpus_ids(path, 1)
        return [(vocab.tokens[i], k) for i, k in zip(ids.tolist(), sid.tolist())]

    return outcome(via_read_segmented), outcome(via_corpus_ids)


@pytest.mark.parametrize("name", ["c.seg", "e.seg"])
@given(ops=MUTATIONS)
def test_segmented_readers_agree(valid_dir, name, ops):
    path = valid_dir / ("mutated-both-" + name)
    path.write_bytes(mutate((valid_dir / name).read_bytes(), ops))
    want, got = _segmented_both_ways(str(path))
    assert got == want


def test_segmented_readers_agree_past_the_first_chunk(tmp_path):
    # the bad escape is on a line past the first 64 KiB read, inside a segment
    segment = "new_york\na\\_b\nborn_1949\n\n"
    body = segment * 4000 + "x\nc\\q\n" + segment
    assert body.index("c\\q") > 1 << 16
    p = tmp_path / "c.seg"
    p.write_text(body, encoding="utf-8")
    segs = read_segmented(str(p))
    for _ in range(4000):  # every segment that ends above the bad line comes first
        assert next(segs) == ["new york", "a_b", "born 1949"]
    with pytest.raises(SegmentedFileError) as info:
        next(segs)
    assert info.value.line == 4 * 4000 + 2
    assert _segmented_both_ways(str(p)) == ((SegmentedFileError, 16002, None),) * 2


# -- writers write only what their readers read back ---------------------------

_LINE_CHARS = [" ", "_", "\\", "0", "7", "a", "\n", "\ud800"]


def _fits_a_line(token: str) -> bool:
    """No newline, and no lone surrogate: UTF-8 can encode it."""
    return "\n" not in token and not any("\ud800" <= c <= "\udfff" for c in token)


@example(text="ab\ud800ab|ab")
@given(text=st.text(st.sampled_from([*_LINE_CHARS, "|"]), max_size=40))
def test_segmented_writer_and_reader_agree(valid_dir, text):
    # "|" separates, so newlines stay in the tokens
    g, out = train(encode(text, frozenset("|")))
    tokens = {g.expand(s) for s in out.symbols.tolist()}
    path = valid_dir / "written.seg"
    path.unlink(missing_ok=True)
    buf = io.StringIO()
    try:
        write_segmented(g, out, str(path))
    except DomainError:
        assert not path.exists()
        assert not all(map(_fits_a_line, tokens))
        with pytest.raises(DomainError):
            write_segmented(g, out, buf)
        assert buf.getvalue() == ""
        return
    want = [[g.expand(s) for s in out.symbols[lo:hi].tolist()] for lo, hi in out.segments()]
    assert list(read_segmented(str(path))) == want
    write_segmented(g, out, buf)
    assert list(read_segmented(io.StringIO(buf.getvalue()))) == want


# ordinary values first, then non-finite ones and one whose square overflows
_COMPONENTS = st.sampled_from(
    [0.5, -3.25, 0.0, 1 / 3, 1e-300, 1e153, math.nan, math.inf, -math.inf, 1e200]
)


@st.composite
def vector_sets(draw):
    """Small vector sets, some with a token no line holds or a row a reader refuses."""
    dim = draw(st.integers(1, 3))
    token = st.text(st.sampled_from(_LINE_CHARS), max_size=4)
    tokens = draw(st.lists(token, max_size=4, unique=True))
    rows = st.lists(_COMPONENTS, min_size=dim, max_size=dim)
    matrix = draw(st.lists(rows, min_size=len(tokens), max_size=len(tokens)))
    return VectorSet(tokens, np.array(matrix, dtype=np.float64).reshape(len(tokens), dim))


@example(vs=VectorSet(["a", "b"], np.array([[1.0], [1e200]])))
@example(vs=VectorSet(["a\ud800"], np.ones((1, 2))))
# the largest a with a finite 2 * a * a; '%.9g' rounds it up past that
@example(vs=VectorSet(["x"], np.array([[9.480751908109176e153] * 2])))
@given(vs=vector_sets())
def test_vector_writer_and_reader_agree(valid_dir, vs):
    written = [[float("%.9g" % x) for x in r] for r in vs.matrix.tolist()]
    path = valid_dir / "written.vec"
    path.unlink(missing_ok=True)
    try:
        export_vectors(vs, str(path))
    except DomainError:
        assert not path.exists()
        # import refuses a row with a non-finite component or square sum,
        # as it reads the row: '%.9g' rounded
        readable = all(math.isfinite(sum(x * x for x in r)) for r in written)
        assert not (all(map(_fits_a_line, vs.tokens)) and readable)
        return
    back = import_vectors(str(path))
    assert back.tokens == vs.tokens
    assert back.matrix.tolist() == written
