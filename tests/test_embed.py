import io
import logging
import math
import tracemalloc
import warnings
from dataclasses import replace
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rgrams import embed
from rgrams.embed import (
    WS_TOKEN,
    EmbeddingMatrix,
    EmbedVocab,
    TrainConfig,
    VectorSet,
    export_vectors,
    import_vectors,
    negative_draws,
    normalize_token,
    pair_gradients,
    pair_loss,
    subword_rows,
    train_skipgram,
)
from rgrams.errors import DomainError, ParameterError, SegmentedFileError, VectorFileError
from rgrams.grammar import escape_token, read_segmented, unescape_token

SENTS = [
    ["the", "cat", "sat"],
    ["the", "dog", "sat"],
    ["the", "cat", "ran"],
]


def segmented(sents):
    """Token lists as a segmented file's text handle: one escaped token per
    line, each sentence ended by a blank line."""
    return io.StringIO("\n".join(line for s in sents for line in [*map(escape_token, s), ""]))


def tiny_config(**kw):
    base = dict(dim=8, window=2, negatives=2, epochs=2, subsample_threshold=0.0, seed=3)
    base.update(kw)
    return TrainConfig(**base)


class TestNormalizeToken:
    def test_trim(self):
        assert normalize_token("  cat ") == "cat"

    def test_whitespace_only_becomes_marker(self):
        assert normalize_token("   ") == WS_TOKEN
        assert normalize_token("") == WS_TOKEN

    def test_digits(self):
        assert normalize_token("born 1949") == "born NNNN"


class TestBuildVocab:
    def test_counts_and_order(self):
        v = embed._corpus_ids(segmented(SENTS), 1)[0]
        assert v.tokens[0] == "the" and v.counts[0] == 3
        # sat and cat both occur twice; ties order alphabetically
        assert v.tokens[1:3] == ["cat", "sat"]

    def test_min_count(self):
        v = embed._corpus_ids(segmented(SENTS), 2)[0]
        assert set(v.tokens) == {"the", "cat", "sat"}

    def test_normalization_merges(self):
        v = embed._corpus_ids(segmented([["Cat ", "cat"], [" cat"]]), 1)[0]
        # normalize_token trims but keeps case; "Cat" stays separate
        assert v.index["cat"] is not None
        assert v.counts[v.index["cat"]] == 2

    def test_segmented_file_input(self):
        v = embed._corpus_ids(io.StringIO("a\nb\n\na\n"), 1)[0]
        assert v.counts[v.index["a"]] == 2

    def test_duplicate_rejected(self):
        with pytest.raises(DomainError):
            EmbedVocab(["a", "a"], [1, 1])

    def test_same_as_training_vocabulary(self, tmp_path):
        p = tmp_path / "c.seg"
        p.write_text(" the\ncat\n7\n\nthe \n \n12\ncat\n\n\nthe\n8\n", encoding="utf-8")
        for min_count in (1, 2):
            v = embed._corpus_ids(str(p), min_count)[0]
            m = train_skipgram(str(p), tiny_config(min_token_count=min_count))
            assert v.tokens == m.vocab.tokens
            assert v.counts.tolist() == m.vocab.counts.tolist()
        assert embed._corpus_ids(str(p), 1)[0].tokens == ["the", "N", "cat", "<ws>", "NN"]

    def test_path_like_corpus(self, tmp_path):
        p = tmp_path / "c.seg"
        p.write_text("the\ncat\nsat\n\nthe\ndog\n", encoding="utf-8")
        assert embed._corpus_ids(p, 1)[0].tokens == embed._corpus_ids(str(p), 1)[0].tokens
        m = train_skipgram(p, tiny_config(epochs=1))
        assert m.input.tobytes() == train_skipgram(str(p), tiny_config(epochs=1)).input.tobytes()


# A segmented corpus with every case the reader must handle: escaped '_' and
# '\', a space ('_'), digit tokens, an all-space token ('__' -> <ws>), runs of
# blank lines (empty sentences), and no final newline. Repeated past one
# read chunk (64 KiB), so lines and sentences straddle chunk ends.
PREP_LINES = [
    "new_york", "a\\_b", "back\\\\slash", "x\\\\\\_y", "", "born_1949", "7", "__", "",
    "", "", "the", "new_york", "12", "_the_", "", "a\\_b", "the", "n\\\\",
]


def prep_text(repeats=1):
    return "\n".join(PREP_LINES * repeats)


def prep_sentences(text):
    """The corpus as token lists, unescaped by hand."""
    sents = [[]]
    for line in text.split("\n"):
        if line:
            tok = line.replace("\\\\", "\0").replace("\\_", "\1").replace("_", " ")
            sents[-1].append(tok.replace("\0", "\\").replace("\1", "_"))
        else:
            sents.append([])
    return sents


class TestCorpusPrep:
    """A path and a text handle read to the same corpus."""

    SOURCES = ["path", "handle"]

    @pytest.fixture
    def text(self):
        text = prep_text(3000)
        assert len(text) > 2 * 65536 and not text.endswith("\n")
        return text

    @staticmethod
    def source(kind, text, tmp_path):
        if kind == "path":
            p = tmp_path / "c.seg"
            p.write_text(text, encoding="utf-8")
            return str(p)
        return io.StringIO(text)

    def test_hand_unescaping_matches_the_reader(self, text):
        assert prep_sentences(text) == list(read_segmented(io.StringIO(text)))

    # every token occurs at least 3000 times; those that occur once per
    # repeat fall below 3001, and so does one whole sentence
    @pytest.mark.parametrize("min_count", [1, 3001])
    @pytest.mark.parametrize("kind", SOURCES)
    def test_ids_match_a_per_token_reference(self, text, tmp_path, kind, min_count):
        vocab, ids, sid = embed._corpus_ids(self.source(kind, text, tmp_path), min_count)
        sents = [[normalize_token(t) for t in s] for s in prep_sentences(text)]
        counts = {}
        for s in sents:
            for t in s:
                counts[t] = counts.get(t, 0) + 1
        kept = sorted((t for t in counts if counts[t] >= min_count), key=lambda t: (-counts[t], t))
        assert vocab.tokens == kept and vocab.counts.tolist() == [counts[t] for t in kept]
        once = {"born NNNN", "N", WS_TOKEN, "NN", "x\\_y", "back\\slash", "n\\"}
        assert set(kept) == {"new york", "a_b", "the"} | (once if min_count == 1 else set())
        # a kept token's sentence number is its sentence's in the file, so a
        # sentence left empty, in the file or by the min-count filter, keeps
        # its number
        want = [[vocab.index[t] for t in s if t in vocab] for s in sents]
        assert ids.tolist() == [t for w in want for t in w]
        assert sid.tolist() == [k for k, w in enumerate(want) for _ in w]
        emptied = [k for k, (s, w) in enumerate(zip(sents, want)) if s and not w]
        assert bool(emptied) == (min_count > 1)

    @pytest.mark.parametrize("kind", SOURCES[1:])
    def test_same_vocabulary_and_vectors(self, text, tmp_path, kind):
        cfg = tiny_config(epochs=1, subsample_threshold=0.05)
        want_log, got_log = [], []
        want = train_skipgram(self.source("path", text, tmp_path), cfg, pair_log=want_log)
        got = train_skipgram(self.source(kind, text, tmp_path), cfg, pair_log=got_log)
        assert got.vocab.tokens == want.vocab.tokens
        assert got.vocab.counts.tolist() == want.vocab.counts.tolist()
        assert embed._corpus_ids(self.source(kind, text, tmp_path), 1)[0].tokens == want.vocab.tokens
        assert got.input.tobytes() == want.input.tobytes()
        assert got.output.tobytes() == want.output.tobytes()
        assert got_log == want_log and want_log

    @pytest.mark.parametrize("bad", ["a\\xb", "dangling\\"])
    @pytest.mark.parametrize("kind", ["path", "handle"])
    def test_bad_escape_names_its_line(self, text, tmp_path, kind, bad):
        # the bad line sits past the first chunk, after many good lines
        lines = text.split("\n")
        k = len(lines) - 40
        lines.insert(k - 1, bad)
        broken = "\n".join(lines)
        for read in (
            lambda src: train_skipgram(src, tiny_config(epochs=1)),
            lambda src: embed._corpus_ids(src, 1),
            lambda src: list(read_segmented(src)),
        ):
            with pytest.raises(SegmentedFileError) as info:
                read(self.source(kind, broken, tmp_path))
            assert info.value.line == k


class TestLossAndGradients:
    def test_initial_loss_is_log2_per_term(self):
        # orthogonal zero-dot vectors: every sigmoid is 1/2
        u = np.zeros(5)
        v = np.zeros(5)
        negs = np.zeros((3, 5))
        assert pair_loss(u, v, negs) == pytest.approx(4 * math.log(2), abs=1e-12)

    def test_loss_decreases_along_gradient(self):
        rng = np.random.default_rng(0)
        u = rng.normal(size=6) * 0.5
        vp = rng.normal(size=6) * 0.5
        vn = rng.normal(size=(4, 6)) * 0.5
        gu, gvp, gvn = pair_gradients(u, vp, vn)
        step = 1e-2
        after = pair_loss(u - step * gu, vp - step * gvp, vn - step * gvn)
        assert after < pair_loss(u, vp, vn)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        u = rng.normal(size=10) * 0.3
        vp = rng.normal(size=10) * 0.3
        vn = rng.normal(size=(5, 10)) * 0.3
        gu, gvp, gvn = pair_gradients(u, vp, vn)
        h = 1e-5

        def num_grad(arr, grad):
            flat = arr.ravel()
            g = grad.ravel()
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                up = pair_loss(u, vp, vn)
                flat[i] = orig - h
                dn = pair_loss(u, vp, vn)
                flat[i] = orig
                num = (up - dn) / (2 * h)
                denom = max(abs(num), abs(g[i]), 1e-8)
                assert abs(num - g[i]) / denom < 1e-4

        num_grad(u, gu)
        num_grad(vp, gvp)
        num_grad(vn, gvn)

    def test_extreme_scores_stay_finite(self):
        u = np.full(4, 100.0)
        v = np.full(4, 100.0)
        assert math.isfinite(pair_loss(u, v, np.zeros((1, 4))))


class TestNegativeSampler:
    def test_distribution_matches_power_law(self):
        counts = np.array([1000, 500, 250, 100, 50, 25, 10, 5, 2, 1], dtype=np.int64)
        rng = np.random.default_rng(123)
        take = negative_draws(counts, rng)
        want = counts.astype(float) ** 0.75
        want /= want.sum()
        n = 1_000_000
        got = np.bincount(take(n), minlength=len(counts)) / n
        assert np.all(np.abs(got - want) < 0.01)

    def test_single_token(self):
        take = negative_draws(np.array([5]), np.random.default_rng(0))
        assert take(3).tolist() == [0, 0, 0]

    def test_matches_blockwise_searchsorted(self):
        # a Generator's uniforms do not depend on how they are requested:
        # 20000 calls of take(1) draw what blocks of 8192 at once draw
        counts = np.array([40, 7, 7, 300, 1, 12], dtype=np.int64)
        take = negative_draws(counts, np.random.default_rng(5))
        got = [int(take(1)[0]) for _ in range(20_000)]
        cum = np.cumsum(counts.astype(np.float64) ** 0.75)
        ref = np.random.default_rng(5)
        blocks = [
            np.searchsorted(cum, ref.random(8192) * cum[-1], side="right") for _ in range(3)
        ]
        assert got == np.concatenate(blocks)[:20_000].tolist()

    @pytest.mark.parametrize("n", [1, 5, 50, 9000])
    def test_take_equals_next_calls(self, n):
        # take(n) reads the stream that n calls of take(1) read, from one
        # draw a call to 9000
        counts = np.array([900, 30, 5, 60, 1], dtype=np.int64)
        fast = negative_draws(counts, np.random.default_rng(9))
        slow = negative_draws(counts, np.random.default_rng(9))
        for _ in range(30_000 // n + 1):
            assert fast(n).tolist() == [int(slow(1)[0]) for _ in range(n)]
        assert fast(1).tolist() == slow(1).tolist()

    def test_zero_counts_rejected(self):
        with pytest.raises(DomainError, match="positive counts"):
            negative_draws(np.zeros(4, dtype=np.int64), np.random.default_rng(0))


class TestTraining:
    def test_deterministic(self):
        a = train_skipgram(segmented(SENTS), tiny_config())
        b = train_skipgram(segmented(SENTS), tiny_config())
        assert np.array_equal(a.input, b.input)
        assert np.array_equal(a.output, b.output)

    def test_seed_changes_result(self):
        a = train_skipgram(segmented(SENTS), tiny_config(seed=3))
        b = train_skipgram(segmented(SENTS), tiny_config(seed=4))
        assert not np.array_equal(a.input, b.input)

    def test_loss_decreases_over_epochs(self, caplog):
        import logging

        sents = [["alpha", "beta", "gamma", "alpha", "beta"] for _ in range(30)]
        with caplog.at_level(logging.INFO, logger="rgrams.embed"):
            train_skipgram(segmented(sents), tiny_config(epochs=4, seed=9))
        losses = [
            float(r.message.rsplit(" ", 1)[-1])
            for r in caplog.records
            if "mean pair loss" in r.message
        ]
        assert len(losses) == 4
        assert losses[-1] < losses[0]

    def test_no_pairs_across_boundaries(self):
        log = []
        train_skipgram(
            segmented([["aa", "bb"], ["cc", "dd"]]),
            tiny_config(epochs=1, window=5),
            pair_log=log,
        )
        crossing = [(c, x) for c, x in log if {c, x} not in ({"aa", "bb"}, {"cc", "dd"})]
        assert log and crossing == []

    def test_window_limits_pairs(self):
        log = []
        sents = [["ta", "tb", "tc", "td"]]
        train_skipgram(segmented(sents), tiny_config(epochs=1, window=1), pair_log=log)
        assert ("ta", "tc") not in log and ("ta", "tb") in log

    def test_min_count_drops_tokens_from_context(self):
        log = []
        sents = [["common", "rare", "common"]] * 3
        cfg = tiny_config(epochs=1, min_token_count=4, window=2)
        train_skipgram(segmented(sents), cfg, pair_log=log)
        assert all(c == "common" and x == "common" for c, x in log)

    def test_window_past_the_longest_sentence_changes_nothing(self):
        # the longest sentence has 6 tokens, so window 10**5 trains as window
        # 5 does. It peaks at about 60 KB; a plan with a mask column and a
        # list entry for each of the 2 * 10**5 offsets would take 19 MB.
        sents = TestTrainingOracle.WORDS * 4
        want_log, got_log = [], []
        want = train_skipgram(segmented(sents), tiny_config(window=5), pair_log=want_log)
        tracemalloc.start()
        try:
            got = train_skipgram(segmented(sents), tiny_config(window=10**5), pair_log=got_log)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.input.tobytes() == want.input.tobytes()
        assert got.output.tobytes() == want.output.tobytes()
        assert got_log == want_log and want_log
        assert peak < 1 << 20

    def test_long_segment_memory_is_bounded(self):
        # One 100k-token segment at dim 64. Training holds a few arrays of
        # the corpus's length (token ids, sentence numbers, subsampling
        # draws: under 1 MB each), but a sub-batch holds at most 2 * _BLOCK
        # pairs and a plan _RUN blocks: the peak is about 4.7 MB (4.0 MB
        # with one block per plan, 6.2 MB with 32). One block over the
        # whole segment would gather 6 output rows for each of its ~110k
        # pairs at once: a 280 MB peak.
        rng = np.random.default_rng(0)
        words = [a + b for a in "abcdefghij" for b in "vwxyz"]
        segment = [words[k] for k in rng.integers(0, 50, 100_000)]
        tracemalloc.start()
        try:
            cfg = tiny_config(dim=64, epochs=1, negatives=5, subsample_threshold=1e-3)
            train_skipgram(segmented([segment]), cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20

    def test_corpus_memory_is_bounded(self, tmp_path):
        # about 200k tokens in 20k sentences, read from a segmented file. The
        # corpus is held as int arrays, never as one string per token: the
        # peak is 5.84 MB, against 6.84 MB when every sentence was a list of
        # token strings. Strong subsampling keeps the traced loop short; the
        # peak comes before it, in reading and subsampling the corpus.
        rng = np.random.default_rng(0)
        words = [a + b + c for a in "abcdefghij" for b in "klmnopqrst" for c in "uvwxyz"]
        p = 1.0 / np.arange(1, len(words) + 1)
        lens = rng.integers(2, 19, 20_000)
        toks = iter(rng.choice(len(words), int(lens.sum()), p=p / p.sum()).tolist())
        lines = []
        for n in lens.tolist():
            lines += [words[k] for k in islice(toks, n)]
            lines.append("")
        path = tmp_path / "c.seg"
        path.write_text("\n".join(lines), encoding="utf-8")
        del lines
        tracemalloc.start()
        try:
            cfg = tiny_config(epochs=1, window=1, negatives=1, subsample_threshold=1e-5)
            train_skipgram(str(path), cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6.8 * 2**20

    def test_epoch_line_reports_pairs_and_rate(self, caplog):
        log = []
        with caplog.at_level(logging.INFO, logger="rgrams.embed"):
            train_skipgram(segmented(SENTS * 4), tiny_config(epochs=1), pair_log=log)
        (line,) = [r.message for r in caplog.records if r.message.startswith("epoch ")]
        fields = line.split(" ")
        assert fields[:2] == ["epoch", "1/1"] and fields[4:6] == [str(len(log)), "pairs"]
        assert float(fields[6]) > 0 and fields[7] == "pairs/s"
        assert fields[8:11] == ["mean", "pair", "loss"] and len(fields) == 12

    def test_vector_lookup(self):
        m = train_skipgram(segmented(SENTS), tiny_config())
        v = m.vector("the")
        assert v is not None and v.shape == (8,)
        assert m.vector("absent") is None

    def test_rejects_empty_vocab(self):
        with pytest.raises(DomainError):
            train_skipgram(segmented([]), tiny_config())

    def test_config_validation(self):
        for bad in (
            dict(dim=0),
            dict(window=0),
            dict(negatives=0),
            dict(epochs=0),
            dict(initial_lr=0.0),
            dict(subsample_threshold=-1.0),
            dict(min_token_count=0),
            dict(subword_ngrams=(0, 3)),
            dict(subword_ngrams=(4, 3)),
            dict(seed=-1),
        ):
            with pytest.raises(DomainError):
                tiny_config(**bad)

    def test_config_checked_when_replaced(self):
        with pytest.raises(ParameterError, match="dim must be >= 1"):
            replace(tiny_config(), dim=0)

    @pytest.mark.parametrize("value", [2.5, True], ids=["float", "bool"])
    @pytest.mark.parametrize(
        "field",
        [
            "dim",
            "window",
            "negatives",
            "epochs",
            "min_token_count",
            "seed",
            "subword_ngrams_min",
            "subword_ngrams_max",
        ],
    )
    def test_config_rejects_non_integer(self, field, value):
        # subword settings are validated only with subword_ngrams set
        kw = {"subword_ngrams": (2, 3)}
        if field == "subword_ngrams_min":
            kw["subword_ngrams"] = (value, 3)
        elif field == "subword_ngrams_max":
            kw["subword_ngrams"] = (2, value)
        else:
            kw[field] = value
        with pytest.raises(DomainError, match="must be an integer"):
            train_skipgram(segmented(SENTS), tiny_config(**kw))

    @pytest.mark.parametrize("ngrams", [(2,), (2, 3, 4)])
    def test_subword_ngrams_must_be_a_pair(self, ngrams):
        with pytest.raises(ParameterError, match="subword_ngrams must be a"):
            tiny_config(subword_ngrams=ngrams)

    @pytest.mark.parametrize("value", ["0.1", None, True, float("inf")])
    @pytest.mark.parametrize("field", ["initial_lr", "subsample_threshold"])
    def test_rates_must_be_finite_numbers(self, field, value):
        with pytest.raises(ParameterError, match=f"{field} must be finite"):
            tiny_config(**{field: value})


def kept_sentences(sents, cfg):
    """(vocab, per epoch the kept sentences as token-id lists, and each one's
    count of tokens processed by its end), drawn as train_skipgram draws
    them: min-count filtering, then subsampling from the third SeedSequence
    child, one uniform per filtered token."""
    normed = [[normalize_token(t) for t in sent] for sent in sents if sent]
    vocab = embed._corpus_ids(segmented(normed), cfg.min_token_count)[0]
    train_words = int(vocab.counts.sum())
    sentences = [ids for ids in ([vocab.index[t] for t in s if t in vocab] for s in normed) if ids]
    sub_rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(cfg.seed).spawn(3)[2]))
    keep = None
    if cfg.subsample_threshold > 0:
        ratio = cfg.subsample_threshold / (vocab.counts / train_words)
        keep = np.minimum(1.0, np.sqrt(ratio) + ratio)
    epochs = []
    for epoch in range(cfg.epochs):
        processed = epoch * train_words
        kept = []
        for sent in sentences:
            processed += len(sent)
            if keep is not None:
                u = sub_rng.random(len(sent))
                sent = [t for t, r in zip(sent, u) if keep[t] > r]
            kept.append((sent, processed))
        epochs.append(kept)
    return vocab, epochs


def reference_train(sents, cfg):
    """Literal per-pair form of train_skipgram's batched SGNS: its
    vocabulary, random streams, blocks and learning-rate schedule. Each
    epoch first draws every (center, context) pair's negatives in corpus
    order: by center, then by window offset. Then, within each block and
    window offset, every pair takes one pair_gradients call on the rows as
    they stood when that offset's sub-batch began, without the negatives
    that equal its context; then each of its rows is updated one at a
    time."""
    vocab, epochs = kept_sentences(sents, cfg)
    V = len(vocab)
    train_words = int(vocab.counts.sum())
    init_ss, neg_ss, _ = np.random.SeedSequence(cfg.seed).spawn(3)
    rng = np.random.Generator(np.random.PCG64(init_ss))
    take = negative_draws(vocab.counts, np.random.Generator(np.random.PCG64(neg_ss)))
    rows = None
    ngram_row: dict[str, int] = {}  # each distinct n-gram's input row, from V up
    if cfg.subword_ngrams is not None:
        lo, hi = cfg.subword_ngrams
        rows = []
        for i, t in enumerate(vocab.tokens):
            rows.append([i])
            marked = "<" + t + ">"
            for n in range(lo, hi + 1):
                for p in range(len(marked) - n + 1):
                    gram = marked[p : p + n]
                    if gram not in ngram_row:
                        ngram_row[gram] = V + len(ngram_row)
                    rows[i].append(ngram_row[gram])
    inp = (rng.random((V + len(ngram_row), cfg.dim)) - 0.5) / cfg.dim
    out = np.zeros((V, cfg.dim))
    B = embed._BLOCK
    offsets = [d for d in range(-cfg.window, cfg.window + 1) if d]
    for kept in epochs:
        # (token, sentence number, tokens processed by its sentence's end)
        stream = [(t, s, done) for s, (sent, done) in enumerate(kept) for t in sent]
        pairs = {}  # (center, offset) -> (context, negatives), in corpus order
        for i in range(len(stream)):
            for d in offsets:
                j = i + d
                if 0 <= j < len(stream) and stream[j][1] == stream[i][1]:
                    pairs[i, d] = stream[j][0], take(cfg.negatives).tolist()
        blocks = []
        start = 0
        for i in range(len(stream)):
            size = i + 1 - start
            last = i + 1 == len(stream)
            sentence_end = last or stream[i + 1][1] != stream[i][1]
            if (sentence_end and size >= B) or size == 2 * B or last:
                blocks.append((start, i + 1))
                start = i + 1
        for b0, b1 in blocks:
            frac = 1.0 - stream[b1 - 1][2] / (cfg.epochs * train_words + 1)
            alpha = max(cfg.initial_lr * frac, cfg.initial_lr * 1e-4)
            for d in offsets:
                inp0, out0 = inp.copy(), out.copy()
                for i in range(b0, b1):
                    if (i, d) not in pairs:
                        continue
                    c, (ctx, drawn) = stream[i][0], pairs[i, d]
                    negs = [n for n in drawn if n != ctx]
                    crows = [c] if rows is None else rows[c]
                    h = inp0[crows].mean(axis=0)
                    gu, gvp, gvn = pair_gradients(h, out0[ctx], out0[negs])
                    out[ctx] -= alpha * gvp
                    for n, gn in zip(negs, gvn):
                        out[n] -= alpha * gn
                    for r in crows:
                        inp[r] -= (alpha / len(crows)) * gu
    return vocab, inp, out


class TestTrainingOracle:
    WORDS = [["the", "cat", "sat", "on", "the", "mat"], ["a", "cat", "ran"], ["the", "dog", "sat"]]

    CASES = pytest.mark.parametrize(
        "sents, kw",
        [
            (WORDS * 4, dict(negatives=3, epochs=2)),
            # three tokens and eight negatives: every pair draws some negative
            # twice, so the output rows go through the accumulating update
            ([["x", "y", "z", "x", "y"]] * 3, dict(negatives=8, epochs=2)),
            # one token: every negative equals the context and is skipped;
            # subsampling keeps each "a" with probability 0.27, and two
            # segments of eight keep some pair on all but about 1% of streams
            ([["a"] * 8] * 2, dict(negatives=2, epochs=2)),
            # 50 negatives a pair: each plan takes thousands of draws at once
            ([WORDS[0] + WORDS[2]] * 6, dict(negatives=50, epochs=2)),
            # "<abab>" has the 2-gram "ab" twice: with subwords its center
            # lists one input row twice, which must accumulate both shares
            ([["abab", "baba", "ab", "abab"]] * 3, dict(negatives=3, epochs=2)),
            # min count 2 empties the middle sentence: the sentences after it
            # keep their file numbers, and their rates must not change
            (
                WORDS * 2 + [["lone", "pair"]] + WORDS * 2,
                dict(negatives=3, epochs=2, min_token_count=2),
            ),
        ],
        ids=[
            "words",
            "repeated-negatives",
            "one-token",
            "refill",
            "repeated-ngrams",
            "emptied-sentence",
        ],
    )

    @staticmethod
    def check(sents, cfg):
        vocab, inp, out = reference_train(sents, cfg)
        m = train_skipgram(segmented(sents), cfg)
        assert m.vocab.tokens == vocab.tokens
        assert np.abs(m.input - inp).max() <= 1e-12
        assert np.abs(m.output - out).max() <= 1e-12
        assert np.abs(m.output).max() > 0

    @pytest.mark.parametrize("subword", [None, (2, 4)], ids=["plain", "subword"])
    @pytest.mark.parametrize("subsample", [0.0, 0.05], ids=["all", "subsampled"])
    @CASES
    def test_matches_per_pair_reference(self, sents, kw, subsample, subword):
        self.check(sents, tiny_config(subsample_threshold=subsample, subword_ngrams=subword, **kw))

    @pytest.mark.parametrize("subword", [None, (2, 4)], ids=["plain", "subword"])
    @pytest.mark.parametrize("subsample", [0.0, 0.05], ids=["all", "subsampled"])
    @CASES
    def test_short_blocks_match_reference(self, sents, kw, subsample, subword, monkeypatch):
        # blocks of 3 split every corpus above into many blocks, and cut each
        # nine-token "refill" segment after six tokens when a block starts at it
        monkeypatch.setattr(embed, "_BLOCK", 3)
        self.check(sents, tiny_config(subsample_threshold=subsample, subword_ngrams=subword, **kw))

    def test_pairs_are_the_window_enumeration(self):
        # 160-token segments keep 113 to 131 tokens each after subsampling, so
        # each spans several blocks and is cut where a block would pass 64
        rng = np.random.default_rng(4)
        words = [a + b for a in "abcdef" for b in "vwxyz"]
        p = 1.0 / np.arange(1, 31)
        sents = [[words[k] for k in rng.choice(30, 160, p=p / p.sum())] for _ in range(20)]
        cfg = tiny_config(subsample_threshold=0.02, window=3, epochs=2)
        vocab, epochs = kept_sentences(sents, cfg)
        want = []
        for kept in epochs:
            for ids, _ in kept:
                s = [vocab.tokens[t] for t in ids]
                for i, c in enumerate(s):
                    for j in range(max(0, i - cfg.window), min(len(s), i + cfg.window + 1)):
                        if j != i:
                            want.append((c, s[j]))
        lens = [len(ids) for kept in epochs for ids, _ in kept]
        assert min(lens) > 2 * embed._BLOCK and max(lens) < 160
        got = []
        train_skipgram(segmented(sents), cfg, pair_log=got)
        assert sorted(got) == sorted(want)

    def test_subsampling_ignores_the_input_table(self):
        # subsampling has its own stream: the n-gram rows drawn for the input
        # table do not change which tokens are kept
        plain, sub = [], []
        cfg = tiny_config(subsample_threshold=0.05)
        train_skipgram(segmented(self.WORDS * 4), cfg, pair_log=plain)
        cfg = tiny_config(subsample_threshold=0.05, subword_ngrams=(2, 4))
        train_skipgram(segmented(self.WORDS * 4), cfg, pair_log=sub)
        assert plain and plain == sub


class TestPlannedRuns:
    """The run size (_RUN blocks planned at once) changes no result, and no
    schedule changes which negatives a pair draws."""

    @pytest.fixture(scope="class")
    def sents(self):
        # 400 Zipf sentences of 2-12 tokens, 2,781 tokens in all
        rng = np.random.default_rng(11)
        words = [a + b for a in "abcdefg" for b in "uvwxyz"]
        p = 1.0 / np.arange(1, len(words) + 1)
        return [
            [words[k] for k in rng.choice(len(words), n, p=p / p.sum())]
            for n in rng.integers(2, 13, 400)
        ]

    @staticmethod
    def trained(sents, cfg, caplog):
        """(input bytes, output bytes, pair_log, each epoch's logged mean
        pair loss)."""
        log = []
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="rgrams.embed"):
            m = train_skipgram(segmented(sents), cfg, pair_log=log)
        losses = [
            float(r.message.rsplit(" ", 1)[-1])
            for r in caplog.records
            if "mean pair loss" in r.message
        ]
        return m.input.tobytes(), m.output.tobytes(), log, losses

    @pytest.mark.parametrize("run", [1, 10**9], ids=["one-block", "whole-epoch"])
    @pytest.mark.parametrize("subword", [None, (2, 4)], ids=["plain", "subword"])
    @pytest.mark.parametrize("subsample", [0.0, 0.01], ids=["all", "subsampled"])
    def test_run_size_changes_nothing(self, sents, subsample, subword, run, monkeypatch, caplog):
        cfg = tiny_config(subsample_threshold=subsample, subword_ngrams=subword, window=3)
        _, flat, sid = embed._corpus_ids(segmented(sents), cfg.min_token_count)
        # 141 blocks, about 100 after subsampling: the default plans more
        # than one run per epoch
        assert len(embed._block_bounds(sid)) - 1 > 2 * embed._RUN
        want = self.trained(sents, cfg, caplog)
        monkeypatch.setattr(embed, "_RUN", run)
        got = self.trained(sents, cfg, caplog)
        assert got[0] == want[0] and got[1] == want[1]
        assert got[2] == want[2] and want[2]
        # the loss is summed once per run, so only its rounding may differ
        assert len(got[3]) == len(want[3]) == cfg.epochs
        assert got[3] == pytest.approx(want[3], rel=1e-9, abs=0)

    @staticmethod
    def planned(toks, sid, cfg):
        """Every pair one epoch's plans hold, as (center position, offset,
        context, negatives, skips), checked against the window walk of each
        block in training order: by offset, then by center."""
        offsets = [d for d in range(-cfg.window, cfg.window + 1) if d]
        take = negative_draws(np.bincount(toks), np.random.default_rng(cfg.seed))
        bounds = embed._block_bounds(sid)
        got = []
        for r in range(0, len(bounds) - 1, embed._RUN):
            run = bounds[r : r + embed._RUN + 1]
            plan = embed._plan(toks, sid, run, offsets, take, cfg.negatives)
            c, idx, skip, _ = plan
            walk = [
                (i, d)
                for b0, b1 in zip(run, run[1:])
                for d in offsets
                for i in range(b0, b1)
                if 0 <= i + d < len(toks) and sid[i + d] == sid[i]
            ]
            assert len(walk) == len(c)
            for (i, d), center, row, sk in zip(walk, c.tolist(), idx.tolist(), skip.tolist()):
                assert center == toks[i] and row[0] == toks[i + d] and not sk[0]
                assert sk[1:] == [n == row[0] for n in row[1:]]
                got.append((i, d, row[0], tuple(row[1:]), tuple(sk)))
        return got

    @pytest.mark.parametrize("run", [1, None], ids=["one-block", "default-run"])
    @pytest.mark.parametrize("block", [3, None], ids=["block-3", "default-block"])
    def test_negatives_do_not_depend_on_the_schedule(self, sents, block, run, monkeypatch):
        # negatives are drawn in corpus order (by center, then offset), so
        # each pair's draws are the same under any blocks and runs
        cfg = tiny_config(window=3, negatives=4)
        _, toks, sid = embed._corpus_ids(segmented(sents), cfg.min_token_count)
        want = sorted(self.planned(toks, sid, cfg))
        if block is not None:
            monkeypatch.setattr(embed, "_BLOCK", block)
        if run is not None:
            monkeypatch.setattr(embed, "_RUN", run)
        got = self.planned(toks, sid, cfg)
        assert len(got) == len(want) and sorted(got) == want


class TestNonFinite:
    @pytest.mark.parametrize(
        "bad",
        [
            dict(initial_lr=math.nan),
            dict(initial_lr=math.inf),
            dict(subsample_threshold=math.nan),
            dict(subsample_threshold=math.inf),
        ],
    )
    def test_config_rejects(self, bad):
        with pytest.raises(DomainError):
            tiny_config(**bad)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverging_epoch_raises(self):
        with pytest.raises(DomainError, match="loss is not finite"):
            train_skipgram(segmented(SENTS), tiny_config(initial_lr=1e308))

    def test_run_without_pairs_raises(self, caplog):
        # an epoch with no pairs sums to a finite 0.0; the run then fails
        # because nothing was trained, not because the loss diverged
        caplog.set_level(logging.INFO, logger="rgrams.embed")
        with pytest.raises(DomainError, match="no \\(center, context\\) pairs"):
            train_skipgram(segmented([["the"], ["cat"]]), tiny_config(initial_lr=1e308))
        assert "0 pairs" in caplog.text and "nan" not in caplog.text

    def test_export_refuses_and_writes_nothing(self, tmp_path):
        path = tmp_path / "v.vec"
        vs = VectorSet(["a", "b"], np.array([[1.0, 2.0], [math.nan, 0.0]]))
        with pytest.raises(DomainError):
            export_vectors(vs, str(path))
        assert not path.exists()


def row_lists(rows):
    """A (flat, start) row table as one list of input rows per token."""
    flat, start = rows
    return [flat[a:b].tolist() for a, b in zip(start[:-1], start[1:])]


def ngram_rows(tokens, ngrams):
    """subword_rows over a vocabulary of tokens, in that order, as lists,
    and the input table's row count."""
    rows = subword_rows(EmbedVocab(tokens, [1] * len(tokens)), ngrams)
    return row_lists(rows), int(rows[0].max()) + 1


class TestSubword:
    def test_shared_ngram_shares_row(self):
        # "<cat>" and "<cab>" share "<ca" and "<cab>" adds "cab" and "ab>":
        # V = 2, so cat's n-grams take rows 2..4 and cab's new ones 5 and 6
        rows, size = ngram_rows(["cat", "cab"], (3, 3))
        assert rows == [[0, 2, 3, 4], [1, 2, 5, 6]]
        assert size == 7

    def test_ngram_count(self):
        # "<ab>" has length 4: two 3-grams and one 4-gram
        rows, size = ngram_rows(["ab"], (3, 4))
        assert rows == [[0, 1, 2, 3]] and size == 4

    def test_bag_semantics_keeps_repeats(self):
        # "<aaaa>" 3-grams: <aa aaa aaa aa>; "aaa" occurs twice, so its row does
        rows, size = ngram_rows(["aaaa"], (3, 3))
        assert rows == [[0, 1, 2, 2, 3]] and size == 4

    def test_short_token_has_no_ngrams_below_min(self):
        # "<a>" has length 3, shorter than every n-gram asked for
        assert ngram_rows(["a"], (4, 5)) == ([[0]], 1)

    def test_training_with_subwords(self):
        cfg = tiny_config(subword_ngrams=(3, 4), epochs=1)
        m = train_skipgram(segmented(SENTS), cfg)
        v = m.vector("cat")
        assert v is not None
        # composed vector is the mean of word row + ngram rows
        rows = row_lists(m.rows)[m.vocab.index["cat"]]
        manual = (m.input[rows]).mean(axis=0)
        assert np.allclose(v, manual)

    def test_rows_table(self):
        assert train_skipgram(segmented(SENTS), tiny_config(epochs=1)).rows is None
        cfg = tiny_config(epochs=1, subword_ngrams=(3, 4))
        m = train_skipgram(segmented(SENTS), cfg)
        V = len(m.vocab)
        marked = ["<" + t + ">" for t in m.vocab.tokens]
        grams = {w[p : p + n] for w in marked for n in (3, 4) for p in range(len(w) - n + 1)}
        assert m.input.shape == (V + len(grams), 8)
        want, _ = ngram_rows(m.vocab.tokens, (3, 4))
        assert row_lists(m.rows) == want

    def test_input_memory_fits_the_corpus(self):
        # a table of 2^21 hashed rows at dim 100 would take about 1.68 GB;
        # these 5 tokens have 29 distinct 3- to 6-grams, so 34 input rows
        tracemalloc.start()
        try:
            cfg = tiny_config(dim=100, epochs=1, subword_ngrams=(3, 6))
            train_skipgram(segmented(SENTS), cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20

    @pytest.mark.parametrize("subword", [None, (3, 4)])
    def test_to_vectors_equals_vector(self, subword):
        cfg = tiny_config(epochs=1, subword_ngrams=subword)
        m = train_skipgram(segmented(SENTS), cfg)
        vs = m.to_vectors()
        assert vs.tokens == m.vocab.tokens
        assert not np.shares_memory(vs.matrix, m.input)
        for t in m.vocab.tokens:
            assert vs.vector(t).tobytes() == m.vector(t).tobytes()

    def test_subword_changes_vectors(self):
        plain = train_skipgram(segmented(SENTS), tiny_config(epochs=1))
        sub = train_skipgram(segmented(SENTS), tiny_config(epochs=1, subword_ngrams=(3, 4)))
        assert not np.allclose(plain.vector("cat"), sub.vector("cat"))


# finite texts first, then overflowing, non-finite and malformed ones
_COMPONENT = st.sampled_from(
    ["0", "-1", "2.5", "1e-300", "1e153"] * 4
    + ["1e200", "-1e200", "1e400", "nan", "-inf", "x", "--1", ""]
)


@st.composite
def vec_texts(draw):
    """Small .vec texts, valid or broken anywhere: header, field counts,
    escapes, duplicates, floats, overflowing norms, missing rows, trailing
    lines; always valid UTF-8."""
    count = draw(st.integers(0, 5))
    dim = draw(st.integers(1, 3))
    header = draw(
        st.sampled_from([f"{count} {dim}"] * 8 + ["", "x 2", "2", "-1 2", "1 0", "1 2 3"])
    )
    lines = [header]
    for _ in range(count + draw(st.integers(-2, 1))):
        tok = draw(st.sampled_from(["a", "b", "c", "a_b", "x\\_", "\\q", "é"]))
        width = dim + draw(st.sampled_from([0] * 8 + [-1, 1]))
        comps = draw(st.lists(_COMPONENT, min_size=width, max_size=width))
        lines.append(" ".join([tok, *comps]))
    lines += draw(st.lists(st.sampled_from(["", " ", "\t", "z 1"]), max_size=2))
    return "\n".join(lines) + draw(st.sampled_from(["\n", ""]))


def reference_import(text):
    """What a reader that takes the lines of text one at a time, in file
    order, and stops at the first failure gives: (tokens, rows), or the
    error message."""
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    header = lines[0].split() if lines else []
    if len(header) != 2:
        return "line 1: header must be '<count> <dim>'"
    try:
        count, dim = int(header[0]), int(header[1])
    except ValueError:
        return "line 1: non-integer header"
    if count < 0 or dim < 1:
        return "line 1: invalid header values"
    tokens, rows = [], []
    for lineno in range(2, count + 2):
        if lineno > len(lines):
            return f"line {lineno}: truncated file"
        fields = lines[lineno - 1].split(" ")
        if len(fields) != dim + 1:
            return f"line {lineno}: expected {dim + 1} fields, got {len(fields)}"
        try:
            tok = unescape_token(fields[0])
        except ValueError as exc:
            return f"line {lineno}: {exc}"
        if tok in tokens:
            return f"line {lineno}: duplicate token {tok!r}"
        try:
            row = [float(x) for x in fields[1:]]
        except ValueError:
            return f"line {lineno}: malformed float"
        if not all(map(math.isfinite, row)):
            return f"line {lineno}: non-finite component"
        if embed._overflowing_rows(np.array([row]))[0]:
            return f"line {lineno}: squared norm overflows"
        tokens.append(tok)
        rows.append(row)
    for lineno in range(count + 2, len(lines) + 1):
        if lines[lineno - 1].strip():
            return f"line {lineno}: trailing content after declared rows"
    return tokens, rows


class TestVectorFiles:
    def test_newline_token_refused_and_nothing_written(self, tmp_path):
        path = tmp_path / "v.vec"
        vs = VectorSet(["a\nb", "c"], np.ones((2, 2)))
        m = EmbeddingMatrix(np.ones((2, 2)), np.ones((2, 2)), EmbedVocab(["x\ny", "z"], [2, 1]))
        for source in (vs, m):
            with pytest.raises(DomainError, match="newline"):
                export_vectors(source, str(path))
            assert not path.exists()

    @pytest.mark.parametrize(
        "matrix", [np.zeros((2, 0)), np.ones((2, 2, 2))], ids=["no-columns", "3-d"]
    )
    def test_vector_set_needs_a_2d_matrix_with_columns(self, tmp_path, matrix):
        path = tmp_path / "v.vec"
        with pytest.raises(DomainError, match="2-D"):
            export_vectors(VectorSet(["a", "b"], matrix), str(path))
        assert not path.exists()

    def test_round_trip_within_tolerance(self, tmp_path):
        m = train_skipgram(segmented(SENTS), tiny_config())
        p = tmp_path / "v.vec"
        export_vectors(m, str(p))
        vs = import_vectors(str(p))
        assert set(vs.tokens) == set(m.vocab.tokens)
        for t in m.vocab.tokens:
            assert np.max(np.abs(vs.vector(t) - m.vector(t))) < 1e-8

    def test_tokens_with_spaces_escaped(self, tmp_path):
        sents = [["new york", "city"], ["new york", "harbor"]]
        m = train_skipgram(segmented(sents), tiny_config())
        p = tmp_path / "v.vec"
        export_vectors(m, str(p))
        body = p.read_text(encoding="utf-8")
        assert "new_york " in body
        vs = import_vectors(str(p))
        assert vs.vector("new york") is not None

    def test_components_formatted_as_9_significant_digits(self, tmp_path):
        values = [-0.0, 5e-324, 2.2250738585072014e-308 / 3, 1e150, 0.1 + 0.2, -1 / 3]
        p = tmp_path / "v.vec"
        export_vectors(VectorSet(["a"], np.array([values])), str(p))
        row = p.read_text(encoding="utf-8").splitlines()[1]
        assert row == "a " + " ".join("%.9g" % x for x in values)
        assert row.split(" ")[1:5] == ["-0", "4.94065646e-324", "7.41691286e-309", "1e+150"]

    def test_header(self, tmp_path):
        m = train_skipgram(segmented(SENTS), tiny_config())
        p = tmp_path / "v.vec"
        export_vectors(m, str(p))
        first = p.read_text(encoding="utf-8").splitlines()[0]
        assert first == f"{len(m.vocab.tokens)} 8"

    def _attempt(self, tmp_path, body):
        p = tmp_path / "bad.vec"
        p.write_text(body, encoding="utf-8")
        with pytest.raises(VectorFileError) as info:
            import_vectors(str(p))
        return info.value

    def test_bad_header(self, tmp_path):
        self._attempt(tmp_path, "not a header\na 1 2\n")

    def test_wrong_dim(self, tmp_path):
        e = self._attempt(tmp_path, "1 3\na 0.5 0.5\n")
        assert e.line == 2

    def test_duplicate_token(self, tmp_path):
        e = self._attempt(tmp_path, "2 2\na 1 2\na 3 4\n")
        assert e.line == 3

    def test_truncated(self, tmp_path):
        self._attempt(tmp_path, "3 2\na 1 2\nb 3 4\n")

    def test_extra_rows(self, tmp_path):
        self._attempt(tmp_path, "1 2\na 1 2\nb 3 4\n")

    def test_extra_rows_after_blank_line(self, tmp_path):
        e = self._attempt(tmp_path, "1 2\na 1 2\n\nb 3 4\n")
        assert e.line == 4

    def test_blank_lines_after_rows(self, tmp_path):
        p = tmp_path / "ok.vec"
        p.write_text("1 2\na 1 2\n\n \n", encoding="utf-8")
        assert import_vectors(str(p)).tokens == ["a"]

    def test_bad_float(self, tmp_path):
        e = self._attempt(tmp_path, "1 2\na one 2\n")
        assert e.line == 2

    @pytest.mark.parametrize("row", ["nan 1", "1 inf", "-inf nan"])
    def test_non_finite_component(self, tmp_path, row):
        e = self._attempt(tmp_path, f"2 2\na 1 2\nb {row}\n")
        assert e.line == 3

    def test_squared_norm_overflow(self, tmp_path):
        # each component is finite, but the norm would overflow and unit_rows
        # would give every cosine as 0
        body = "4 2\na 1e150 1e150\nb 1 2\nc 1e200 -1e200\nd 1e200 1e200\n"
        e = self._attempt(tmp_path, body)
        assert e.line == 4 and "overflows" in str(e)

    @pytest.mark.parametrize("tail", ["\nz 1 1\n", "z\xff\n"], ids=["content", "bad-bytes"])
    def test_overflow_named_before_what_follows_the_rows(self, tmp_path, tail):
        p = tmp_path / "bad.vec"
        p.write_bytes(b"2 2\na 1e200 1e200\nb 1 1\n" + tail.encode("latin-1"))
        with pytest.raises(VectorFileError, match="overflows") as info:
            import_vectors(str(p))
        assert info.value.line == 2

    def test_float32_row_squared_in_float64(self, tmp_path):
        # (1e20)**2 overflows float32 but not the float64 import_vectors reads
        p = tmp_path / "v.vec"
        vs = VectorSet(["x"], np.array([[1e20, 1e20]], dtype=np.float32))
        export_vectors(vs, str(p))
        assert import_vectors(str(p)).matrix.tolist() == [[1.00000002e20, 1.00000002e20]]
        with pytest.raises(DomainError, match="overflows"):
            export_vectors(VectorSet(["x"], np.array([[1e200, 1.0]])), str(tmp_path / "w.vec"))
        assert not (tmp_path / "w.vec").exists()

    def test_float32_unit_rows_normed_in_float64(self):
        # the float32 norm of [1e20, 1e20] overflows: its unit row came out
        # all zeros while ok said True, with an overflow warning
        vs = VectorSet(["x", "y"], np.array([[1e20, 1e20], [1, 0]], dtype=np.float32))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            unit, ok = vs.unit_rows
        assert ok.tolist() == [True, True]
        assert np.allclose(unit, [[2**-0.5, 2**-0.5], [1, 0]])

    def test_large_finite_norm_is_accepted(self, tmp_path):
        p = tmp_path / "ok.vec"
        p.write_text("2 2\na 1e153 1e153\nb 1 0\n", encoding="utf-8")
        unit, ok = import_vectors(str(p)).unit_rows
        assert ok.all() and np.allclose(unit[0], [2**-0.5, 2**-0.5])

    def test_header_count_beyond_file(self, tmp_path):
        # would need terabytes if the header sized an allocation up front
        e = self._attempt(tmp_path, "999999999999 100\na " + "0 " * 99 + "0\n")
        assert e.line == 3

    def test_golden_bytes(self, tmp_path):
        vs = VectorSet(
            ["a b", "x_y", "back\\slash"],
            np.array([[-0.0, 1e-05, 5e-324], [123456789.5, 1.0, -2.5], [0.1, 1e150, -1 / 3]]),
        )
        p = tmp_path / "v.vec"
        export_vectors(vs, str(p))
        assert p.read_bytes() == (
            b"3 3\n"
            b"a_b -0 1e-05 4.94065646e-324\n"
            b"x\\_y 123456790 1 -2.5\n"
            b"back\\\\slash 0.1 1e+150 -0.333333333\n"
        )
        back = import_vectors(str(p))
        assert back.tokens == vs.tokens

    @pytest.mark.parametrize(
        "row, reason",
        [
            ("c 1 x2", "malformed float"),
            ("c 1 nan", "non-finite component"),
            ("c 1 2 3", "expected 3 fields, got 4"),
            ("c\\q 1 2", "bad escape"),
            ("a 1 2", "duplicate token"),
        ],
        ids=["malformed", "non-finite", "field-count", "bad-escape", "duplicate"],
    )
    def test_error_on_row_3_names_line_4(self, tmp_path, row, reason):
        # rows before and after the bad one are good; later rows never mask it
        e = self._attempt(tmp_path, f"5 2\na 1 2\nb 3 4\n{row}\nd 5 6\ne 7 8\n")
        assert e.line == 4 and reason in str(e)

    def test_first_bad_line_wins_across_conversions(self, tmp_path):
        # a non-finite row still wins over a malformed one after it
        body = "6 2\na 1 2\nb 3 4\nc inf 1\nd 5 6\ne x 1\nf 1 1\n"
        e = self._attempt(tmp_path, body)
        assert e.line == 4 and "non-finite" in str(e)
        body = "6 2\na 1 2\nb 3 4\nc 1 1\nd 5 6\ne x 1\nf 1 1\n"
        e = self._attempt(tmp_path, body)
        assert e.line == 6 and "malformed" in str(e)
        # an error in a row's structure, or a missing row, on line 5 comes
        # after a bad row on line 3 or line 4
        structural = ["c 1 2 3\n", "c\\q 1 2\n", "a 5 6\n", ""]
        for rows, line, reason in [
            ("a 1 2\nb inf 4\nz 1 1\n", 3, "non-finite"),
            ("a 1 2\nb 3 4\nz x 1\n", 4, "malformed"),
        ]:
            for bad in structural:
                e = self._attempt(tmp_path, f"5 2\n{rows}{bad}y 1 1\n" if bad else f"5 2\n{rows}")
                assert e.line == line and reason in str(e), (rows, bad)
        # a non-finite last row
        body = "5 2\na 1 2\nb 3 4\nc 5 6\nd 7 8\ne 1 -inf\n"
        e = self._attempt(tmp_path, body)
        assert e.line == 6 and "non-finite" in str(e)

    @pytest.mark.parametrize(
        "later",
        ["a 1 1\n", "c x 1\n", "c nan 1\n", "c 1 1 1\n", ""],
        ids=["duplicate", "malformed", "non-finite", "field-count", "missing"],
    )
    def test_overflow_named_before_a_later_bad_row(self, tmp_path, later):
        e = self._attempt(tmp_path, f"3 2\na 1e200 1e200\nb 1 1\n{later}")
        assert e.line == 2 and "squared norm overflows" in str(e)

    def test_non_finite_named_before_bad_bytes(self, tmp_path):
        p = tmp_path / "bad.vec"
        p.write_bytes(b"3 2\na 1 1\nb 1 -inf\nc\xff 1 1\n")
        with pytest.raises(VectorFileError, match="non-finite component") as info:
            import_vectors(str(p))
        assert info.value.line == 3

    @settings(max_examples=300)
    @given(vec_texts())
    def test_matches_a_row_by_row_reference(self, text):
        want = reference_import(text)
        try:
            vs = import_vectors(io.StringIO(text))
        except VectorFileError as e:
            assert isinstance(want, str), (text, str(e))
            assert str(e) == want, text
        else:
            assert not isinstance(want, str), (text, want)
            tokens, rows = want
            assert vs.tokens == tokens and vs.matrix.tolist() == rows
