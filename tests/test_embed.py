import io
import logging
import math

import numpy as np
import pytest

from rgrams.embed import (
    WS_TOKEN,
    EmbedVocab,
    TrainConfig,
    VectorSet,
    build_vocab,
    export_vectors,
    import_vectors,
    negative_draws,
    normalize_token,
    pair_gradients,
    pair_loss,
    subword_hashes,
    train_skipgram,
)
from rgrams.errors import DomainError, ParameterError, VectorFileError

SENTS = [
    ["the", "cat", "sat"],
    ["the", "dog", "sat"],
    ["the", "cat", "ran"],
]


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
        v = build_vocab(SENTS)
        assert v.tokens[0] == "the" and v.counts[0] == 3
        # sat and cat both occur twice; ties order alphabetically
        assert v.tokens[1:3] == ["cat", "sat"]

    def test_min_count(self):
        v = build_vocab(SENTS, min_token_count=2)
        assert set(v.tokens) == {"the", "cat", "sat"}

    def test_normalization_merges(self):
        v = build_vocab([["Cat ", "cat"], [" cat"]])
        # normalize_token trims but keeps case; "Cat" stays separate
        assert v.index["cat"] is not None
        assert v.counts[v.index["cat"]] == 2

    def test_segmented_file_input(self):
        v = build_vocab(io.StringIO("a\nb\n\na\n"))
        assert v.counts[v.index["a"]] == 2

    def test_duplicate_rejected(self):
        with pytest.raises(DomainError):
            EmbedVocab(["a", "a"], [1, 1])

    def test_same_as_training_vocabulary(self, tmp_path):
        p = tmp_path / "c.seg"
        p.write_text(" the\ncat\n7\n\nthe \n \n12\ncat\n\n\nthe\n8\n", encoding="utf-8")
        for min_count in (1, 2):
            v = build_vocab(str(p), min_count)
            m = train_skipgram(str(p), tiny_config(min_token_count=min_count))
            assert v.tokens == m.vocab.tokens
            assert v.counts.tolist() == m.vocab.counts.tolist()
        assert build_vocab(str(p)).tokens == ["the", "N", "cat", "<ws>", "NN"]


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
        s = negative_draws(counts, rng)
        want = counts.astype(float) ** 0.75
        want /= want.sum()
        n = 1_000_000
        got = np.bincount([next(s) for _ in range(n)], minlength=len(counts)) / n
        assert np.all(np.abs(got - want) < 0.01)

    def test_single_token(self):
        s = negative_draws(np.array([5]), np.random.default_rng(0))
        assert next(s) == 0

    def test_matches_blockwise_searchsorted(self):
        # 8192 uniforms per refill; 20000 draws cross two refills
        counts = np.array([40, 7, 7, 300, 1, 12], dtype=np.int64)
        s = negative_draws(counts, np.random.default_rng(5))
        got = [next(s) for _ in range(20_000)]
        cum = np.cumsum(counts.astype(np.float64) ** 0.75)
        ref = np.random.default_rng(5)
        blocks = [
            np.searchsorted(cum, ref.random(8192) * cum[-1], side="right") for _ in range(3)
        ]
        assert got == np.concatenate(blocks)[:20_000].tolist()

    @pytest.mark.parametrize("n", [1, 5, 50])
    def test_take_matches_per_draw_rejection(self, n):
        # take() must return what n next() calls under the rejection rule
        # give, from the same stream position, across several refills
        counts = np.array([900, 30, 5, 60, 1], dtype=np.int64)
        fast = negative_draws(counts, np.random.default_rng(9))
        slow = negative_draws(counts, np.random.default_rng(9))
        for k in range(1500):
            avoid = k % 5
            want = []
            for _ in range(n):
                cand = next(slow)
                tries = 0
                while cand == avoid and tries < 100:
                    cand = next(slow)
                    tries += 1
                if cand != avoid:
                    want.append(cand)
            assert fast.take(n, avoid) == want
        assert next(fast) == next(slow)

    def test_zero_counts_rejected(self):
        with pytest.raises(DomainError, match="positive counts"):
            negative_draws(np.zeros(4, dtype=np.int64), np.random.default_rng(0))


class TestTraining:
    def test_deterministic(self):
        a = train_skipgram(SENTS, tiny_config())
        b = train_skipgram(SENTS, tiny_config())
        assert np.array_equal(a.input, b.input)
        assert np.array_equal(a.output, b.output)

    def test_seed_changes_result(self):
        a = train_skipgram(SENTS, tiny_config(seed=3))
        b = train_skipgram(SENTS, tiny_config(seed=4))
        assert not np.array_equal(a.input, b.input)

    def test_loss_decreases_over_epochs(self, caplog):
        import logging

        sents = [["alpha", "beta", "gamma", "alpha", "beta"] for _ in range(30)]
        with caplog.at_level(logging.INFO, logger="rgrams.embed"):
            train_skipgram(sents, tiny_config(epochs=4, seed=9))
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
            [["aa", "bb"], ["cc", "dd"]],
            tiny_config(epochs=1, window=5),
            pair_log=log,
        )
        crossing = [(c, x) for c, x in log if {c, x} not in ({"aa", "bb"}, {"cc", "dd"})]
        assert log and crossing == []

    def test_window_limits_pairs(self):
        log = []
        train_skipgram(
            [["ta", "tb", "tc", "td"]], tiny_config(epochs=1, window=1), pair_log=log
        )
        assert ("ta", "tc") not in log and ("ta", "tb") in log

    def test_min_count_drops_tokens_from_context(self):
        log = []
        sents = [["common", "rare", "common"]] * 3
        cfg = tiny_config(epochs=1, min_token_count=4, window=2)
        train_skipgram(sents, cfg, pair_log=log)
        assert all(c == "common" and x == "common" for c, x in log)

    def test_vector_lookup(self):
        m = train_skipgram(SENTS, tiny_config())
        v = m.vector("the")
        assert v is not None and v.shape == (8,)
        assert m.vector("absent") is None

    def test_rejects_empty_vocab(self):
        with pytest.raises(DomainError):
            train_skipgram([], tiny_config())

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
                tiny_config(**bad).validate()

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
            "subword_buckets",
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
            train_skipgram(SENTS, tiny_config(**kw))

    @pytest.mark.parametrize("ngrams", [(2,), (2, 3, 4)])
    def test_subword_ngrams_must_be_a_pair(self, ngrams):
        with pytest.raises(ParameterError, match="subword_ngrams must be a"):
            tiny_config(subword_ngrams=ngrams).validate()

    @pytest.mark.parametrize("value", ["0.1", None, True, float("inf")])
    @pytest.mark.parametrize("field", ["initial_lr", "subsample_threshold"])
    def test_rates_must_be_finite_numbers(self, field, value):
        with pytest.raises(ParameterError, match=f"{field} must be finite"):
            tiny_config(**{field: value}).validate()


def reference_train(sents, cfg):
    """Literal per-pair SGNS: train_skipgram's vocabulary, random streams and
    learning-rate schedule, with one pair_gradients call per (center,
    context) pair and every row updated one at a time."""
    normed = [[normalize_token(t) for t in sent] for sent in sents if sent]
    vocab = build_vocab(normed, cfg.min_token_count)
    V = len(vocab)
    train_words = int(vocab.counts.sum())
    sentences = [ids for ids in ([vocab.index[t] for t in s if t in vocab] for s in normed) if ids]
    init_ss, neg_ss = np.random.SeedSequence(cfg.seed).spawn(2)
    rng = np.random.Generator(np.random.PCG64(init_ss))
    draws = negative_draws(vocab.counts, np.random.Generator(np.random.PCG64(neg_ss)))
    rows = None
    B = 0
    if cfg.subword_ngrams is not None:
        B = cfg.subword_buckets
        rows = [
            [i] + [V + h for h in subword_hashes(t, *cfg.subword_ngrams, B)]
            for i, t in enumerate(vocab.tokens)
        ]
    inp = (rng.random((V + B, cfg.dim)) - 0.5) / cfg.dim
    out = np.zeros((V, cfg.dim))
    keep = None
    if cfg.subsample_threshold > 0:
        ratio = cfg.subsample_threshold / (vocab.counts / train_words)
        keep = np.minimum(1.0, np.sqrt(ratio) + ratio)
    processed = 0
    for _ in range(cfg.epochs):
        for sent in sentences:
            processed += len(sent)
            frac = 1.0 - processed / (cfg.epochs * train_words + 1)
            alpha = max(cfg.initial_lr * frac, cfg.initial_lr * 1e-4)
            if keep is not None:
                u = rng.random(len(sent))
                sent = [t for t, r in zip(sent, u) if keep[t] > r]
            for i, c in enumerate(sent):
                for j in range(max(0, i - cfg.window), min(len(sent), i + cfg.window + 1)):
                    if j == i:
                        continue
                    ctx = sent[j]
                    negs = []
                    for _ in range(cfg.negatives):
                        cand = next(draws)
                        tries = 0
                        while cand == ctx and tries < 100:
                            cand = next(draws)
                            tries += 1
                        if cand != ctx:
                            negs.append(cand)
                    crows = [c] if rows is None else rows[c]
                    h = inp[crows].mean(axis=0)
                    gu, gvp, gvn = pair_gradients(h, out[ctx], out[negs])
                    out[ctx] -= alpha * gvp
                    for n, gn in zip(negs, gvn):
                        out[n] -= alpha * gn
                    for r in crows:
                        inp[r] -= (alpha / len(crows)) * gu
    return vocab, inp, out


class TestTrainingOracle:
    WORDS = [["the", "cat", "sat", "on", "the", "mat"], ["a", "cat", "ran"], ["the", "dog", "sat"]]

    @pytest.mark.parametrize("subword", [None, (2, 4)], ids=["plain", "subword"])
    @pytest.mark.parametrize("subsample", [0.0, 0.05], ids=["all", "subsampled"])
    @pytest.mark.parametrize(
        "sents, kw",
        [
            (WORDS * 4, dict(negatives=3, epochs=2)),
            # three tokens and eight negatives: every pair draws some negative
            # twice, so the output rows go through the accumulating update
            ([["x", "y", "z", "x", "y"]] * 3, dict(negatives=8, epochs=2)),
            # one token: every negative equals the context and is rejected
            ([["a", "a", "a"]], dict(negatives=2, epochs=2)),
            # over 8192 negatives: pairs take their draws across a refill
            ([WORDS[0] + WORDS[2]] * 6, dict(negatives=50, epochs=2)),
        ],
        ids=["words", "repeated-negatives", "one-token", "refill"],
    )
    def test_matches_per_pair_reference(self, sents, kw, subsample, subword):
        cfg = tiny_config(
            subsample_threshold=subsample, subword_ngrams=subword, subword_buckets=16, **kw
        )
        vocab, inp, out = reference_train(sents, cfg)
        m = train_skipgram(sents, cfg)
        assert m.vocab.tokens == vocab.tokens
        assert np.abs(m.input - inp).max() <= 1e-12
        assert np.abs(m.output - out).max() <= 1e-12
        assert np.abs(m.output).max() > 0


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
            tiny_config(**bad).validate()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverging_epoch_raises(self):
        with pytest.raises(DomainError, match="loss is not finite"):
            train_skipgram(SENTS, tiny_config(initial_lr=1e308))

    def test_run_without_pairs_raises(self, caplog):
        # an epoch with no pairs sums to a finite 0.0; the run then fails
        # because nothing was trained, not because the loss diverged
        caplog.set_level(logging.INFO, logger="rgrams.embed")
        with pytest.raises(DomainError, match="no \\(center, context\\) pairs"):
            train_skipgram([["the"], ["cat"]], tiny_config(initial_lr=1e308))
        assert "0 pairs" in caplog.text and "nan" not in caplog.text

    def test_export_refuses_and_writes_nothing(self, tmp_path):
        path = tmp_path / "v.vec"
        vs = VectorSet(["a", "b"], np.array([[1.0, 2.0], [math.nan, 0.0]]))
        with pytest.raises(DomainError):
            export_vectors(vs, str(path))
        assert not path.exists()


class TestSubword:
    def test_hashes_deterministic_and_in_range(self):
        a = subword_hashes("where", 3, 5, 1 << 21)
        b = subword_hashes("where", 3, 5, 1 << 21)
        assert a == b
        assert all(0 <= h < (1 << 21) for h in a)

    def test_ngram_count(self):
        # "<ab>" has length 4: two 3-grams and one 4-gram
        assert len(subword_hashes("ab", 3, 4, 97)) == 3

    def test_bag_semantics_keeps_repeats(self):
        hs = subword_hashes("aaaa", 3, 3, 1 << 21)
        # "<aaaa>" 3-grams: <aa aaa aaa aa> ; "aaa" occurs twice
        assert len(hs) == 4
        assert len(set(hs)) < len(hs)

    def test_short_token_has_no_ngrams_below_min(self):
        assert subword_hashes("a", 4, 5, 97) == []

    def test_training_with_subwords(self):
        cfg = tiny_config(subword_ngrams=(3, 4), subword_buckets=512, epochs=1)
        m = train_skipgram(SENTS, cfg)
        v = m.vector("cat")
        assert v is not None
        # composed vector is the mean of word row + ngram rows
        rows = m.rows[m.vocab.index["cat"]]
        manual = (m.input[rows]).mean(axis=0)
        assert np.allclose(v, manual)

    def test_rows_table(self):
        assert train_skipgram(SENTS, tiny_config(epochs=1)).rows is None
        cfg = tiny_config(epochs=1, subword_ngrams=(3, 4), subword_buckets=512)
        m = train_skipgram(SENTS, cfg)
        V = len(m.vocab)
        assert m.input.shape[0] == V + 512
        for i, t in enumerate(m.vocab.tokens):
            assert m.rows[i][0] == i
            assert m.rows[i][1:].tolist() == [V + h for h in subword_hashes(t, 3, 4, 512)]

    @pytest.mark.parametrize("subword", [None, (3, 4)])
    def test_to_vectors_equals_vector(self, subword):
        cfg = tiny_config(epochs=1, subword_ngrams=subword, subword_buckets=512)
        m = train_skipgram(SENTS, cfg)
        vs = m.to_vectors()
        assert vs.tokens == m.vocab.tokens
        assert not np.shares_memory(vs.matrix, m.input)
        for t in m.vocab.tokens:
            assert vs.vector(t).tobytes() == m.vector(t).tobytes()

    def test_subword_changes_vectors(self):
        plain = train_skipgram(SENTS, tiny_config(epochs=1))
        sub = train_skipgram(
            SENTS, tiny_config(epochs=1, subword_ngrams=(3, 4), subword_buckets=512)
        )
        assert not np.allclose(plain.vector("cat"), sub.vector("cat"))


class TestVectorFiles:
    def test_round_trip_within_tolerance(self, tmp_path):
        m = train_skipgram(SENTS, tiny_config())
        p = tmp_path / "v.vec"
        export_vectors(m, str(p))
        vs = import_vectors(str(p))
        assert set(vs.tokens) == set(m.vocab.tokens)
        for t in m.vocab.tokens:
            assert np.max(np.abs(vs.vector(t) - m.vector(t))) < 1e-8

    def test_tokens_with_spaces_escaped(self, tmp_path):
        m = train_skipgram([["new york", "city"], ["new york", "harbor"]], tiny_config())
        p = tmp_path / "v.vec"
        export_vectors(m, str(p))
        body = p.read_text(encoding="utf-8")
        assert "new_york " in body
        vs = import_vectors(str(p))
        assert vs.vector("new york") is not None

    def test_components_formatted_as_9_significant_digits(self, tmp_path):
        values = [-0.0, 5e-324, 2.2250738585072014e-308 / 3, 1e300, 0.1 + 0.2, -1 / 3]
        p = tmp_path / "v.vec"
        export_vectors(VectorSet(["a"], np.array([values])), str(p))
        row = p.read_text(encoding="utf-8").splitlines()[1]
        assert row == "a " + " ".join("%.9g" % x for x in values)
        assert row.split(" ")[1:5] == ["-0", "4.94065646e-324", "7.41691286e-309", "1e+300"]

    def test_header(self, tmp_path):
        m = train_skipgram(SENTS, tiny_config())
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

    def test_header_count_beyond_file(self, tmp_path):
        # would need terabytes if the header sized an allocation up front
        e = self._attempt(tmp_path, "999999999999 100\na " + "0 " * 99 + "0\n")
        assert e.line == 3
