"""End-to-end acceptance checks.

Each test prints one [criterion NN] PASS/FAIL line (run pytest with -s to
see the PASS lines stream). The numbered criteria pin down: the worked
compression example, engine-vs-oracle agreement, lossless round trips,
near-linear scaling, head-count flattening, multi-word token emergence,
gradient correctness, evaluation-harness exactness, fixed-seed
repeatability, and file-format fidelity.
"""

from __future__ import annotations

import math
import random
import time
from contextlib import contextmanager

import numpy as np
import pytest
import scipy.stats

import corpus_gen
from rgrams.corpus import encode, normalize
from rgrams.embed import (
    TrainConfig,
    export_vectors,
    import_vectors,
    pair_gradients,
    pair_loss,
    train_skipgram,
)
from rgrams.evaluate import (
    AnalogyQuery,
    analogy,
    cosine,
    nearest_neighbors,
    spearman,
)
from rgrams.grammar import (
    apply,
    decode,
    load,
    read_segmented,
    save,
    unescape_token,
    write_segmented,
)
from rgrams.repair import StopCriteria, train, train_naive

NL = frozenset("\n")


@contextmanager
def criterion(num: int, desc: str):
    try:
        yield
    except BaseException:
        print(f"\n[criterion {num:02d}] FAIL {desc}")
        raise
    print(f"\n[criterion {num:02d}] PASS {desc}")


EMBED_CONFIG = TrainConfig(dim=32, window=2, negatives=5, epochs=1, min_token_count=5, seed=11)


@pytest.fixture(scope="session")
def big_vectors(big_run):
    """One full embedding run over the 10 MB segmented corpus."""
    return train_skipgram(big_run.segmented_path, EMBED_CONFIG)


def test_criterion_01_worked_example():
    with criterion(1, "worked compression example reproduced exactly"):
        seq = encode("βββαβββαβββ")
        g, out = train(seq, StopCriteria(min_frequency=2, max_merges=2))
        assert [(e.id, e.left, e.right, e.freq_at_merge) for e in g.rules] == [
            (2, 0, 0, 3),
            (3, 2, 0, 3),
        ]
        assert out.symbols.tolist() == [3, 1, 3, 1, 3]
        assert g.expand(2) == "ββ"
        assert g.expand(3) == "βββ"
        assert g.depth(2) == 1 and g.depth(3) == 2
        assert decode(g, out) == "βββαβββαβββ"


def test_criterion_02_engine_matches_oracle():
    with criterion(2, "engine agrees with the naive reference on 200+ random inputs"):
        t0 = time.perf_counter()
        rng = random.Random(2024)
        trials = 0
        for _ in range(194):
            k = rng.randint(2, 16)
            n = rng.randint(0, 400)
            alphabet = "abcdefghijklmnop"[:k] + ("\n" if rng.random() < 0.25 else "")
            text = "".join(rng.choice(alphabet) for _ in range(n))
            stop = StopCriteria(min_frequency=rng.choice([2, 3, 4]))
            g1, o1 = train(encode(text, NL), stop)
            g2, o2 = train_naive(encode(text, NL), stop)
            assert g1.rules == g2.rules, f"event mismatch on {text!r}"
            assert o1.symbols.tolist() == o2.symbols.tolist()
            assert o1.boundaries.tolist() == o2.boundaries.tolist()
            assert g1 == g2
            trials += 1
        for _ in range(8):
            k = rng.randint(2, 16)
            n = rng.randint(1500, 2000)
            alphabet = "abcdefghijklmnop"[:k]
            text = "".join(rng.choice(alphabet) for _ in range(n))
            stop = StopCriteria(min_frequency=rng.choice([2, 3, 4]))
            g1, o1 = train(encode(text, NL), stop)
            g2, o2 = train_naive(encode(text, NL), stop)
            assert g1.rules == g2.rules
            assert o1.symbols.tolist() == o2.symbols.tolist()
            assert g1 == g2
            trials += 1
        elapsed = time.perf_counter() - t0
        assert trials >= 200
        assert elapsed < 60.0, f"oracle comparison took {elapsed:.1f}s"


def test_criterion_03_round_trips(sample_text_10mb, tmp_path):
    with criterion(3, "1000 random strings and a 1 MB file round-trip losslessly"):
        t0 = time.perf_counter()
        rng = random.Random(99)
        alphabets = ["ab", "abcde", "abcdefgh ", "αβγδ", "ab 世界", "xy.z,-"]
        for i in range(1000):
            if i % 5 == 4:
                parts = [
                    "".join(rng.choice("abc xyz") for _ in range(rng.randint(1, 30)))
                    for _ in range(rng.randint(1, 5))
                ]
                text = "\n".join(parts)
            else:
                a = rng.choice(alphabets)
                text = "".join(rng.choice(a) for _ in range(rng.randint(0, 200)))
            g, out = train(encode(text, NL))
            assert decode(g, out) == text, f"trial {i} lost data"
        sample = normalize(sample_text_10mb)[:1_200_000]
        seq = encode(sample, NL)
        g, out = train(seq, StopCriteria(max_merges=3000))
        assert decode(g, out) == sample
        seg = tmp_path / "mb.seg"
        write_segmented(g, out, str(seg))
        restored = "\n".join(
            "".join(tok for tok in sent) for sent in read_segmented(str(seg))
        )
        assert restored == sample
        elapsed = time.perf_counter() - t0
        assert elapsed < 120.0, f"round trips took {elapsed:.1f}s"


def test_criterion_04_near_linear_scaling(sample_text_10mb):
    with criterion(4, "4 MB trains within 6x the 1 MB training time"):
        text = normalize(sample_text_10mb)
        one = text[:1_000_000]
        four = text[:4_000_000]
        stop = StopCriteria(max_merges=2000)
        train(encode(one, NL), stop)  # warmup: page in code paths

        def timed(s: str) -> float:
            best = math.inf
            for _ in range(2):
                t0 = time.perf_counter()
                train(encode(s, NL), stop)
                best = min(best, time.perf_counter() - t0)
            return best

        t1 = timed(one)
        t4 = timed(four)
        ratio = t4 / t1
        print(f"\n  1MB {t1:.2f}s  4MB {t4:.2f}s  ratio {ratio:.2f}")
        assert ratio <= 6.0, f"scaling ratio {ratio:.2f} exceeds 6"


def test_criterion_05_head_count_flattens(big_run):
    with criterion(5, "max token count never rises and falls strictly at checkpoints"):
        assert big_run.merges == 20000
        assert big_run.train_seconds < 600, f"{big_run.train_seconds:.0f}s over budget"
        assert big_run.max_monotone, "a merge raised the max token count"
        marks = [big_run.rank1[k] for k in (0, 100, 1000, 10000)]
        assert all(a > b for a, b in zip(marks, marks[1:])), marks
        print(f"\n  rank-1 counts at 0/100/1000/10000: {marks}")


def test_criterion_06_multiword_tokens_emerge(big_run):
    with criterion(6, "at least 1% of 20000 rules expand across a space"):
        g = big_run.grammar
        multi = sum(1 for r in g.rules if " " in g.expand(r.id)[1:-1])
        share = multi / len(g.rules)
        print(f"\n  {multi}/{len(g.rules)} rules span words ({share:.1%})")
        assert len(g.rules) == 20000
        assert share >= 0.01


def test_criterion_07_gradients_and_initial_loss():
    with criterion(7, "analytic gradients match finite differences; initial loss exact"):
        rng = np.random.default_rng(17)
        h = 1e-5
        for _ in range(5):
            dim = int(rng.integers(4, 24))
            negs = int(rng.integers(1, 8))
            u = rng.normal(size=dim) * 0.6
            vp = rng.normal(size=dim) * 0.6
            vn = rng.normal(size=(negs, dim)) * 0.6
            gu, gvp, gvn = pair_gradients(u, vp, vn)
            for arr, grad in ((u, gu), (vp, gvp), (vn, gvn)):
                flat, gflat = arr.ravel(), np.asarray(grad).ravel()
                for i in range(flat.size):
                    orig = flat[i]
                    flat[i] = orig + h
                    up = pair_loss(u, vp, vn)
                    flat[i] = orig - h
                    dn = pair_loss(u, vp, vn)
                    flat[i] = orig
                    num = (up - dn) / (2 * h)
                    rel = abs(num - gflat[i]) / max(abs(num), abs(gflat[i]), 1e-8)
                    assert rel < 1e-4, f"gradient off by {rel:.2e}"
        # context vectors start at zero, so every initial score is exactly 0
        for negs in (1, 5, 15):
            u = rng.normal(size=40)
            loss = pair_loss(u, np.zeros(40), np.zeros((negs, 40)))
            want = (1 + negs) * math.log(2.0)
            assert abs(loss - want) < 1e-9


def test_criterion_08_eval_matches_brute_force():
    with criterion(8, "evaluation harness agrees with brute-force reference"):
        rng = np.random.default_rng(33)
        V, D = 1000, 24
        tokens = [f"w{i:04d}" for i in range(V)]
        matrix = rng.normal(size=(V, D))
        from rgrams.embed import VectorSet

        vs = VectorSet(tokens, matrix)
        for qi in (0, 499, 999):
            got = nearest_neighbors(vs, tokens[qi], k=10)
            ref = sorted(
                ((cosine(matrix[i], matrix[qi]), tokens[i]) for i in range(V) if i != qi),
                key=lambda p: (-p[0], p[1]),
            )[:10]
            assert [t for t, _ in got] == [t for _, t in ref]
            for (_, s), (rs, _) in zip(got, ref):
                assert abs(s - rs) < 1e-12
        unit = matrix / np.linalg.norm(matrix, axis=1, keepdims=True)
        for ia, ib, ic in ((1, 2, 3), (10, 500, 900)):
            q = AnalogyQuery(tokens[ia], tokens[ib], tokens[ic], tokens[0])
            got = analogy(vs, q, k=5)
            target = unit[ib] - unit[ia] + unit[ic]
            target /= np.linalg.norm(target)
            sims = unit @ target
            ref = sorted(
                ((float(sims[i]), tokens[i]) for i in range(V) if i not in (ia, ib, ic)),
                key=lambda p: (-p[0], p[1]),
            )[:5]
            assert [t for t, _ in got] == [t for _, t in ref]
            for (_, s), (rs, _) in zip(got, ref):
                assert abs(s - rs) < 1e-12
        for _ in range(20):
            n = int(rng.integers(5, 60))
            x = rng.integers(0, 6, size=n).astype(float)
            y = rng.normal(size=n)
            if len(set(x)) < 2:
                continue
            want = scipy.stats.spearmanr(x, y).statistic
            assert abs(spearman(x, y) - want) < 1e-12


def test_criterion_09_fixed_seed_repeatability(big_run, big_vectors):
    with criterion(9, "same-seed reruns give identical neighbor lists on 10 MB"):
        again = train_skipgram(big_run.segmented_path, EMBED_CONFIG)
        vs_a = big_vectors.to_vectors()
        vs_b = again.to_vectors()
        assert np.array_equal(big_vectors.input, again.input)
        order = np.argsort(-big_vectors.vocab.counts, kind="stable")
        frequent = [big_vectors.vocab.tokens[i] for i in order[:5]]
        for tok in frequent:
            na = nearest_neighbors(vs_a, tok, k=5)
            nb = nearest_neighbors(vs_b, tok, k=5)
            assert na == nb
            print(f"\n  {tok!r}: " + ", ".join(t for t, _ in na))


def test_criterion_10_file_formats_faithful(big_run, big_vectors, tmp_path):
    with criterion(10, "grammar files reload exactly; vector files hold 1e-8"):
        p1 = tmp_path / "big.rgram"
        p2 = tmp_path / "big2.rgram"
        save(big_run.grammar, str(p1))
        reloaded = load(str(p1))
        assert reloaded == big_run.grammar
        save(reloaded, str(p2))
        assert p1.read_bytes() == p2.read_bytes()

        vp = tmp_path / "big.vec"
        export_vectors(big_vectors, str(vp))
        back = import_vectors(str(vp))
        vs = big_vectors.to_vectors()
        assert set(back.tokens) == set(vs.tokens)
        worst = max(
            float(np.max(np.abs(back.vector(t) - vs.vector(t)))) for t in vs.tokens
        )
        print(f"\n  worst vector component error {worst:.2e}")
        assert worst < 1e-8
