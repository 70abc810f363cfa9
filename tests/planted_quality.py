"""Embedding quality on text with planted word classes.

corpus_gen.generate_classes writes sentences that walk a chain of 16 word
classes, and a spaceless twin of the same sentences with every word
spelled in ideographs. For each seed this script learns a grammar and
skipgram vectors on both twins and prints:

- purity@5 per twin: over whole-word tokens (a token that is a planted word,
  or a word's spelling in the twin), the mean share of each one's 5 nearest
  whole-word tokens by cosine that are in its class; chance is 1/16;
- Procrustes P@1: an orthogonal map from English to spaceless vectors
  (the SVD solution of Schoenemann 1966), fitted on half of the words that
  are whole tokens in both twins; on the other half, the share whose mapped
  vector's nearest spaceless whole-word token is in its class (class-level)
  or is its own spelling (word-level);
- the share of English vocabulary tokens that span a space, and the
  seconds train_skipgram took on both twins together.

It calls only the public rgrams API, so the same script measures any
checkout, with that checkout's src on PYTHONPATH:

    PYTHONPATH=src python tests/planted_quality.py --seeds 1 2 3
"""

from __future__ import annotations

import argparse
import io
import time

import numpy as np

import corpus_gen
from rgrams import (
    StopCriteria,
    TrainConfig,
    VectorSet,
    encode,
    train,
    train_skipgram,
    write_segmented,
)


def vectors(text: str, merges: int, config: TrainConfig) -> tuple[VectorSet, float]:
    """(vectors of text segmented by a merges-rule grammar, training seconds)."""
    g, seq = train(encode(text), StopCriteria(max_merges=merges))
    buf = io.StringIO()
    write_segmented(g, seq, buf)
    buf.seek(0)
    t0 = time.perf_counter()
    m = train_skipgram(buf, config)
    return m.to_vectors(), time.perf_counter() - t0


def whole_words(vs: VectorSet, word_of: dict[str, str]) -> tuple[list[str], np.ndarray]:
    """(the planted words that are tokens of vs, their unit vectors); word_of
    maps a token to the word it spells."""
    unit = vs.unit_rows()[0]
    found = sorted((word_of[t], i) for t, i in vs.index.items() if t in word_of)
    return [w for w, _ in found], unit[[i for _, i in found]].reshape(len(found), -1)


def purity(words: list[str], unit: np.ndarray, word_class: dict[str, int], k: int = 5) -> float:
    """Mean share of each word's k nearest other words that share its class."""
    if len(words) <= k:
        return float("nan")
    sims = unit @ unit.T
    np.fill_diagonal(sims, -np.inf)
    top = np.argsort(-sims, axis=1, kind="stable")[:, :k]
    cls = np.array([word_class[w] for w in words])
    return float((cls[top] == cls[:, None]).mean())


def procrustes_p1(
    en: tuple[list[str], np.ndarray],
    sl: tuple[list[str], np.ndarray],
    word_class: dict[str, int],
    seed: int,
) -> tuple[float, float, int]:
    """(class-level P@1, word-level P@1, test words) of an orthogonal map
    fitted on a seeded half of the words both twins hold whole."""
    en_row = {w: i for i, w in enumerate(en[0])}
    sl_row = {w: i for i, w in enumerate(sl[0])}
    common = [w for w in en[0] if w in sl_row]
    if len(common) < 4:
        return float("nan"), float("nan"), 0
    order = np.random.default_rng(seed).permutation(len(common))
    fit = [common[i] for i in order[: len(common) // 2]]
    test = [common[i] for i in order[len(common) // 2 :]]
    X = en[1][[en_row[w] for w in fit]]
    Y = sl[1][[sl_row[w] for w in fit]]
    u, _, vt = np.linalg.svd(X.T @ Y)
    mapped = en[1][[en_row[w] for w in test]] @ (u @ vt)
    nearest = [sl[0][j] for j in np.argmax(mapped @ sl[1].T, axis=1)]
    by_class = np.mean([word_class[n] == word_class[w] for n, w in zip(nearest, test)])
    by_word = np.mean([n == w for n, w in zip(nearest, test)])
    return float(by_class), float(by_word), len(test)


def measure(target_bytes: int, seed: int, merges: int, config: TrainConfig) -> dict:
    """Every number the script prints, for one seed."""
    text, word_class, _ = corpus_gen.generate_classes(target_bytes, seed)
    twin, _, spelling = corpus_gen.generate_classes(target_bytes, seed, spaceless=True)
    vs_en, en_s = vectors(text, merges, config)
    vs_sl, sl_s = vectors(twin, merges, config)
    en = whole_words(vs_en, {w: w for w in word_class})
    sl = whole_words(vs_sl, {s: w for w, s in spelling.items()})
    p1_class, p1_word, tested = procrustes_p1(en, sl, word_class, seed)
    return {
        "purity_en": purity(*en, word_class),
        "purity_spaceless": purity(*sl, word_class),
        "p1_class": p1_class,
        "p1_word": p1_word,
        "words_en": len(en[0]),
        "words_spaceless": len(sl[0]),
        "tested": tested,
        "space_share": float(np.mean([" " in t for t in vs_en.tokens])),
        "train_s": en_s + sl_s,
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--bytes", type=int, default=200_000, help="English text size per seed")
    ap.add_argument("--merges", type=int, default=300)
    ap.add_argument("--dim", type=int, default=32)
    ap.add_argument("--epochs", type=int, default=3)
    ap.add_argument("--lr", type=float, default=0.05)
    ap.add_argument("--subsample", type=float, default=1e-3)
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    args = ap.parse_args()
    for seed in args.seeds:
        config = TrainConfig(
            dim=args.dim,
            epochs=args.epochs,
            initial_lr=args.lr,
            subsample_threshold=args.subsample,
            seed=seed,
        )
        r = measure(args.bytes, seed, args.merges, config)
        print(
            f"seed {seed}: purity@5 en {r['purity_en']:.3f} ({r['words_en']} words)"
            f" spaceless {r['purity_spaceless']:.3f} ({r['words_spaceless']} words);"
            f" Procrustes P@1 class {r['p1_class']:.3f} word {r['p1_word']:.3f}"
            f" ({r['tested']} test words); space share {r['space_share']:.3f};"
            f" train {r['train_s']:.2f} s"
        )


if __name__ == "__main__":
    main()
