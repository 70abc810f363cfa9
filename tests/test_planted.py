"""Planted word classes: the generator, and the quality check run small."""

from __future__ import annotations

import corpus_gen
import planted_quality
from rgrams import TrainConfig


def test_generate_classes():
    text, word_class, spelling = corpus_gen.generate_classes(3000, seed=2)
    twin, twin_class, twin_spelling = corpus_gen.generate_classes(3000, seed=2, spaceless=True)
    assert corpus_gen.generate_classes(3000, seed=2) == (text, word_class, spelling)
    assert spelling == {} and twin_class == word_class
    classes = sorted(word_class.values())
    assert classes == sorted(list(range(16)) * 25)
    assert len(set(twin_spelling.values())) == len(word_class) == 400
    assert all(1 <= len(s) <= 3 for s in twin_spelling.values())
    # the twin holds the same sentences, each word spelled and no spaces
    lines = text.splitlines()
    assert 6 <= min(len(s.split()) for s in lines) and max(len(s.split()) for s in lines) <= 14
    assert twin.splitlines() == ["".join(twin_spelling[w] for w in s.split()) for s in lines]
    assert set(twin) - {"\n"} <= set(corpus_gen.IDEOGRAPHS)
    assert 3000 <= len(text.encode("utf-8")) < 3200


SMALL = dict(dim=16, epochs=3, initial_lr=0.25, subsample_threshold=1e-3)


def test_planted_classes_are_recovered():
    # 60 KB, 200 merges, these settings, seeds 1-8 (chance is 1/16 = 0.0625
    # for each number): purity@5 English 0.164-0.285, spaceless 0.134-0.233,
    # class-level P@1 0.143-0.462; with one pair per step 0.150-0.262,
    # 0.164-0.236 and 0.083-0.500. Each bound is twice chance.
    r = planted_quality.measure(60_000, 4, 200, TrainConfig(seed=4, **SMALL))
    assert r["purity_en"] >= 0.125
    assert r["purity_spaceless"] >= 0.125
    assert r["p1_class"] >= 0.125
