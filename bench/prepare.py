"""Set-up for each workload: generate inputs from the seed, train grammars.

Everything here runs before the timed phase, in the parent process, and is
what `setup_s` measures. The timed child reads only the files written here.
Text comes from the test suite's seeded generator (tests/corpus_gen.py),
imported read-only; the program sees only the generated files.

The generator's seed also picks which words are frequent, so two seeds give
two different "languages" whose compression differs by 10-15%. Runs with
different benchmark seeds would then measure different workloads. Instead,
every run generates the same pool of sentences from POOL_SEED, and the
benchmark seed picks and orders the sentences each input is made of.
Training text and held-out text never share a sentence.
"""

from __future__ import annotations

import hashlib
import random
from pathlib import Path

import corpus_gen
from rgrams import (
    DEFAULT_SEPARATORS,
    NormalizationOptions,
    PairMerger,
    apply,
    encode,
    encode_file,
    normalize,
    save,
    write_segmented,
)

POOL_SEED = 42
POOL_BYTES = 2_000_000


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def write_text(path: Path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(text)


def draw_texts(seed: int, *sizes: int) -> list[str]:
    """Disjoint texts of about the given sizes, made of pool sentences the
    seed picks, in the order it picks them."""
    lines = corpus_gen.generate(POOL_BYTES, seed=POOL_SEED).splitlines()
    random.Random(seed).shuffle(lines)
    texts = []
    at = 0
    for size in sizes:
        start = at
        total = 0
        while total < size:
            total += len(lines[at]) + 1
            at += 1
        texts.append("\n".join(lines[start:at]) + "\n")
    return texts


def train_grammar(corpus: Path, merges: int, tick):
    """`rgrams train` on one file: encode, merge up to `merges`, return the
    merger (grammar and compressed sequence live on it)."""
    seq = encode_file(corpus, DEFAULT_SEPARATORS, NormalizationOptions())
    tick()
    merger = PairMerger(seq)
    while merger.merges < merges and merger.merge_once(2) is not None:
        tick()
    return merger, len(seq)


def prepare_learn(out: Path, seed: int, size: dict, tick) -> dict:
    corpus = out / "corpus.txt"
    (text,) = draw_texts(seed, size["corpus_bytes"])
    write_text(corpus, text)
    return {
        "files": {"corpus": str(corpus)},
        "fingerprints": {"input": sha256_file(corpus)},
    }


def _trained(out: Path, text: str, size: dict, tick):
    """Write the training text, train on it, and write the grammar and the
    segmented output, as `rgrams train --segmented-out` does."""
    corpus = out / "train.txt"
    write_text(corpus, text)
    merger, chars = train_grammar(corpus, size["merges"], tick)
    g = merger.grammar()
    grammar_path = out / "grammar.rgram"
    seg_path = out / "train.seg"
    save(g, str(grammar_path))
    compressed = merger.sequence()
    write_segmented(g, compressed, str(seg_path))
    files = {"train": str(corpus), "grammar": str(grammar_path), "train_seg": str(seg_path)}
    prints = {
        "input": sha256_file(corpus),
        "grammar": sha256_file(grammar_path),
        "segmented": sha256_file(seg_path),
    }
    info = {"train_chars": chars, "train_tokens": len(compressed)}
    return files, prints, g, info


def prepare_segment(out: Path, seed: int, size: dict, tick) -> dict:
    train, held = draw_texts(seed, size["train_bytes"], size["heldout_bytes"])
    tick()
    files, prints, _, info = _trained(out, train, size, tick)
    heldout = out / "heldout.txt"
    write_text(heldout, held)
    files["heldout"] = str(heldout)
    prints["input_heldout"] = sha256_file(heldout)
    return {"files": files, "fingerprints": prints, "info": info}


def prepare_embed(out: Path, seed: int, size: dict, tick) -> dict:
    train, held = draw_texts(seed, size["train_bytes"], size["heldout_bytes"])
    tick()
    files, prints, g, info = _trained(out, train, size, tick)
    heldout_seg = out / "heldout.seg"
    write_segmented(g, apply(g, encode(normalize(held))), str(heldout_seg))
    files["heldout_seg"] = str(heldout_seg)
    prints["segmented_heldout"] = sha256_file(heldout_seg)
    return {"files": files, "fingerprints": prints, "info": info}


PREPARE = {"learn": prepare_learn, "segment": prepare_segment, "embed": prepare_embed}
