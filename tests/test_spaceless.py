"""Language invariance: the pipeline assumes neither word spaces nor the BMP.

The text comes from corpus_gen's spaceless mode: each word is 1-3
ideographs, some above U+FFFF, with no spaces between words.
"""

from __future__ import annotations

import pytest

import corpus_gen
from rgrams import repair
from rgrams.cli import main
from rgrams.corpus import encode
from rgrams.grammar import apply, apply_naive, apply_with_report, decode
from rgrams.repair import PairMerger, StopCriteria, train, train_naive

NL = frozenset("\n")
UNSEEN = "龠\U0002a700"  # ideographs outside corpus_gen.IDEOGRAPHS


def spaceless(target_bytes: int, seed: int) -> str:
    return corpus_gen.generate(target_bytes, seed=seed, spaceless=True)


def test_spaceless_mode():
    text = spaceless(2000, 3)
    assert text == spaceless(2000, 3)
    assert " " not in text
    assert any(ord(c) > 0xFFFF for c in text)
    assert set(text) - set("\n().0123456789") <= set(corpus_gen.IDEOGRAPHS)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_train_matches_naive(seed):
    text = spaceless(4000, seed)
    stop = StopCriteria(max_merges=150)
    g, out = train(encode(text, NL), stop)
    assert (g, out) == train_naive(encode(text, NL), stop)
    assert decode(g, out) == text
    assert any(len(g.expand(r.id)) >= 3 for r in g.rules)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_bulk_path_matches_naive(seed, monkeypatch):
    # threshold 2: every merge with left != right goes through the bulk path
    monkeypatch.setattr(repair, "_BULK_MIN", 2)
    text = spaceless(4000, seed)
    m = PairMerger(encode(text, NL))
    m.check_invariants()
    while m.merges < 150 and m.merge_once() is not None:
        m.check_invariants()
    g, out = train_naive(encode(text, NL), StopCriteria(max_merges=150))
    assert m.bulk_replacements > 0
    assert (m.grammar(), m.sequence()) == (g, out)


def test_apply_matches_naive():
    check_apply_matches_naive()


def test_apply_matches_naive_batched(batched):
    check_apply_matches_naive()


def check_apply_matches_naive():
    g, _ = train(encode(spaceless(4000, 1), NL), StopCriteria(max_merges=150))
    lines = spaceless(3000, 4).splitlines()
    text = "\n".join([lines[0] + UNSEEN, *lines[1:]]) + "\n"
    seq = encode(text, NL)
    out, report = apply_with_report(g, seq)
    assert out == apply_naive(g, seq)
    assert all(report.unknown_chars[c] == 1 for c in UNSEEN)
    assert decode(g, out) == text


@pytest.fixture
def files(tmp_path):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text(spaceless(1500, 1), encoding="utf-8")
    new = tmp_path / "new.txt"
    new.write_text(spaceless(600, 5), encoding="utf-8")
    return tmp_path, corpus, new


def test_cli_chain(files, capsys):
    d, corpus, new = files
    g, seg, applied, restored, vec = (d / n for n in ("g", "c.seg", "n.seg", "n.txt", "v.vec"))
    assert main(["train", str(corpus), "--grammar-out", str(g), "--segmented-out", str(seg)]) == 0
    assert main(["apply", str(g), str(new), str(applied)]) == 0
    assert main(["decode", str(g), str(applied), str(restored)]) == 0
    assert restored.read_text(encoding="utf-8") == new.read_text(encoding="utf-8")
    assert main(["stats", "--segmented", str(seg), "--top", "5"]) == 0
    flags = ["--dim", "8", "--epochs", "1", "--subsample", "0"]
    assert main(["embed", str(seg), "--vectors-out", str(vec), *flags]) == 0
    assert int(vec.read_text(encoding="utf-8").split()[0]) > 0
    capsys.readouterr()


def test_strict_apply_fails_on_unseen_ideographs(files, capsys):
    d, corpus, new = files
    g = d / "g.rgram"
    assert main(["train", str(corpus), "--grammar-out", str(g), "--max-merges", "60"]) == 0
    new.write_text(new.read_text(encoding="utf-8") + UNSEEN + "\n", encoding="utf-8")
    out = d / "strict.seg"
    assert main(["apply", str(g), str(new), str(out), "--strict"]) == 3
    assert not out.exists()
    assert "outside the grammar alphabet" in capsys.readouterr().err
