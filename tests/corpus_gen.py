"""Deterministic English-like text generator for the larger test fixtures.

Sampling is Zipf-weighted over a fixed word list plus a set of frequent
collocations, so merged symbols that span spaces emerge the way they do in
natural text. Output lines are single sentences separated by single
newlines (no separator runs), which keeps encode/decode round trips exact.

The spaceless mode rewrites the same sentences the way a language without
word spaces looks: every word becomes a fixed string of 1-3 ideographs and
the spaces go, so nothing word-like is marked in the input.
"""

from __future__ import annotations

import random
import re

_BASE_WORDS = """
the of and to a in is was for on that by with as it at from his he this be
are an or which had not have has but were they one their its all when who

time more out up so into him than only some could them two other no our
what about these may then do first any my now such like our over also
after most made many did must before back through years where much your
way well down should because each just those people how too little state
good very make world still own see men work long get here between both
life being under never day same another know while last might us great
old year off come since against go came right used take three states
himself few house use during without again place american around however
home small found mrs thought went say part once general high upon school
every don't does got united left number course war until always away
something fact though water less public put thing almost hand enough far
took head yet government system better set told nothing night end why
called didn't eyes find going look asked later knew point next city
business case group woman give days young let room side present friend
father power hours rather earth centre face others seen order possible
per among often early white large big person money word quite study music
country plan really question church need college light different again
within along told best felt family children feet land across today served
including become real several name value result change open toward close
show history human development action kind problem return game area
members provide service top free social important council held whole
field major paper space cost economic performance wall level stage
researchances report low method effect mind voice street class police
society figure future age programme boy girl event table love car period
data road support moment god strong education market force idea art
department nature growth role political party short run book law common
although press special clear body third news five read north south six
black white red line word model section deal century evidence window
behind material theory east paid amount practice process court product
care account quality office doctor wife bed bank letter hospital simple
type analysis summer condition central bad energy term various respect
main style union leader position player record risk security committee
series base food production november december january february march
april june july august september october million board club attention
due control island size movement language project minister used whose
available film stone step sound reason trade region industry structure
farm effort management heart site surface sense staff language plant
approach income instance piece animal source october population decision
english france germany europe london computer radio science television
travel village concept direction function interest knowledge individual
"""

_SUFFIXED = ("work", "play", "call", "turn", "look", "help", "start", "want",
             "need", "show", "open", "move", "talk", "walk", "ask", "end")

_COLLOCATIONS = [
    ("of the", 120), ("in the", 100), ("to the", 70), ("on the", 55),
    ("and the", 45), ("for the", 40), ("at the", 35), ("with the", 30),
    ("from the", 28), ("by the", 26), ("to be", 40), ("of a", 35),
    ("in a", 30), ("it is", 28), ("it was", 28), ("one of the", 22),
    ("part of the", 12), ("the end of", 10), ("as well as", 12),
    ("such as", 14), ("united states", 18), ("new york", 14),
    ("according to", 10), ("because of", 10), ("number of", 12),
    ("known as", 8), ("more than", 14), ("out of", 12), ("per cent", 16),
    ("did not", 12), ("do not", 10), ("had been", 14), ("have been", 14),
    ("will be", 12), ("would be", 12), ("years ago", 8), ("each other", 8),
]


# Ideographs for the spaceless mode: CJK Unified Ideographs from the BMP and
# from Extension B, above U+FFFF (four UTF-8 bytes, a surrogate pair in UTF-16).
IDEOGRAPHS = [chr(c) for c in range(0x4E00, 0x4E00 + 48)] + [
    chr(c) for c in range(0x20000, 0x20000 + 16)
]


def _word_list() -> list[str]:
    words = _BASE_WORDS.split()
    for w in _SUFFIXED:
        words.append(w + "s")
        words.append(w + "ed")
        words.append(w + "ing")
    # dedupe, keep first occurrence so weights stay stable
    seen: dict[str, None] = {}
    for w in words:
        seen.setdefault(w)
    return list(seen)


def generate(target_bytes: int, seed: int = 1, spaceless: bool = False) -> str:
    """English-like text of roughly target_bytes UTF-8 bytes.

    Same (target_bytes, seed, spaceless) always gives the same string. Lines
    are sentences; the text ends with one trailing newline and contains no
    consecutive newlines. spaceless=True returns the same sentences with each
    word lowercased and written in IDEOGRAPHS, and no spaces.
    """
    rng = random.Random(seed)
    words = _word_list()
    ranked = sorted(words, key=lambda w: (rng.random(),))
    weights = [1.0 / (i + 1) ** 1.05 for i in range(len(ranked))]
    colloc_texts = [c for c, _ in _COLLOCATIONS]
    colloc_weights = [float(w) for _, w in _COLLOCATIONS]

    lines: list[str] = []
    size = 0
    batch_words = rng.choices(ranked, weights=weights, k=50000)
    batch_coll = rng.choices(colloc_texts, weights=colloc_weights, k=20000)
    wi = ci = 0
    while size < target_bytes:
        n = rng.randint(6, 14)
        parts: list[str] = []
        for _ in range(n):
            if rng.random() < 0.22:
                if ci >= len(batch_coll):
                    batch_coll = rng.choices(colloc_texts, weights=colloc_weights, k=20000)
                    ci = 0
                parts.append(batch_coll[ci])
                ci += 1
            else:
                if wi >= len(batch_words):
                    batch_words = rng.choices(ranked, weights=weights, k=50000)
                    wi = 0
                parts.append(batch_words[wi])
                wi += 1
        sentence = " ".join(parts)
        r = rng.random()
        if r < 0.45:
            sentence = sentence[0].upper() + sentence[1:]
        if r < 0.08:
            sentence += " (born %d)" % rng.randint(1800, 1999)
        elif r < 0.5:
            sentence += "."
        lines.append(sentence)
        size += len(sentence) + 1
    text = "\n".join(lines) + "\n"
    return _spaceless(text, seed) if spaceless else text


def _spaceless(text: str, seed: int) -> str:
    """text with each distinct word mapped to 1-3 seeded IDEOGRAPHS, in
    order of first appearance, and every space removed."""
    rng = random.Random(seed)
    spelling: dict[str, str] = {}

    def ideographs(m: re.Match[str]) -> str:
        word = m.group()
        if word not in spelling:
            spelling[word] = "".join(rng.choices(IDEOGRAPHS, k=rng.randint(1, 3)))
        return spelling[word]

    return re.sub(r"[a-z']+", ideographs, text.lower()).replace(" ", "")
