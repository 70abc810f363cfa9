"""Skipgram-with-negative-sampling embeddings over segmented tokens.

Desk-scale, single-threaded, deterministic under a fixed seed. Tokens are
the expansions from a segmented corpus, trimmed of edge whitespace and with
digits replaced by 'N'; an all-whitespace token becomes the reserved
"<ws>". Windows never cross segment boundaries because segments arrive as
separate sentences.

Within one (center, context) pair the gradient is taken of the whole pair
loss at the pre-update parameter values and then applied; this matches
pair_gradients exactly, which is what the finite-difference check verifies.
"""

from __future__ import annotations

import logging
import math
from collections import Counter
from dataclasses import dataclass
from itertools import chain, islice
from typing import Iterable, Iterator, Mapping, Sequence, TextIO

import numpy as np

from .corpus import read_lines, substitute_digits, write_lines
from .errors import DomainError, VectorFileError
from .grammar import escape_token, read_segmented, unescape_token

log = logging.getLogger(__name__)

WS_TOKEN = "<ws>"

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class TrainConfig:
    dim: int = 100
    window: int = 2
    negatives: int = 5
    epochs: int = 5
    initial_lr: float = 0.025
    subsample_threshold: float = 1e-4  # 0 disables
    subword_ngrams: tuple[int, int] | None = None
    subword_buckets: int = 1 << 21
    min_token_count: int = 1
    seed: int = 1

    def validate(self) -> None:
        if self.window < 1:
            raise DomainError("window must be >= 1")
        if self.negatives < 1:
            raise DomainError("negatives must be >= 1")
        if self.dim < 1 or self.epochs < 1:
            raise DomainError("dim and epochs must be >= 1")
        if not (math.isfinite(self.initial_lr) and self.initial_lr > 0):
            raise DomainError("initial_lr must be finite and positive")
        if not (math.isfinite(self.subsample_threshold) and self.subsample_threshold >= 0):
            raise DomainError("subsample_threshold must be finite and >= 0")
        if self.subword_ngrams is not None:
            lo, hi = self.subword_ngrams
            if not 1 <= lo <= hi:
                raise DomainError("subword_ngrams must satisfy 1 <= min <= max")
            if self.subword_buckets < 1:
                raise DomainError("subword_buckets must be >= 1")
        if self.min_token_count < 1:
            raise DomainError("min_token_count must be >= 1")
        if self.seed < 0:
            raise DomainError("seed must be >= 0")


class EmbedVocab:
    """Dense token index ordered by (count desc, token asc)."""

    __slots__ = ("tokens", "counts", "index")

    def __init__(self, tokens: list[str], counts: Sequence[int]):
        self.tokens = list(tokens)
        self.counts = np.asarray(counts, dtype=np.int64)
        self.index = {t: i for i, t in enumerate(self.tokens)}
        if len(self.index) != len(self.tokens):
            raise DomainError("duplicate token in vocabulary")

    def __len__(self) -> int:
        return len(self.tokens)

    def __contains__(self, token: str) -> bool:
        return token in self.index


def normalize_token(raw: str) -> str:
    """Edge-whitespace trim plus digit substitution; '' maps to <ws>."""
    t = raw.strip()
    if not t:
        return WS_TOKEN
    return substitute_digits(t)


def _sentences(source: str | TextIO | Iterable[list[str]]) -> Iterable[list[str]]:
    if isinstance(source, str) or hasattr(source, "read"):
        return read_segmented(source)  # type: ignore[arg-type]
    return source


def build_vocab(source: str | TextIO | Iterable[list[str]], min_token_count: int = 1) -> EmbedVocab:
    """Count normalized tokens of a segmented corpus and index the keepers."""
    counts = Counter(normalize_token(raw) for sent in _sentences(source) for raw in sent)
    return _vocab_from_counts(counts, min_token_count)


def _vocab_from_counts(counts: Mapping[str, int], min_token_count: int) -> EmbedVocab:
    kept = [(t, c) for t, c in counts.items() if c >= min_token_count]
    kept.sort(key=lambda tc: (-tc[1], tc[0]))
    return EmbedVocab([t for t, _ in kept], [c for _, c in kept])


def subword_hashes(token: str, nmin: int, nmax: int, buckets: int) -> list[int]:
    """FNV-1a bucket ids of the character n-grams of '<token>'.

    Boundary markers are part of the n-grams; repeats keep their
    multiplicity (bag semantics).
    """
    marked = "<" + token + ">"
    out: list[int] = []
    # n-grams over characters, hashed over their UTF-8 bytes
    for n in range(nmin, nmax + 1):
        for i in range(len(marked) - n + 1):
            h = _FNV_OFFSET
            for b in marked[i : i + n].encode("utf-8"):
                h = ((h ^ b) * _FNV_PRIME) & _MASK64
            out.append(h % buckets)
    return out


def subword_rows(vocab: EmbedVocab, ngrams: tuple[int, int], buckets: int) -> list[np.ndarray]:
    """Each token's input rows: its own row i, then V + h for each n-gram bucket h."""
    lo, hi = ngrams
    V = len(vocab)
    return [
        np.asarray([i] + [V + h for h in subword_hashes(t, lo, hi, buckets)], dtype=np.int64)
        for i, t in enumerate(vocab.tokens)
    ]


def negative_draws(counts: np.ndarray, rng: np.random.Generator) -> Iterator[int]:
    """Endless token indices drawn with probability proportional to count^0.75."""
    w = np.asarray(counts, dtype=np.float64) ** 0.75
    if w.sum() <= 0:
        raise DomainError("negative sampler needs positive counts")
    cum = np.cumsum(w)

    def draws() -> Iterator[int]:
        while True:
            yield from np.searchsorted(cum, rng.random(8192) * cum[-1], side="right").tolist()

    return draws()


@dataclass
class EmbeddingMatrix:
    """input rows: vocab then subword buckets; output rows: vocab only.

    rows[i] lists the input rows whose mean is token i's vector (subword_rows);
    rows is None without subwords, when that vector is input row i.
    """

    input: np.ndarray
    output: np.ndarray
    vocab: EmbedVocab
    rows: list[np.ndarray] | None = None

    def vector(self, token: str) -> np.ndarray | None:
        i = self.vocab.index.get(token)
        if i is None:
            return None
        if self.rows is None:
            return self.input[i].copy()
        return self.input[self.rows[i]].mean(axis=0)

    def to_vectors(self) -> "VectorSet":
        if self.rows is None:
            m = self.input[: len(self.vocab)].copy()
        else:
            m = np.array([self.input[rows].mean(axis=0) for rows in self.rows])
        return VectorSet(list(self.vocab.tokens), m)


class VectorSet:
    """Plain token -> vector table; what export/import and eval work on."""

    __slots__ = ("tokens", "matrix", "index")

    def __init__(self, tokens: list[str], matrix: np.ndarray):
        if len(tokens) != matrix.shape[0]:
            raise DomainError("token count does not match matrix rows")
        self.tokens = tokens
        self.matrix = matrix
        self.index = {t: i for i, t in enumerate(tokens)}
        if len(self.index) != len(tokens):
            raise DomainError("duplicate token in vector set")

    def __len__(self) -> int:
        return len(self.tokens)

    def vector(self, token: str) -> np.ndarray | None:
        i = self.index.get(token)
        return None if i is None else self.matrix[i]


def _pair_terms(
    u: np.ndarray, v_pos: np.ndarray, v_negs: np.ndarray
) -> tuple[float, float, np.ndarray, np.ndarray]:
    """One SGNS pair at fixed parameters: (loss, g_pos, g_negs, gu).

    g_pos and g_negs are the loss derivatives w.r.t. the scores u.v_pos and
    u.v_neg; gu is the gradient w.r.t. u. Training and pair_loss /
    pair_gradients all go through here.
    """
    s = float(u @ v_pos)
    g_pos = _sigmoid(s) - 1.0
    gu = g_pos * v_pos
    loss = float(np.logaddexp(0.0, -s))
    if len(v_negs):
        sn = v_negs @ u
        g_negs = _sigmoid(sn)
        gu = gu + g_negs @ v_negs
        loss += float(np.logaddexp(0.0, sn).sum())
    else:
        g_negs = np.zeros(0)
    return loss, g_pos, g_negs, gu


def pair_loss(u: np.ndarray, v_pos: np.ndarray, v_negs: np.ndarray) -> float:
    """-log sigmoid(u.v_pos) - sum log sigmoid(-u.v_neg); numerically stable."""
    return _pair_terms(u, v_pos, np.asarray(v_negs))[0]


def pair_gradients(
    u: np.ndarray, v_pos: np.ndarray, v_negs: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Analytic gradients of pair_loss w.r.t. (u, v_pos, each v_neg)."""
    _, g_pos, g_negs, gu = _pair_terms(u, v_pos, np.asarray(v_negs))
    return gu, g_pos * u, np.outer(g_negs, u)


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-np.clip(x, -60.0, 60.0)))


def train_skipgram(
    corpus: str | TextIO | Iterable[list[str]],
    config: TrainConfig = TrainConfig(),
    pair_log: list | None = None,
) -> EmbeddingMatrix:
    """Train embeddings; deterministic for a given (corpus, config).

    corpus is a segmented file (path or handle) or an iterable of token
    lists; each token is normalized once and the vocabulary is counted from
    those. Tokens below min_token_count are dropped from sentences before
    windowing; so are tokens removed by subsampling. With subwords, each
    token's input rows are hashed once (subword_rows). All negatives come
    from one negative_draws stream. pair_log, if given, collects every
    (center, context) token pair actually trained on.
    DomainError when an epoch's loss is not finite or when the whole run
    trains no pair, which would leave the vectors untrained.
    """
    config.validate()
    sents_raw: list[list[str]] = [
        [normalize_token(t) for t in sent] for sent in _sentences(corpus) if sent
    ]
    vocab = _vocab_from_counts(Counter(chain.from_iterable(sents_raw)), config.min_token_count)
    V = len(vocab)
    if V == 0:
        raise DomainError("empty vocabulary")

    # every kept token occurs in the corpus, so train_words > 0
    train_words = int(vocab.counts.sum())
    index = vocab.index
    sentences: list[np.ndarray] = []
    for sent in sents_raw:
        ids = [index[t] for t in sent if t in index]
        if ids:
            sentences.append(np.asarray(ids, dtype=np.int64))
    del sents_raw

    ss = np.random.SeedSequence(config.seed)
    init_ss, neg_ss = ss.spawn(2)
    rng = np.random.Generator(np.random.PCG64(init_ss))
    draw = negative_draws(vocab.counts, np.random.Generator(np.random.PCG64(neg_ss))).__next__

    ngrams = config.subword_ngrams
    B = config.subword_buckets if ngrams is not None else 0
    rows = None if ngrams is None else subword_rows(vocab, ngrams, B)
    dim = config.dim
    inp = (rng.random((V + B, dim)) - 0.5) / dim
    out = np.zeros((V, dim), dtype=np.float64)
    # training updates inp and out in place
    matrix = EmbeddingMatrix(inp, out, vocab, rows)

    keep_prob: np.ndarray | None = None
    t = config.subsample_threshold
    if t > 0:
        f = vocab.counts / train_words
        ratio = t / f
        keep_prob = np.minimum(1.0, np.sqrt(ratio) + ratio)

    window = config.window
    negatives = config.negatives
    lr0 = config.initial_lr
    lr_floor = lr0 * 1e-4
    denom = config.epochs * train_words + 1
    tokens = vocab.tokens
    processed = 0
    total_pairs = 0
    alpha = lr0

    for epoch in range(config.epochs):
        ep_loss = 0.0
        ep_pairs = 0
        for sent in sentences:
            processed += len(sent)
            alpha = lr0 * (1.0 - processed / denom)
            if alpha < lr_floor:
                alpha = lr_floor
            if keep_prob is not None:
                s = sent[keep_prob[sent] > rng.random(len(sent))]
            else:
                s = sent
            L = len(s)
            for i in range(L):
                c = int(s[i])
                lo_j = i - window if i >= window else 0
                hi_j = i + window + 1
                if hi_j > L:
                    hi_j = L
                if rows is not None:
                    crows = rows[c]
                    h = inp[crows].mean(axis=0)
                else:
                    h = inp[c]
                for j in range(lo_j, hi_j):
                    if j == i:
                        continue
                    ctx = int(s[j])
                    if pair_log is not None:
                        pair_log.append((tokens[c], tokens[ctx]))
                    negs = []
                    for _ in range(negatives):
                        cand = draw()
                        tries = 0
                        while cand == ctx and tries < 100:
                            cand = draw()
                            tries += 1
                        if cand != ctx:
                            negs.append(cand)
                    vpos = out[ctx]
                    loss, gpos, gn, gu = _pair_terms(h, vpos, out[negs])
                    ep_loss += loss
                    if negs:
                        np.add.at(out, negs, np.outer(-alpha * gn, h))
                    out[ctx] = vpos - alpha * gpos * h
                    if rows is not None:
                        # repeated n-gram rows must accumulate their share
                        np.subtract.at(inp, crows, (alpha / len(crows)) * gu)
                    else:
                        inp[c] = h - alpha * gu
                    ep_pairs += 1
        summary = f"mean pair loss {ep_loss / ep_pairs:.6f}" if ep_pairs else "0 pairs"
        log.info("epoch %d/%d lr %.6f %s", epoch + 1, config.epochs, alpha, summary)
        if not math.isfinite(ep_loss):
            raise DomainError(f"epoch {epoch + 1} loss is not finite; lower the learning rate")
        total_pairs += ep_pairs
    if not total_pairs:
        raise DomainError(
            "no (center, context) pairs were trained: no segment kept two tokens "
            "after subsampling; lower --subsample or use longer segments"
        )
    return matrix


# -- vector files --------------------------------------------------------------


def export_vectors(m: EmbeddingMatrix | VectorSet, path: str) -> None:
    """Text format: header '<count> <dim>', then token + 9-significant-digit
    components per line; token escaped as in the segmented format."""
    vs = m.to_vectors() if isinstance(m, EmbeddingMatrix) else m
    if not np.isfinite(vs.matrix).all():
        raise DomainError("vectors have non-finite components; nothing written")
    rows = (
        escape_token(tok) + " " + " ".join("%.9g" % x for x in row)
        for tok, row in zip(vs.tokens, vs.matrix)
    )
    write_lines(path, chain([f"{len(vs.tokens)} {vs.matrix.shape[1]}"], rows))


def import_vectors(path: str) -> VectorSet:
    """Read an export_vectors file; only blank lines may follow the declared
    rows. A parse error raises VectorFileError naming its 1-based line; bad
    bytes raise CorpusDecodeError."""
    lines = read_lines(path)
    lineno, header = next(lines, (1, ""))
    parts = header.split()
    if len(parts) != 2:
        raise VectorFileError(lineno, "header must be '<count> <dim>'")
    try:
        count, dim = int(parts[0]), int(parts[1])
    except ValueError:
        raise VectorFileError(lineno, "non-integer header") from None
    if count < 0 or dim < 1:
        raise VectorFileError(lineno, "invalid header values")
    tokens: list[str] = []
    # rows grow as they are read: the header alone must not size an allocation
    rows: list[list[float]] = []
    seen: set[str] = set()
    for lineno, line in islice(lines, count):
        cols = line.split(" ")
        if len(cols) != dim + 1:
            raise VectorFileError(lineno, f"expected {dim + 1} fields, got {len(cols)}")
        try:
            tok = unescape_token(cols[0])
        except ValueError as exc:
            raise VectorFileError(lineno, str(exc)) from None
        if tok in seen:
            raise VectorFileError(lineno, f"duplicate token {tok!r}")
        seen.add(tok)
        tokens.append(tok)
        try:
            row = list(map(float, cols[1:]))
        except ValueError:
            raise VectorFileError(lineno, "malformed float") from None
        if not all(map(math.isfinite, row)):
            raise VectorFileError(lineno, "non-finite component")
        rows.append(row)
    if len(rows) < count:
        raise VectorFileError(lineno + 1, "truncated file")
    for lineno, line in lines:
        if line.strip():
            raise VectorFileError(lineno, "trailing content after declared rows")
    try:
        matrix = np.array(rows, dtype=np.float64).reshape(count, dim)
    except ValueError:  # only an empty file can declare a dim numpy cannot shape
        raise VectorFileError(1, "invalid header values") from None
    return VectorSet(tokens, matrix)
