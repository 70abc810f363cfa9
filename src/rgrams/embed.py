"""Skipgram-with-negative-sampling embeddings over segmented tokens.

Desk-scale, single-threaded, deterministic under a fixed seed. Tokens are
the expansions from a segmented corpus, trimmed of edge whitespace and with
digits replaced by 'N'; an all-whitespace token becomes the reserved
"<ws>". Windows never cross segment boundaries because segments arrive as
separate sentences.

Training is per-pair SGNS (Mikolov et al. 2013): each (center, context)
pair is one fused step (_pair_step) over its stacked output rows
[context, negatives...] at the pre-update parameters. pair_loss and
pair_gradients wrap that step, so the finite-difference check covers it.
A pair's row indices, score derivatives and output-row step live in
buffers allocated once per training call, and its negatives come from the
draw stream as one list slice when none equals the context.
"""

from __future__ import annotations

import logging
import math
from collections import Counter
from dataclasses import dataclass
from itertools import chain, islice
from numbers import Real
from typing import Iterable, Sequence, TextIO

import numpy as np

from .corpus import read_lines, substitute_digits, write_lines
from .errors import DomainError, ParameterError, VectorFileError, require_int
from .grammar import escape_token, read_segmented, unescape_token

log = logging.getLogger(__name__)

WS_TOKEN = "<ws>"

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1


def _finite(value: object) -> bool:
    """A finite real number; a bool is not one."""
    return isinstance(value, Real) and not isinstance(value, bool) and math.isfinite(value)


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
        for name in ("dim", "window", "negatives", "epochs", "min_token_count"):
            require_int(name, getattr(self, name), 1)
        require_int("seed", self.seed, 0)
        if not (_finite(self.initial_lr) and self.initial_lr > 0):
            raise ParameterError("initial_lr must be finite and positive")
        if not (_finite(self.subsample_threshold) and self.subsample_threshold >= 0):
            raise ParameterError("subsample_threshold must be finite and >= 0")
        if self.subword_ngrams is not None:
            if not (isinstance(self.subword_ngrams, tuple) and len(self.subword_ngrams) == 2):
                raise ParameterError(
                    f"subword_ngrams must be a (min, max) pair, not {self.subword_ngrams!r}"
                )
            lo, hi = self.subword_ngrams
            require_int("subword_ngrams min", lo, 1)
            require_int("subword_ngrams max", hi, lo)
            require_int("subword_buckets", self.subword_buckets, 1)


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


class _Normalized(dict):
    """raw token -> normalize_token(raw), computed on the first lookup."""

    def __missing__(self, raw: str) -> str:
        tok = self[raw] = normalize_token(raw)
        return tok


def _normalized_sentences(source: str | TextIO | Iterable[list[str]]) -> list[list[str]]:
    """The non-empty sentences of source, each token normalized; every
    distinct raw token is normalized once."""
    norm = _Normalized().__getitem__
    return [list(map(norm, sent)) for sent in _sentences(source) if sent]


def build_vocab(source: str | TextIO | Iterable[list[str]], min_token_count: int = 1) -> EmbedVocab:
    """Count normalized tokens of a segmented corpus and index the keepers."""
    return _vocab(_normalized_sentences(source), min_token_count)


def _vocab(sentences: list[list[str]], min_token_count: int) -> EmbedVocab:
    counts = Counter(chain.from_iterable(sentences))
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


def negative_draws(counts: np.ndarray, rng: np.random.Generator) -> "NegativeDraws":
    """Endless token indices drawn with probability proportional to count^0.75."""
    w = np.asarray(counts, dtype=np.float64) ** 0.75
    if w.sum() <= 0:
        raise DomainError("negative sampler needs positive counts")
    return NegativeDraws(np.cumsum(w), rng)


class NegativeDraws:
    """The negative-sample stream: blocks of 8192 uniforms, each mapped
    through the cumulative weights by searchsorted.

    next() takes one draw; take() takes a pair's negatives. Both read the
    same stream, so mixing them never skips or repeats a draw.
    """

    __slots__ = ("_cum", "_rng", "_block", "_pos")

    def __init__(self, cum: np.ndarray, rng: np.random.Generator):
        self._cum = cum
        self._rng = rng
        self._block: list[int] = []
        self._pos = 0

    def _refill(self) -> None:
        """Append the next block to the draws not yet taken."""
        cum = self._cum
        fresh = np.searchsorted(cum, self._rng.random(8192) * cum[-1], side="right").tolist()
        self._block = self._block[self._pos :] + fresh
        self._pos = 0

    def __iter__(self) -> "NegativeDraws":
        return self

    def __next__(self) -> int:
        if self._pos == len(self._block):
            self._refill()
        self._pos += 1
        return self._block[self._pos - 1]

    def take(self, n: int, avoid: int) -> list[int]:
        """The next n negatives for context avoid, as n next() calls under the
        rejection rule would give them: a draw equal to avoid is redrawn up
        to 100 times, then dropped, so fewer than n may come back."""
        while self._pos + n > len(self._block):
            self._refill()
        p = self._pos
        draws = self._block[p : p + n]
        if avoid not in draws:
            self._pos = p + n
            return draws
        negs = []
        for _ in range(n):
            cand = next(self)
            tries = 0
            while cand == avoid and tries < 100:
                cand = next(self)
                tries += 1
            if cand != avoid:
                negs.append(cand)
        return negs


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
    """Plain token -> vector table; what export/import and eval work on.

    Treat it as immutable: unit_rows() keeps what it derives from matrix.
    """

    __slots__ = ("tokens", "matrix", "index", "_unit")

    def __init__(self, tokens: list[str], matrix: np.ndarray):
        if len(tokens) != matrix.shape[0]:
            raise DomainError("token count does not match matrix rows")
        self.tokens = tokens
        self.matrix = matrix
        self.index = {t: i for i, t in enumerate(tokens)}
        if len(self.index) != len(tokens):
            raise DomainError("duplicate token in vector set")
        self._unit: tuple[np.ndarray, np.ndarray] | None = None

    def __len__(self) -> int:
        return len(self.tokens)

    def vector(self, token: str) -> np.ndarray | None:
        i = self.index.get(token)
        return None if i is None else self.matrix[i]

    def unit_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """(unit, ok): matrix with each row scaled to unit length, and the
        mask of rows with nonzero norm (the rest stay zero in unit).
        Computed on first use and kept."""
        if self._unit is None:
            norms = np.linalg.norm(self.matrix, axis=1)
            ok = norms > 0
            self._unit = self.matrix / np.where(ok, norms, 1.0)[:, None], ok
        return self._unit


def _pair_step(
    h: np.ndarray, W: np.ndarray, g: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One SGNS pair at fixed parameters: (signed scores, g, gu).

    W stacks the context's output row over the negatives' rows. g holds the
    loss derivatives w.r.t. the scores W @ h, and gu the gradient w.r.t. h;
    the pair loss is logaddexp(0, signed scores).sum(), where the positive
    score enters negated. Training and pair_loss / pair_gradients all go
    through here. A given g (len(W) floats) is filled in place.
    """
    scores = np.dot(W, h)
    if g is None:
        g = np.empty_like(scores)
    # g = 1 / (1 + exp(-scores)); for very negative scores exp overflows to
    # inf, which gives the exact sigmoid limit 0; callers run under
    # np.errstate(over="ignore")
    np.negative(scores, out=g)
    np.exp(g, out=g)
    np.add(g, 1.0, out=g)
    np.divide(1.0, g, out=g)
    g[0] -= 1.0
    gu = np.dot(g, W)
    scores[0] = -scores[0]
    return scores, g, gu


def _stacked(v_pos: np.ndarray, v_negs: np.ndarray) -> np.ndarray:
    return np.vstack([v_pos, np.reshape(v_negs, (-1, len(v_pos)))])


@np.errstate(over="ignore")
def pair_loss(u: np.ndarray, v_pos: np.ndarray, v_negs: np.ndarray) -> float:
    """-log sigmoid(u.v_pos) - sum log sigmoid(-u.v_neg); numerically stable."""
    return float(np.logaddexp(0.0, _pair_step(u, _stacked(v_pos, v_negs))[0]).sum())


@np.errstate(over="ignore")
def pair_gradients(
    u: np.ndarray, v_pos: np.ndarray, v_negs: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Analytic gradients of pair_loss w.r.t. (u, v_pos, each v_neg)."""
    _, g, gu = _pair_step(u, _stacked(v_pos, v_negs))
    return gu, g[0] * u, np.outer(g[1:], u)


@np.errstate(over="ignore")
def train_skipgram(
    corpus: str | TextIO | Iterable[list[str]],
    config: TrainConfig = TrainConfig(),
    pair_log: list | None = None,
) -> EmbeddingMatrix:
    """Train embeddings; deterministic for a given (corpus, config).

    corpus is a segmented file (path or handle) or an iterable of token
    lists; each distinct token is normalized once and the vocabulary is
    counted from those. Tokens below min_token_count are dropped from
    sentences before windowing; so are tokens removed by subsampling. With
    subwords, each token's input rows are hashed once (subword_rows). All
    negatives come from one negative_draws stream. Each pair is one
    _pair_step, taken at a hidden vector recomputed per pair with subwords
    (as fastText does), and works in buffers allocated once per call; the
    logged loss takes one logaddexp per sentence over the pairs' signed
    scores. pair_log, if given, collects every (center, context) token pair
    actually trained on.
    DomainError when an epoch's loss is not finite or when the whole run
    trains no pair, which would leave the vectors untrained.
    """
    config.validate()
    sents_raw = _normalized_sentences(corpus)
    vocab = _vocab(sents_raw, config.min_token_count)
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
    take = negative_draws(vocab.counts, np.random.Generator(np.random.PCG64(neg_ss))).take

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
    # one pair's output rows [context, negatives...], its score derivatives
    # and its output-row step; sliced only when a negative was dropped
    full = 1 + negatives
    idx_buf = np.empty(full, dtype=np.intp)
    g_buf = np.empty(full)
    step_buf = np.empty((full, dim))

    for epoch in range(config.epochs):
        ep_loss = 0.0
        ep_pairs = 0
        for sent in sentences:
            processed += len(sent)
            alpha = lr0 * (1.0 - processed / denom)
            if alpha < lr_floor:
                alpha = lr_floor
            if keep_prob is not None:
                sent = sent[keep_prob[sent] > rng.random(len(sent))]
            s = sent.tolist()
            L = len(s)
            signed = []  # each pair's signed scores; the loss is taken once per sentence
            for i, c in enumerate(s):
                lo_j = i - window if i >= window else 0
                hi_j = min(i + window + 1, L)
                crows = None if rows is None else rows[c]
                h = inp[c]  # a view: the in-place center update below writes inp[c]
                for j in range(lo_j, hi_j):
                    if j == i:
                        continue
                    ctx = s[j]
                    if pair_log is not None:
                        pair_log.append((tokens[c], tokens[ctx]))
                    negs = take(negatives, ctx)
                    k = 1 + len(negs)
                    if k == full:
                        idx, g, step = idx_buf, g_buf, step_buf
                    else:
                        idx, g, step = idx_buf[:k], g_buf[:k], step_buf[:k]
                    idx[0] = ctx
                    idx[1:] = negs
                    if crows is not None:
                        h = inp[crows].mean(axis=0)
                    W = out.take(idx, axis=0)
                    sc, _, gu = _pair_step(h, W, g)
                    signed.append(sc)
                    np.multiply(g, alpha, out=g)
                    np.multiply(g[:, None], h, out=step)
                    # take() never returns the context, so only a negative can repeat
                    if len(set(negs)) == len(negs):
                        np.subtract(W, step, out=W)
                        out[idx] = W
                    else:  # a repeated negative must accumulate its updates
                        np.subtract.at(out, idx, step)
                    if crows is not None:
                        # repeated n-gram rows must accumulate their share
                        np.subtract.at(inp, crows, (alpha / len(crows)) * gu)
                    else:
                        np.multiply(gu, alpha, out=gu)
                        np.subtract(h, gu, out=h)
            if signed:
                ep_loss += float(np.logaddexp(0.0, np.concatenate(signed)).sum())
                ep_pairs += len(signed)
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
    fmt = "%.9g".__mod__
    rows = (
        escape_token(tok) + " " + " ".join(map(fmt, row))
        for tok, row in zip(vs.tokens, vs.matrix.tolist())
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
