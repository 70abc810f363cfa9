"""Skipgram-with-negative-sampling embeddings over segmented tokens.

Desk-scale, single-threaded, deterministic under a fixed seed. Tokens are
the expansions from a segmented corpus, trimmed of edge whitespace and with
digits replaced by 'N'; an all-whitespace token becomes the reserved
"<ws>". Windows never cross segment boundaries because segments arrive as
separate sentences.

Training is SGNS (Mikolov et al. 2013) in sub-batches. The kept tokens
are walked in short blocks of whole sentences (_BLOCK), and each window
offset of a block is one sub-batch: one fused step (_pair_step) over every
pair's stacked output rows [context, negatives...], all read at the
sub-batch's start, then one scatter of the steps in which repeated rows
add up. Each center position occurs once per sub-batch, so a token's
input rows take one stale step per occurrence in the block, not one per
context (Hogwild, Recht et al. 2011: SGD with stale reads converges when
the updates in flight rarely share rows). A negative equal to its pair's
context is skipped, as in word2vec.c. pair_loss and pair_gradients run
the same step on a batch of one, so the finite-difference check covers it.
"""

from __future__ import annotations

import logging
import math
import os
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from itertools import chain, islice
from numbers import Real
from typing import Iterable, Iterator, Sequence, TextIO, Union

import numpy as np

from .corpus import read_lines, substitute_digits, write_lines
from .errors import DomainError, ParameterError, VectorFileError, require_int
from .grammar import escape_token, read_segmented, unescape_token

log = logging.getLogger(__name__)

WS_TOKEN = "<ws>"

# a segmented file (path or text handle) or its sentences as token lists
Corpus = Union[str, os.PathLike, TextIO, Iterable[list[str]]]


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


class _Normalized(dict):
    """raw token -> normalize_token(raw), computed on the first lookup."""

    def __missing__(self, raw: str) -> str:
        tok = self[raw] = normalize_token(raw)
        return tok


def _normalized_sentences(source: Corpus) -> list[list[str]]:
    """The non-empty sentences of source, each token normalized; every
    distinct raw token is normalized once."""
    if isinstance(source, (str, os.PathLike)) or hasattr(source, "read"):
        source = read_segmented(source)  # type: ignore[arg-type]
    norm = _Normalized().__getitem__
    return [list(map(norm, sent)) for sent in source if sent]


def build_vocab(source: Corpus, min_token_count: int = 1) -> EmbedVocab:
    """Count normalized tokens of a segmented corpus and index the keepers."""
    return _vocab(_normalized_sentences(source), min_token_count)


def _vocab(sentences: list[list[str]], min_token_count: int) -> EmbedVocab:
    counts = Counter(chain.from_iterable(sentences))
    kept = [(t, c) for t, c in counts.items() if c >= min_token_count]
    kept.sort(key=lambda tc: (-tc[1], tc[0]))
    return EmbedVocab([t for t, _ in kept], [c for _, c in kept])


def subword_rows(vocab: EmbedVocab, ngrams: tuple[int, int]) -> tuple[list[np.ndarray], int]:
    """(rows, size): each token's input rows, and the input table's row count.

    Token i's rows are its own row i, then one row per character n-gram of
    '<token>' (boundary markers included), by n ascending, then position.
    Each distinct n-gram has its own row, numbered V, V+1, ... in order of
    first use over the vocabulary; a repeated n-gram repeats its row
    (bag semantics). size is V plus the number of distinct n-grams.
    """
    lo, hi = ngrams
    V = len(vocab)
    row: dict[str, int] = {}  # n-gram -> its input row
    rows = []
    for i, t in enumerate(vocab.tokens):
        w = "<" + t + ">"
        grams = [w[p : p + n] for n in range(lo, hi + 1) for p in range(len(w) - n + 1)]
        rows.append(np.array([i] + [row.setdefault(g, V + len(row)) for g in grams]))
    return rows, V + len(row)


def negative_draws(counts: np.ndarray, rng: np.random.Generator) -> "NegativeDraws":
    """Endless token indices drawn with probability proportional to count^0.75."""
    w = np.asarray(counts, dtype=np.float64) ** 0.75
    if w.sum() <= 0:
        raise DomainError("negative sampler needs positive counts")
    return NegativeDraws(np.cumsum(w), rng)


class NegativeDraws:
    """The negative-sample stream: blocks of 8192 uniforms, each mapped
    through the cumulative weights by searchsorted.

    next() takes one draw and take(n) the next n. Both read the same
    stream, so mixing them never skips or repeats a draw.
    """

    __slots__ = ("_cum", "_rng", "_block", "_pos")

    def __init__(self, cum: np.ndarray, rng: np.random.Generator):
        self._cum = cum
        self._rng = rng
        self._block = np.empty(0, dtype=np.intp)
        self._pos = 0

    def _refill(self) -> None:
        """Append the next block to the draws not yet taken."""
        cum = self._cum
        fresh = np.searchsorted(cum, self._rng.random(8192) * cum[-1], side="right")
        self._block = np.concatenate([self._block[self._pos :], fresh])
        self._pos = 0

    def __iter__(self) -> "NegativeDraws":
        return self

    def __next__(self) -> int:
        if self._pos == len(self._block):
            self._refill()
        self._pos += 1
        return int(self._block[self._pos - 1])

    def take(self, n: int) -> np.ndarray:
        """The next n draws."""
        while self._pos + n > len(self._block):
            self._refill()
        p = self._pos
        self._pos = p + n
        return self._block[p : p + n]


@dataclass
class EmbeddingMatrix:
    """input rows: vocab, then one per distinct subword n-gram; output rows:
    vocab only.

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
    h: np.ndarray, W: np.ndarray, skip: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """P SGNS pairs at fixed parameters: (signed scores, g, gu).

    h is (P, dim), one hidden vector per pair; W is (P, K, dim), each pair's
    context output row stacked over its negatives' rows. g (P, K) holds the
    loss derivatives w.r.t. the scores W @ h, and gu (P, dim) the gradients
    w.r.t. h; a pair's loss is logaddexp(0, signed scores).sum(), where the
    positive score enters negated. skip (P, K), if given, marks rows that do
    not count: their g is 0 and their signed score -inf, so they add nothing
    to a loss or a gradient. Training and pair_loss / pair_gradients all go
    through here.
    """
    scores = np.matmul(W, h[:, :, None])[:, :, 0]
    # g = 1 / (1 + exp(-scores)); for very negative scores exp overflows to
    # inf, which gives the exact sigmoid limit 0; callers run under
    # np.errstate(over="ignore")
    g = np.negative(scores)
    np.exp(g, out=g)
    np.add(g, 1.0, out=g)
    np.divide(1.0, g, out=g)
    g[:, 0] -= 1.0
    scores[:, 0] *= -1.0
    if skip is not None:
        g[skip] = 0.0
        scores[skip] = -np.inf
    gu = np.matmul(g[:, None, :], W)[:, 0, :]
    return scores, g, gu


def _stacked(v_pos: np.ndarray, v_negs: np.ndarray) -> np.ndarray:
    """One pair's W: v_pos over the rows of v_negs, as a batch of one."""
    return np.vstack([v_pos, np.reshape(v_negs, (-1, len(v_pos)))])[None]


@np.errstate(over="ignore")
def pair_loss(u: np.ndarray, v_pos: np.ndarray, v_negs: np.ndarray) -> float:
    """-log sigmoid(u.v_pos) - sum log sigmoid(-u.v_neg); numerically stable."""
    return float(np.logaddexp(0.0, _pair_step(u[None], _stacked(v_pos, v_negs))[0]).sum())


@np.errstate(over="ignore")
def pair_gradients(
    u: np.ndarray, v_pos: np.ndarray, v_negs: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Analytic gradients of pair_loss w.r.t. (u, v_pos, each v_neg)."""
    _, g, gu = _pair_step(u[None], _stacked(v_pos, v_negs))
    return gu[0], g[0, 0] * u, np.outer(g[0, 1:], u)


# Training walks the kept tokens in blocks: a block of whole sentences closes
# once it holds at least _BLOCK tokens, and a sentence that would take it to
# 2 * _BLOCK is cut there. Each window offset of a block is one sub-batch,
# trained against the rows as they stood at its start. Larger blocks are
# faster but pile more stale steps on a frequent token's rows: on the
# benchmark's embed workload (seeds 1-10, against one-pair-at-a-time
# training with the same streams) held-out loss rose by at most 0.44% at
# 16, 0.62% at 32 and 0.77% at 64.
_BLOCK = 16


def _blocks(sid: np.ndarray) -> Iterator[tuple[int, int]]:
    """(start, stop) of each block over kept tokens whose sentence numbers,
    in order, are sid."""
    n = len(sid)
    ends = (np.flatnonzero(sid[1:] != sid[:-1]) + 1).tolist()
    ends.append(n)
    b0 = 0
    while b0 < n:
        if b0 + _BLOCK >= n:
            b1 = n
        else:
            b1 = min(ends[bisect_left(ends, b0 + _BLOCK)], b0 + 2 * _BLOCK)
        yield b0, b1
        b0 = b1


@np.errstate(over="ignore")
def train_skipgram(
    corpus: Corpus,
    config: TrainConfig = TrainConfig(),
    pair_log: list | None = None,
) -> EmbeddingMatrix:
    """Train embeddings; deterministic for a given (corpus, config).

    corpus is a segmented file (path or handle) or an iterable of token
    lists; each distinct token is normalized once and the vocabulary is
    counted from those. Tokens below min_token_count are dropped from
    sentences before windowing; so are tokens removed by subsampling, whose
    uniforms come from their own stream. With subwords, each token's input
    rows are listed once (subword_rows), and the input table has one row per
    token and per distinct n-gram.

    The kept tokens are walked in blocks of whole sentences (_BLOCK), and
    each window offset d is one sub-batch: every pair (i, i + d) whose
    center i is in the block and whose context is in the same sentence. A
    sub-batch is one _pair_step over rows read at its start, and each
    center position occurs in it once; its negatives are the next
    P * negatives draws of one negative_draws stream, and a negative equal
    to its pair's context is skipped, as word2vec.c does. Repeated rows
    accumulate their steps (np.subtract.at). With subwords a center's
    hidden vector is the mean of its rows and each row takes an equal share
    of its gradient. The learning rate decays linearly per block. pair_log,
    if given, collects every (center, context) token pair trained on.
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
    kept = [ids for ids in ([index[t] for t in sent if t in index] for sent in sents_raw) if ids]
    del sents_raw
    lens = list(map(len, kept))
    # the corpus as one array of token ids, each with its sentence number
    flat = np.fromiter(chain.from_iterable(kept), dtype=np.intp, count=sum(lens))
    del kept
    sent_of = np.repeat(np.arange(len(lens)), lens)
    # tokens processed by the end of each sentence, for the rate schedule
    done = np.cumsum(lens)

    ss = np.random.SeedSequence(config.seed)
    init_ss, neg_ss, sub_ss = ss.spawn(3)
    rng = np.random.Generator(np.random.PCG64(init_ss))
    sub_rng = np.random.Generator(np.random.PCG64(sub_ss))
    take = negative_draws(vocab.counts, np.random.Generator(np.random.PCG64(neg_ss))).take

    ngrams = config.subword_ngrams
    rows, size = (None, V) if ngrams is None else subword_rows(vocab, ngrams)
    dim = config.dim
    inp = (rng.random((size, dim)) - 0.5) / dim
    out = np.zeros((V, dim), dtype=np.float64)
    # training updates inp and out in place
    matrix = EmbeddingMatrix(inp, out, vocab, rows)
    # ufunc.at is fastest on a 1-D array: output steps go through out's flat view
    out_flat = out.reshape(-1)
    cols = np.arange(dim)
    if rows is not None:
        # token i's rows are row_flat[row_start[i] : row_start[i] + row_len[i]]
        row_len = np.array(list(map(len, rows)))
        row_start = np.cumsum(row_len) - row_len
        row_flat = np.concatenate(rows)

    keep_prob: np.ndarray | None = None
    t = config.subsample_threshold
    if t > 0:
        f = vocab.counts / train_words
        ratio = t / f
        keep_prob = np.minimum(1.0, np.sqrt(ratio) + ratio)

    window = config.window
    offsets = [d for d in range(-window, window + 1) if d]
    negatives = config.negatives
    full = 1 + negatives
    lr0 = config.initial_lr
    lr_floor = lr0 * 1e-4
    denom = config.epochs * train_words + 1
    tokens = vocab.tokens
    total_pairs = 0
    alpha = lr0

    for epoch in range(config.epochs):
        if keep_prob is None:
            toks, sid = flat, sent_of
        else:
            keep = keep_prob[flat] > sub_rng.random(len(flat))
            toks, sid = flat[keep], sent_of[keep]
        n = len(toks)
        ep_loss = 0.0
        ep_pairs = 0
        for b0, b1 in _blocks(sid):
            alpha = lr0 * (1.0 - (epoch * train_words + int(done[sid[b1 - 1]])) / denom)
            if alpha < lr_floor:
                alpha = lr_floor
            signed = []  # each sub-batch's signed scores; the loss is taken once per block
            for d in offsets:
                lo = max(b0, -d)
                hi = min(b1, n - d)
                if lo >= hi:
                    continue
                same = sid[lo:hi] == sid[lo + d : hi + d]
                c = toks[lo:hi][same]
                P = len(c)
                if not P:
                    continue
                idx = np.empty((P, full), dtype=np.intp)
                idx[:, 0] = x = toks[lo + d : hi + d][same]
                idx[:, 1:] = take(P * negatives).reshape(P, negatives)
                skip = idx == x[:, None]
                skip[:, 0] = False
                if pair_log is not None:
                    pair_log.extend((tokens[i], tokens[j]) for i, j in zip(c.tolist(), x.tolist()))
                if rows is None:
                    crows = c
                    h = inp[c]
                else:
                    clen = row_len[c]
                    first = np.cumsum(clen) - clen
                    pos = np.repeat(row_start[c] - first, clen) + np.arange(int(clen.sum()))
                    crows = row_flat[pos]
                    h = np.add.reduceat(inp[crows], first) / clen[:, None]
                W = out[idx]
                sc, g, gu = _pair_step(h, W, skip)
                signed.append(sc)
                np.multiply(g, alpha, out=g)
                # repeated rows (a negative drawn twice, a center or n-gram
                # twice) must accumulate their steps
                step = g[:, :, None] * h[:, None, :]
                np.subtract.at(out_flat, (idx[:, :, None] * dim + cols).ravel(), step.ravel())
                if rows is None:
                    np.multiply(gu, alpha, out=gu)
                else:
                    gu = np.repeat(gu * (alpha / clen)[:, None], clen, axis=0)
                np.subtract.at(inp, crows, gu)
                ep_pairs += P
            if signed:
                ep_loss += float(np.logaddexp(0.0, np.concatenate(signed, axis=None)).sum())
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
    components per line; token escaped as in the segmented format. A token
    with a newline, or a non-finite component, raises DomainError before
    path is opened."""
    vs = m.to_vectors() if isinstance(m, EmbeddingMatrix) else m
    if any("\n" in tok for tok in vs.tokens):
        raise DomainError("a token contains a newline; it cannot be written one per line")
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
    rows. A parse error, or a row whose sum of squared components overflows
    (its norm would too), raises VectorFileError naming its 1-based line;
    bad bytes raise CorpusDecodeError."""
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
    # unit_rows would turn such a row into zeros (every cosine 0), not a unit row
    with np.errstate(over="ignore"):
        overflows = ~np.isfinite((matrix * matrix).sum(axis=1))
    if overflows.any():  # row i is on line i + 2
        raise VectorFileError(int(overflows.argmax()) + 2, "squared norm overflows")
    return VectorSet(tokens, matrix)
