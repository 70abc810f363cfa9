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
the updates in flight rarely share rows). Negatives are drawn in corpus
order, by center and then by window offset, so the pairs' draws depend on
the kept tokens and the window, not on the blocks. A negative equal to its
pair's context is skipped, as in word2vec.c. pair_loss and pair_gradients
run the same step on a batch of one, so the finite-difference check covers
it. What a run of _RUN blocks trains (pairs, negatives, skips, rates) is
planned in a few vectorized calls before its sub-batches run (_plan).

The corpus is a segmented file (path or handle), read straight into one
int array of token codes (_corpus_codes): each distinct line is unescaped
and normalized once, and numpy counts, filters and numbers the rest.
"""

from __future__ import annotations

import logging
import math
import os
import time
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain, islice
from numbers import Real
from typing import Callable, Sequence, TextIO, Union

import numpy as np

from .corpus import read_line_chunks, read_lines, substitute_digits, write_lines
from .errors import (
    CorpusDecodeError,
    DomainError,
    ParameterError,
    SegmentedFileError,
    VectorFileError,
    require_int,
)
from .grammar import escape_token, unescape_token

log = logging.getLogger(__name__)

WS_TOKEN = "<ws>"

# a segmented file: a path or a text handle
Corpus = Union[str, os.PathLike, TextIO]


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


class _TokenCodes(dict):
    """segmented-file line -> code of its unescaped, normalized token,
    computed on the first lookup.

    norms maps each distinct normalized token to its code, numbered in order
    of first appearance.
    """

    def __init__(self):
        super().__init__()
        self.norms: dict[str, int] = {}

    def __missing__(self, raw: str) -> int:
        norms = self.norms
        code = self[raw] = norms.setdefault(normalize_token(unescape_token(raw)), len(norms))
        return code


def _corpus_codes(source: Corpus) -> tuple[np.ndarray, list[str]]:
    """(codes, norms): the segmented file as one int32 array of token codes
    with -1 for each blank line (a sentence end), and the distinct
    normalized tokens by code.

    The file is read a chunk of lines at a time (read_line_chunks), and each
    distinct line is unescaped and normalized once. A bad escape raises
    SegmentedFileError naming its line.
    """
    codes = _TokenCodes()
    codes[""] = -1
    get = codes.__getitem__
    parts = []
    for first, lines in read_line_chunks(source):
        try:
            parts.append(np.fromiter(map(get, lines), dtype=np.int32, count=len(lines)))
        except ValueError as exc:
            # only successes become keys: the bad line is the first that is not one
            k = next(k for k, raw in enumerate(lines) if raw not in codes)
            raise SegmentedFileError(first + k, str(exc)) from None
    flat = np.concatenate(parts) if parts else np.empty(0, dtype=np.int32)
    return flat, list(codes.norms)


def _vocab(
    codes: np.ndarray, norms: list[str], min_token_count: int
) -> tuple[EmbedVocab, np.ndarray]:
    """(vocab, remap): the tokens counted at least min_token_count times, by
    (count desc, token asc), and remap[code] = the token's vocab id, -2 for a
    dropped token; remap[-1] = -1, so remap[codes] keeps sentence ends."""
    counts = np.bincount(codes + 1, minlength=len(norms) + 1)[1:].tolist()
    kept = [i for i, c in enumerate(counts) if c >= min_token_count]
    kept.sort(key=lambda i: (-counts[i], norms[i]))
    remap = np.full(len(norms) + 1, -2, dtype=np.int32)
    remap[kept] = np.arange(len(kept), dtype=np.int32)
    remap[-1] = -1
    return EmbedVocab([norms[i] for i in kept], [counts[i] for i in kept]), remap


def build_vocab(source: Corpus, min_token_count: int = 1) -> EmbedVocab:
    """Count the normalized tokens of a segmented file (path or handle) and
    index those counted at least min_token_count times."""
    return _vocab(*_corpus_codes(source), min_token_count)[0]


def _corpus_ids(source: Corpus, min_token_count: int) -> tuple[EmbedVocab, np.ndarray, np.ndarray]:
    """(vocab, ids, sid): the kept tokens in corpus order as vocab ids
    (intp), and each one's sentence number (int32), counting only the
    sentences that keep a token."""
    codes, norms = _corpus_codes(source)
    vocab, remap = _vocab(codes, norms, min_token_count)
    ids = remap[codes]
    del codes
    sent = np.cumsum(ids == -1, dtype=np.int32)
    keep = ids >= 0
    sid = sent[keep]
    del sent
    ids = ids[keep].astype(np.intp)
    del keep
    if len(sid):
        # renumber: a sentence that lost all its tokens leaves no gap
        new = np.empty(len(sid), dtype=bool)
        new[0] = True
        np.not_equal(sid[1:], sid[:-1], out=new[1:])
        sid = np.cumsum(new, dtype=np.int32)
        sid -= 1
    return vocab, ids, sid


def subword_rows(vocab: EmbedVocab, ngrams: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """(flat, start): token i's input rows are flat[start[i] : start[i + 1]].

    They are its own row i, then one row per character n-gram of '<token>'
    (boundary markers included), by n ascending, then position. Each
    distinct n-gram has its own row, numbered V, V+1, ... in order of first
    use over the vocabulary; a repeated n-gram repeats its row (bag
    semantics). The input table has flat.max() + 1 rows.
    """
    lo, hi = ngrams
    V = len(vocab)
    row: dict[str, int] = {}  # n-gram -> its input row
    flat: list[int] = []
    start = [0]
    for i, t in enumerate(vocab.tokens):
        w = "<" + t + ">"
        grams = [w[p : p + n] for n in range(lo, hi + 1) for p in range(len(w) - n + 1)]
        flat.extend([i] + [row.setdefault(g, V + len(row)) for g in grams])
        start.append(len(flat))
    return np.array(flat, dtype=np.intp), np.array(start, dtype=np.intp)


def negative_draws(counts: np.ndarray, rng: np.random.Generator) -> Callable[[int], np.ndarray]:
    """take(n): the next n token indices, token i drawn with weight
    counts[i] ** 0.75: blocks of 8192 uniforms searchsorted into the cumsum."""
    w = np.asarray(counts, dtype=np.float64) ** 0.75
    if w.sum() <= 0:
        raise DomainError("negative sampler needs positive counts")
    cum = np.cumsum(w)
    block = np.empty(0, dtype=np.intp)  # drawn, and taken up to pos
    pos = 0

    def take(n: int) -> np.ndarray:
        nonlocal block, pos
        while pos + n > len(block):
            fresh = np.searchsorted(cum, rng.random(8192) * cum[-1], side="right")
            block = np.concatenate([block[pos:], fresh])
            pos = 0
        pos += n
        return block[pos - n : pos]

    return take


@dataclass
class EmbeddingMatrix:
    """input rows: vocab, then one per distinct subword n-gram; output rows:
    vocab only.

    token i's vector is the mean of input rows flat[start[i] : start[i + 1]]
    of rows = (flat, start) (subword_rows), or input row i if rows is None.
    """

    input: np.ndarray
    output: np.ndarray
    vocab: EmbedVocab
    rows: tuple[np.ndarray, np.ndarray] | None = None

    def vector(self, token: str) -> np.ndarray | None:
        i = self.vocab.index.get(token)
        if i is None:
            return None
        if self.rows is None:
            return self.input[i].copy()
        flat, start = self.rows
        return self.input[flat[start[i] : start[i + 1]]].mean(axis=0)

    def to_vectors(self) -> "VectorSet":
        if self.rows is None:
            m = self.input[: len(self.vocab)].copy()
        else:
            m = np.array([self.vector(t) for t in self.vocab.tokens])
        return VectorSet(list(self.vocab.tokens), m)


class VectorSet:
    """Plain token -> vector table; what export/import and eval work on.

    Treat it as immutable: unit_rows() keeps what it derives from matrix.
    """

    __slots__ = ("tokens", "matrix", "index", "_unit")

    def __init__(self, tokens: list[str], matrix: np.ndarray):
        if not (isinstance(matrix, np.ndarray) and matrix.ndim == 2 and matrix.shape[1] >= 1):
            raise DomainError("vectors must be a 2-D array with at least one column")
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
    """P SGNS pairs at fixed parameters: (scores, g, gu).

    h is (P, dim), one hidden vector per pair; W is (P, K, dim), each pair's
    context output row stacked over its negatives' rows. scores (P, K) are
    W @ h, g (P, K) the loss derivatives w.r.t. them, and gu (P, dim) the
    gradients w.r.t. h; a pair's loss is logaddexp(0, signed scores).sum(),
    where the signed scores are the scores with the positive one negated.
    skip (P, K), if given, marks rows that do not count: their g is 0, so
    they add nothing to a gradient, and a caller summing the loss sets
    their signed score to -inf. Training and pair_loss / pair_gradients all
    go through here.
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
    if skip is not None:
        g[skip] = 0.0
    gu = np.matmul(g[:, None, :], W)[:, 0, :]
    return scores, g, gu


def _stacked(v_pos: np.ndarray, v_negs: np.ndarray) -> np.ndarray:
    """One pair's W: v_pos over the rows of v_negs, as a batch of one."""
    return np.vstack([v_pos, np.reshape(v_negs, (-1, len(v_pos)))])[None]


@np.errstate(over="ignore")
def pair_loss(u: np.ndarray, v_pos: np.ndarray, v_negs: np.ndarray) -> float:
    """-log sigmoid(u.v_pos) - sum log sigmoid(-u.v_neg); numerically stable."""
    scores = _pair_step(u[None], _stacked(v_pos, v_negs))[0][0]
    scores[0] *= -1.0
    return float(np.logaddexp(0.0, scores).sum())


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
# faster but pile more stale steps on a frequent token's rows. On the
# benchmark's embed workload (dim 16, seeds 1-10), on the same negative and
# subsampling streams, mean held-out loss against 16-token blocks moved by
# -0.06% at 8, +0.13% at 32 (+0.08% to +0.16% per seed) and +0.35% at 64,
# while train_skipgram took about 0.73 of the time at 32 and 0.62 at 64.
# Every window offset of a block in one sub-batch was faster still, but
# cost +3.6% in held-out loss.
_BLOCK = 32
# The sub-batches of _RUN blocks at a time are planned together (_plan). A
# run holds at most 2 * _BLOCK * _RUN tokens, and its plan a few arrays of
# 1 + negatives entries per pair. The run size changes no result; on the
# benchmark's embed workload 8 to 32 blocks train equally fast (within 2%);
# the tracemalloc peak of one 100k-token segment at dim 64 is 4.0 MB at 1
# block, 4.7 MB at 16 and 6.2 MB at 32.
_RUN = 16


def _block_bounds(sid: np.ndarray) -> list[int]:
    """Start of each block over kept tokens whose sentence numbers, in order,
    are sid, then len(sid)."""
    n = len(sid)
    ends = (np.flatnonzero(sid[1:] != sid[:-1]) + 1).tolist()
    ends.append(n)
    bounds = [0]
    b0 = 0
    while b0 < n:
        if b0 + _BLOCK >= n:
            b0 = n
        else:
            b0 = min(ends[bisect_left(ends, b0 + _BLOCK)], b0 + 2 * _BLOCK)
        bounds.append(b0)
    return bounds


def _plan(
    toks: np.ndarray,
    sid: np.ndarray,
    bounds: list[int],
    offsets: list[int],
    take: Callable[[int], np.ndarray],
    negatives: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[tuple[int, int, int, bool]]] | None:
    """The pairs of the run of blocks bounds[0]:bounds[1], ...,
    bounds[-2]:bounds[-1] over the kept tokens toks (sentence numbers sid),
    in training order: block by block, in a block by window offset, then by
    center. None if the run has no pair, else (c, idx, skip, subs):

    - c (P,) and idx (P, 1 + negatives): each pair's center, and its output
      rows [context, negatives...]. The negatives are the next P * negatives
      draws of take, dealt to the pairs in corpus order (by center, then
      offset), so a pair's draws do not depend on the blocks or the run;
    - skip: the negatives equal to their pair's context (column 0 is never
      set);
    - subs: per sub-batch (start, stop, block of the run, whether any of its
      negatives is skipped).
    """
    r0, r1 = bounds[0], bounds[-1]
    n = len(toks)
    nd = len(offsets)
    same = np.zeros((r1 - r0, nd), dtype=bool)
    for k, d in enumerate(offsets):
        lo, hi = max(r0, -d), min(r1, n - d)
        if lo < hi:
            np.equal(sid[lo:hi], sid[lo + d : hi + d], out=same[lo - r0 : hi - r0, k])
    i, k = np.nonzero(same)  # corpus order: by center, then offset
    P = len(i)
    if not P:
        return None
    # each pair's sub-batch, numbered in training order; the stable sort
    # keeps a sub-batch's pairs by center
    key = np.repeat(np.arange(len(bounds) - 1) * nd, np.diff(bounds))[i] + k
    order = np.argsort(key, kind="stable")
    key = key[order]
    i = i[order] + r0
    c = toks[i]
    idx = np.empty((P, 1 + negatives), dtype=np.intp)
    idx[:, 0] = toks[i + np.array(offsets)[k[order]]]
    idx[:, 1:] = take(P * negatives).reshape(P, negatives)[order]  # drawn in corpus order
    skip = idx == idx[:, :1]
    skip[:, 0] = False
    starts = np.concatenate(([0], np.flatnonzero(np.diff(key)) + 1))
    has_skip = np.logical_or.reduceat(skip.any(axis=1), starts)
    stops = [*starts[1:].tolist(), P]
    subs = list(zip(starts.tolist(), stops, (key[starts] // nd).tolist(), has_skip.tolist()))
    return c, idx, skip, subs


def _overflowing_rows(m: np.ndarray) -> np.ndarray:
    """Mask of the rows of m whose sum of squared components is not finite:
    their norm overflows too, and unit_rows would turn them into zeros."""
    with np.errstate(over="ignore"):
        return ~np.isfinite((m * m).sum(axis=1))


@np.errstate(over="ignore")
def train_skipgram(
    corpus: Corpus,
    config: TrainConfig = TrainConfig(),
    pair_log: list | None = None,
) -> EmbeddingMatrix:
    """Train embeddings; deterministic for a given (corpus, config).

    corpus is a segmented file (path or handle). It is read a chunk of
    lines at a time, and each distinct line is unescaped and normalized
    once; the corpus is then one int array of token codes, from which numpy
    counts the vocabulary, drops tokens below min_token_count and numbers
    the sentences, so memory is O(tokens) ints and no string is held per
    token. A bad escape raises SegmentedFileError naming its line. Tokens
    removed by subsampling are dropped too; their uniforms come from their
    own stream. With subwords, the input rows of every token are listed
    once, in one (flat, start) table (subword_rows) that training and the
    returned matrix share, and the input table has one row per token and
    per distinct n-gram.

    The kept tokens are walked in blocks of whole sentences (_BLOCK), and
    each window offset d is one sub-batch: every pair (i, i + d) whose
    center i is in the block and whose context is in the same sentence. A
    sub-batch is one _pair_step over rows read at its start, and each center
    position occurs in it once. The negatives come from one negative_draws
    take function, in corpus order: each epoch deals its draws to the pairs
    by center, then offset, whatever the blocks. A negative equal to its
    pair's context is skipped, as word2vec.c does. The pairs, negatives and
    skips of _RUN blocks at a time are planned in a few vectorized calls
    (_plan); the loop over their sub-batches then only gathers rows, steps
    and scatters, and the run's loss is signed and summed once.
    Repeated rows accumulate their steps (np.subtract.at).
    With subwords a center's hidden vector is the mean of its rows and each
    row takes an equal share of its gradient. The learning rate decays
    linearly per block. pair_log, if given, collects every (center, context)
    token pair trained on. Each epoch logs its rate, pairs, pairs/s and mean
    pair loss; the loss is one logaddexp sum per plan. DomainError when an
    epoch's loss is not finite, when a row of either table has a squared
    norm that overflows after an epoch, or when the whole run trains no
    pair, which would leave the vectors untrained.
    """
    config.validate()
    vocab, flat, sent_of = _corpus_ids(corpus, config.min_token_count)
    V = len(vocab)
    if V == 0:
        raise DomainError("empty vocabulary")

    # every kept token occurs in the corpus, so train_words > 0
    train_words = len(flat)
    # tokens processed by the end of each sentence, for the rate schedule
    done = np.append(np.flatnonzero(np.diff(sent_of)) + 1, train_words)

    ss = np.random.SeedSequence(config.seed)
    init_ss, neg_ss, sub_ss = ss.spawn(3)
    rng = np.random.Generator(np.random.PCG64(init_ss))
    sub_rng = np.random.Generator(np.random.PCG64(sub_ss))
    take = negative_draws(vocab.counts, np.random.Generator(np.random.PCG64(neg_ss)))

    ngrams = config.subword_ngrams
    rows = None if ngrams is None else subword_rows(vocab, ngrams)
    size = V if rows is None else int(rows[0].max()) + 1
    dim = config.dim
    inp = (rng.random((size, dim)) - 0.5) / dim
    out = np.zeros((V, dim), dtype=np.float64)
    # training updates inp and out in place
    matrix = EmbeddingMatrix(inp, out, vocab, rows)
    # ufunc.at is fastest on a 1-D array: steps go through the flat views
    inp_flat = inp.reshape(-1)
    out_flat = out.reshape(-1)
    cols = np.arange(dim)

    keep_prob: np.ndarray | None = None
    t = config.subsample_threshold
    if t > 0:
        f = vocab.counts / train_words
        ratio = t / f
        keep_prob = np.minimum(1.0, np.sqrt(ratio) + ratio)

    window = config.window
    offsets = [d for d in range(-window, window + 1) if d]
    negatives = config.negatives
    lr0 = config.initial_lr
    lr_floor = lr0 * 1e-4
    denom = config.epochs * train_words + 1
    tokens = vocab.tokens
    total_pairs = 0
    alpha = lr0

    for epoch in range(config.epochs):
        clock = time.perf_counter()
        if keep_prob is None:
            toks, sid = flat, sent_of
        else:
            keep = keep_prob[flat] > sub_rng.random(len(flat))
            toks, sid = flat[keep], sent_of[keep]
        bounds = _block_bounds(sid)
        # each block's rate, by the tokens processed at its last sentence's end
        last = done[sid[np.array(bounds[1:], dtype=np.intp) - 1]]
        rates = np.maximum(lr0 * (1.0 - (epoch * train_words + last) / denom), lr_floor).tolist()
        if rates:
            alpha = rates[-1]
        ep_loss = 0.0
        ep_pairs = 0
        for r in range(0, len(bounds) - 1, _RUN):
            plan = _plan(toks, sid, bounds[r : r + _RUN + 1], offsets, take, negatives)
            if plan is None:
                continue
            c, idx, skip, subs = plan
            if pair_log is not None:
                ctx = idx[:, 0].tolist()
                pair_log.extend(zip([tokens[i] for i in c.tolist()], [tokens[j] for j in ctx]))
            # each pair's center rows, in pair order: pair p's are
            # crow[rbound[p] : rbound[p + 1]]
            if rows is None:
                crow, rbound = c, range(len(c) + 1)
            else:
                row_flat, row_start = rows
                cfirst = row_start[c]
                clen = row_start[c + 1] - cfirst
                rend = np.cumsum(clen)
                rfirst = rend - clen
                crow = row_flat[np.repeat(cfirst - rfirst, clen) + np.arange(int(rend[-1]))]
                rbound = [0, *rend.tolist()]
            # flat positions of the rows' first components, for the scatters
            crow_at = crow * dim
            idx_at = idx * dim
            scores = []  # each sub-batch's scores, for the loss
            for s0, s1, b, has_skip in subs:
                a = rates[r + b]
                ix = idx[s0:s1]
                q0, q1 = rbound[s0], rbound[s1]
                h = inp.take(crow[q0:q1], axis=0)
                if rows is not None:
                    cl = clen[s0:s1]
                    h = np.add.reduceat(h, rfirst[s0:s1] - q0) / cl[:, None]
                sc, g, gu = _pair_step(h, out.take(ix, axis=0), skip[s0:s1] if has_skip else None)
                scores.append(sc)
                np.multiply(g, a, out=g)
                # repeated rows (a negative drawn twice, a center or n-gram
                # twice) must accumulate their steps
                step = g[:, :, None] * h[:, None, :]
                np.subtract.at(out_flat, (idx_at[s0:s1, :, None] + cols).ravel(), step.ravel())
                if rows is None:
                    np.multiply(gu, a, out=gu)
                else:
                    gu = np.repeat(gu * (a / cl)[:, None], cl, axis=0)
                np.subtract.at(inp_flat, (crow_at[q0:q1, None] + cols).ravel(), gu.ravel())
            signed = np.concatenate(scores)
            signed[:, 0] *= -1.0
            signed[skip] = -np.inf
            ep_loss += float(np.logaddexp(0.0, signed).sum())
            ep_pairs += len(c)
        if ep_pairs:
            rate = ep_pairs / max(time.perf_counter() - clock, 1e-9)
            summary = f"{ep_pairs} pairs {rate:.0f} pairs/s mean pair loss {ep_loss / ep_pairs:.6f}"
        else:
            summary = "0 pairs"
        log.info("epoch %d/%d lr %.6f %s", epoch + 1, config.epochs, alpha, summary)
        if not math.isfinite(ep_loss):
            raise DomainError(f"epoch {epoch + 1} loss is not finite; lower the learning rate")
        if _overflowing_rows(inp).any() or _overflowing_rows(out).any():
            raise DomainError(
                f"epoch {epoch + 1}: a vector's squared norm is not finite; lower the learning rate"
            )
        total_pairs += ep_pairs
    if not total_pairs:
        raise DomainError(
            "no (center, context) pairs were trained: no segment kept two tokens "
            "after subsampling; lower --subsample or use longer segments"
        )
    return matrix


# -- vector files --------------------------------------------------------------


def export_vectors(m: EmbeddingMatrix | VectorSet, path: str) -> None:
    """Text format: header '<count> <dim>', then per line the token and its
    components, each formatted '%.9g' (9 significant digits), one '%'
    format per row; token escaped as in the segmented format. A token with
    a newline, or a non-finite component, raises DomainError before path is
    opened."""
    vs = m.to_vectors() if isinstance(m, EmbeddingMatrix) else m
    if any("\n" in tok for tok in vs.tokens):
        raise DomainError("a token contains a newline; it cannot be written one per line")
    if not np.isfinite(vs.matrix).all():
        raise DomainError("vectors have non-finite components; nothing written")
    count, dim = vs.matrix.shape
    fmt = "%s" + " %.9g" * dim
    rows = (fmt % (escape_token(tok), *row) for tok, row in zip(vs.tokens, vs.matrix.tolist()))
    write_lines(path, chain([f"{count} {dim}"], rows))


def import_vectors(path: str) -> VectorSet:
    """Read an export_vectors file; only blank lines may follow the declared
    rows. Each row is split once and its components converted as it is
    read. A parse error, a non-finite component, or a row whose sum of
    squared components overflows (its norm would too) raises
    VectorFileError naming the first such 1-based line from the top; bad
    bytes raise CorpusDecodeError, unless a row above them is bad."""
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
    seen: set[str] = set()
    # values grow as rows are read: the header alone must not size an allocation
    values = array("d")

    # raise the first whole row read so far that is non-finite or whose norm
    # overflows; row r is on line r + 2. A row cut short by a malformed float
    # is not whole.
    def check_rows() -> None:
        if not (rows := len(values) // dim):
            return
        m = np.frombuffer(values, count=rows * dim).reshape(rows, dim)
        bad = _overflowing_rows(m)
        if bad.any():
            r = int(bad.argmax())
            reason = "squared norm overflows" if np.isfinite(m[r]).all() else "non-finite component"
            raise VectorFileError(r + 2, reason)

    try:
        for lineno, line in islice(lines, count):
            fields = line.split(" ")
            if len(fields) != dim + 1:
                raise VectorFileError(lineno, f"expected {dim + 1} fields, got {len(fields)}")
            try:
                tok = unescape_token(fields[0])
            except ValueError as exc:
                raise VectorFileError(lineno, str(exc)) from None
            if tok in seen:
                raise VectorFileError(lineno, f"duplicate token {tok!r}")
            seen.add(tok)
            tokens.append(tok)
            try:
                values.extend(map(float, fields[1:]))
            except ValueError:
                raise VectorFileError(lineno, "malformed float") from None
    except (VectorFileError, CorpusDecodeError):
        check_rows()  # a bad row above the error, or above bad bytes, comes first
        raise
    check_rows()
    if len(tokens) < count:
        raise VectorFileError(lineno + 1, "truncated file")
    try:
        matrix = np.frombuffer(values, dtype=np.float64).reshape(count, dim)
    except ValueError:  # only an empty file can declare a dim numpy cannot shape
        raise VectorFileError(1, "invalid header values") from None
    for lineno, line in lines:
        if line.strip():
            raise VectorFileError(lineno, "trailing content after declared rows")
    return VectorSet(tokens, matrix)
