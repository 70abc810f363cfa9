"""Embedding quality probes: neighbors, analogies, similarity correlation.

Everything here works on a VectorSet (token -> vector). Rankings sort by
cosine descending with token-string ascending as the tie-break, and analogy
queries use 3CosAdd over length-normalized vectors with the three query
terms excluded from the candidates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .corpus import read_lines
from .embed import VectorSet
from .errors import DomainError, SuiteFileError, require_int
from .grammar import unescape_token


@dataclass(frozen=True)
class AnalogyQuery:
    """b is to a as gold is to c; evaluated as v(b) - v(a) + v(c)."""

    a: str
    b: str
    c: str
    gold: str


@dataclass(frozen=True)
class SuiteResult:
    score: float  # correct / attempted (0.0 when nothing attempted)
    coverage: float  # attempted / total
    correct: int
    attempted: int
    total: int
    near_misses: tuple[tuple[AnalogyQuery, str], ...]  # gold inside top-1, not equal


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        raise DomainError("cosine of a zero vector is undefined")
    return float(np.clip(float(u @ v) / (nu * nv), -1.0, 1.0))


def _top_k(vs: VectorSet, target: np.ndarray, banned: set[int], k: int) -> list[tuple[str, float]]:
    """The k best (token, cosine) against unit-length target, banned rows
    excluded, by cosine descending then token; zero rows rank last."""
    unit, ok = vs.unit_rows
    sims = np.clip(unit @ target, -1.0, 1.0)
    sims[~ok] = -np.inf  # zero rows have no defined similarity
    # only rows scoring at least the (k + |banned|)-th best cosine can make
    # the cut; ties at that cosine all stay in for the token tie-break
    n = k + len(banned)
    if n < len(sims):
        cut = np.partition(sims, len(sims) - n)[len(sims) - n]
        cands = np.flatnonzero(sims >= cut).tolist()
    else:
        cands = range(len(sims))
    order = sorted(
        (i for i in cands if i not in banned),
        key=lambda i: (-sims[i], vs.tokens[i]),
    )
    return [(vs.tokens[i], float(sims[i])) for i in order[:k]]


def nearest_neighbors(
    vs: VectorSet, query: str, k: int = 5
) -> list[tuple[str, float]] | None:
    """Top-k tokens by cosine, query excluded; None when query is OOV."""
    require_int("k", k, 0)
    qi = vs.index.get(query)
    if qi is None:
        return None
    q = vs.matrix[qi]
    qn = float(np.linalg.norm(q))
    if qn == 0.0:
        raise DomainError("query vector has zero norm")
    return _top_k(vs, q / qn, {qi}, k)


def analogy(vs: VectorSet, q: AnalogyQuery, k: int = 5) -> list[tuple[str, float]] | None:
    """3CosAdd candidates, best first; None when a, b, or c is OOV."""
    require_int("k", k, 0)
    ia = vs.index.get(q.a)
    ib = vs.index.get(q.b)
    ic = vs.index.get(q.c)
    if ia is None or ib is None or ic is None:
        return None
    unit, ok = vs.unit_rows
    if not (ok[ia] and ok[ib] and ok[ic]):
        raise DomainError("analogy over a zero vector is undefined")
    target = unit[ib] - unit[ia] + unit[ic]
    tn = float(np.linalg.norm(target))
    if tn == 0.0:
        return []
    return _top_k(vs, target / tn, {ia, ib, ic}, k)


def analogy_suite(vs: VectorSet, queries: Sequence[AnalogyQuery]) -> SuiteResult:
    """Exact-string top-1 scoring; a query counts as attempted only when all
    four of its tokens are in vocabulary."""
    if not queries:
        raise DomainError("empty analogy suite")
    attempted = 0
    correct = 0
    near: list[tuple[AnalogyQuery, str]] = []
    for q in queries:
        if q.gold not in vs.index:
            continue
        cands = analogy(vs, q, 1)
        if cands is None:
            continue
        attempted += 1
        if not cands:
            continue
        top = cands[0][0]
        if top == q.gold:
            correct += 1
        elif q.gold in top:
            near.append((q, top))
    return SuiteResult(
        score=correct / attempted if attempted else 0.0,
        coverage=attempted / len(queries),
        correct=correct,
        attempted=attempted,
        total=len(queries),
        near_misses=tuple(near),
    )


def average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks; tied values share the average of their positions."""
    a = np.asarray(values, dtype=np.float64)
    _, inverse, counts = np.unique(a, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)  # a tie group spans sorted positions ends - counts .. ends - 1
    return ((ends - counts + ends - 1) / 2.0 + 1.0)[inverse]


def spearman(x: Sequence[float], y: Sequence[float]) -> float:
    """Rank correlation with average-rank tie handling."""
    xa = np.asarray(x, dtype=np.float64)
    ya = np.asarray(y, dtype=np.float64)
    if len(xa) != len(ya):
        raise DomainError("length mismatch")
    if len(xa) < 2:
        raise DomainError("correlation needs at least 2 points")
    if not (np.isfinite(xa).all() and np.isfinite(ya).all()):
        raise DomainError("correlation undefined for non-finite input")
    rx = average_ranks(xa)
    ry = average_ranks(ya)
    rx -= rx.mean()
    ry -= ry.mean()
    sx = float(np.sqrt((rx * rx).sum()))
    sy = float(np.sqrt((ry * ry).sum()))
    if sx == 0.0 or sy == 0.0:
        raise DomainError("correlation undefined for constant input")
    return float((rx * ry).sum() / (sx * sy))


def similarity_suite(
    vs: VectorSet, pairs: Sequence[tuple[str, str, float]]
) -> tuple[float, float]:
    """(spearman between cosine and gold over in-vocab pairs, coverage)."""
    if not pairs:
        raise DomainError("empty similarity suite")
    sims: list[float] = []
    golds: list[float] = []
    for t1, t2, gold in pairs:
        v1 = vs.vector(t1)
        v2 = vs.vector(t2)
        if v1 is None or v2 is None:
            continue
        sims.append(cosine(v1, v2))
        golds.append(float(gold))
    if len(sims) < 2:
        raise DomainError("fewer than 2 scored pairs; correlation undefined")
    return spearman(sims, golds), len(sims) / len(pairs)


# -- suite files ---------------------------------------------------------------


def _unescape_fields(fields: Sequence[str], lineno: int) -> list[str]:
    try:
        return [unescape_token(t) for t in fields]
    except ValueError as exc:
        raise SuiteFileError(lineno, str(exc)) from None


def read_analogies(path: str) -> list[AnalogyQuery]:
    """Four whitespace-separated (escaped) tokens per line. Lines starting
    with ':' are section headers and are skipped. A parse error raises
    SuiteFileError naming its line."""
    queries: list[AnalogyQuery] = []
    for lineno, line in read_lines(path):
        s = line.strip()
        if not s or s.startswith(":"):
            continue
        parts = s.split()
        if len(parts) != 4:
            raise SuiteFileError(lineno, f"expected 4 tokens, got {len(parts)}")
        queries.append(AnalogyQuery(*_unescape_fields(parts, lineno)))
    return queries


def read_similarity(path: str) -> list[tuple[str, str, float]]:
    """TSV: token1<TAB>token2<TAB>gold-score, tokens escaped; scores finite.
    A parse error raises SuiteFileError naming its line."""
    pairs: list[tuple[str, str, float]] = []
    for lineno, line in read_lines(path):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise SuiteFileError(lineno, "expected 3 tab-separated fields")
        try:
            gold = float(parts[2])
        except ValueError:
            raise SuiteFileError(lineno, "malformed score") from None
        if not math.isfinite(gold):
            raise SuiteFileError(lineno, "non-finite score")
        t1, t2 = _unescape_fields(parts[:2], lineno)
        pairs.append((t1, t2, gold))
    return pairs
