"""Iterated most-frequent-pair replacement over a bounded symbol sequence.

Two trainers live here. train() drives an incremental pair index (linked
sequence, per-pair occurrence lists threaded through position arrays, one
lazy max-heap keyed by count, then first position) and runs in amortized
near-linear time. train_naive() is a literal rescan-and-replace reference
with the same observable behaviour; it exists so the fast path can be
checked against it and stays deliberately simple.

Counting convention: a pair's count is the number of replacements a single
left-to-right pass would perform, i.e. greedy non-overlapping occurrences.
"aaa" contains (a,a) once. Ties between equal-count pairs go to the pair
whose earliest current occurrence is leftmost, then to the smaller
(left, right) id pair.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from heapq import heapify, heappop, heappush, heapreplace
from typing import Iterable

import numpy as np

from .corpus import BoundedSequence, SymbolTable
from .errors import DomainError
from .grammar import OOV_BASE, Grammar, Rule

SENT = -1  # boundary sentinel inside the engine array; never pairable
NIL = -1
SHIFT = 25  # pair key packing: key = (left << SHIFT) | right
_MASK = (1 << SHIFT) - 1


@dataclass(frozen=True)
class StopCriteria:
    """Training stops at the first violated criterion."""

    min_frequency: int = 2
    max_vocabulary: int | None = None
    max_merges: int | None = None

    def validate(self) -> None:
        if not isinstance(self.min_frequency, int) or self.min_frequency < 2:
            raise DomainError("min_frequency must be an integer >= 2")
        if self.max_vocabulary is not None and self.max_vocabulary < 0:
            raise DomainError("max_vocabulary must be >= 0")
        if self.max_merges is not None and self.max_merges < 0:
            raise DomainError("max_merges must be >= 0")


@dataclass(frozen=True)
class MergeEvent:
    new_id: int
    left: int
    right: int
    count: int


def engine_array(seq: BoundedSequence, lut: np.ndarray | None = None) -> np.ndarray:
    """int64 engine input: seq's terminal ids with SENT spliced in at each boundary.

    lut, when given, maps every terminal id first (apply moves ids into a
    grammar's id space with it); without one no mapped copy is made.
    """
    syms = np.asarray(seq.symbols, dtype=np.int64)
    if syms.size and (syms.min() < 0 or syms.max() >= len(seq.alphabet)):
        raise DomainError("sequence contains non-terminal symbols")
    if lut is not None:
        syms = lut[syms]
    bnd = np.asarray(seq.boundaries, dtype=np.int64)
    if not bnd.size:
        return syms
    full = np.empty(syms.size + bnd.size, dtype=np.int64)
    spots = bnd + np.arange(bnd.size)
    keep = np.ones(full.size, bool)
    keep[spots] = False
    full[spots] = SENT
    full[keep] = syms
    return full


class PairMerger:
    """Incremental merge state: sequence, pair index, lazy selection heap.

    The invariant carried through every mutation: for each active pair, the
    indexed occurrences are exactly the greedy left-to-right non-overlapping
    occurrences in the current sequence, kept in position order. A position
    heads at most one indexed occurrence (of the pair it starts), recorded in
    a per-position flag, so membership tests are O(1).
    """

    def __init__(self, seq: BoundedSequence):
        alphabet = seq.alphabet
        self._init_from_array(engine_array(seq), alphabet, len(alphabet))

    @classmethod
    def for_replay(
        cls, engine_symbols: np.ndarray, alphabet: SymbolTable, next_id: int
    ) -> "PairMerger":
        """Build from an int64 array made by engine_array (negatives never pair)."""
        self = cls.__new__(cls)
        self._init_from_array(engine_symbols, alphabet, next_id)
        return self

    def _init_from_array(self, a: np.ndarray, alphabet: SymbolTable, next_id: int) -> None:
        n = int(a.size)
        self._n = n
        self._alphabet = alphabet
        self._next_id = next_id
        self._terminal_count = len(alphabet)
        self._rules: list[Rule] = []
        self._events: list[MergeEvent] = []
        self._replacements = 0
        self._heap: list[tuple[int, int, int]] | None = None  # built by _select

        self._sym = array("i")
        self._sym.frombytes(a.astype(np.int32).tobytes())
        nxt = np.arange(1, n + 1, dtype=np.int32)
        nxt[-1:] = NIL
        prv = np.arange(-1, n - 1, dtype=np.int32)
        self._nxt = array("i")
        self._nxt.frombytes(nxt.tobytes())
        self._prv = array("i")
        self._prv.frombytes(prv.tobytes())

        # Greedy head mask. Distinct-symbol pairs never overlap themselves;
        # for same-symbol runs the heads sit at even offsets from the run start.
        valid = a >= 0
        pairv = valid[:-1] & valid[1:]
        eq = pairv & (a[:-1] == a[1:])
        newrun = np.empty(n, bool)
        newrun[:1] = True
        newrun[1:] = (a[1:] != a[:-1]) | ~valid[1:] | ~valid[:-1]
        idx = np.arange(n)
        runstart = np.maximum.accumulate(np.where(newrun, idx, 0))
        offset = idx - runstart
        head = (pairv & ~eq) | (eq & (offset[:-1] % 2 == 0))

        nocc = np.full(n, NIL, dtype=np.int32)
        pocc = np.full(n, NIL, dtype=np.int32)
        pairs: dict[int, list[int]] = {}
        hp = np.nonzero(head)[0]
        keys = (a[hp] << SHIFT) | a[hp + 1]
        order = np.argsort(keys, kind="stable")
        sp = hp[order]
        sk = keys[order]
        samegrp = np.empty(len(sk), bool)
        samegrp[:1] = False
        samegrp[1:] = sk[1:] == sk[:-1]
        link = samegrp[1:]
        src = sp[:-1][link]
        dst = sp[1:][link]
        nocc[src] = dst
        pocc[dst] = src
        gstart = np.nonzero(~samegrp)[0]
        gend = np.append(gstart[1:], len(sk))
        for s_, e_ in zip(gstart, gend):
            pairs[int(sk[s_])] = [int(e_ - s_), int(sp[s_]), int(sp[e_ - 1])]
        self._nocc = array("i")
        self._nocc.frombytes(nocc.tobytes())
        self._pocc = array("i")
        self._pocc.frombytes(pocc.tobytes())
        ism = np.zeros(n, dtype=np.uint8)
        ism[hp] = 1
        self._is_head = bytearray(ism.tobytes())
        self._pairs = pairs

    # -- public state -----------------------------------------------------

    @property
    def merges(self) -> int:
        return len(self._rules)

    @property
    def vocab_size(self) -> int:
        return self._terminal_count + len(self._rules)

    @property
    def replacements(self) -> int:
        return self._replacements

    @property
    def events(self) -> list[MergeEvent]:
        return self._events

    @property
    def rules(self) -> list[Rule]:
        return self._rules

    def grammar(self) -> Grammar:
        return Grammar(self._alphabet.clone(), list(self._rules))

    def sequence(self) -> BoundedSequence:
        """Snapshot of the current sequence as a BoundedSequence."""
        sym = self._sym
        nxt = self._nxt
        out: list[int] = []
        boundaries: list[int] = []
        pos = 0 if self._n else NIL
        append = out.append
        while pos != NIL:
            s = sym[pos]
            if s >= 0:
                append(s)
            elif s == SENT:
                boundaries.append(len(out))
            else:
                append(OOV_BASE + (-s - 2))  # fresh pass-through terminal
            pos = nxt[pos]
        return BoundedSequence(out, boundaries, self._alphabet)

    # -- selection ---------------------------------------------------------

    def _select(self, min_frequency: int) -> tuple[int, list[int]] | None:
        """Pop the best mergeable pair, lazily repairing stale heap entries.

        The heap holds (-count, first position, key). A pair's count only
        falls after its creation pass and its first position only moves
        right, so a stale entry ranks too high and is fixed when it reaches
        the top. No two live pairs share a first position, so the key never
        decides between two up-to-date entries.
        """
        heap = self._heap
        pairs = self._pairs
        if heap is None:
            heap = [(-rec[0], rec[1], key) for key, rec in pairs.items() if rec[0] >= 2]
            heapify(heap)
            self._heap = heap
        while heap:
            negc, fp, key = heap[0]
            if -negc < min_frequency:
                break
            rec = pairs.get(key)
            if rec is None or rec[0] < 2:
                heappop(heap)
            elif rec[0] != -negc or rec[1] != fp:
                heapreplace(heap, (-rec[0], rec[1], key))
            else:
                heappop(heap)
                return key, rec
        return None

    def merge_once(self, min_frequency: int = 2) -> MergeEvent | None:
        """Perform one merge of the current best pair; None when exhausted."""
        sel = self._select(min_frequency)
        if sel is None:
            return None
        key, rec = sel
        left = key >> SHIFT
        right = key & _MASK
        new_id = self._next_id
        if new_id >= 1 << SHIFT:
            raise DomainError("symbol id space exhausted")
        count = rec[0]
        created = self._replace_all(left, right, new_id)
        self._next_id = new_id + 1
        self._rules.append(Rule(new_id, left, right, count))
        event = MergeEvent(new_id, left, right, count)
        self._events.append(event)
        heap = self._heap
        pairs = self._pairs
        for k in created:
            r = pairs.get(k)
            if r is not None and r[0] >= 2:
                heappush(heap, (-r[0], r[1], k))
        return event

    def run(self, stop: StopCriteria) -> None:
        """Merge until max_merges or max_vocabulary is hit or no pair is left.

        Resumable: a later call with a larger max_merges continues the same
        run, so checkpoints never restart training. stop is not validated.
        """
        max_m = stop.max_merges
        max_v = stop.max_vocabulary
        while (max_m is None or self.merges < max_m) and (
            max_v is None or self.vocab_size < max_v
        ):
            if self.merge_once(stop.min_frequency) is None:
                return

    def replay(self, rules: Iterable[Rule]) -> None:
        """Re-apply recorded merges in order, ignoring frequencies."""
        pairs = self._pairs
        for rule in rules:
            key = (rule.left << SHIFT) | rule.right
            if key in pairs:
                self._replace_all(rule.left, rule.right, rule.id)

    # -- mutation ----------------------------------------------------------

    def _replace_all(self, left: int, right: int, new_id: int) -> dict[int, None]:
        """Replace every indexed occurrence of (left, right) with new_id.

        Walks the pair's occurrence list in position order. Replacing (p, q)
        kills q, rewrites p, and touches at most the two neighbouring pairs;
        a same-symbol run of `right` that loses its left edge is realigned in
        place (_reindex_run). Returns the keys of pairs that gained
        occurrences, all of which involve new_id.
        """
        sym = self._sym
        nxt = self._nxt
        prv = self._prv
        nocc = self._nocc
        pocc = self._pocc
        is_head = self._is_head
        pairs = self._pairs
        S = SHIFT
        key = (left << S) | right
        rec = pairs.pop(key, None)
        if rec is None:
            return {}
        same = left == right
        created: dict[int, None] = {}
        pos = rec[1]
        nrep = 0
        while pos != NIL:
            nextpos = nocc[pos]
            p = pos
            q = nxt[p]
            x = prv[p]
            xs = sym[x] if x != NIL else SENT
            # pair (xs, left) ending at p dies with p's symbol
            if xs >= 0 and is_head[x]:
                kx = (xs << S) | left
                rx = pairs[kx]
                pz = pocc[x]
                nz = nocc[x]
                if pz != NIL:
                    nocc[pz] = nz
                else:
                    rx[1] = nz
                if nz != NIL:
                    pocc[nz] = pz
                else:
                    rx[2] = pz
                c = rx[0] - 1
                if c:
                    rx[0] = c
                else:
                    del pairs[kx]
                is_head[x] = 0
            # pair (right, ys) headed at q dies with q
            y = nxt[q]
            reidx = NIL
            reidx_after = NIL
            if y != NIL and is_head[q]:
                ys = sym[y]
                kq = (right << S) | ys
                rq = pairs[kq]
                insafter = pocc[q]
                nz = nocc[q]
                if insafter != NIL:
                    nocc[insafter] = nz
                else:
                    rq[1] = nz
                if nz != NIL:
                    pocc[nz] = insafter
                else:
                    rq[2] = insafter
                c = rq[0] - 1
                if c:
                    rq[0] = c
                else:
                    del pairs[kq]
                is_head[q] = 0
                if ys == right and not same:
                    # run of `right` lost its first element; realign heads
                    reidx = y
                    reidx_after = insafter
            # splice out q, rewrite p
            nxt[p] = y
            if y != NIL:
                prv[y] = p
            sym[p] = new_id
            is_head[p] = 0
            nrep += 1
            if reidx != NIL:
                self._reindex_run(right, reidx, reidx_after)
            # fresh pair on the left, unless x is the second half of a
            # (new_id, new_id) occurrence that already heads at w
            if xs >= 0 and not (
                xs == new_id and (w := prv[x]) != NIL and sym[w] == new_id and is_head[w]
            ):
                kn = (xs << S) | new_id
                rn = pairs.get(kn)
                if rn is None:
                    pairs[kn] = [1, x, x]
                    pocc[x] = NIL
                    nocc[x] = NIL
                else:
                    t = rn[2]
                    nocc[t] = x
                    pocc[x] = t
                    nocc[x] = NIL
                    rn[2] = x
                    rn[0] += 1
                is_head[x] = 1
                created[kn] = None
            # fresh pair on the right
            if y != NIL:
                ys = sym[y]
                if ys >= 0:
                    kn = (new_id << S) | ys
                    rn = pairs.get(kn)
                    if rn is None:
                        pairs[kn] = [1, p, p]
                        pocc[p] = NIL
                        nocc[p] = NIL
                    else:
                        t = rn[2]
                        nocc[t] = p
                        pocc[p] = t
                        nocc[p] = NIL
                        rn[2] = p
                        rn[0] += 1
                    is_head[p] = 1
                    created[kn] = None
            pos = nextpos
        self._replacements += nrep
        return created

    def _reindex_run(self, u: int, start: int, ins_after: int) -> None:
        """Realign greedy heads of (u, u) over the run now starting at `start`.

        ins_after is the occurrence-list node preceding the run's old first
        head (NIL for list head); new heads are spliced in behind it so the
        list stays position-sorted.
        """
        sym = self._sym
        nxt = self._nxt
        nocc = self._nocc
        pocc = self._pocc
        is_head = self._is_head
        pairs = self._pairs
        key = (u << SHIFT) | u
        cursor = ins_after
        r = start
        free = True
        while r != NIL and sym[r] == u:
            s = nxt[r]
            paired = s != NIL and sym[s] == u
            if paired and free:
                if not is_head[r]:
                    rec = pairs.get(key)
                    if rec is None:
                        pairs[key] = [1, r, r]
                        pocc[r] = NIL
                        nocc[r] = NIL
                    else:
                        if cursor == NIL:
                            h = rec[1]
                            nocc[r] = h
                            pocc[r] = NIL
                            pocc[h] = r
                            rec[1] = r
                        else:
                            after = nocc[cursor]
                            nocc[cursor] = r
                            pocc[r] = cursor
                            nocc[r] = after
                            if after != NIL:
                                pocc[after] = r
                            else:
                                rec[2] = r
                        rec[0] += 1
                    is_head[r] = 1
                cursor = r
                free = False
            else:
                if paired and is_head[r]:
                    rec = pairs[key]
                    pz = pocc[r]
                    nz = nocc[r]
                    if pz != NIL:
                        nocc[pz] = nz
                    else:
                        rec[1] = nz
                    if nz != NIL:
                        pocc[nz] = pz
                    else:
                        rec[2] = pz
                    c = rec[0] - 1
                    if c:
                        rec[0] = c
                    else:
                        del pairs[key]
                    is_head[r] = 0
                if not paired:
                    break
                free = True
            r = s

    # -- test support -------------------------------------------------------

    def check_invariants(self) -> None:
        """Recompute the greedy index from the live sequence and compare.

        O(n + pairs); meant for tests on small inputs after each merge.
        """
        sym = self._sym
        nxt = self._nxt
        # walk the linked list, collecting live positions
        live: list[int] = []
        pos = 0 if self._n else NIL
        while pos != NIL:
            live.append(pos)
            pos = nxt[pos]
        expected: dict[int, list[int]] = {}
        lastused: dict[int, int] = {}
        for i in range(len(live) - 1):
            a = sym[live[i]]
            b = sym[live[i + 1]]
            if a < 0 or b < 0:
                continue
            k = (a << SHIFT) | b
            if lastused.get(k) == i:
                continue
            expected.setdefault(k, []).append(live[i])
            lastused[k] = i + 1
        actual: dict[int, list[int]] = {}
        for k, rec in self._pairs.items():
            occ = []
            z = rec[1]
            while z != NIL:
                occ.append(z)
                z = self._nocc[z]
            if len(occ) != rec[0]:
                raise AssertionError(f"count mismatch for key {k}: {len(occ)} != {rec[0]}")
            if occ and (occ[0] != rec[1] or occ[-1] != rec[2]):
                raise AssertionError(f"head/tail mismatch for key {k}")
            if occ != sorted(occ):
                raise AssertionError(f"occurrence list not sorted for key {k}")
            actual[k] = occ
        if expected != actual:
            raise AssertionError(f"index mismatch: expected {expected}, got {actual}")
        heads = {z for occ in actual.values() for z in occ}
        for z in live:
            if bool(self._is_head[z]) != (z in heads):
                raise AssertionError(f"is_head flag wrong at position {z}")


def train(
    seq: BoundedSequence, stop: StopCriteria = StopCriteria()
) -> tuple[Grammar, BoundedSequence, list[MergeEvent]]:
    """Learn a merge grammar; returns (grammar, compressed sequence, log).

    An empty sequence yields an empty grammar and empty output. The full
    input sequence is held in memory: about 18 bytes per symbol in steady
    state, with a higher peak while the engine is built.
    """
    stop.validate()
    merger = PairMerger(seq)
    merger.run(stop)
    return merger.grammar(), merger.sequence(), merger.events


def train_naive(
    seq: BoundedSequence, stop: StopCriteria = StopCriteria()
) -> tuple[Grammar, BoundedSequence, list[MergeEvent]]:
    """Reference trainer: full rescan each round, literal replacement pass.

    Quadratic; exists as the behavioural oracle for train().
    """
    stop.validate()
    table = seq.alphabet
    T = len(table)
    s: list[int] = engine_array(seq).tolist()

    rules: list[Rule] = []
    events: list[MergeEvent] = []
    next_id = T
    minf = stop.min_frequency
    while True:
        if stop.max_merges is not None and len(rules) >= stop.max_merges:
            break
        if stop.max_vocabulary is not None and T + len(rules) + 1 > stop.max_vocabulary:
            break
        counts: dict[tuple[int, int], int] = {}
        first: dict[tuple[int, int], int] = {}
        lastused: dict[tuple[int, int], int] = {}
        for i in range(len(s) - 1):
            a = s[i]
            b = s[i + 1]
            if a < 0 or b < 0:
                continue
            k = (a, b)
            if lastused.get(k) == i:
                continue
            c = counts.get(k, 0) + 1
            counts[k] = c
            if c == 1:
                first[k] = i
            lastused[k] = i + 1
        best = None
        for k, c in counts.items():
            if c < minf:
                continue
            cand = (-c, first[k], k)
            if best is None or cand < best:
                best = cand
        if best is None:
            break
        count = -best[0]
        l, r = best[2]
        out: list[int] = []
        i = 0
        n = len(s)
        while i < n:
            if i + 1 < n and s[i] == l and s[i + 1] == r:
                out.append(next_id)
                i += 2
            else:
                out.append(s[i])
                i += 1
        s = out
        rules.append(Rule(next_id, l, r, count))
        events.append(MergeEvent(next_id, l, r, count))
        next_id += 1

    symbols: list[int] = []
    boundaries: list[int] = []
    for v in s:
        if v == SENT:
            boundaries.append(len(symbols))
        else:
            symbols.append(v)
    compressed = BoundedSequence(symbols, boundaries, table)
    return Grammar(table.clone(), rules), compressed, events


def pair_count(seq: BoundedSequence, left: int, right: int) -> int:
    """Greedy non-overlapping occurrences of (left, right), per segment."""
    syms = seq.symbols
    total = 0
    for lo, hi in seq.segments():
        i = lo
        while i + 1 < hi:
            if syms[i] == left and syms[i + 1] == right:
                total += 1
                i += 2
            else:
                i += 1
    return total
