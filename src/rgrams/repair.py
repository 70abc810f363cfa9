"""Iterated most-frequent-pair replacement over a bounded symbol sequence.

Two trainers live here. train() drives an incremental pair index (linked
sequence, per-pair occurrence lists threaded through position arrays, one
lazy max-heap keyed by count, then first position) and runs in amortized
near-linear time. train_naive() is a literal rescan-and-replace reference
with the same observable behaviour; it exists so the fast path can be
checked against it and stays deliberately simple.

Counting convention: a pair's count is the number of replacements a single
left-to-right pass would perform, i.e. greedy non-overlapping occurrences.
"aaa" contains (a,a) once; greedy_pairs() states it literally. Ties between
equal-count pairs go to the pair whose earliest current occurrence is
leftmost, then to the smaller (left, right) id pair.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from heapq import heapify, heappop, heappush, heapreplace
from typing import Sequence

import numpy as np

from .corpus import BoundedSequence
from .errors import DomainError
from .grammar import DEAD, SHIFT, Grammar, Rule, engine_array, from_engine, greedy_replace, linked

NIL = -1  # end of an occurrence list
OFF = -2  # pocc of a slot that heads no indexed occurrence
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


class PairMerger:
    """Incremental training state: sequence, pair index, lazy selection heap.

    The sequence is in the engine format of grammar.engine_array and
    grammar.linked. The invariant carried through every mutation: for each
    active pair, the indexed occurrences are exactly the greedy left-to-right
    non-overlapping occurrences in the current sequence, kept in position
    order. A position heads at most one indexed occurrence (of the pair it
    starts); pocc is OFF exactly at the positions that head none, so
    membership tests are O(1).

    The occurrence-list splices stay inline in _replace_all and _reindex_run
    rather than in link/unlink helpers: a call per splice costs about a
    quarter more bytecode per replacement, and this loop is where training
    spends its time.
    """

    def __init__(self, seq: BoundedSequence):
        a = engine_array(seq)
        n = int(a.size)
        self._alphabet = seq.alphabet
        self._rules: list[Rule] = []  # the merge log
        self._replacements = 0
        self._sym, self._nxt, self._prv = linked(a)

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
        pocc = np.full(n, OFF, dtype=np.int32)
        pairs: dict[int, list[int]] = {}
        hp = np.nonzero(head)[0]
        pocc[hp] = NIL
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
        self._nocc = array("i", nocc.tobytes())
        self._pocc = array("i", pocc.tobytes())
        self._pairs = pairs
        self._heap = [(-rec[0], rec[1], key) for key, rec in pairs.items() if rec[0] >= 2]
        heapify(self._heap)

    # -- public state -----------------------------------------------------

    @property
    def merges(self) -> int:
        return len(self._rules)

    @property
    def vocab_size(self) -> int:
        return len(self._alphabet) + len(self._rules)

    @property
    def replacements(self) -> int:
        return self._replacements

    def grammar(self) -> Grammar:
        return Grammar(self._alphabet.clone(), self._rules)

    def sequence(self) -> BoundedSequence:
        """Snapshot of the current sequence as a BoundedSequence."""
        return from_engine(self._sym, self._alphabet)

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

    def merge_once(self, min_frequency: int = 2) -> Rule | None:
        """Merge the best pair and return its Rule, the merge log entry;
        None when no pair reaches min_frequency."""
        sel = self._select(min_frequency)
        if sel is None:
            return None
        key, rec = sel
        rule = Rule(self.vocab_size, key >> SHIFT, key & _MASK, rec[0])
        created = self._replace_all(rule.left, rule.right, rule.id)
        self._rules.append(rule)
        self._replacements += rule.freq_at_merge
        heap = self._heap
        pairs = self._pairs
        for k in created:
            r = pairs.get(k)
            if r is not None and r[0] >= 2:
                heappush(heap, (-r[0], r[1], k))
        return rule

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
        pairs = self._pairs
        S = SHIFT
        key = (left << S) | right
        rec = pairs.pop(key)
        same = left == right
        created: dict[int, None] = {}
        pos = rec[1]
        while pos != NIL:
            nextpos = nocc[pos]
            p = pos
            q = nxt[p]
            x = prv[p]
            xs = sym[x]
            # pair (xs, left) ending at p dies with p's symbol
            if xs >= 0 and pocc[x] != OFF:
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
                pocc[x] = OFF
            # pair (right, ys) headed at q dies with q
            y = nxt[q]
            reidx = NIL
            reidx_after = NIL
            if pocc[q] != OFF:
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
                pocc[q] = OFF
                if ys == right and not same:
                    # run of `right` lost its first element; realign heads
                    reidx = y
                    reidx_after = insafter
            # splice out q, rewrite p
            nxt[p] = y
            prv[y] = p
            sym[q] = DEAD
            sym[p] = new_id
            pocc[p] = OFF
            if reidx != NIL:
                self._reindex_run(right, reidx, reidx_after)
            # fresh pair on the left, unless x is the second half of a
            # (new_id, new_id) occurrence that already heads at w
            if xs >= 0 and not (
                xs == new_id and sym[w := prv[x]] == new_id and pocc[w] != OFF
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
                created[kn] = None
            # fresh pair on the right
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
                created[kn] = None
            pos = nextpos
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
        pairs = self._pairs
        key = (u << SHIFT) | u
        cursor = ins_after
        r = start
        free = True
        while sym[r] == u:
            s = nxt[r]
            paired = sym[s] == u
            if paired and free:
                if pocc[r] == OFF:
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
                cursor = r
                free = False
            else:
                if paired and pocc[r] != OFF:
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
                    pocc[r] = OFF
                if not paired:
                    break
                free = True
            r = s

    # -- test support -------------------------------------------------------

    def check_invariants(self) -> None:
        """Recompute the greedy index from the live sequence and compare.

        Also checks that DEAD marks exactly the slots off the live walk.
        O(n + pairs); meant for tests on small inputs after each merge.
        """
        sym = self._sym
        nxt = self._nxt
        end = len(sym) - 1  # the trailing SENT
        live: list[int] = []
        pos = 0
        while pos != end:
            live.append(pos)
            pos = nxt[pos]
        alive = set(live)
        for z in range(end):
            if (sym[z] == DEAD) == (z in alive):
                raise AssertionError(f"slot {z}: DEAD must mark exactly the slots off the live walk")
        expected = {
            (a << SHIFT) | b: [live[i] for i in occ]
            for (a, b), occ in greedy_pairs([sym[z] for z in live]).items()
        }
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
        for z in range(len(sym)):
            if (self._pocc[z] != OFF) != (z in heads):
                raise AssertionError(f"slot {z}: pocc must be OFF exactly off the occurrence lists")


def train(
    seq: BoundedSequence, stop: StopCriteria = StopCriteria()
) -> tuple[Grammar, BoundedSequence]:
    """Learn a merge grammar; returns (grammar, compressed sequence).

    grammar.rules is the merge log. An empty sequence yields an empty grammar
    and empty output. The full input sequence is held in memory: five int32
    arrays, 20 bytes per slot, plus the pair index, about 21.4 bytes per
    character once the engine is built, growing with the pair index as merges
    run (about 44 after 4000 merges on 1 MB of text), with a peak near 126
    while it is built.
    """
    stop.validate()
    merger = PairMerger(seq)
    merger.run(stop)
    return merger.grammar(), merger.sequence()


def greedy_pairs(s: Sequence[int]) -> dict[tuple[int, int], list[int]]:
    """The counting convention, literally: each pair (s[i], s[i + 1]) of an
    engine-format list mapped to the indices i of its greedy left-to-right
    non-overlapping occurrences. Negative symbols never pair. The one
    definition that train_naive, check_invariants and pair_count count by.
    """
    occ: dict[tuple[int, int], list[int]] = {}
    for i in range(len(s) - 1):
        a = s[i]
        b = s[i + 1]
        if a < 0 or b < 0:
            continue
        at = occ.setdefault((a, b), [])
        if not at or at[-1] != i - 1:  # else (a, b) at i - 1 took s[i]
            at.append(i)
    return occ


def train_naive(
    seq: BoundedSequence, stop: StopCriteria = StopCriteria()
) -> tuple[Grammar, BoundedSequence]:
    """Reference trainer: greedy_pairs recount and greedy_replace pass each
    round; returns what train() returns.

    Quadratic; exists as the behavioural oracle for train().
    """
    stop.validate()
    table = seq.alphabet
    T = len(table)
    s: list[int] = engine_array(seq).tolist()
    rules: list[Rule] = []
    while (stop.max_merges is None or len(rules) < stop.max_merges) and (
        stop.max_vocabulary is None or T + len(rules) < stop.max_vocabulary
    ):
        best = min(((-len(v), v[0], k) for k, v in greedy_pairs(s).items()), default=None)
        if best is None or -best[0] < stop.min_frequency:
            break
        rule = Rule(T + len(rules), *best[2], -best[0])
        s = greedy_replace(s, rule)
        rules.append(rule)
    return Grammar(table.clone(), rules), from_engine(s, table)


def pair_count(seq: BoundedSequence, left: int, right: int) -> int:
    """Greedy non-overlapping occurrences of (left, right), per segment.

    A reader of greedy_pairs; the tests use it as the counting convention's
    oracle.
    """
    key = (left, right)
    return sum(len(greedy_pairs(seq.symbols[lo:hi]).get(key, ())) for lo, hi in seq.segments())
