"""Iterated most-frequent-pair replacement over a bounded symbol sequence.

Two trainers live here. train() drives an incremental pair index (a
sequence whose dead runs hold their lengths, occurrence lists threaded
through position arrays, one lazy max-heap keyed by count, then first
position) and runs in amortized near-linear time. train_naive() is a
literal rescan-and-replace reference with the same observable behaviour;
it exists so the fast path can be checked against it, and stays simple.

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
from itertools import chain
from typing import Callable, Iterator, Sequence

import numpy as np

from .corpus import BoundedSequence
from .errors import require_int
from .grammar import DEAD, SHIFT, Grammar, Rule, _replay_order, engine_array, engine_list, from_engine, greedy_replace

NIL = -1  # end of an occurrence list
OFF = -2  # pocc of a slot that heads no indexed occurrence
_MASK = (1 << SHIFT) - 1
_NODE_MASK = (1 << 31) - 1  # a node id within a packed (code << 31) | node
_KEY_MASK = (1 << 64) - 1
_RIGHT_SIDE = 1 << 31  # marks a bulk merge's right-side codes (_side_keys)
# A merge of at least this many occurrences replaces its simple occurrences
# in one vectorized pass; fewer do not repay its fixed cost, about 250 us a
# merge against 3 us an occurrence in the loop. On 1 MB of English-like
# text 50 ran the merge loop faster than 30, 100 and 150, and on its
# spaceless ideographic twin as fast as 100 (interleaved runs, minimum and
# median of 9-15 per setting on a 2-core VM, CHANGES.md).
_BULK_MIN = 50
# PairMerger set-up indexes the heads of this many slices of the left-symbol
# range one at a time. On 1 MB of text (tracemalloc), 4 slices peaked at
# 16.7 bytes per character (1: 25.8, 2: 19.7) and set up in 42-44 ms (best
# of 15, three sweeps; 1 and 2 slices 47-61); 8 saved 1.3 more but took
# 50-51 ms, since each slice rescans the input and one symbol (the space)
# heads about 18% of all pairs (CHANGES.md).
_SETUP_SLICES = 4
# positions per step of set-up's scans; a step's arrays stay in cache, which
# ran the scans faster than whole-input passes at 1 MB and 10 MB
_CHUNK = 1 << 16


@dataclass(frozen=True)
class StopCriteria:
    """Training stops at the first violated criterion; checked when made."""

    min_frequency: int = 2
    max_vocabulary: int | None = None
    max_merges: int | None = None

    def __post_init__(self) -> None:
        require_int("min_frequency", self.min_frequency, 2)
        for name in ("max_vocabulary", "max_merges"):
            v = getattr(self, name)
            if v is not None:
                require_int(name, v, 0)


def _entry(key: int, count: int, first: int) -> int:
    """The selection-heap entry of a pair: one int that sorts like
    (-count, first, key). Counts and nodes fit in 31 bits and keys in 63, so
    the three fields never overlap."""
    return (((1 << 31) - count) << 95) | (first << 64) | key


def _entries(keys: list[int], count: np.ndarray, first: np.ndarray) -> list[int]:
    """_entry of each pair, from its key and int32 counts and first nodes."""
    high = (((1 << 31) - count.astype(np.int64)) << 31) | first
    return [(h << 64) | k for h, k in zip(high.tolist(), keys)]


def _groups(cut: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First and last index of each group of consecutive items, where
    cut[i] says that item i + 1 starts a group; int32, like the nodes."""
    at = cut.nonzero()[0]
    first = np.empty(at.size + 1, dtype=np.int32)
    first[0] = 0
    np.add(at, 1, out=first[1:], casting="unsafe")
    del at  # not held beside both outputs
    last = np.empty_like(first)
    np.subtract(first[1:], 1, out=last[:-1])
    last[-1] = cut.size
    return first, last


def _runs(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First and last index of each run of equal codes (_groups)."""
    return _groups(codes[1:] != codes[:-1])


def _right(sym: array, p: int) -> int:
    """The right neighbour of live slot p (grammar's engine format)."""
    s = sym[p + 1]
    return p + 1 if s > DEAD else p + 1 + DEAD - s


def _neighbour(sym: np.ndarray, z: np.ndarray, d: int) -> np.ndarray:
    """The right (d = 1) or left (d = -1) neighbour of each live slot z."""
    z = z + d
    s = sym[z]
    np.subtract(DEAD, s, out=s)  # the length of a dead run, < 0 at a live slot
    np.maximum(s, 0, out=s)
    if d > 0:
        z += s
    else:
        z -= s
    return z


def _pair_order(z: np.ndarray, codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sort nodes z by their pair codes, then by position; returns both.

    z holds int32 nodes, below 2**31, and codes their int64 codes, below
    2**32 (a negative code sorts first), so one in-place sort of the exact
    int64s (code << 31) | node orders them; both arrays are overwritten.
    """
    codes <<= 31
    codes |= z
    codes.sort()
    np.bitwise_and(codes, _NODE_MASK, out=z, casting="unsafe")
    codes >>= 31
    return z, codes


def _side_keys(codes: np.ndarray, a: int, b: int) -> list[int]:
    """The pair keys of a bulk merge's codes (PairMerger._replace_simple):
    (c, b) for a left-side code c, (a, c) for a right-side code c."""
    codes = codes.astype(np.int64)
    return np.where(codes < _RIGHT_SIDE, (codes << SHIFT) | b, (codes ^ _RIGHT_SIDE) | (a << SHIFT)).tolist()


class PairMerger:
    """Incremental training state: sequence, pair index, lazy selection heap.

    The sequence is in the engine format of grammar.engine_list, which
    keeps no links; with nocc and pocc, the engine holds three int32 lists,
    12 bytes per slot. The invariant carried through every mutation: a pair
    is indexed if and only if its count is at least 2, and an indexed pair's
    occurrences are exactly its greedy left-to-right non-overlapping
    occurrences in the current sequence, kept in position order: its key
    maps to a slot (_slot) of two int32 columns, _count and _first, which
    hold its count and first node, and nocc and pocc link the rest. A pair
    that falls to count 1 can never be selected again (_select), so it is
    pruned. A position heads at most one indexed occurrence (of the pair it
    starts); pocc is OFF exactly at the positions that head none, so
    membership tests are O(1). A pair indexed takes the next slot; pruned
    slots are reclaimed when the heap is rebuilt (_rebuild_heap).

    A merge's pass indexes none of the pairs it makes while it runs: no
    indexed pair contains the new symbol until the pass ends, when each
    made pair with 2 occurrences or more is indexed once, its nodes chained
    in position order. One node at a time, existing occurrence lists change
    only through _drop and _insert; _replace_all and _reindex_run splice
    with nothing else. A merge of at least _BULK_MIN occurrences runs the
    per-occurrence loop only over its coupled occurrences and replaces the
    rest with numpy (_replace_simple), reaching the same state;
    bulk_replacements counts the replacements made that way. stale_pops and
    dead_pops count the heap entries _select repairs and discards,
    heap_rebuilds the heaps merge_once rebuilds from the index because they
    outgrew it (_rebuild_heap), and realignments the runs of (u, u) heads
    realigned (_reindex_run).

    Once more than half of its slots are dead, merge_once drops them
    (_compact), so the three lists shrink with the live sequence, whose
    order no renumbering changes. compactions counts those merges, which
    rebuild the heap once (with the compaction), not twice.

    Set-up marks the greedy heads of same-symbol runs with
    grammar._replay_order and indexes the pairs of the input a slice of the
    left-symbol range at a time (_link_heads), so its scratch arrays are
    bounded by a slice and not by the input; the index and heap are the
    ones a single pass over every pair builds. The engine keeps no
    reference to the sequence it was made from.
    """

    def __init__(self, seq: BoundedSequence):
        self._alphabet = seq.alphabet
        self._rules: list[Rule] = []  # the merge log
        self._sym = engine_list(engine_array(seq))
        n = len(self._sym)
        self._nocc = array("i", [NIL]) * n
        self._pocc = array("i", [OFF]) * n
        self._set_views()
        self._dead = 0  # dead slots, all made since the last _compact
        self.bulk_replacements = 0  # of replacements, those made by _replace_simple
        self.stale_pops = 0  # heap tops re-ranked because their pair changed
        self.dead_pops = 0  # heap tops dropped because their pair can no longer merge
        self.heap_rebuilds = 0  # of merges, those that rebuilt the heap from the index
        self.compactions = 0  # of merges, those that compacted the engine (_compact)
        self.realignments = 0  # runs of (u, u) heads realigned (_reindex_run)
        self._slot: dict[int, int] = {}  # pair key -> its slot in _count and _first
        self._count = array("i")
        self._first = array("i")

        # Greedy head mask. Distinct-symbol pairs never overlap themselves;
        # the same-symbol pairs e of a run overlap their neighbours, and
        # _replay_order picks their greedy heads as replay does a batch of
        # pairs of one rule.
        a = self._views[0]
        valid = a >= 0
        head = valid[:-1] & valid[1:]
        del valid
        eq = a[:-1] == a[1:]
        eq &= head
        head ^= eq  # the distinct-symbol pairs
        e = np.flatnonzero(eq)
        del eq
        head[e[_replay_order(e, np.zeros(e.size, dtype=np.int32))]] = True
        del e  # not held through _link_heads' peak
        self._heap = self._link_heads(head)
        heapify(self._heap)

    def _set_views(self) -> None:
        """Zero-copy numpy views of the three lists, which are never resized;
        _compact replaces the lists and then the views."""
        self._views = tuple(np.frombuffer(v, dtype=np.int32) for v in (self._sym, self._nocc, self._pocc))

    # -- public state -----------------------------------------------------

    @property
    def merges(self) -> int:
        return len(self._rules)

    @property
    def vocab_size(self) -> int:
        return len(self._alphabet) + len(self._rules)

    @property
    def replacements(self) -> int:
        return sum(r.freq_at_merge for r in self._rules)

    @property
    def pair_keys(self) -> int:
        """How many pairs the index holds (see the class invariant)."""
        return len(self._slot)

    def grammar(self) -> Grammar:
        return Grammar(self._alphabet, self._rules)

    def sequence(self) -> BoundedSequence:
        """Snapshot of the current sequence as a BoundedSequence."""
        return from_engine(self._sym, self._alphabet)

    # -- selection ---------------------------------------------------------

    def _select(self, min_frequency: int) -> tuple[int, int] | None:
        """Pop the best mergeable pair, lazily repairing stale heap entries;
        returns its key and slot.

        A heap entry is one int, _entry(key, count, first), which sorts like
        (-count, first position, key); each indexed pair has one at or
        above its exact rank. A pair's count only falls after its creation
        pass and its first position only moves right, so a stale entry
        ranks too high and is re-ranked when it reaches the top
        (stale_pops); an entry whose pair is no longer indexed is dropped
        (dead_pops). No two live pairs share a first position, so the key
        never decides between two up-to-date entries. Every pair made after
        set-up involves the new symbol of its creation pass, so a pair
        never gains occurrences after that pass; one at count 1 can never
        reach min_frequency again, which is why the index prunes it.
        """
        heap = self._heap
        slots = self._slot
        count = self._count
        first = self._first
        while heap:
            top = heap[0]
            if (1 << 31) - (top >> 95) < min_frequency:
                break
            key = top & _KEY_MASK
            s = slots.get(key)
            if s is None:
                heappop(heap)
                self.dead_pops += 1
                continue
            now = _entry(key, count[s], first[s])
            if now != top:
                heapreplace(heap, now)
                self.stale_pops += 1
            else:
                heappop(heap)
                return key, s
        return None

    def merge_once(self, min_frequency: int = 2) -> Rule | None:
        """Merge the best pair and return its Rule, the merge log entry;
        None when no pair reaches min_frequency."""
        sel = self._select(min_frequency)
        if sel is None:
            return None
        key, s = sel
        rule = Rule(self.vocab_size, key >> SHIFT, key & _MASK, self._count[s])
        made = self._replace_all(rule.left, rule.right, rule.id)
        self._rules.append(rule)
        self._dead += rule.freq_at_merge
        heap = self._heap
        for e in made:
            heappush(heap, e)
        if 2 * self._dead > len(self._sym):
            self._compact()  # rebuilds the heap too
            self.compactions += 1
        elif len(heap) > 2 * len(self._slot):
            self._rebuild_heap()
            self.heap_rebuilds += 1
        return rule

    def _rebuild_heap(self) -> None:
        """Heap the exact entry of each indexed pair, which selects as the
        lazy heap would, and renumber the pairs' slots from 0 in index
        order, which drops the pruned ones. A rebuild at P pairs costs O(P)
        and keeps P entries, so merge_once's next, at P', comes after more
        than 2P' - P pushes: O(1) per push amortized."""
        keys = list(self._slot)
        live = np.fromiter(self._slot.values(), dtype=np.intp, count=len(keys))
        count = np.frombuffer(self._count, dtype=np.int32)[live]
        first = np.frombuffer(self._first, dtype=np.int32)[live]
        self._slot = dict(zip(keys, range(len(keys))))
        self._count = array("i", count.tobytes())
        self._first = array("i", first.tobytes())
        self._heap = _entries(keys, count, first)
        heapify(self._heap)

    def _compact(self) -> None:
        """Drop every dead slot; the live slots keep their order.

        sym is gathered into a fresh list of the live length, _CHUNK slots
        at a time, and its old chunks are overwritten with the new index of
        each slot's last live slot up to it, through which each pair's first
        and each occurrence link are remapped as nocc and pocc are gathered
        to their own fronts (_gather_live) and cut. So one fresh list is made
        while the old three are held. Heap entries carry positions, so the
        heap is rebuilt. A compaction at n slots follows more than n / 2
        replacements, so it costs O(1) per replacement amortized.
        """
        index = self._views[0]  # keeps the old sym alive until freed below
        self._views = ()
        size = len(index) - self._dead
        self._sym = array("i", [0]) * size
        new = np.frombuffer(self._sym, dtype=np.int32)
        j = 0
        for c in range(0, len(index), _CHUNK):
            chunk = index[c : c + _CHUNK]
            live = chunk > DEAD
            np.compress(live, chunk, out=new[j : j + np.count_nonzero(live)])
            np.cumsum(live, out=chunk)
            chunk += j - 1
            j = int(chunk[-1]) + 1
        del new, chunk  # chunk views the index, which is freed below
        first = np.frombuffer(self._first, dtype=np.int32)
        first[:] = index[first]  # a pruned slot's first may be NIL: any slot will do
        del first
        _gather_live(self._nocc, index)
        _gather_live(self._pocc, index)
        del index
        self._nocc = self._nocc[:size]
        self._pocc = self._pocc[:size]
        self._set_views()
        self._dead = 0
        self._rebuild_heap()

    def run(self, stop: StopCriteria) -> None:
        """Merge until max_merges or max_vocabulary is hit or no pair is left.

        Resumable: a later call with a larger max_merges continues the same
        run, so checkpoints never restart training.
        """
        max_m = stop.max_merges
        max_v = stop.max_vocabulary
        while (max_m is None or self.merges < max_m) and (
            max_v is None or self.vocab_size < max_v
        ):
            if self.merge_once(stop.min_frequency) is None:
                return

    # -- mutation ----------------------------------------------------------

    def _replace_all(self, left: int, right: int, new_id: int) -> list[int]:
        """Replace every indexed occurrence of (left, right) with new_id.

        Walks the pair's occurrences in position order. Replacing (p, q)
        kills q, rewrites p, and touches at most the two neighbouring pairs;
        a same-symbol run of `right` that loses its first head q is realigned
        in place (_reindex_run) before q is dropped, so no pair's count falls
        below its final value. The pairs the pass makes, all of which involve
        new_id, are listed as (key, node) in position order and indexed
        once the pass ends. A merge of at least _BULK_MIN occurrences walks
        only its coupled occurrences here and replaces the rest in one
        vectorized pass (_replace_simple). Returns the heap entries of the
        made pairs with a count of at least 2.
        """
        sym = self._sym
        pocc = self._pocc
        drop = self._drop
        S = SHIFT
        s = self._slot.pop((left << S) | right)
        n = self._count[s]
        occ = self._occurrences(self._first[s])
        simple = None
        if n >= _BULK_MIN:
            occ, simple = self._split(occ, n, right)
        twin = (new_id << S) | new_id
        made: list[tuple[int, int]] = []
        add = made.append
        twin_p = None  # the p of the last occurrence whose x was made to head (new_id, new_id)
        for p in occ:
            s = sym[p + 1]
            q = p + 1 if s > DEAD else p + 1 + DEAD - s
            s = sym[p - 1]
            x = p - 1 if s > DEAD else p - 1 - DEAD + s
            xs = sym[x]
            # pair (xs, left) ending at p dies with p's symbol; pocc is OFF
            # at x when xs < 0 or xs == new_id
            if pocc[x] != OFF:
                drop((xs << S) | left, x)
            # pair (right, ys) headed at q dies with q, after the run of
            # `right` that q heads is realigned
            s = sym[q + 1]
            y = q + 1 if s > DEAD else q + 1 + DEAD - s
            ys = sym[y]
            if pocc[q] != OFF:
                if ys == right:
                    self._reindex_run(q)
                drop((right << S) | ys, q)
            # kill q, join the dead runs around it, rewrite p
            sym[q] = DEAD
            sym[p + 1] = sym[y - 1] = DEAD + 1 + p - y
            sym[p] = new_id
            pocc[p] = OFF
            # fresh pair on the left
            if xs == new_id:
                # x is the previous occurrence's p: the (new_id, left) it
                # made at x is gone, and x heads (new_id, new_id) unless
                # the previous occurrence's x already does
                made.pop()
                if twin_p != x:
                    add((twin, x))
                    twin_p = p
            elif xs >= 0:
                add(((xs << S) | new_id, x))
            # fresh pair on the right
            if ys >= 0:
                add(((new_id << S) | ys, p))
        if simple is not None:
            return self._replace_simple(*simple, made, left, right, new_id)
        # index each made pair with 2 nodes or more; none has a list yet, so
        # its nodes, in position order, are chained as they are
        nodes: dict[int, list[int]] = {}
        for k, z in made:
            nodes.setdefault(k, []).append(z)
        nocc = self._nocc
        slots = self._slot
        count = self._count
        first = self._first
        entries = []
        for k, at in nodes.items():
            c = len(at)
            if c > 1:
                h = at[0]
                slots[k] = len(count)
                count.append(c)
                first.append(h)
                entries.append(_entry(k, c, h))
                pocc[h] = NIL
                for a, b in zip(at, at[1:]):
                    nocc[a] = b
                    pocc[b] = a
                nocc[at[-1]] = NIL
        return entries

    def _split(
        self, occ: Iterator[int], n: int, right: int
    ) -> tuple[list[int], tuple[np.ndarray, ...]]:
        """Split the n occurrences of a (left, right) pair into the coupled
        ones, as a position list, and the slots (p, q, y, x) and right
        symbols ys of the simple ones.

        An occurrence is coupled when its y is the next occurrence's p (the
        two share a slot) or when y starts a run of `right` that _reindex_run
        realigns. No other replacement reads or writes what a simple one
        does, so the simple ones can all be replaced after the coupled ones.
        When left == right, any neighbouring `right` makes an occurrence
        coupled, so a simple one has xs != left and ys != right.
        """
        sym = self._views[0]
        p = np.fromiter(occ, dtype=np.int32, count=n)
        q = _neighbour(sym, p, 1)
        y = _neighbour(sym, q, 1)
        x = _neighbour(sym, p, -1)
        ys = sym[y]
        coupled = ys == right
        adjacent = y[:-1] == p[1:]
        coupled[:-1] |= adjacent
        coupled[1:] |= adjacent
        if not coupled.any():
            return [], (p, q, y, x, ys)
        simple = ~coupled
        return p[coupled].tolist(), (p[simple], q[simple], y[simple], x[simple], ys[simple])

    def _replace_simple(
        self,
        p: np.ndarray,
        q: np.ndarray,
        y: np.ndarray,
        x: np.ndarray,
        ys: np.ndarray,
        made: list[tuple[int, int]],
        left: int,
        right: int,
        new_id: int,
    ) -> list[int]:
        """What the per-occurrence loop of _replace_all does to each simple
        occurrence (p, q) between x and y, for all of them at once, then
        the index of every pair made in the pass: the simple occurrences'
        and the coupled ones', listed as (key, node) in made. Returns the
        heap entries of the made pairs with a count of at least 2.

        Each pair that dies or is made varies in one symbol: (xs, left) at
        x gives way to (xs, new_id), and (right, ys) at q to (new_id, ys)
        at p. So x is coded by xs and p and q by ys with _RIGHT_SIDE set,
        and one sort of their indices orders both sides for the unlink and
        for the link: x, p and q are each in position order. Index -1 (x of
        slot 0) reads the trailing SENT, as it does in the loop.
        """
        sym, _, pocc = self._views
        n = p.size
        code = np.concatenate((sym[x], ys), dtype=np.int64)
        code[n:] |= _RIGHT_SIDE  # a SENT, -1, stays -1
        i, code = _pair_order(np.arange(2 * n, dtype=np.int32), code)
        k = code.searchsorted(0)  # no pair has a SENT
        i = i[k:]
        code = code[k:].astype(np.uint32)
        # pairs (xs, left) at x and (right, ys) at q die; pocc is OFF at
        # every slot that heads no pair
        u = np.concatenate((x, q))[i]
        linked = pocc[u] != OFF
        u = u[linked]
        dying = code[linked]
        twice = dying == left | _RIGHT_SIDE
        if twice.any():
            # (right, left) dies at x and at q: code it once, as at x
            dying[twice] = right
            u, dying = _pair_order(u, dying.astype(np.int64))
            dying = dying.astype(np.uint32)  # as code: merge 1 peaks in _unlink
        self._unlink(u, dying, lambda c: _side_keys(c, right, left))
        # kill q, join the dead runs around it, rewrite p
        sym[q] = DEAD
        sym[p + 1] = sym[y - 1] = DEAD + 1 + p - y
        sym[p] = new_id
        pocc[p] = OFF
        # fresh pairs (xs, new_id) at x and (new_id, ys) at p (x is no other
        # occurrence's p, so xs != new_id), and the coupled occurrences'
        z = np.concatenate((x, p))[i]
        if made:
            mk, mz = np.fromiter(chain.from_iterable(made), np.int64, 2 * len(made)).reshape(-1, 2).T
            mx = mk >> SHIFT
            mc = np.where(mx == new_id, (mk & _MASK) | _RIGHT_SIDE, mx)
            z, code = _pair_order(np.concatenate((z, mz.astype(np.int32))), np.concatenate((code, mc)))
        self.bulk_replacements += int(n)
        return self._link(z, code, lambda c: _side_keys(c, new_id, new_id))

    def _unlink(self, z: np.ndarray, code: np.ndarray, keys_of: Callable[[np.ndarray], list[int]]) -> None:
        """Remove nodes z, sorted as by _pair_order, from the occurrence
        lists of their pairs; keys_of gives the pair keys of an array of
        codes.

        Removed nodes that follow each other in one list form a chain, and
        each chain is bridged in one step from its predecessor to its
        successor. Each pair's count and first node are updated in its
        slot; a pair left with one node or none is pruned.
        """
        if not z.size:
            return
        nocc, pocc = self._views[1:]
        first, last = _runs(code)
        nz = nocc[z]
        # a node followed by the next node of its list is in that node's pair
        cfirst, clast = _groups(nz[:-1] != z[1:])
        after = nz[clast]
        del nz, clast  # not held through the peak below
        before = pocc[z[cfirst]]
        # a NIL end indexes slot -1, the trailing SENT, which heads nothing:
        # its nocc is never read and its pocc is reset
        nocc[before] = after
        pocc[after] = before
        pocc[z] = OFF
        pocc[-1] = OFF
        keys = keys_of(code[first])
        slots = self._slot
        at = np.fromiter(map(slots.__getitem__, keys), dtype=np.intp, count=len(keys))
        count = np.frombuffer(self._count, dtype=np.int32)
        heads = np.frombuffer(self._first, dtype=np.int32)
        head = before == NIL  # a chain that heads its list: the pair's first moves
        heads[at[first.searchsorted(cfirst[head], side="right") - 1]] = after[head]
        rest = count[at] - (last - first + 1)
        count[at] = rest
        gone = rest < 2
        if gone.any():
            for i in gone.nonzero()[0].tolist():
                del slots[keys[i]]
            pocc[heads[at[rest == 1]]] = OFF

    def _link_heads(self, head: np.ndarray) -> list[int]:
        """Index the set-up sequence from its greedy head mask, a slice of
        the left-symbol range at a time; returns the heap entries of the
        pairs indexed, in index order.

        The _SETUP_SLICES slices hold about equal shares of the heads, and
        each is gathered _CHUNK positions at a time, so every scratch array
        is bounded by a slice or a chunk, not by the input. A slice from
        left symbol lo codes a pair as (left - lo) * width + right and spans
        at most 2**32 // width left symbols, so its codes stay below 2**32
        (_pair_order); below 2**16 symbols that adds no slice. A pair's
        nodes share its left symbol, so each pair is indexed whole within
        one slice, and the slices index the pairs in the order one pass
        over every head would.
        """
        a = self._views[0]
        left = a[:-1]
        right = a[1:]
        counts = np.zeros(len(self._alphabet), dtype=np.int64)
        for c in range(0, left.size, _CHUNK):  # bincount widens its input to int64
            counts += np.bincount(left[c : c + _CHUNK][head[c : c + _CHUNK]], minlength=counts.size)
        below = np.concatenate(([0], np.cumsum(counts)))  # [s]: heads of left symbols < s
        # a symbol's heads go to the slice in which their middle falls
        shares = np.arange(1, _SETUP_SLICES) * below[-1] / _SETUP_SLICES
        cuts = np.searchsorted((below[:-1] + below[1:]) / 2, shares).tolist()
        width = self.vocab_size + 1
        bounds = sorted({*cuts, *range(0, counts.size, (1 << 32) // width), counts.size})

        def keys_of(c: np.ndarray) -> list[int]:  # of the slice from lo
            return (((c // width + lo) << SHIFT) | (c % width)).tolist()

        entries: list[int] = []
        for lo, hi in zip(bounds, bounds[1:]):
            if below[hi] == below[lo]:
                continue
            z = np.empty(below[hi] - below[lo], dtype=np.int32)
            codes = np.empty(z.size, dtype=np.int64)
            j = 0
            for c in range(0, left.size, _CHUNK):
                lc = left[c : c + _CHUNK]
                at = np.flatnonzero(head[c : c + _CHUNK] & (lc >= lo) & (lc < hi))
                end = j + at.size
                z[j:end] = at + c
                np.multiply(lc[at] - lo, width, out=codes[j:end], dtype=np.int64)
                codes[j:end] += right[c : c + _CHUNK][at]
                j = end
            entries += self._link(*_pair_order(z, codes), keys_of)
            del z, codes  # before the next slice's are made
        return entries

    def _link(self, z: np.ndarray, code: np.ndarray, keys_of: Callable[[np.ndarray], list[int]]) -> list[int]:
        """Build the occurrence list of each pair from its nodes z, sorted
        as by _pair_order; keys_of gives the pair keys of an array of codes.
        No such pair has a list yet. A pair with one node is not indexed;
        each other takes the next slot. Returns the heap entries of the
        pairs indexed, in code order.

        Builds one slice of the set-up index (_link_heads), and all the
        pairs a bulk merge makes, in one call.
        """
        if not z.size:
            return []
        nocc, pocc = self._views[1:]
        first, last = _runs(code)
        # chain every node to the next, then cut the chain between pairs
        nocc[z[:-1]] = z[1:]
        pocc[z[1:]] = z[:-1]
        nocc[z[last]] = NIL
        pocc[z[first]] = NIL
        many = first != last
        pocc[z[first[~many]]] = OFF
        first = first[many]
        count = last[many] - first + 1
        heads = z[first]
        keys = keys_of(code[first])
        s = len(self._count)
        self._slot.update(zip(keys, range(s, s + len(keys))))
        self._count.frombytes(count.astype(np.int32).tobytes())
        self._first.frombytes(heads.tobytes())
        return _entries(keys, count, heads)

    def _occurrences(self, pos: int) -> Iterator[int]:
        """The occurrence list that starts at pos, in position order."""
        nocc = self._nocc
        while pos != NIL:
            yield pos
            pos = nocc[pos]

    def _drop(self, key: int, z: int) -> None:
        """Unlink node z from key's occurrence list; a pair left with one
        node is pruned. Every indexed pair has at least 2 nodes, so one is
        always left."""
        nocc = self._nocc
        pocc = self._pocc
        first = self._first
        s = self._slot[key]
        pz = pocc[z]
        nz = nocc[z]
        if pz != NIL:
            nocc[pz] = nz
        else:
            first[s] = nz
        if nz != NIL:
            pocc[nz] = pz
        c = self._count[s] - 1
        if c > 1:
            self._count[s] = c
        else:
            del self._slot[key]
            pocc[first[s]] = OFF
        pocc[z] = OFF

    def _insert(self, key: int, z: int, after: int) -> None:
        """Link node z into key's occurrence list behind node `after`, which
        is on that list, so the pair's first node stays (_reindex_run)."""
        nocc = self._nocc
        pocc = self._pocc
        nz = nocc[after]
        nocc[after] = z
        pocc[z] = after
        nocc[z] = nz
        if nz != NIL:
            pocc[nz] = z
        self._count[self._slot[key]] += 1

    def _reindex_run(self, q: int) -> None:
        """Realign the greedy heads of (u, u) over the run of u after q,
        where q is the run's first head and is about to be dropped.

        q starts the run, so its old heads sit at even offsets from q and
        its new ones at odd offsets. Each new head is inserted behind the
        one before it (the first behind q) before the old head that follows
        it is dropped, so the pair's count never falls below its final
        value and the list stays position-sorted.
        """
        self.realignments += 1
        sym = self._sym
        u = sym[q]
        key = (u << SHIFT) | u
        head = q
        r = _right(sym, q)
        while sym[_right(sym, r)] == u:
            self._insert(key, r, head)
            head = r
            old = _right(sym, r)
            r = _right(sym, old)
            if sym[r] != u:
                break
            self._drop(key, old)

    # -- test support -------------------------------------------------------

    def check_invariants(self) -> None:
        """Recompute the greedy index from the live sequence and compare:
        the indexed pairs are exactly those with a count of at least 2, each
        with its greedy occurrences chained both ways.

        Also checks that each maximal dead run holds its length in its first
        and its last slot (grammar.engine_list), that _dead counts the dead
        slots and that they are at most half of all slots (_compact), and
        the heap's bound on each pair (_select).
        O(n + pairs + heap); meant for tests on small inputs after each merge.
        """
        sym = self._sym
        end = len(sym) - 1  # the trailing SENT
        live = [z for z in range(end) if sym[z] > DEAD]
        for before, z in zip([-1] + live, live + [end]):
            if z - 1 > before and not sym[before + 1] == sym[z - 1] == DEAD + 1 + before - z:
                raise AssertionError(f"slots {before + 1}-{z - 1}: a dead run must hold its length at its ends")
        dead = end - len(live)
        if self._dead != dead:
            raise AssertionError(f"_dead is {self._dead}, but {dead} slots are DEAD")
        if 2 * dead > len(sym):
            raise AssertionError(f"{dead} of {len(sym)} slots are DEAD: more than half, uncompacted")
        expected = {
            (a << SHIFT) | b: [live[i] for i in occ]
            for (a, b), occ in greedy_pairs([sym[z] for z in live]).items()
            if len(occ) >= 2
        }
        actual: dict[int, list[int]] = {}
        for k, s in self._slot.items():
            occ = list(self._occurrences(self._first[s]))
            if len(occ) != self._count[s]:
                raise AssertionError(f"count mismatch for key {k}: {len(occ)} != {self._count[s]}")
            if [self._pocc[z] for z in occ] != [NIL] + occ[:-1]:
                raise AssertionError(f"pocc does not link key {k}'s occurrences backwards")
            actual[k] = occ
        if expected != actual:
            raise AssertionError(f"index mismatch: expected {expected}, got {actual}")
        heads = {z for occ in actual.values() for z in occ}
        for z in range(len(sym)):
            if (self._pocc[z] != OFF) != (z in heads):
                raise AssertionError(f"slot {z}: pocc must be OFF exactly off the occurrence lists")
        best = {e & _KEY_MASK: e for e in sorted(self._heap, reverse=True)}  # each key's top
        for k, s in self._slot.items():
            if k not in best or best[k] > _entry(k, self._count[s], self._first[s]):
                raise AssertionError(f"heap: no entry for key {k} ranks at or above its record")


def _gather_live(a: array, index: np.ndarray) -> None:
    """Move a's values at the live slots to its front, in order, _CHUNK
    slots at a time. index[z] is the new index of the last live slot up to
    slot z (PairMerger._compact): z is live where index rises, and a value
    that is a slot (>= 0) becomes its new index. np.compress gathers faster
    than a boolean index and buffers an output that overlaps its input."""
    v = np.frombuffer(a, dtype=np.int32)
    j = 0
    for c in range(0, v.size, _CHUNK):
        chunk = index[c : c + _CHUNK]
        live = np.empty(chunk.size, dtype=bool)
        live[0] = chunk[0] == j
        np.not_equal(chunk[1:], chunk[:-1], out=live[1:])
        out = v[j : int(chunk[-1]) + 1]
        np.compress(live, v[c : c + _CHUNK], out=out)
        np.copyto(out, index[out], where=out >= 0)  # a negative value reads index from its end
        j += out.size


def train(
    seq: BoundedSequence, stop: StopCriteria = StopCriteria()
) -> tuple[Grammar, BoundedSequence]:
    """Learn a merge grammar; returns (grammar, compressed sequence).

    seq and stop were checked when made. grammar.rules is the merge log. An
    empty sequence yields an empty grammar and empty output. The full input
    sequence is held in memory: three int32 arrays, 12 bytes per slot, plus
    the pair index and a heap of at most twice its size, about 12.1 bytes
    per character once the engine is built, with a peak near 16.7 while it
    is built, a slice of the pairs at a time (see PairMerger). The engine
    drops its dead slots once they are more than half of it, so it shrinks
    as merges run: about 5.9 bytes per character after 4000 merges on 1 MB
    of text, and the merge loop peaks at about 15.7 there. Frequent merges
    are replaced in bulk; the result is the same as one at a time.
    """
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
    return Grammar(table, rules), from_engine(s, table)


def pair_count(seq: BoundedSequence, left: int, right: int) -> int:
    """Greedy non-overlapping occurrences of (left, right), per segment.

    A reader of greedy_pairs; the tests use it as the counting convention's
    oracle.
    """
    key = (left, right)
    s = seq.symbols.tolist()
    return sum(len(greedy_pairs(s[lo:hi]).get(key, ())) for lo, hi in seq.segments())
