"""Learned rule sets: expand, apply to new text, invert, persist.

A grammar is a terminal table plus rules ordered by id, each rule rewriting
one new symbol as a pair of earlier symbols. Expansion is therefore acyclic
and every symbol denotes a fixed terminal string.

Application replays the rules over new text in creation order (the usual
BPE convention) instead of re-ranking pairs by frequency; characters the
grammar has never seen pass through as fresh single-character symbols with
ids OOV_BASE + codepoint. apply() does this by rule rank: a per-grammar
table maps each rule's pair to its id. On inputs of at least
_BATCH_MIN_CHARS characters, a batch phase first replays the lowest rules
in numpy passes, a run of rules at a time that read none of each other's
ids. A small heap per segment then pops the remaining pairs that are rule
keys in (rule id, position) order. apply_naive() is the literal
rule-by-rule replay that apply() is checked against.

It also owns the line format of tokens: line_token, which every writer
calls, and read_segmented_chunks, the one segmented-file reader.
"""

from __future__ import annotations

import re
from array import array
from contextlib import suppress
from dataclasses import dataclass
from functools import cached_property
from heapq import heapify, heappop, heappush
from itertools import chain
from typing import Callable, Iterator, NamedTuple, TextIO

import numpy as np

from .corpus import _GATHER, BoundedSequence, SymbolTable, read_line_chunks, write_lines
from .errors import (
    CorpusDecodeError,
    DomainError,
    GrammarFileError,
    GrammarVersionError,
    SegmentedFileError,
    UnknownSymbolError,
)

OOV_BASE = 1 << 32  # ids at OOV_BASE + cp are pass-through single characters

# The engine format, shared by training (repair.PairMerger) and apply. An
# engine array holds a sequence's symbol ids with SENT at every boundary and
# one more SENT at the end; engine_list() makes the int32 list sym of it. The
# trailing SENT is the right neighbour of the last symbol and what index -1
# (the left neighbour of the first) reads, so neighbour lookups need no
# bounds test. The engine keeps no links. A merge kills the slot it removes,
# and each maximal run of L dead slots holds DEAD - L in its first and its
# last slot (one slot when L = 1); its other slots hold any value up to
# DEAD, which every live symbol is above. The right neighbour of a live slot
# p is therefore p + 1, or p + 1 + L when sym[p + 1] is dead, and its left
# neighbour p - 1, or p - 1 - L. Merging (p, q) into p, with y the right
# neighbour of q, kills q and writes the joined run's length y - 1 - p at
# p + 1 and y - 1. Slot 0 and the trailing SENT never die, and a run is
# shorter than 2**31 + DEAD, about 2**31 - 2**20 slots; its values stay
# small ints, which CPython adds fastest. Pair keys are (left << SHIFT) |
# right and apply's heap entries (rule id << SHIFT) | position; ids and
# positions fit in int32.
SHIFT = 32
SENT = -1  # boundary sentinel; never pairable
DEAD = -(0x10FFFF + 3)  # below every unknown character -(codepoint + 2)
_KEY_END = np.iinfo(np.int64).max  # above every pair key

# Grammar._rank_table: (rank, keys, ids, left, right, reach)
_RankTable = tuple[dict[int, int], np.ndarray, np.ndarray, list[int], list[int], np.ndarray]

# apply's batch phase runs on inputs of at least _BATCH_MIN_CHARS characters
# and ends at the first batch with fewer than _BATCH_MIN_CANDIDATES candidate
# pairs; the heap replays the rest. A batch costs a few numpy passes over the
# whole input however few pairs it merges, so below these sizes the heap is
# faster (threshold sweep and per-length latencies in CHANGES.md).
_BATCH_MIN_CHARS = 1024
_BATCH_MIN_CANDIDATES = 16
_NO_RULE = np.iinfo(np.int32).max  # apply's rule id of a pair that is no rule key

MAGIC = "RGRAM"
VERSION = 1


class Rule(NamedTuple):
    id: int
    left: int
    right: int
    freq_at_merge: int


@dataclass(frozen=True)
class ApplyReport:
    """Diagnostics from apply: each character outside the grammar's alphabet
    with its count, and how many merges the batch phase made."""

    unknown_chars: dict[str, int]
    batch_merges: int  # merges made in the batch phase's numpy passes


class Grammar:
    """Immutable after construction; safe to share across threads. Its
    terminals are the immutable SymbolTable of the sequence it was trained
    on or of its file, shared with every sequence apply returns. Each
    per-symbol table is built on first use and cached; two threads may each
    build one once, and the results are equal."""

    def __init__(self, terminals: SymbolTable, rules: list[Rule]):
        for want, rule in enumerate(rules, len(terminals)):
            if problem := _rule_problem(want, *rule):
                raise DomainError(problem)
        self.terminals = terminals
        self.rules = tuple(rules)

    @property
    def vocab_size(self) -> int:
        return len(self.terminals) + len(self.rules)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Grammar)
            and self.terminals == other.terminals
            and self.rules == other.rules
        )

    def __repr__(self) -> str:
        return f"Grammar({len(self.terminals)} terminals, {len(self.rules)} rules)"

    def _known(self, s: int) -> bool:
        """expand's and depth's one id range: True for a symbol of this grammar,
        False for a pass-through character (OOV_BASE + codepoint), else raises."""
        if OOV_BASE <= s <= OOV_BASE + 0x10FFFF:
            return False
        if not 0 <= s < self.vocab_size:
            raise UnknownSymbolError(s)
        return True

    def expand(self, s: int) -> str:
        """Terminal string a symbol stands for."""
        return self._expansions[s] if self._known(s) else chr(s - OOV_BASE)

    @cached_property
    def _expansions(self) -> np.ndarray:
        """Object array: the terminal string of every symbol, by id."""
        exp = list(self.terminals.chars())
        for r in self.rules:
            exp.append(exp[r.left] + exp[r.right])
        return np.array(exp, dtype=object)

    @cached_property
    def _tokens(self) -> tuple[np.ndarray, np.ndarray]:
        """(lines, unwritable): every symbol's expansion as line_token
        writes it (object array), and the mask of the symbols whose
        expansion no line can hold (their line is None), by id."""
        lines = []
        for t in self._expansions.tolist():
            try:
                lines.append(line_token(t))
            except DomainError:
                lines.append(None)
        return np.array(lines, dtype=object), np.array([t is None for t in lines])

    @cached_property
    def _depths(self) -> list[int]:
        d = [0] * len(self.terminals)
        for r in self.rules:
            d.append(1 + max(d[r.left], d[r.right]))
        return d

    def depth(self, s: int) -> int:
        """0 for terminals, else 1 + max over the two constituents."""
        return self._depths[s] if self._known(s) else 0

    @cached_property
    def _rank_table(self) -> _RankTable:
        """apply's lookups: (rank, keys, ids, left, right, reach).

        rank maps a pair key (left << SHIFT) | right to its rule id; a key
        repeated in several rules maps to its lowest id, because in-order
        replay leaves no occurrence of the pair for a later copy to merge.
        keys holds the same keys sorted, ids their int32 rule ids; keys ends
        in _KEY_END so that searchsorted always returns a valid index.
        left[k] and right[k] are rule k's pair (terminal slots hold SENT).
        reach[k] is the running maximum of max(left, right) over ids up to
        k, so the first rule that reads an id >= m is searchsorted(reach, m).
        """
        rank = {(r.left << SHIFT) | r.right: r.id for r in reversed(self.rules)}
        keys = np.fromiter(rank, dtype=np.int64, count=len(rank))
        ids = np.fromiter(rank.values(), dtype=np.int32, count=len(rank))
        order = np.argsort(keys)
        pad = [SENT] * len(self.terminals)
        left = pad + [r.left for r in self.rules]
        right = pad + [r.right for r in self.rules]
        return (
            rank,
            np.append(keys[order], _KEY_END),
            np.append(ids[order], np.int32(0)),
            left,
            right,
            np.maximum.accumulate(np.maximum(left, right)),
        )


def engine_array(seq: BoundedSequence, lut: np.ndarray | None = None) -> np.ndarray:
    """Engine array of seq: its terminal ids, SENT at each boundary, SENT last.

    It is int32, or lut's dtype when lut is given: lut maps every terminal
    id first (apply moves ids into a grammar's id space with it). The ids
    are range-checked before the cast, so an id of 2**32 or more cannot
    wrap into range. seq's boundaries were checked when it was made.
    """
    syms = seq.symbols
    if syms.size and (syms.min() < 0 or syms.max() >= len(seq.alphabet)):
        raise DomainError("sequence contains non-terminal symbols")
    syms = syms.astype(np.int32, copy=False) if lut is None else lut[syms]
    return np.insert(syms, np.append(seq.boundaries, syms.size), SENT)


def engine_list(a: np.ndarray) -> array:
    """Engine array a as the int32 list sym, in the engine format above."""
    out = array("i", [0]) * a.size  # exact size; frombytes over-allocates by 1/16
    np.frombuffer(out, dtype=np.int32)[:] = a
    return out


def from_engine(symbols: array | list[int] | np.ndarray, alphabet: SymbolTable) -> BoundedSequence:
    """Engine symbols, dead slots and trailing SENT included, back to a
    BoundedSequence over alphabet.

    Every other SENT becomes a boundary and an unknown character
    -(codepoint + 2) (see _engine_input) becomes OOV_BASE + codepoint; only
    then is the output widened from the engine's int32 to int64.
    """
    a = np.asarray(symbols)
    a = a[a > DEAD][:-1]
    sent = a == SENT
    bpos = np.flatnonzero(sent)
    a = a[~sent]
    if (a < 0).any():
        a = np.where(a < 0, OOV_BASE - 2 - a.astype(np.int64), a)
    return BoundedSequence(a, bpos - np.arange(bpos.size), alphabet)


def apply(g: Grammar, seq: BoundedSequence) -> BoundedSequence:
    return apply_with_report(g, seq)[0]


def _engine_input(g: Grammar, seq: BoundedSequence) -> tuple[np.ndarray, dict[str, int]]:
    """seq as an int32 engine array in g's id space, and the count of each
    character g has never seen.

    Such a character becomes -(codepoint + 2): negative, so it never pairs,
    and distinct from SENT and from every dead slot's value.
    """
    chars = seq.alphabet.chars()
    gids = [g.terminals.id_of(ch) for ch in chars]
    lut = np.array([-(ord(c) + 2) if i is None else i for c, i in zip(chars, gids)], np.int32)
    unknown = [sid for sid, i in enumerate(gids) if i is None]
    a = engine_array(seq, lut)  # range-checks the ids before they are counted
    counts = np.bincount(seq.symbols, minlength=len(chars)) if unknown else None
    unknown_chars = {chars[sid]: int(counts[sid]) for sid in unknown if counts[sid]}
    return a, unknown_chars


def apply_with_report(g: Grammar, seq: BoundedSequence) -> tuple[BoundedSequence, ApplyReport]:
    """Segment new text with a trained grammar, replaying merges in order.

    seq is a terminal encoding under its own alphabet; symbols are remapped
    into the grammar's id space first. Unknown characters become untouchable
    pass-through symbols and are tallied in the report.

    Replay goes by rule rank: one vectorized lookup gives every adjacent
    pair's rule id. On inputs of at least _BATCH_MIN_CHARS characters the
    batch phase (_replay_batches) then replays the lowest rules in numpy
    passes and keeps the rule ids of the pairs it leaves up to date. The
    pairs that are still rule keys then enter a heap, one heap per segment,
    popped in (rule id, position) order. A pop whose pair has changed since
    the push is skipped; a merge pushes the at most two new neighbour pairs
    that are rule keys. A merge only creates pairs that contain its new id,
    and only later rules use that id, so this is in-order replay with one
    greedy left-to-right pass per rule (apply_naive), same-symbol runs
    included ("aaa" gives "Xa").
    """
    rank, rank_keys, rank_ids, left, right, reach = g._rank_table
    a, unknown_chars = _engine_input(g, seq)
    rid = _rule_ids(a[:-1], a[1:], rank_keys, rank_ids)
    batch_merges = 0
    if len(seq) >= _BATCH_MIN_CHARS:
        a, rid, batch_merges = _replay_batches(a, rid, rank_keys, rank_ids, reach)
    S = SHIFT

    # Seed entries (rule id << S) | position, one per rule-key pair.
    pos = np.flatnonzero(rid != _NO_RULE)
    entries = (rid[pos].astype(np.int64) << S) | pos
    del rid
    # entries[lo:hi] of consecutive cuts are one segment's; the last cut is
    # the trailing sentinel's, len(entries)
    cuts = np.searchsorted(pos, np.flatnonzero(a == SENT)).tolist()
    del pos

    sym = engine_list(a)
    del a
    get = rank.get
    mask = (1 << S) - 1
    for lo, hi in zip([0, *cuts], cuts):
        heap = entries[lo:hi].tolist()
        heapify(heap)
        while heap:
            e = heappop(heap)
            k = e >> S
            p = e & mask
            if sym[p] != left[k]:
                continue  # the pair changed since this entry was pushed
            # read each neighbour's slot once, and once more past a dead run:
            # the fewest reads, which this loop's speed shows
            q = p + 1
            s = sym[q]
            if s <= DEAD:
                q += DEAD - s
                s = sym[q]
            if s != right[k]:
                continue
            y = q + 1
            ys = sym[y]
            if ys <= DEAD:
                y += DEAD - ys
                ys = sym[y]
            sym[q] = DEAD
            sym[p + 1] = sym[y - 1] = DEAD + 1 + p - y
            sym[p] = k
            x = p - 1
            xs = sym[x]
            if xs <= DEAD:
                x -= DEAD - xs
                xs = sym[x]
            r = get((xs << S) | k)
            if r is not None:
                heappush(heap, (r << S) | x)
            r = get((k << S) | ys)
            if r is not None:
                heappush(heap, (r << S) | p)

    return from_engine(sym, g.terminals), ApplyReport(unknown_chars, batch_merges)


def _rule_ids(
    left: np.ndarray, right: np.ndarray, rank_keys: np.ndarray, rank_ids: np.ndarray
) -> np.ndarray:
    """int32 rule id of each pair (left[i], right[i]), _NO_RULE where the
    pair is no rule key. A pair with a boundary or an unknown character in
    it has a negative key and matches none."""
    keys = (left.astype(np.int64) << SHIFT) | right
    at = np.searchsorted(rank_keys, keys)
    return np.where(rank_keys[at] == keys, rank_ids[at], _NO_RULE)


def _replay_batches(
    a: np.ndarray, rid: np.ndarray, rank_keys: np.ndarray, rank_ids: np.ndarray, reach: np.ndarray
) -> tuple[np.ndarray, np.ndarray, int]:
    """Replay the lowest rules over engine array a in numpy passes.

    rid[i] is the rule id of the pair (a[i], a[i + 1]). Each batch is the
    rules [m, end): m is the lowest rule id among the pairs, and end is the
    first rule that reads an id >= m. No rule in the batch reads an id the
    batch makes, and no rule below m has a pair, so the batch's candidates,
    its pairs with ids below end, are fixed while it runs; _replay_order
    picks the ones in-order replay merges. Then a is compacted and rid is
    looked up again for the two pairs around each merge. The phase ends at
    the first batch with fewer than _BATCH_MIN_CANDIDATES candidates.
    Returns the compacted a and rid and the number of merges made.
    """
    merges = 0
    while rid.size:
        m = rid.min()
        if m == _NO_RULE:
            break
        cand = np.flatnonzero(rid < np.searchsorted(reach, m))
        if cand.size < _BATCH_MIN_CANDIDATES:
            break
        t = cand[_replay_order(cand, rid[cand])]
        a[t] = rid[t]  # each merged pair's left slot takes its rule id
        keep = np.ones(a.size, dtype=bool)
        keep[t + 1] = False  # t + 1 is never the trailing SENT
        a = a[keep]
        rid = rid[keep[:-1]]
        u = t - np.arange(t.size)  # where the merged symbols now sit
        q = np.concatenate((u[u > 0] - 1, u))
        rid[q] = _rule_ids(a[q], a[q + 1], rank_keys, rank_ids)
        merges += t.size
    return a, rid, merges


def _replay_order(pos: np.ndarray, rid: np.ndarray) -> np.ndarray:
    """Which of a batch's candidate pairs in-order replay merges.

    pos holds the candidates' sorted positions and rid their rule ids.
    Replay takes candidates in (rule id, position) order and merges each one
    whose overlapping neighbours, at pos - 1 and pos + 1, it has not merged:
    the greedy independent set of the path the overlaps make. Rounds of
    local minima (Blelloch, Fineman and Shun, SPAA 2012) compute it exactly;
    on a path their outcome has a closed form. A local minimum, a candidate
    that goes before its overlapping neighbours, is merged. From it, replay
    alternates along the stretch that rises to its right (or left): the
    candidate after a merged one loses its slot, the one after that is
    merged. A candidate that goes after both neighbours is merged when both
    lose, which the same alternation says from either side. So a candidate
    is merged unless it lies an odd number of steps up a rising stretch
    from the local minimum that stretch starts at. With one rule id, a run is
    merged at even offsets from its start: PairMerger's set-up heads.
    """
    n = pos.size
    idx = np.arange(n)
    overlap = pos[1:] == pos[:-1] + 1
    first = rid[:-1] <= rid[1:]  # j goes before j + 1: a lower id, or the same id to its left
    below_left = np.zeros(n, dtype=bool)  # j - 1 overlaps j and goes before it
    below_left[1:] = overlap & first
    below_right = np.zeros(n, dtype=bool)
    below_right[:-1] = overlap & ~first
    minimum = ~(below_left | below_right)
    up_left = idx - np.maximum.accumulate(np.where(minimum, idx, 0))
    up_right = np.minimum.accumulate(np.where(minimum, idx, n)[::-1])[::-1] - idx
    return ~((below_left & (up_left % 2 == 1)) | (below_right & (up_right % 2 == 1)))


def apply_naive(g: Grammar, seq: BoundedSequence) -> BoundedSequence:
    """Reference apply: each rule in id order, one greedy left-to-right pass.

    O(rules x length); exists as the behavioural oracle for apply().
    """
    s = _engine_input(g, seq)[0].tolist()
    for rule in g.rules:
        s = greedy_replace(s, rule)
    return from_engine(s, g.terminals)


def greedy_replace(s: list[int], rule: Rule) -> list[int]:
    """The literal replace pass: one left-to-right scan rewriting each
    greedy (rule.left, rule.right) as rule.id; apply_naive and train_naive
    step by it."""
    out: list[int] = []
    i = 0
    n = len(s)
    while i < n:
        if i + 1 < n and s[i] == rule.left and s[i + 1] == rule.right:
            out.append(rule.id)
            i += 2
        else:
            out.append(s[i])
            i += 1
    return out


def _gathered(
    a: np.ndarray, boundaries: np.ndarray, table: np.ndarray, text_of: Callable[[int], str], blank: str
) -> Iterator[list[str]]:
    """table[s] for each symbol s of a, with blank at each boundary, as one
    list per _GATHER symbols.

    An id that indexes no entry of table (a pass-through character, or no
    symbol) takes text_of(id) instead. text_of runs once per distinct such
    id, and may raise, before this returns.
    """
    n = a.size
    v = len(table)
    u = a.view(f"u{a.itemsize}")  # a negative id reads as one >= v
    other = None
    if n and u.max() >= v:
        outside = [a[lo : lo + _GATHER][u[lo : lo + _GATHER] >= v] for lo in range(0, n, _GATHER)]
        other = np.unique(np.concatenate(outside))
        table = np.concatenate((table, np.array([text_of(int(s)) for s in other], dtype=object)))

    def pieces() -> Iterator[list[str]]:
        j = 0
        for lo in range(0, max(n, 1), _GATHER):
            hi = lo + _GATHER
            c = a[lo:hi]
            if other is not None:
                c = np.where(u[lo:hi] >= v, v + np.searchsorted(other, c), c)
            piece = table[c]
            # a boundary at b is a blank before symbol b
            k = int(np.searchsorted(boundaries, hi)) if hi < n else boundaries.size
            if k > j:
                piece = np.insert(piece, boundaries[j:k] - lo, blank)
                j = k
            yield piece.tolist()

    return pieces()


def decode(g: Grammar, seq: BoundedSequence) -> str:
    """Expand every symbol and re-insert one newline per boundary."""
    pieces = _gathered(seq.symbols, seq.boundaries, g._expansions, g.expand, "\n")
    return "".join(chain.from_iterable(pieces))


# -- grammar files -----------------------------------------------------------


def save(g: Grammar, path: str) -> None:
    """Line-oriented UTF-8 dump; load() restores it bit-exactly."""
    lines = [f"{MAGIC}\t{VERSION}", f"T\t{len(g.terminals)}"]
    for sid, ch in enumerate(g.terminals.chars()):
        lines.append(f"t\t{sid}\t{ord(ch)}")
    for r in g.rules:
        lines.append(f"r\t{r.id}\t{r.left}\t{r.right}\t{r.freq_at_merge}")
    write_lines(path, lines)


def _canonical_int(text: str) -> int | None:
    """text as an int when it is the decimal str() writes, else None; so
    '097', '+1', '-0', ' 9', '9_7' and non-ASCII digits are all refused."""
    try:
        value = int(text)
    except ValueError:
        return None
    return value if str(value) == text else None


def _fields(lineno: int, line: str, tag: str, kind: str, names: tuple[str, ...]) -> list[int]:
    """The numbers of line tag<TAB>n1<TAB>..., one per name, as save() writes them."""
    parts = line.split("\t")
    if len(parts) != len(names) + 1 or parts[0] != tag:
        raise GrammarFileError(lineno, f"expected {kind} line")
    values: list[int] = []
    for name, text in zip(names, parts[1:]):
        value = _canonical_int(text)
        if value is None:
            raise GrammarFileError(lineno, f"malformed {name}")
        values.append(value)
    return values


def _rule_problem(want: int, rid: int, left: int, right: int, freq: int) -> str | None:
    """Why a rule cannot be a grammar's rule want, or None (Grammar and load ask here)."""
    if rid != want:
        return f"rule ids must be consecutive; got {rid}"
    if not (0 <= left < rid and 0 <= right < rid):
        return f"rule {rid} references a later or negative symbol"
    if freq < 0:
        return f"rule {rid} has negative frequency {freq}"
    return None


def _parse_rules(lineno: int, lines: list[str], first_id: int) -> list[Rule]:
    """Rule lines from lineno on, one at a time; the first bad one raises GrammarFileError."""
    rules: list[Rule] = []
    for lineno, line in enumerate(lines, lineno):
        rule = _fields(lineno, line, "r", "rule", ("rule id", "left id", "right id", "frequency"))
        if problem := _rule_problem(first_id + len(rules), *rule):
            raise GrammarFileError(lineno, problem)
        rules.append(Rule(*rule))
    return rules


# The start of the first line that is not a rule line as save() writes it
# with every number below 10**18, so that it fits int64; load parses a rule
# section that has one line by line. A search keeps no state per line; a
# match of the whole section by a repeated group would keep about 550 bytes
# of backtracking state per line.
_NUMBER = r"(?:0|[1-9][0-9]{0,17})"
_NOT_A_RULE = re.compile(rf"^(?!r\t{_NUMBER}\t{_NUMBER}\t{_NUMBER}\t{_NUMBER}$)", re.MULTILINE)


def load(path: str) -> Grammar:
    """Read a save() file: magic and version, terminal count, one 't' line
    per terminal, one 'r' line per rule. A parse error raises
    GrammarFileError naming its 1-based line; bad bytes CorpusDecodeError,
    after any bad line above them. Every integer must be written as save()
    writes it, so saving a loaded grammar reproduces its file.

    All lines are read, then parsed front to back. One regex search, one
    np.fromstring and Grammar's check read a valid rule section; any other
    is parsed line by line (_parse_rules), which names its first bad line."""
    lines: list[str] = []
    bad_bytes: CorpusDecodeError | None = None
    try:
        for _, block in read_line_chunks(path):
            lines += block
    except CorpusDecodeError as exc:
        bad_bytes = exc  # raised where the lines run out, or after the last rule

    if not lines:
        raise bad_bytes or GrammarFileError(1, "empty file")
    head = lines[0].split("\t")
    if head[0] != MAGIC:
        raise GrammarFileError(1, f"bad magic {lines[0]!r}")
    version = _canonical_int(head[1]) if len(head) == 2 else None
    if version is None or version < 0:
        raise GrammarFileError(1, "malformed version field")
    if version != VERSION:
        raise GrammarVersionError(version, VERSION)
    if len(lines) < 2:
        raise bad_bytes or GrammarFileError(2, "missing terminal count")
    (tcount,) = _fields(2, lines[1], "T", "terminal count", ("terminal count",))
    if tcount < 0:
        raise GrammarFileError(2, "negative terminal count")

    ids: dict[str, int] = {}
    for lineno, line in enumerate(lines[2 : 2 + tcount], 3):
        sid, cp = _fields(lineno, line, "t", "terminal", ("terminal id", "code point"))
        if sid != len(ids):
            raise GrammarFileError(lineno, f"terminal ids must be consecutive; got {sid}")
        if not 0 <= cp <= 0x10FFFF:
            raise GrammarFileError(lineno, f"code point {cp} out of range")
        if ids.setdefault(chr(cp), sid) != sid:
            raise GrammarFileError(lineno, f"duplicate terminal {cp}")
    if len(ids) < tcount:
        raise bad_bytes or GrammarFileError(len(lines), "truncated terminal table")
    table = SymbolTable(ids)

    section = lines[2 + tcount :]
    text = "\n".join(section)
    g = None
    if not _NOT_A_RULE.search(text):
        v = np.fromstring(text.replace("r\t", "").replace("\n", "\t"), dtype=np.int64, sep="\t")
        with suppress(DomainError):  # _parse_rules names the line Grammar refuses
            g = Grammar(table, list(map(Rule, *v.reshape(-1, 4).T.tolist())))
    if g is None:
        g = Grammar(table, _parse_rules(3 + tcount, section, tcount))
    if bad_bytes is not None:
        raise bad_bytes
    return g


# -- segmented corpus files ---------------------------------------------------


def escape_token(token: str) -> str:
    """Render internal spaces as '_'; escape literal '_' and '\\'."""
    return token.replace("\\", "\\\\").replace("_", "\\_").replace(" ", "_")


def line_token(token: str) -> str:
    """token as a line of a segmented or vector file holds it (escape_token);
    DomainError if it contains a newline or a lone surrogate, which UTF-8
    cannot encode. Every writer checks its tokens here before opening."""
    if "\n" in token or (not token.isascii() and re.search("[\ud800-\udfff]", token)):
        raise DomainError("a token contains a newline or a lone surrogate; no UTF-8 line can hold it")
    return escape_token(token)


_ESCAPE = re.compile(r"\\(.?)|_", re.DOTALL)


def _unescape_one(m: re.Match[str]) -> str:
    c = m.group(1)
    if c is None:
        return " "
    if c == "\\" or c == "_":
        return c
    raise ValueError(f"bad escape \\{c}" if c else "dangling escape")


def unescape_token(token: str) -> str:
    """Invert escape_token; ValueError on a dangling or unknown escape."""
    if "\\" not in token:  # only '_' can need replacing
        return token.replace("_", " ")
    return _ESCAPE.sub(_unescape_one, token)


def write_segmented(g: Grammar, seq: BoundedSequence, dest: str | TextIO) -> None:
    """One token per line as line_token writes it, blank line per boundary.

    Every symbol is checked before dest is opened, so a token that cannot
    be written leaves no file behind.
    """
    lines, unwritable = g._tokens
    a = seq.symbols
    if unwritable.any():
        v = unwritable.size
        for lo in range(0, a.size, _GATHER):
            c = a[lo : lo + _GATHER]
            bad = c[(c >= 0) & (c < v)]
            bad = bad[unwritable[bad]]
            if bad.size:
                line_token(g.expand(int(bad[0])))  # raises its DomainError
    pieces = _gathered(a, seq.boundaries, lines, lambda s: line_token(g.expand(s)), "")
    write_lines(dest, chain.from_iterable(pieces))


class _Unescaped(dict):
    """segmented-file line -> its token, unescaped on the first lookup."""

    def __missing__(self, raw: str) -> str:
        tok = self[raw] = unescape_token(raw)
        return tok


def read_segmented_chunks(src: str | TextIO, table: dict) -> Iterator[list]:
    """Yield table[line] for the lines of each chunk read_line_chunks reads.
    When table's __missing__ raises ValueError (a bad escape), yield the
    values of the lines above the bad one, then raise SegmentedFileError."""
    get = table.__getitem__
    for first, lines in read_line_chunks(src):
        try:
            values = list(map(get, lines))
        except ValueError as exc:
            # only successes are keys: the bad line is the first that is not one
            k = next(k for k, raw in enumerate(lines) if raw not in table)
            yield list(map(get, lines[:k]))
            raise SegmentedFileError(first + k, str(exc)) from None
        yield values


def read_segmented(src: str | TextIO) -> Iterator[list[str]]:
    """Yield one list of tokens per segment; k boundaries give k+1 lists.

    A path is read as UTF-8; bad bytes raise CorpusDecodeError. Each
    distinct line is unescaped once (read_segmented_chunks), so repeated
    tokens come back as one shared string; a bad escape raises
    SegmentedFileError once the segments that end above it are yielded.
    """
    sentence: list[str] = []
    for tokens in read_segmented_chunks(src, _Unescaped()):
        for tok in tokens:
            if tok:
                sentence.append(tok)
            else:  # a blank line ends a segment
                yield sentence
                sentence = []
    yield sentence
