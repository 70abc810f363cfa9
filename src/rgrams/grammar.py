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
"""

from __future__ import annotations

import re
from array import array
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from itertools import islice
from typing import Iterator, TextIO

import numpy as np

from .corpus import BoundedSequence, SymbolTable, read_lines, write_lines
from .errors import (
    DomainError,
    GrammarFileError,
    GrammarVersionError,
    SegmentedFileError,
    UnknownSymbolError,
)

OOV_BASE = 1 << 32  # ids at OOV_BASE + cp are pass-through single characters

# The engine format, shared by training (repair.PairMerger) and apply. An
# engine array holds a sequence's symbol ids with SENT at every boundary and
# one more SENT at the end; linked() threads int32 sym/nxt/prv lists through
# it. The trailing SENT is the right neighbour of the last symbol and what
# index -1 (the left neighbour of the first) reads, so neighbour lookups need
# no bounds test. A merge marks the slot it removes DEAD. Pair keys are
# (left << SHIFT) | right and apply's heap entries (rule id << SHIFT) |
# position; ids and positions fit in int32.
SHIFT = 32
SENT = -1  # boundary sentinel; never pairable
DEAD = -(1 << 31)  # a merged-away slot; no unknown character encodes to it
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


@dataclass(frozen=True)
class Rule:
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
    """Immutable after construction; safe to share across threads."""

    __slots__ = ("terminals", "rules", "_exp", "_depth", "_rank")

    def __init__(self, terminals: SymbolTable, rules: list[Rule]):
        T = len(terminals)
        for i, r in enumerate(rules):
            if r.id != T + i:
                raise DomainError(f"rule ids must be consecutive from {T}; got {r.id}")
            if not (0 <= r.left < r.id and 0 <= r.right < r.id):
                raise DomainError(f"rule {r.id} references a later or negative symbol")
        self.terminals = terminals
        self.rules = tuple(rules)
        # per-symbol tables, each filled on first use by one forward pass
        # over the rules (rules only reference earlier ids)
        self._exp: list[str] = []
        self._depth: list[int] = []
        self._rank: _RankTable | None = None

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

    def expand(self, s: int) -> str:
        """Terminal string a symbol stands for."""
        if s >= OOV_BASE:
            return chr(s - OOV_BASE)
        exp = self._exp
        if not exp:
            exp = list(self.terminals.chars())
            for r in self.rules:
                exp.append(exp[r.left] + exp[r.right])
            self._exp = exp
        if not 0 <= s < len(exp):
            raise UnknownSymbolError(s)
        return exp[s]

    def depth(self, s: int) -> int:
        """0 for terminals, else 1 + max over the two constituents."""
        if s >= OOV_BASE:
            return 0
        d = self._depth
        if not d:
            d = [0] * len(self.terminals)
            for r in self.rules:
                d.append(1 + max(d[r.left], d[r.right]))
            self._depth = d
        if not 0 <= s < len(d):
            raise UnknownSymbolError(s)
        return d[s]

    def _rank_table(self) -> _RankTable:
        """apply's lookups, built once: (rank, keys, ids, left, right, reach).

        rank maps a pair key (left << SHIFT) | right to its rule id; a key
        repeated in several rules maps to its lowest id, because in-order
        replay leaves no occurrence of the pair for a later copy to merge.
        keys holds the same keys sorted, ids their int32 rule ids; keys ends
        in _KEY_END so that searchsorted always returns a valid index.
        left[k] and right[k] are rule k's pair (terminal slots hold SENT).
        reach[k] is the running maximum of max(left, right) over ids up to
        k, so the first rule that reads an id >= m is searchsorted(reach, m).
        """
        if self._rank is None:
            rank = {(r.left << SHIFT) | r.right: r.id for r in reversed(self.rules)}
            keys = np.fromiter(rank, dtype=np.int64, count=len(rank))
            ids = np.fromiter(rank.values(), dtype=np.int32, count=len(rank))
            order = np.argsort(keys)
            pad = [SENT] * len(self.terminals)
            left = pad + [r.left for r in self.rules]
            right = pad + [r.right for r in self.rules]
            self._rank = (
                rank,
                np.append(keys[order], _KEY_END),
                np.append(ids[order], np.int32(0)),
                left,
                right,
                np.maximum.accumulate(np.maximum(left, right)),
            )
        return self._rank


def engine_array(seq: BoundedSequence, lut: np.ndarray | None = None) -> np.ndarray:
    """Engine array of seq: its terminal ids, SENT at each boundary, SENT last.

    It is int64, or lut's dtype when lut is given: lut maps every terminal
    id first (apply moves ids into a grammar's id space with it).
    Boundaries outside [0, len(seq)] or not strictly increasing raise
    DomainError.
    """
    seq.validate()
    syms = np.asarray(seq.symbols, dtype=np.int64)
    if syms.size and (syms.min() < 0 or syms.max() >= len(seq.alphabet)):
        raise DomainError("sequence contains non-terminal symbols")
    if lut is not None:
        syms = lut[syms]
    return np.insert(syms, [*seq.boundaries, syms.size], SENT)


def _int32_array(x: np.ndarray) -> array:
    out = array("i")
    out.frombytes(np.asarray(x, dtype=np.int32).view(np.uint8))
    return out


def linked(a: np.ndarray) -> tuple[array, array, array]:
    """int32 (sym, nxt, prv) lists over engine array a, each slot linked to
    its neighbours; the trailing SENT's nxt, len(a), is never followed."""
    n = a.size
    return (
        _int32_array(a),
        _int32_array(np.arange(1, n + 1, dtype=np.int32)),
        _int32_array(np.arange(-1, n - 1, dtype=np.int32)),
    )


def from_engine(symbols: array | list[int] | np.ndarray, alphabet: SymbolTable) -> BoundedSequence:
    """Engine symbols, DEAD slots and trailing SENT included, back to a
    BoundedSequence over alphabet.

    Every other SENT becomes a boundary and an unknown character
    -(codepoint + 2) (see _engine_input) becomes OOV_BASE + codepoint.
    """
    a = np.asarray(symbols)  # an array("i") is read in place, at int32
    a = a[a != DEAD][:-1]
    sent = a == SENT
    bpos = np.flatnonzero(sent)
    a = a[~sent].astype(np.int64)
    oov = a < 0
    a[oov] = OOV_BASE - 2 - a[oov]
    out = array("q")  # 64-bit: OOV ids are OOV_BASE + codepoint
    out.frombytes(a.view(np.uint8))
    return BoundedSequence(out, (bpos - np.arange(bpos.size)).tolist(), alphabet)


def apply(g: Grammar, seq: BoundedSequence) -> BoundedSequence:
    return apply_with_report(g, seq)[0]


def _engine_input(g: Grammar, seq: BoundedSequence) -> tuple[np.ndarray, dict[str, int]]:
    """seq as an int32 engine array in g's id space, and the count of each
    character g has never seen.

    Such a character becomes -(codepoint + 2): negative, so it never pairs,
    and distinct from SENT and DEAD.
    """
    alphabet = seq.alphabet
    terminals = g.terminals
    lut = np.empty(max(len(alphabet), 1), dtype=np.int32)
    unknown_sids = []
    for sid in range(len(alphabet)):
        ch = alphabet.char_of(sid)
        gid = terminals.id_of(ch)
        if gid is None:
            lut[sid] = -(ord(ch) + 2)
            unknown_sids.append(sid)
        else:
            lut[sid] = gid

    unknown_chars: dict[str, int] = {}
    if unknown_sids:
        counts = np.bincount(np.asarray(seq.symbols, dtype=np.int64), minlength=len(alphabet))
        for sid in unknown_sids:
            c = int(counts[sid])
            if c:
                unknown_chars[alphabet.char_of(sid)] = c
    return engine_array(seq, lut), unknown_chars


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
    rank, rank_keys, rank_ids, left, right, reach = g._rank_table()
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

    sym, nxt, prv = linked(a)
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
            q = nxt[p]
            if sym[q] != right[k]:
                continue
            y = nxt[q]
            nxt[p] = y
            prv[y] = p
            sym[q] = DEAD
            sym[p] = k
            x = prv[p]
            r = get((sym[x] << S) | k)
            if r is not None:
                heappush(heap, (r << S) | x)
            r = get((k << S) | sym[y])
            if r is not None:
                heappush(heap, (r << S) | p)

    out = from_engine(sym, g.terminals.clone())
    return out, ApplyReport(unknown_chars, batch_merges)


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
    from the local minimum that stretch starts at.
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
    return from_engine(s, g.terminals.clone())


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


def decode(g: Grammar, seq: BoundedSequence, separator: str = "\n") -> str:
    """Expand every symbol and re-insert one separator per boundary."""
    if len(separator) != 1:
        raise DomainError("separator must be a single character")
    exp = g.expand
    syms = seq.symbols
    return separator.join("".join(map(exp, syms[lo:hi])) for lo, hi in seq.segments())


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


def load(path: str) -> Grammar:
    """Stream a save() file: magic and version, terminal count, one 't' line
    per terminal, one 'r' line per rule. A parse error raises
    GrammarFileError naming its 1-based line; bad bytes CorpusDecodeError.
    Every integer must be written as save() writes it, so saving a loaded
    grammar reproduces its file."""

    def fields(lineno: int, line: str, tag: str, kind: str, names: tuple[str, ...]) -> list[int]:
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

    lines = read_lines(path)
    lineno, line = next(lines, (1, None))
    if line is None:
        raise GrammarFileError(lineno, "empty file")
    head = line.split("\t")
    if head[0] != MAGIC:
        raise GrammarFileError(lineno, f"bad magic {line!r}")
    version = _canonical_int(head[1]) if len(head) == 2 else None
    if version is None or version < 0:
        raise GrammarFileError(lineno, "malformed version field")
    if version != VERSION:
        raise GrammarVersionError(version, VERSION)
    lineno, line = next(lines, (2, None))
    if line is None:
        raise GrammarFileError(lineno, "missing terminal count")
    (tcount,) = fields(lineno, line, "T", "terminal count", ("terminal count",))
    if tcount < 0:
        raise GrammarFileError(lineno, "negative terminal count")

    table = SymbolTable()
    for lineno, line in islice(lines, tcount):
        sid, cp = fields(lineno, line, "t", "terminal", ("terminal id", "code point"))
        if sid != len(table):
            raise GrammarFileError(lineno, f"terminal ids must be consecutive; got {sid}")
        if not 0 <= cp <= 0x10FFFF:
            raise GrammarFileError(lineno, f"code point {cp} out of range")
        ch = chr(cp)
        if table.id_of(ch) is not None:
            raise GrammarFileError(lineno, f"duplicate terminal {cp}")
        table.intern(ch)
    if len(table) < tcount:
        raise GrammarFileError(lineno, "truncated terminal table")

    rules: list[Rule] = []
    for lineno, line in lines:
        rid, left, right, freq = fields(
            lineno, line, "r", "rule", ("rule id", "left id", "right id", "frequency")
        )
        if rid != tcount + len(rules):
            raise GrammarFileError(lineno, f"rule ids must be consecutive; got {rid}")
        if not (0 <= left < rid and 0 <= right < rid):
            raise GrammarFileError(lineno, f"rule {rid} references a later or negative symbol")
        if freq < 0:
            raise GrammarFileError(lineno, f"rule {rid} has negative frequency {freq}")
        rules.append(Rule(rid, left, right, freq))
    return Grammar(table, rules)


# -- segmented corpus files ---------------------------------------------------


def escape_token(token: str) -> str:
    """Render internal spaces as '_'; escape literal '_' and '\\'."""
    return token.replace("\\", "\\\\").replace("_", "\\_").replace(" ", "_")


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
    """One expanded token per line, blank line per boundary.

    Every distinct symbol is expanded and checked before dest is opened, so
    a token that cannot be written leaves no file behind.
    """
    syms = seq.symbols
    tokens: dict[int, str] = {}
    for s in set(syms):
        t = g.expand(s)
        if "\n" in t:
            raise DomainError(
                "token expansion contains a newline; it cannot be written "
                "one-token-per-line (use a different separator set)"
            )
        tokens[s] = escape_token(t)

    def lines() -> Iterator[str]:
        for k, (lo, hi) in enumerate(seq.segments()):
            if k:
                yield ""
            yield from map(tokens.__getitem__, syms[lo:hi])

    write_lines(dest, lines())


def read_segmented(src: str | TextIO) -> Iterator[list[str]]:
    """Yield one list of tokens per segment; k boundaries give k+1 lists.

    A path is read as UTF-8; bad bytes raise CorpusDecodeError. Each
    distinct line is unescaped once, so repeated tokens come back as one
    shared string.
    """
    unescaped: dict[str, str] = {}  # successes only: a bad line raises with its own number
    sentence: list[str] = []
    for lineno, raw in read_lines(src):
        if raw == "":
            yield sentence
            sentence = []
            continue
        tok = unescaped.get(raw)
        if tok is None:
            try:
                tok = unescaped[raw] = unescape_token(raw)
            except ValueError as exc:
                raise SegmentedFileError(lineno, str(exc)) from None
        sentence.append(tok)
    yield sentence
