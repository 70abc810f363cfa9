"""Learned rule sets: expand, apply to new text, invert, persist.

A grammar is a terminal table plus rules ordered by id, each rule rewriting
one new symbol as a pair of earlier symbols. Expansion is therefore acyclic
and every symbol denotes a fixed terminal string.

Application replays the rules over new text in creation order (the usual
BPE convention) instead of re-ranking pairs by frequency; characters the
grammar has never seen pass through as fresh single-character symbols with
ids OOV_BASE + codepoint. apply() does this by rule rank: a per-grammar
table maps each rule's pair to its id, and a small heap per segment pops
the pairs that are rule keys in (rule id, position) order. apply_naive()
is the literal rule-by-rule replay that apply() is checked against.
"""

from __future__ import annotations

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

# Grammar._rank_table: (rank, keys, ids, left, right)
_RankTable = tuple[dict[int, int], np.ndarray, np.ndarray, list[int], list[int]]

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
    """Diagnostics from apply: what fell outside the grammar's alphabet."""

    unknown_chars: dict[str, int]
    unknown_total: int
    input_len: int
    output_len: int


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
        self._exp: list[str | None] = [None] * (T + len(rules))
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
        """Terminal string a symbol stands for; memoized, iterative."""
        if s >= OOV_BASE:
            return chr(s - OOV_BASE)
        exp = self._exp
        if not 0 <= s < len(exp):
            raise UnknownSymbolError(s)
        got = exp[s]
        if got is not None:
            return got
        T = len(self.terminals)
        rules = self.rules
        stack = [s]
        while stack:
            t = stack[-1]
            if exp[t] is not None:
                stack.pop()
                continue
            if t < T:
                exp[t] = self.terminals.char_of(t)
                stack.pop()
                continue
            r = rules[t - T]
            le = exp[r.left]
            ri = exp[r.right]
            if le is not None and ri is not None:
                exp[t] = le + ri
                stack.pop()
            else:
                if le is None:
                    stack.append(r.left)
                if ri is None:
                    stack.append(r.right)
        return exp[s]  # type: ignore[return-value]

    def depth(self, s: int) -> int:
        """0 for terminals, else 1 + max over the two constituents."""
        if s >= OOV_BASE:
            return 0
        T = len(self.terminals)
        if not 0 <= s < T + len(self.rules):
            raise UnknownSymbolError(s)
        if not self._depth:
            # one forward pass suffices: rules only reference earlier ids
            d = [0] * (T + len(self.rules))
            for r in self.rules:
                d[r.id] = 1 + max(d[r.left], d[r.right])
            self._depth = d
        return self._depth[s]

    def _rank_table(self) -> _RankTable:
        """apply's lookups, built once: (rank, keys, ids, left, right).

        rank maps a pair key (left << SHIFT) | right to its rule id; a key
        repeated in several rules maps to its lowest id, because in-order
        replay leaves no occurrence of the pair for a later copy to merge.
        keys holds the same keys sorted, ids their rule ids; keys ends in
        _KEY_END so that searchsorted always returns a valid index. left[k]
        and right[k] are rule k's pair (terminal slots hold SENT).
        """
        if self._rank is None:
            rank = {(r.left << SHIFT) | r.right: r.id for r in reversed(self.rules)}
            keys = np.fromiter(rank, dtype=np.int64, count=len(rank))
            ids = np.fromiter(rank.values(), dtype=np.int64, count=len(rank))
            order = np.argsort(keys)
            pad = [SENT] * len(self.terminals)
            self._rank = (
                rank,
                np.append(keys[order], _KEY_END),
                np.append(ids[order], 0),
                pad + [r.left for r in self.rules],
                pad + [r.right for r in self.rules],
            )
        return self._rank


def engine_array(seq: BoundedSequence, lut: np.ndarray | None = None) -> np.ndarray:
    """int64 engine array of seq: its terminal ids, SENT at each boundary, SENT last.

    lut, when given, maps every terminal id first (apply moves ids into a
    grammar's id space with it).
    """
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
    a = np.asarray(symbols, dtype=np.int64)
    a = a[a != DEAD][:-1]
    sent = a == SENT
    bpos = np.flatnonzero(sent)
    a = a[~sent]
    oov = a < 0
    a[oov] = OOV_BASE - 2 - a[oov]
    return BoundedSequence(a.tolist(), (bpos - np.arange(bpos.size)).tolist(), alphabet)


def apply(g: Grammar, seq: BoundedSequence) -> BoundedSequence:
    return apply_with_report(g, seq)[0]


def _engine_input(g: Grammar, seq: BoundedSequence) -> tuple[np.ndarray, dict[str, int]]:
    """seq as an engine array in g's id space, and the count of each
    character g has never seen.

    Such a character becomes -(codepoint + 2): negative, so it never pairs,
    and distinct from SENT and DEAD.
    """
    alphabet = seq.alphabet
    terminals = g.terminals
    lut = np.empty(max(len(alphabet), 1), dtype=np.int64)
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

    Replay goes by rule rank. Only adjacent pairs that are rule keys enter
    a heap, one heap per segment, popped in (rule id, position) order. A pop
    whose pair has changed since the push is skipped; a merge pushes the at
    most two new neighbour pairs that are rule keys. A merge only creates
    pairs that contain its new id, and only later rules use that id, so this
    is in-order replay with one greedy left-to-right pass per rule
    (apply_naive), same-symbol runs included ("aaa" gives "Xa").
    """
    rank, rank_keys, rank_ids, left, right = g._rank_table()
    a, unknown_chars = _engine_input(g, seq)
    S = SHIFT

    # Seed entries (rule id << S) | position, one per rule-key pair. A pair
    # with a boundary or an unknown character in it has a negative key.
    keys = (a[:-1] << S) | a[1:]
    at = np.searchsorted(rank_keys, keys)
    pos = np.flatnonzero(rank_keys[at] == keys)
    entries = (rank_ids[at[pos]] << S) | pos
    del keys, at
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
    report = ApplyReport(
        unknown_chars=unknown_chars,
        unknown_total=sum(unknown_chars.values()),
        input_len=len(seq),
        output_len=len(out),
    )
    return out, report


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


def load(path: str) -> Grammar:
    """Stream a save() file: magic and version, terminal count, one 't' line
    per terminal, one 'r' line per rule. A parse error raises
    GrammarFileError naming its 1-based line; bad bytes CorpusDecodeError."""

    def fields(lineno: int, line: str, tag: str, kind: str, names: tuple[str, ...]) -> list[int]:
        parts = line.split("\t")
        if len(parts) != len(names) + 1 or parts[0] != tag:
            raise GrammarFileError(lineno, f"expected {kind} line")
        values: list[int] = []
        for name, text in zip(names, parts[1:]):
            try:
                values.append(int(text))
            except ValueError:
                raise GrammarFileError(lineno, f"malformed {name}") from None
        return values

    lines = read_lines(path)
    lineno, line = next(lines, (1, None))
    if line is None:
        raise GrammarFileError(lineno, "empty file")
    head = line.split("\t")
    if head[0] != MAGIC:
        raise GrammarFileError(lineno, f"bad magic {line!r}")
    # isdecimal, not isdigit: "²" is a digit that int() rejects
    if len(head) != 2 or not head[1].isdecimal():
        raise GrammarFileError(lineno, "malformed version field")
    if int(head[1]) != VERSION:
        raise GrammarVersionError(int(head[1]), VERSION)
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


def unescape_token(token: str) -> str:
    out: list[str] = []
    i = 0
    n = len(token)
    while i < n:
        c = token[i]
        if c == "\\":
            if i + 1 >= n:
                raise ValueError("dangling escape")
            nxt = token[i + 1]
            if nxt == "\\":
                out.append("\\")
            elif nxt == "_":
                out.append("_")
            else:
                raise ValueError(f"bad escape \\{nxt}")
            i += 2
        elif c == "_":
            out.append(" ")
            i += 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


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

    A path is read as UTF-8; bad bytes raise CorpusDecodeError.
    """
    sentence: list[str] = []
    for lineno, raw in read_lines(src):
        if raw == "":
            yield sentence
            sentence = []
        else:
            try:
                sentence.append(unescape_token(raw))
            except ValueError as exc:
                raise SegmentedFileError(lineno, str(exc)) from None
    yield sentence
