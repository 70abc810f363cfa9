"""Learned rule sets: expand, apply to new text, invert, persist.

A grammar is a terminal table plus rules ordered by id, each rule rewriting
one new symbol as a pair of earlier symbols. Expansion is therefore acyclic
and every symbol denotes a fixed terminal string.

Application replays the rules over new text in creation order (the usual
BPE convention) instead of re-ranking pairs by frequency; characters the
grammar has never seen pass through as fresh single-character symbols with
ids OOV_BASE + codepoint.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, TextIO

import numpy as np

from .corpus import BoundedSequence, SymbolTable, read_text_chunks
from .errors import (
    DomainError,
    GrammarFileError,
    GrammarVersionError,
    SegmentedFileError,
    UnknownSymbolError,
)

OOV_BASE = 1 << 32  # ids at OOV_BASE + cp are pass-through single characters

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

    __slots__ = ("terminals", "rules", "_exp", "_depth")

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

    @property
    def terminal_count(self) -> int:
        return len(self.terminals)

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


def apply(g: Grammar, seq: BoundedSequence) -> BoundedSequence:
    return apply_with_report(g, seq)[0]


def apply_with_report(g: Grammar, seq: BoundedSequence) -> tuple[BoundedSequence, ApplyReport]:
    """Segment new text with a trained grammar, replaying merges in order.

    seq is a terminal encoding under its own alphabet; symbols are remapped
    into the grammar's id space first. Unknown characters become untouchable
    pass-through symbols and are tallied in the report.
    """
    from .repair import PairMerger, engine_array  # deferred: repair imports this module

    alphabet = seq.alphabet
    terminals = g.terminals
    lut = np.empty(max(len(alphabet), 1), dtype=np.int64)
    unknown_sids = []
    for sid in range(len(alphabet)):
        ch = alphabet.char_of(sid)
        gid = terminals.id_of(ch)
        if gid is None:
            lut[sid] = -(ord(ch) + 2)  # negative: never pairable in the engine
            unknown_sids.append(sid)
        else:
            lut[sid] = gid

    merger = PairMerger.for_replay(engine_array(seq, lut), terminals.clone(), g.vocab_size)
    merger.replay(g.rules)
    out = merger.sequence()

    unknown_chars: dict[str, int] = {}
    if unknown_sids:
        counts = np.bincount(np.asarray(seq.symbols, dtype=np.int64), minlength=len(alphabet))
        for sid in unknown_sids:
            c = int(counts[sid])
            if c:
                unknown_chars[alphabet.char_of(sid)] = c
    report = ApplyReport(
        unknown_chars=unknown_chars,
        unknown_total=sum(unknown_chars.values()),
        input_len=len(seq),
        output_len=len(out),
    )
    return out, report


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
    lines.append("")
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("\n".join(lines))


def _int_field(parts: list[str], idx: int, lineno: int, what: str) -> int:
    try:
        return int(parts[idx])
    except (IndexError, ValueError):
        raise GrammarFileError(lineno, f"malformed {what}") from None


def load(path: str) -> Grammar:
    lines = "".join(read_text_chunks(path)).split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise GrammarFileError(1, "empty file")
    head = lines[0].split("\t")
    if head[0] != MAGIC:
        raise GrammarFileError(1, f"bad magic {lines[0]!r}")
    # isdecimal, not isdigit: "²" is a digit that int() rejects
    if len(head) != 2 or not head[1].isdecimal():
        raise GrammarFileError(1, "malformed version field")
    if int(head[1]) != VERSION:
        raise GrammarVersionError(int(head[1]), VERSION)
    if len(lines) < 2:
        raise GrammarFileError(2, "missing terminal count")
    tline = lines[1].split("\t")
    if len(tline) != 2 or tline[0] != "T":
        raise GrammarFileError(2, "expected terminal count line")
    tcount = _int_field(tline, 1, 2, "terminal count")
    if tcount < 0:
        raise GrammarFileError(2, "negative terminal count")
    if len(lines) < 2 + tcount:
        raise GrammarFileError(len(lines), "truncated terminal table")

    table = SymbolTable()
    for i in range(tcount):
        lineno = 3 + i
        parts = lines[2 + i].split("\t")
        if len(parts) != 3 or parts[0] != "t":
            raise GrammarFileError(lineno, "expected terminal line")
        sid = _int_field(parts, 1, lineno, "terminal id")
        cp = _int_field(parts, 2, lineno, "code point")
        if sid != i:
            raise GrammarFileError(lineno, f"terminal ids must be consecutive; got {sid}")
        if not 0 <= cp <= 0x10FFFF:
            raise GrammarFileError(lineno, f"code point {cp} out of range")
        ch = chr(cp)
        if table.id_of(ch) is not None:
            raise GrammarFileError(lineno, f"duplicate terminal {cp}")
        table.intern(ch)

    rules: list[Rule] = []
    for j, raw in enumerate(lines[2 + tcount :]):
        lineno = 3 + tcount + j
        parts = raw.split("\t")
        if len(parts) != 5 or parts[0] != "r":
            raise GrammarFileError(lineno, "expected rule line")
        rid = _int_field(parts, 1, lineno, "rule id")
        left = _int_field(parts, 2, lineno, "left id")
        right = _int_field(parts, 3, lineno, "right id")
        freq = _int_field(parts, 4, lineno, "frequency")
        if rid != tcount + j:
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
    """One expanded token per line, blank line per boundary."""
    exp = g.expand

    def lines() -> Iterator[str]:
        syms = seq.symbols
        for k, (lo, hi) in enumerate(seq.segments()):
            if k:
                yield ""
            for s in syms[lo:hi]:
                t = exp(s)
                if "\n" in t:
                    raise DomainError(
                        "token expansion contains a newline; it cannot be written "
                        "one-token-per-line (use a different separator set)"
                    )
                yield escape_token(t)

    own = isinstance(dest, str)
    f = open(dest, "w", encoding="utf-8", newline="\n") if own else dest
    try:
        buf: list[str] = []
        for ln in lines():
            buf.append(ln)
            if len(buf) >= 65536:
                f.write("\n".join(buf) + "\n")
                buf.clear()
        if buf:
            f.write("\n".join(buf) + "\n")
    finally:
        if own:
            f.close()


def _raw_lines(chunks: Iterable[str]) -> Iterator[str]:
    """Split text chunks on '\\n' only; tolerate a missing final newline."""
    buf = ""
    for chunk in chunks:
        buf += chunk
        parts = buf.split("\n")
        buf = parts.pop()
        yield from parts
    if buf:
        yield buf


def read_segmented(src: str | TextIO) -> Iterator[list[str]]:
    """Yield one list of tokens per segment; k boundaries give k+1 lists.

    A path is read as UTF-8; bad bytes raise CorpusDecodeError.
    """
    if isinstance(src, str):
        chunks = read_text_chunks(src)
    else:
        chunks = iter(lambda: src.read(1 << 20), "")
    sentence: list[str] = []
    for lineno, raw in enumerate(_raw_lines(chunks), start=1):
        if raw == "":
            yield sentence
            sentence = []
        else:
            try:
                sentence.append(unescape_token(raw))
            except ValueError as exc:
                raise SegmentedFileError(lineno, str(exc)) from None
    yield sentence
