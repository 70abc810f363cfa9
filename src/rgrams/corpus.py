"""Text ingestion: normalization, terminal encoding, sequence boundaries.

Terminals are Unicode scalar values numbered densely in order of first
appearance; encode builds one immutable SymbolTable of them per text.
Separator characters never become symbols; each maximal run of separators
collapses into one boundary between segments; a BoundedSequence checks
its boundaries when made.
"""

from __future__ import annotations

import codecs
from array import array
from contextlib import nullcontext
from dataclasses import dataclass, field
from itertools import islice
from typing import Iterable, Iterator, TextIO

import numpy as np

from .errors import CorpusDecodeError, DomainError, ParameterError, UnknownSymbolError

DEFAULT_SEPARATORS = frozenset("\n")
# bytes read from a file (characters from a text handle, or of encode's text)
# at a time; it bounds the encoder's per-chunk scratch arrays, tens of bytes
# per character
_CHUNK = 1 << 16
# lines write_lines joins into one write; grammar's writers gather the
# strings of as many symbols at a time
_GATHER = 1 << 16


@dataclass(frozen=True)
class NormalizationOptions:
    lowercase: bool = True
    digits_to_N: bool = False


class _LowerMap(dict):
    """Lazy codepoint -> str map for str.translate; lowercases per character."""

    def __missing__(self, cp: int) -> str:
        v = chr(cp).lower()
        self[cp] = v
        return v


_LOWER = _LowerMap()
# 'N' is the digit placeholder; it must survive re-normalization, so the
# combined map never lowercases it (see normalize docstring).
_LOWER_DIGITS = _LowerMap({0x30 + d: "N" for d in range(10)})
_LOWER_DIGITS[ord("N")] = "N"
_DIGITS_ONLY = str.maketrans("0123456789", "NNNNNNNNNN")


def normalize(text: str, options: NormalizationOptions = NormalizationOptions()) -> str:
    """Apply lowercasing and/or digit substitution; idempotent.

    Lowercasing is per character (full Unicode case mapping, no context
    sensitivity), so output length can change only through case mapping and
    chunked processing gives the same result as one-shot processing. With
    digits_to_N, ASCII digits become 'N' and 'N' itself is exempt from
    lowercasing; that keeps normalize a fixed point on its own output.
    """
    if options.lowercase:
        return text.translate(_LOWER_DIGITS if options.digits_to_N else _LOWER)
    if options.digits_to_N:
        return text.translate(_DIGITS_ONLY)
    return text


def substitute_digits(text: str) -> str:
    """ASCII digits 0-9 become 'N'; everything else is untouched."""
    return text.translate(_DIGITS_ONLY)


class SymbolTable:
    """Immutable bijection between terminal characters and dense ids [0, len).

    The distinct characters given are numbered in first-given order. Built
    once (by encode or load) and then shared, never copied: a grammar, the
    sequence it was trained on and every sequence it segments hold one table.
    """

    __slots__ = ("_chars", "_ids")

    def __init__(self, chars: Iterable[str] = ()):
        self._ids: dict[str, int] = {}
        for ch in chars:
            if not (isinstance(ch, str) and len(ch) == 1):
                raise DomainError(f"a terminal is one character; got {ch!r}")
            self._ids.setdefault(ch, len(self._ids))
        self._chars = tuple(self._ids)

    def id_of(self, ch: str) -> int | None:
        return self._ids.get(ch)

    def char_of(self, sid: int) -> str:
        if 0 <= sid < len(self._chars):
            return self._chars[sid]
        raise UnknownSymbolError(sid)

    def chars(self) -> tuple[str, ...]:
        return self._chars

    def __len__(self) -> int:
        return len(self._chars)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SymbolTable) and self._chars == other._chars

    def __repr__(self) -> str:
        return f"SymbolTable({len(self._chars)} terminals)"


@dataclass(frozen=True, eq=False)
class BoundedSequence:
    """Symbol ids plus boundary positions, each in [0, len(symbols)] and
    strictly increasing, or DomainError when made. Integers in any container
    become read-only arrays, shared if already of the kept dtype: symbols
    int32 when every id fits, else int64 (pass-through ids are OOV_BASE +
    codepoint); boundaries int64. Frozen, and equal by content.

    alphabet resolves terminal ids back to characters; compressed sequences
    keep the terminal alphabet and carry rule ids above it.
    """

    symbols: np.ndarray
    boundaries: np.ndarray = ()
    alphabet: SymbolTable = field(default_factory=SymbolTable)

    def __len__(self) -> int:
        return len(self.symbols)

    def __post_init__(self) -> None:
        syms, b = np.asarray(self.symbols), np.asarray(self.boundaries)
        for a in (syms, b):
            if a.ndim != 1 or (a.size and a.dtype.kind not in "iu"):
                raise DomainError(f"ids and boundaries are 1-D integers; got {a.ndim}-D {a.dtype}")
        if syms.dtype != np.int32:
            fits = not syms.size or (-(1 << 31) <= syms.min() and syms.max() < 1 << 31)
            syms = syms.astype(np.int32 if fits else np.int64, copy=False)
        if b.size > 1 and (b[1:] <= b[:-1]).any():
            raise DomainError("boundaries not strictly increasing")
        if b.size and not (0 <= b[0] and b[-1] <= syms.size):  # increasing: the ends bound all
            raise DomainError(f"boundary {b[0] if b[0] < 0 else b[-1]} outside [0, {syms.size}]")
        for name, a in (("symbols", syms), ("boundaries", b.astype(np.int64, copy=False))):
            a = a.view()  # a caller's own array stays writeable
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, BoundedSequence)
            and self.alphabet == other.alphabet
            and np.array_equal(self.symbols, other.symbols)
            and np.array_equal(self.boundaries, other.boundaries)
        )

    def segments(self) -> Iterator[tuple[int, int]]:
        """(start, end) index pairs of the boundary-free stretches."""
        b = self.boundaries.tolist()
        return zip([0, *b], [*b, len(self.symbols)])


def _encode_chunks(chunks: Iterable[str], separators: frozenset[str]) -> BoundedSequence:
    """Encode text chunks as one text; separator runs become boundaries.

    Chunk splits never change the result; separator-run state carries over.
    Each chunk's characters are numbered through a table indexed by code
    point, so no step sorts the text; a chunk holds fewer than 2**31 of them.
    """
    for c in separators:
        if not (isinstance(c, str) and len(c) == 1):
            raise ParameterError(f"a separator is one character; got {c!r}")
    seps = [ord(c) for c in separators]
    ids: dict[str, int] = {}
    parts: list[np.ndarray] = []
    boundaries: list[int] = []
    count = 0
    in_sep_run = False
    for text in chunks:
        if not text:
            continue
        cps = np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype=np.uint32)
        mask = np.zeros(cps.size, dtype=bool)
        for s in seps:
            mask |= cps == s
        if mask.any():
            # a run starts at a separator that follows none; the characters
            # kept before it count up to it, since it is not kept
            starts = np.flatnonzero(mask & ~np.concatenate(([in_sep_run], mask[:-1])))
            boundaries.extend((count + np.cumsum(~mask)[starts]).tolist())
            in_sep_run = bool(mask[-1])
            cps = cps[~mask]
        else:
            in_sep_run = False
        if cps.size:
            # slot[c] is len(cps) minus the position where c first appears,
            # 0 where c does not; only the pages of this zeroed table that
            # present code points fall in are touched
            slot = np.zeros(int(cps.max()) + 1, dtype=np.int32)
            back = np.arange(cps.size, 0, -1, dtype=np.int32)
            np.maximum.at(slot, cps, back)
            # ids must not depend on chunking, so new characters are numbered
            # in first-appearance order
            firsts = cps[slot[cps] == back]
            slot[firsts] = [ids.setdefault(chr(c), len(ids)) for c in firsts.tolist()]
            parts.append(slot[cps])
            count += cps.size
    symbols = array("i")
    parts.reverse()
    while parts:  # each int32 part is freed once copied
        symbols.frombytes(parts.pop().view(np.uint8))
    return BoundedSequence(symbols, boundaries, SymbolTable(ids))


def encode(text: str, separators: frozenset[str] = DEFAULT_SEPARATORS) -> BoundedSequence:
    """Encode text into terminal ids; separator runs become boundaries.
    A separator that is not one character raises ParameterError.

    The text is encoded _CHUNK characters at a time, which bounds the
    scratch arrays as encode_file's chunks do."""
    return _encode_chunks((text[i : i + _CHUNK] for i in range(0, len(text), _CHUNK)), separators)


def read_text_chunks(path) -> Iterator[str]:
    """Stream a UTF-8 file as str chunks of at most _CHUNK bytes each.

    Bad bytes raise CorpusDecodeError with their offset, after the text
    before them is yielded, so a line reader names a bad line above them
    first."""
    dec = codecs.getincrementaldecoder("utf-8")()
    consumed = 0
    with open(path, "rb") as fh:
        while True:
            blob = fh.read(_CHUNK)
            final = not blob
            try:
                text = dec.decode(blob, final)
            except UnicodeDecodeError as exc:
                # exc.object is the decoder's pending bytes plus blob
                offset = consumed + len(blob) - len(exc.object) + exc.start
                yield exc.object[: exc.start].decode("utf-8")
                raise CorpusDecodeError(offset) from exc
            consumed += len(blob)
            if text:
                yield text
            if final:
                return


def read_line_chunks(src: str | TextIO) -> Iterator[tuple[int, list[str]]]:
    """Yield (first_lineno, lines): the complete lines of each _CHUNK read,
    numbered from 1, from a UTF-8 file path or a text handle. Lines split
    on '\n' only; a missing final newline is accepted; bad bytes in a file
    raise CorpusDecodeError with their offset once the complete lines
    before them are yielded. Every line reader goes through here."""
    chunks = iter(lambda: src.read(_CHUNK), "") if hasattr(src, "read") else read_text_chunks(src)
    n = 0
    buf = ""
    for chunk in chunks:
        parts = (buf + chunk).split("\n")
        buf = parts.pop()
        if parts:
            yield n + 1, parts
            n += len(parts)
    if buf:
        yield n + 1, [buf]


def read_lines(src: str | TextIO) -> Iterator[tuple[int, str]]:
    """Yield (lineno, line), numbered from 1: read_line_chunks one line at a
    time."""
    for first, lines in read_line_chunks(src):
        yield from enumerate(lines, first)


def write_lines(dest: str | TextIO, lines: Iterable[str]) -> None:
    """Write each line plus '\n' to a path (UTF-8) or a text handle, _GATHER lines per write."""
    own = not hasattr(dest, "write")
    with open(dest, "w", encoding="utf-8", newline="\n") if own else nullcontext(dest) as f:
        it = iter(lines)
        while batch := list(islice(it, _GATHER)):
            f.write("\n".join(batch) + "\n")


def encode_file(path, separators: frozenset[str], options: NormalizationOptions) -> BoundedSequence:
    """Stream-normalize and encode a file in _CHUNK-byte chunks; separators
    are checked as encode checks them, before the file is opened."""
    return _encode_chunks((normalize(c, options) for c in read_text_chunks(path)), separators)
