"""Text ingestion: normalization, terminal encoding, sequence boundaries.

Terminals are Unicode scalar values interned into a dense id space in order
of first appearance. Separator characters never become symbols; each maximal
run of separators collapses into one boundary between segments.
"""

from __future__ import annotations

import codecs
from array import array
from contextlib import nullcontext
from dataclasses import dataclass, field
from itertools import islice
from typing import Iterable, Iterator, TextIO

import numpy as np

from .errors import CorpusDecodeError, DomainError, UnknownSymbolError

DEFAULT_SEPARATORS = frozenset("\n")
# bytes read from a file (characters from a text handle) at a time; it bounds
# encode_file's per-chunk scratch arrays, tens of bytes per character
_CHUNK = 1 << 16


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
    """Bijection between terminal characters and dense ids [0, len)."""

    __slots__ = ("_chars", "_ids")

    def __init__(self, chars: Iterable[str] = ()):
        self._chars: list[str] = []
        self._ids: dict[str, int] = {}
        for ch in chars:
            self.intern(ch)

    def intern(self, ch: str) -> int:
        sid = self._ids.get(ch)
        if sid is None:
            sid = len(self._chars)
            self._ids[ch] = sid
            self._chars.append(ch)
        return sid

    def id_of(self, ch: str) -> int | None:
        return self._ids.get(ch)

    def char_of(self, sid: int) -> str:
        if 0 <= sid < len(self._chars):
            return self._chars[sid]
        raise UnknownSymbolError(sid)

    def chars(self) -> tuple[str, ...]:
        return tuple(self._chars)

    def clone(self) -> "SymbolTable":
        t = SymbolTable()
        t._chars = self._chars.copy()
        t._ids = self._ids.copy()
        return t

    def __len__(self) -> int:
        return len(self._chars)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SymbolTable) and self._chars == other._chars

    def __repr__(self) -> str:
        return f"SymbolTable({len(self._chars)} terminals)"


@dataclass
class BoundedSequence:
    """Symbol ids plus boundary positions (each in [0, len(symbols)]).

    alphabet resolves terminal ids back to characters; compressed sequences
    keep the terminal alphabet and carry rule ids above it.
    """

    symbols: array | list[int]
    boundaries: list[int] = field(default_factory=list)
    alphabet: SymbolTable = field(default_factory=SymbolTable)

    def __len__(self) -> int:
        return len(self.symbols)

    def validate(self) -> None:
        n = len(self.symbols)
        prev = -1
        for b in self.boundaries:
            if not 0 <= b <= n:
                raise DomainError(f"boundary {b} outside [0, {n}]")
            if b <= prev:
                raise DomainError("boundaries not strictly increasing")
            prev = b

    def segments(self) -> Iterator[tuple[int, int]]:
        """(start, end) index pairs of the boundary-free stretches."""
        lo = 0
        for b in self.boundaries:
            yield lo, b
            lo = b
        yield lo, len(self.symbols)


class ChunkEncoder:
    """Incremental encoder: feed text chunks, then finish() once.

    Chunk splits never change the result; separator-run state carries over.
    """

    def __init__(self, separators: frozenset[str] = DEFAULT_SEPARATORS):
        self._seps = np.sort(np.array([ord(c) for c in separators], dtype=np.uint32))
        self._table = SymbolTable()
        self._parts: list[np.ndarray] = []
        self._boundaries: list[int] = []
        self._count = 0
        self._in_sep_run = False

    def feed(self, text: str) -> None:
        if not text:
            return
        cps = np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype=np.uint32)
        mask = np.isin(cps, self._seps) if self._seps.size else np.zeros(len(cps), bool)
        if mask.any():
            prev = np.empty(len(cps), bool)
            prev[0] = self._in_sep_run
            prev[1:] = mask[:-1]
            starts = np.nonzero(mask & ~prev)[0]
            keep = ~mask
            kept_before = np.concatenate(([0], np.cumsum(keep)))
            self._boundaries.extend((self._count + kept_before[starts]).tolist())
            self._in_sep_run = bool(mask[-1])
            cps = cps[keep]
        else:
            self._in_sep_run = False
        if cps.size:
            uniq, first, inv = np.unique(cps, return_index=True, return_inverse=True)
            lut = np.empty(len(uniq), dtype=np.int32)
            intern = self._table.intern
            # ids must not depend on chunking, so intern new characters in
            # first-appearance order, not np.unique's sorted order
            for j in np.argsort(first, kind="stable"):
                lut[j] = intern(chr(int(uniq[j])))
            self._parts.append(lut[inv])
            self._count += cps.size

    def finish(self) -> BoundedSequence:
        symbols = array("i")
        parts = self._parts
        parts.reverse()
        while parts:  # each int32 part is freed once copied
            symbols.frombytes(parts.pop().view(np.uint8))
        return BoundedSequence(symbols, self._boundaries, self._table)


def encode(text: str, separators: frozenset[str] = DEFAULT_SEPARATORS) -> BoundedSequence:
    """Encode text into terminal ids; separator runs become boundaries."""
    enc = ChunkEncoder(separators)
    enc.feed(text)
    return enc.finish()


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
    """Write each line plus '\n' to a path (UTF-8) or a text handle, 65536 lines per write."""
    own = not hasattr(dest, "write")
    with open(dest, "w", encoding="utf-8", newline="\n") if own else nullcontext(dest) as f:
        it = iter(lines)
        while batch := list(islice(it, 65536)):
            f.write("\n".join(batch) + "\n")


def encode_file(path, separators: frozenset[str], options: NormalizationOptions) -> BoundedSequence:
    """Stream-normalize and encode a file in _CHUNK-byte chunks."""
    enc = ChunkEncoder(separators)
    for chunk in read_text_chunks(path):
        enc.feed(normalize(chunk, options))
    return enc.finish()
