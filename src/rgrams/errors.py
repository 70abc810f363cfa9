"""Exception types shared across the toolkit.

The CLI maps these onto exit codes:

- ParameterError: a usage error (exit 1), reported with the usage line, as
  argparse reports a bad flag;
- any other ToolError: a data/validation failure (exit 3);
- plain OSError: an I/O failure (exit 2).
"""

from __future__ import annotations


class ToolError(Exception):
    """Base class for all data and validation errors raised by this package."""


class CorpusDecodeError(ToolError):
    """Input bytes are not valid UTF-8; byte_offset points at the bad byte."""

    def __init__(self, byte_offset: int, reason: str = "invalid UTF-8"):
        super().__init__(f"{reason} at byte offset {byte_offset}")
        self.byte_offset = byte_offset


class DomainError(ToolError):
    """An operation was called on a value outside its domain."""


class ParameterError(DomainError):
    """An argument is outside what the operation accepts."""


def require_int(name: str, value: object, minimum: int) -> None:
    """Raise ParameterError unless value is an int (a bool is not) >= minimum."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ParameterError(f"{name} must be an integer, not {value!r}")
    if value < minimum:
        raise ParameterError(f"{name} must be >= {minimum}")


class UnknownSymbolError(DomainError):
    """Symbol id does not resolve to a terminal or rule."""

    def __init__(self, symbol_id: int):
        super().__init__(f"unknown symbol id {symbol_id}")
        self.symbol_id = symbol_id


class LineError(ToolError):
    """A line-oriented file could not be parsed; line is 1-based."""

    def __init__(self, line: int, reason: str):
        super().__init__(f"line {line}: {reason}")
        self.line = line


class GrammarFileError(LineError):
    """Grammar file could not be parsed."""


class GrammarVersionError(GrammarFileError):
    """Grammar file declares a format version this code does not read."""

    def __init__(self, found: int, supported: int):
        super().__init__(1, f"format version {found} is not supported; this build reads {supported}")
        self.found = found
        self.supported = supported


class SegmentedFileError(LineError):
    """Segmented-corpus file could not be parsed."""


class VectorFileError(LineError):
    """Vector file could not be parsed."""


class SuiteFileError(LineError):
    """Analogy or similarity suite file could not be parsed."""
