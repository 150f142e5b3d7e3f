"""Error types for the JavaScript frontend.

All frontend errors carry a source position so that tooling built on top of
the analysis (the CLI, the vetting harness) can point the user at the exact
location in the addon source.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class SourcePosition:
    """A position in a source file: 1-based line, 0-based column."""

    line: int
    column: int
    offset: int = 0

    def __str__(self) -> str:
        return f"{self.line}:{self.column}"


@dataclass(frozen=True)
class Span:
    """A source span: from ``start`` up to and including ``end``.

    The one span format shared by everything that points at addon
    source: lint findings (:mod:`repro.lint`) and the degradation
    records of recovery-mode parsing both render spans this way, so a
    vetting report's skip notes and a lint report's findings line up.
    """

    start: SourcePosition
    end: SourcePosition

    @classmethod
    def at(cls, position: SourcePosition) -> "Span":
        """The single-point span at ``position``."""
        return cls(start=position, end=position)

    def __str__(self) -> str:
        if self.start == self.end:
            return str(self.start)
        return f"{self.start}-{self.end}"

    def to_json(self) -> dict:
        return {
            "start": {"line": self.start.line, "column": self.start.column},
            "end": {"line": self.end.line, "column": self.end.column},
        }


class FrontendError(Exception):
    """Base class for all JavaScript frontend errors."""

    def __init__(self, message: str, position: SourcePosition | None = None):
        self.message = message
        self.position = position
        location = f" at {position}" if position is not None else ""
        super().__init__(f"{message}{location}")


class LexError(FrontendError):
    """Raised when the lexer encounters an invalid character sequence."""


class ParseError(FrontendError):
    """Raised when the parser encounters a malformed program."""


class UnsupportedSyntaxError(ParseError):
    """Raised for JavaScript constructs outside the supported ES5 subset.

    The analysis deliberately rejects constructs whose semantics it cannot
    model soundly (``with``, getters/setters, generators, ...), mirroring
    the paper's restriction of addons to a statically analyzable subset.
    """
