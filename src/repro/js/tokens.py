"""Token definitions for the JavaScript lexer.

The token vocabulary covers the ES5 subset used by browser addons: all the
statement/expression syntax, string/number/regex/boolean/null literals, and
the full punctuator set. Tokens carry their source position for diagnostics
and for mapping analysis results back to addon source lines.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.js.errors import SourcePosition


class TokenType(enum.Enum):
    """Lexical categories produced by the lexer."""

    IDENTIFIER = enum.auto()
    KEYWORD = enum.auto()
    NUMBER = enum.auto()
    STRING = enum.auto()
    REGEX = enum.auto()
    PUNCTUATOR = enum.auto()
    EOF = enum.auto()


#: Reserved words recognized as keywords. Future-reserved words that the
#: supported subset never uses are still reserved so they cannot be used as
#: identifiers (matching ES5 strict-ish behaviour).
KEYWORDS = frozenset(
    {
        "break", "case", "catch", "continue", "debugger", "default", "delete",
        "do", "else", "finally", "for", "function", "if", "in", "instanceof",
        "new", "return", "switch", "this", "throw", "try", "typeof", "var",
        "void", "while", "with",
        "true", "false", "null", "undefined",
        # Future reserved words we reject at parse time.
        "class", "const", "enum", "export", "extends", "import", "super",
        "let", "yield",
    }
)

#: All punctuators. The lexer tries them longest first (maximal munch).
PUNCTUATORS = [
    ">>>=",
    "===", "!==", ">>>", "<<=", ">>=",
    "==", "!=", "<=", ">=", "&&", "||", "++", "--", "<<", ">>",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
    "{", "}", "(", ")", "[", "]", ";", ",", "<", ">", "+", "-", "*", "/",
    "%", "&", "|", "^", "!", "~", "?", ":", "=", ".",
]


@dataclass(frozen=True)
class Token:
    """A single lexical token.

    ``value`` is the raw lexeme for identifiers/keywords/punctuators, the
    decoded string for string literals, the literal text for numbers (decoded
    lazily by the parser), and the pattern body for regex literals.
    """

    type: TokenType
    value: str
    position: SourcePosition
    #: True when at least one line terminator appeared between the previous
    #: token and this one. Needed for automatic semicolon insertion and for
    #: restricted productions (return/throw/break/continue ++/--).
    preceded_by_newline: bool = False

    def is_punctuator(self, *values: str) -> bool:
        return self.type is TokenType.PUNCTUATOR and self.value in values

    def is_keyword(self, *values: str) -> bool:
        return self.type is TokenType.KEYWORD and self.value in values

    def __str__(self) -> str:
        if self.type is TokenType.EOF:
            return "<eof>"
        return f"{self.type.name.lower()}({self.value!r})"
