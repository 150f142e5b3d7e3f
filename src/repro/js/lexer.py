"""A regex-driven lexer for the ES5 subset used by browser addons.

One scanner walks the source with one compiled pattern per token. Each
match first skips the gap before the token (whitespace including NBSP
and BOM, line terminators, line and block comments) and then matches
the token itself: an identifier or keyword, a decimal or hex number, a
string literal without escapes, or a punctuator (the alternation runs
longest first, so matching is maximal munch). Three cases leave the
pattern for a small routine that still scans by pattern, never one
character at a time:

- string literals with escapes or line continuations, decoded chunk by
  chunk;
- regular-expression literals, disambiguated from division by the
  standard previous-token heuristic (a ``/`` starts a regex unless the
  previous significant token could end an expression);
- malformed input, which raises :class:`LexError` at the start of the
  offending token.

Line and column come from counting line terminators (LF, CR, CRLF as
one, U+2028, U+2029) in each skipped gap and in the rare token that
spans lines. Every token records whether its gap held a terminator
(``preceded_by_newline``), so the parser can implement automatic
semicolon insertion and restricted productions.
"""

from __future__ import annotations

import re

from repro.js.errors import LexError, SourcePosition
from repro.js.tokens import KEYWORDS, PUNCTUATORS, Token, TokenType

_LINE_TERMINATORS = "\n\r\u2028\u2029"
_WHITESPACE = " \t\v\f\xa0\ufeff"
_IDENT_START = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_$"
_COMMENT = rf"//[^{_LINE_TERMINATORS}]*|/\*[\s\S]*?\*/"

#: Skips the gap before a token, then matches the token. Group 1 is the
#: part of the gap from its first line terminator or comment on (a gap
#: of plain whitespace leaves it unmatched, so no terminators need
#: counting); groups 2-5 are an identifier or keyword, a number, a
#: string without escapes, and a punctuator. No token group matches at
#: the end of input and where a dedicated routine (or an error) takes
#: over.
_TOKEN = re.compile(
    rf"[{_WHITESPACE}]*((?:[{_LINE_TERMINATORS}]|{_COMMENT})"
    rf"(?:[{_WHITESPACE}{_LINE_TERMINATORS}]+|{_COMMENT})*)?"
    r"(?:([A-Za-z_$][A-Za-z0-9_$]*)"
    r"|(0[xX][0-9a-fA-F]*|(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]*)?)"
    rf"|('[^'\\{_LINE_TERMINATORS}]*'|\"[^\"\\{_LINE_TERMINATORS}]*\")"
    r"|(" + "|".join(map(re.escape, sorted(PUNCTUATORS, key=len, reverse=True)))
    + r"))?"
)
_LINE_BREAK = re.compile(rf"\r\n|[{_LINE_TERMINATORS}]")
_STRING_CHUNK = {
    quote: re.compile(rf"[^{quote}\\{_LINE_TERMINATORS}]*") for quote in "'\""
}
_HEX = re.compile(r"[0-9a-fA-F]+")
#: A regex literal: escapes may cover any character (a line terminator
#: included), and a ``/`` inside a character class does not end it.
_REGEX = re.compile(
    rf"/(?:[^\\/\[{_LINE_TERMINATORS}]|\\[\s\S]"
    rf"|\[(?:[^\\\]{_LINE_TERMINATORS}]|\\[\s\S])*\])*/[A-Za-z0-9_$]*"
)

#: Tokens after which a ``/`` must be a division operator rather than the
#: start of a regular expression literal: identifiers, literals, and the
#: closing brackets of expressions.
_REGEX_FORBIDDEN_PUNCTUATORS = frozenset({")", "]", "}", "++", "--"})
_REGEX_FORBIDDEN_KEYWORDS = frozenset({"this", "true", "false", "null", "undefined"})

_STRING_ESCAPES = {
    "b": "\b",
    "f": "\f",
    "n": "\n",
    "r": "\r",
    "t": "\t",
    "v": "\v",
    "0": "\0",
    "'": "'",
    '"': '"',
    "\\": "\\",
    "/": "/",
}


class Lexer:
    """Tokenizes JavaScript source text (see :func:`tokenize`)."""

    def __init__(self, source: str, filename: str = "<addon>"):
        self.source = source
        self.filename = filename

    def tokenize(self) -> list[Token]:
        """Produce the full token stream, ending with a single EOF token."""
        source = self.source
        match = _TOKEN.match
        line_breaks = _LINE_BREAK.finditer
        Position = SourcePosition
        KEYWORD, IDENTIFIER = TokenType.KEYWORD, TokenType.IDENTIFIER
        PUNCTUATOR, NUMBER = TokenType.PUNCTUATOR, TokenType.NUMBER
        STRING = TokenType.STRING
        tokens: list[Token] = []
        append = tokens.append
        end_of_input = len(source)
        pos = line_start = 0
        line = 1
        regex_ok = True
        while True:
            found = match(source, pos)
            spans = found.regs
            group = found.lastindex or 1
            newline = False
            gap_start, gap_end = spans[1]
            if gap_start >= 0:
                for brk in line_breaks(source, gap_start, gap_end):
                    line += 1
                    line_start = brk.end()
                    newline = True
            if group == 1:  # no token matched
                start = pos = found.end()
            else:
                start, pos = spans[group]
            position = Position(line, start - line_start, start)
            text = source[start:pos]
            if group == 5 and not (
                text[0] == "/" and (regex_ok or source.startswith("/*", start))
            ):
                append(Token(PUNCTUATOR, text, position, newline))
                regex_ok = text not in _REGEX_FORBIDDEN_PUNCTUATORS
                continue
            if group == 2:
                if text in KEYWORDS:
                    append(Token(KEYWORD, text, position, newline))
                    regex_ok = text not in _REGEX_FORBIDDEN_KEYWORDS
                else:
                    append(Token(IDENTIFIER, text, position, newline))
                    regex_ok = False
                continue
            if group == 3:
                if text[1:2] in ("x", "X"):
                    if len(text) == 2:
                        raise LexError("malformed hex literal", position)
                elif text[-1] in "eE+-":
                    raise LexError("malformed exponent", position)
                if pos < end_of_input and source[pos] in _IDENT_START:
                    raise LexError(
                        "identifier starts immediately after number", position
                    )
                append(Token(NUMBER, text, position, newline))
                regex_ok = False
                continue
            if group == 4:
                append(Token(STRING, text[1:-1], position, newline))
                regex_ok = False
                continue
            if group == 5:
                # A ``/`` that opens a regex literal (a terminated block
                # comment would have gone with the gap).
                if source.startswith("/*", start):
                    raise LexError("unterminated block comment", position)
                literal = _REGEX.match(source, start)
                if literal is None:
                    raise LexError("unterminated regular expression", position)
                pos = literal.end()
                append(Token(TokenType.REGEX, literal.group(), position, newline))
            elif start >= end_of_input:
                append(Token(TokenType.EOF, "", position, newline))
                return tokens
            elif source[start] in "'\"":
                value, pos = _scan_string(source, start, position)
                append(Token(STRING, value, position, newline))
            else:
                raise LexError(f"unexpected character {source[start]!r}", position)
            regex_ok = False
            # A line continuation in a string, or an escaped terminator in
            # a regex, moves the line on.
            for brk in line_breaks(source, start, pos):
                line += 1
                line_start = brk.end()


def _scan_string(source: str, start: int, position: SourcePosition) -> tuple[str, int]:
    """Decode the string literal at ``start``; return it and its end."""
    quote = source[start]
    chunk = _STRING_CHUNK[quote].match
    parts: list[str] = []
    pos = start + 1
    while True:
        end = chunk(source, pos).end()
        parts.append(source[pos:end])
        if end >= len(source):
            raise LexError("unterminated string literal", position)
        if source[end] == quote:
            return "".join(parts), end + 1
        if source[end] != "\\":
            raise LexError("newline in string literal", position)
        if end + 1 >= len(source):
            raise LexError("unterminated escape sequence", position)
        escape = source[end + 1]
        pos = end + 2
        if escape in _LINE_TERMINATORS:
            continue  # line continuation: contributes nothing to the value
        if escape in ("x", "u"):
            length = 2 if escape == "x" else 4
            digits = source[pos:pos + length]
            if len(digits) < length or not _HEX.fullmatch(digits):
                raise LexError("malformed hex escape in string", position)
            parts.append(chr(int(digits, 16)))
            pos += length
        else:
            # Per ES5, unknown escapes denote the character itself.
            parts.append(_STRING_ESCAPES.get(escape, escape))


def tokenize(source: str, filename: str = "<addon>") -> list[Token]:
    """Tokenize ``source`` into a list of tokens ending with EOF."""
    return Lexer(source, filename).tokenize()
