"""Unit tests for the JavaScript lexer."""

import pytest

from repro.js.errors import LexError
from repro.js.lexer import tokenize
from repro.js.tokens import TokenType


def kinds(source):
    return [t.type for t in tokenize(source)][:-1]  # drop EOF


def values(source):
    return [t.value for t in tokenize(source)][:-1]


class TestBasicTokens:
    def test_empty_source_yields_only_eof(self):
        tokens = tokenize("")
        assert len(tokens) == 1
        assert tokens[0].type is TokenType.EOF

    def test_identifiers_and_keywords(self):
        tokens = tokenize("var foo = bar")
        assert [t.type for t in tokens[:4]] == [
            TokenType.KEYWORD,
            TokenType.IDENTIFIER,
            TokenType.PUNCTUATOR,
            TokenType.IDENTIFIER,
        ]

    def test_dollar_and_underscore_identifiers(self):
        assert values("$x _y $ _") == ["$x", "_y", "$", "_"]

    def test_identifier_with_digits(self):
        assert values("abc123") == ["abc123"]

    def test_keywords_recognized(self):
        for kw in ["function", "return", "typeof", "instanceof", "new", "in"]:
            token = tokenize(kw)[0]
            assert token.type is TokenType.KEYWORD, kw

    def test_undefined_is_keyword(self):
        assert tokenize("undefined")[0].type is TokenType.KEYWORD


class TestNumbers:
    @pytest.mark.parametrize(
        "literal", ["0", "42", "3.14", ".5", "1e10", "2.5e-3", "7E+2", "0x1F", "0XAB"]
    )
    def test_valid_number_literals(self, literal):
        tokens = tokenize(literal)
        assert tokens[0].type is TokenType.NUMBER
        assert tokens[0].value == literal

    def test_number_followed_by_dot_member(self):
        # `1 .toString` style is unusual; `x.1` invalid; but `1.5.toFixed` lexes
        # as number then punctuator then identifier.
        assert kinds("1.5.") == [TokenType.NUMBER, TokenType.PUNCTUATOR]

    def test_malformed_hex_raises(self):
        with pytest.raises(LexError):
            tokenize("0x")

    def test_malformed_exponent_raises(self):
        with pytest.raises(LexError):
            tokenize("1e+")

    def test_identifier_after_number_raises(self):
        with pytest.raises(LexError):
            tokenize("3foo")


class TestStrings:
    def test_double_and_single_quotes(self):
        assert values("\"hi\" 'there'") == ["hi", "there"]

    def test_escape_sequences(self):
        assert values(r'"\n\t\\\""') == ['\n\t\\"']

    def test_hex_and_unicode_escapes(self):
        assert values(r'"\x41B"') == ["AB"]

    def test_unknown_escape_is_literal_char(self):
        assert values(r'"\q"') == ["q"]

    def test_line_continuation_contributes_nothing(self):
        assert values('"ab\\\ncd"') == ["abcd"]

    def test_unterminated_string_raises(self):
        with pytest.raises(LexError):
            tokenize('"abc')

    def test_raw_newline_in_string_raises(self):
        with pytest.raises(LexError):
            tokenize('"ab\ncd"')

    def test_malformed_unicode_escape_raises(self):
        with pytest.raises(LexError):
            tokenize(r'"\u00"')


class TestComments:
    def test_line_comment_skipped(self):
        assert values("a // comment\nb") == ["a", "b"]

    def test_block_comment_skipped(self):
        assert values("a /* x */ b") == ["a", "b"]

    def test_block_comment_newline_sets_flag(self):
        tokens = tokenize("a /* line1\nline2 */ b")
        assert tokens[1].preceded_by_newline

    def test_unterminated_block_comment_raises(self):
        with pytest.raises(LexError):
            tokenize("/* never ends")


class TestPunctuators:
    def test_maximal_munch(self):
        assert values("a===b") == ["a", "===", "b"]
        assert values("a==b") == ["a", "==", "b"]
        assert values("x>>>=y") == ["x", ">>>=", "y"]
        assert values("i++ + ++j") == ["i", "++", "+", "++", "j"]

    def test_all_single_char_punctuators(self):
        source = "{ } ( ) [ ] ; , < > + - * % & | ^ ! ~ ? : = ."
        for v in values(source):
            assert len(v) == 1

    def test_unexpected_character_raises(self):
        with pytest.raises(LexError):
            tokenize("@")


class TestRegexDisambiguation:
    def test_regex_at_start(self):
        tokens = tokenize("/abc/g")
        assert tokens[0].type is TokenType.REGEX
        assert tokens[0].value == "/abc/g"

    def test_regex_after_operator(self):
        tokens = tokenize("x = /a+/")
        assert tokens[2].type is TokenType.REGEX

    def test_division_after_identifier(self):
        tokens = tokenize("x / y")
        assert tokens[1].type is TokenType.PUNCTUATOR
        assert tokens[1].value == "/"

    def test_division_after_close_paren(self):
        tokens = tokenize("(x) / y")
        assert tokens[3].value == "/"
        assert tokens[3].type is TokenType.PUNCTUATOR

    def test_regex_after_open_paren(self):
        tokens = tokenize("match(/ab/)")
        assert tokens[2].type is TokenType.REGEX

    def test_regex_with_character_class_containing_slash(self):
        tokens = tokenize("x = /[/]/")
        assert tokens[2].type is TokenType.REGEX
        assert tokens[2].value == "/[/]/"

    def test_regex_with_escaped_slash(self):
        tokens = tokenize(r"x = /a\/b/")
        assert tokens[2].type is TokenType.REGEX

    def test_unterminated_regex_raises(self):
        with pytest.raises(LexError):
            tokenize("x = /abc")


class TestNewlineTracking:
    def test_newline_flag_set_after_line_break(self):
        tokens = tokenize("a\nb")
        assert not tokens[0].preceded_by_newline
        assert tokens[1].preceded_by_newline

    def test_no_newline_flag_on_same_line(self):
        tokens = tokenize("a b")
        assert not tokens[1].preceded_by_newline

    def test_crlf_counts_one_line(self):
        tokens = tokenize("a\r\nb")
        assert tokens[1].preceded_by_newline
        assert tokens[1].position.line == 2


class TestPositions:
    def test_line_and_column_tracking(self):
        tokens = tokenize("ab\n  cd")
        assert (tokens[0].position.line, tokens[0].position.column) == (1, 0)
        assert (tokens[1].position.line, tokens[1].position.column) == (2, 2)

    def test_position_after_block_comment(self):
        tokens = tokenize("/* a\nb */ x")
        assert tokens[0].position.line == 2


class TestUnicodeSeparators:
    """U+2028/U+2029 terminate lines; NBSP and BOM are plain whitespace."""

    @pytest.mark.parametrize("terminator", ["\u2028", "\u2029"])
    def test_separator_ends_a_line(self, terminator):
        tokens = tokenize(f"a{terminator}b")
        assert tokens[1].preceded_by_newline
        assert (tokens[1].position.line, tokens[1].position.column) == (2, 0)

    def test_each_separator_counts_one_line(self):
        tokens = tokenize("a\u2028\u2029\r\nb")
        assert tokens[1].position.line == 4

    def test_separator_ends_a_line_comment(self):
        tokens = tokenize("a // c\u2029b")
        assert [t.value for t in tokens[:2]] == ["a", "b"]
        assert tokens[1].preceded_by_newline

    def test_separator_in_block_comment_sets_flag(self):
        tokens = tokenize("a /* x\u2028y */ b")
        assert tokens[1].preceded_by_newline
        assert tokens[1].position.line == 2

    def test_raw_separator_in_string_raises(self):
        with pytest.raises(LexError, match="newline in string literal"):
            tokenize("'a\u2028b'")

    def test_separator_line_continuation(self):
        tokens = tokenize("'a\\\u2028b' c")
        assert tokens[0].value == "ab"
        assert (tokens[1].position.line, tokens[1].position.column) == (2, 3)
        assert not tokens[1].preceded_by_newline

    @pytest.mark.parametrize("blank", ["\xa0", "\ufeff", "\v", "\f"])
    def test_blank_separates_tokens_on_one_line(self, blank):
        tokens = tokenize(f"a{blank}b")
        assert [t.value for t in tokens[:2]] == ["a", "b"]
        assert not tokens[1].preceded_by_newline
        assert (tokens[1].position.line, tokens[1].position.column) == (1, 2)

    def test_leading_bom_is_skipped(self):
        tokens = tokenize("\ufeffvar a;")
        assert tokens[0].is_keyword("var")
        assert (tokens[0].position.column, tokens[0].position.offset) == (1, 1)
        assert not tokens[0].preceded_by_newline
