"""Recursive-descent parser for the supported JavaScript (ES5) subset.

The parser implements:

- the full ES5 statement grammar used by addons (functions, var, if/else,
  while/do-while/for/for-in, switch, try/catch/finally, throw, labeled
  statements, break/continue with labels),
- the full expression grammar via precedence climbing (assignment,
  conditional, logical, bitwise, equality, relational incl. ``in`` and
  ``instanceof``, shift, additive, multiplicative, unary, update, call/new/
  member chains, and all literal forms),
- automatic semicolon insertion and the ES5 restricted productions
  (``return``/``throw``/``break``/``continue`` and postfix ``++``/``--``
  may not be separated from their operand by a line terminator),
- clean :class:`~repro.js.errors.UnsupportedSyntaxError` diagnostics for
  constructs outside the subset (``with``, ES6 keywords, getters/setters),
  mirroring the paper's restriction to statically analyzable addon code.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.js import ast
from repro.js.errors import ParseError, SourcePosition, Span, UnsupportedSyntaxError
from repro.js.lexer import tokenize
from repro.js.tokens import Token, TokenType


@dataclass(frozen=True)
class SkippedStatement:
    """One top-level statement dropped by recovery-mode parsing."""

    position: SourcePosition | None
    message: str
    #: True when the statement used syntax outside the supported subset
    #: (as opposed to being malformed).
    unsupported: bool
    #: The full source span of the dropped statement — from its first
    #: token through the resynchronization point. Rendered in the same
    #: ``line:col-line:col`` format lint findings use, so recovery skips
    #: and lint findings point at source identically.
    span: Span | None = None

    def render(self) -> str:
        if self.span is not None:
            return f"{self.message} at {self.span}"
        location = f" at {self.position}" if self.position is not None else ""
        return f"{self.message}{location}"

#: Binary operator precedence, higher binds tighter. ``in`` participates
#: only when the ``no_in`` restriction (for-statement headers) is off.
_BINARY_PRECEDENCE = {
    "||": 1,
    "&&": 2,
    "|": 3,
    "^": 4,
    "&": 5,
    "==": 6, "!=": 6, "===": 6, "!==": 6,
    "<": 7, ">": 7, "<=": 7, ">=": 7, "in": 7, "instanceof": 7,
    "<<": 8, ">>": 8, ">>>": 8,
    "+": 9, "-": 9,
    "*": 10, "/": 10, "%": 10,
}

_ASSIGNMENT_OPERATORS = frozenset(
    {"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>=", ">>>="}
)

_UNARY_OPERATORS = frozenset({"-", "+", "!", "~"})
_UNARY_KEYWORDS = frozenset({"typeof", "void", "delete"})

_UNSUPPORTED_KEYWORDS = frozenset(
    {"class", "const", "enum", "export", "extends", "import", "super", "let",
     "yield", "with"}
)


class Parser:
    """Parses a token stream into a :class:`repro.js.ast.Program`."""

    def __init__(self, tokens: list[Token], filename: str = "<addon>"):
        self.tokens = tokens
        self.index = 0
        self.filename = filename

    # ------------------------------------------------------------------
    # Token helpers

    @property
    def current(self) -> Token:
        return self.tokens[self.index]

    def _peek(self, ahead: int = 1) -> Token:
        index = min(self.index + ahead, len(self.tokens) - 1)
        return self.tokens[index]

    def _advance(self) -> Token:
        token = self.current
        if token.type is not TokenType.EOF:
            self.index += 1
        return token

    def _expect_punctuator(self, value: str) -> Token:
        if not self.current.is_punctuator(value):
            raise ParseError(
                f"expected {value!r} but found {self.current}", self.current.position
            )
        return self._advance()

    def _expect_keyword(self, value: str) -> Token:
        if not self.current.is_keyword(value):
            raise ParseError(
                f"expected keyword {value!r} but found {self.current}",
                self.current.position,
            )
        return self._advance()

    def _expect_identifier(self) -> str:
        token = self.current
        if token.type is not TokenType.IDENTIFIER:
            if token.is_keyword(*_UNSUPPORTED_KEYWORDS):
                raise UnsupportedSyntaxError(
                    f"reserved word {token.value!r} is outside the supported subset",
                    token.position,
                )
            raise ParseError(f"expected identifier but found {token}", token.position)
        self._advance()
        return token.value

    def _consume_semicolon(self) -> None:
        """Consume an explicit ``;`` or apply automatic semicolon insertion."""
        if self.current.is_punctuator(";"):
            self._advance()
            return
        if (
            self.current.type is TokenType.EOF
            or self.current.is_punctuator("}")
            or self.current.preceded_by_newline
        ):
            return
        raise ParseError(
            f"expected ';' but found {self.current}", self.current.position
        )

    # ------------------------------------------------------------------
    # Program and statements

    def parse_program(self) -> ast.Program:
        position = self.current.position
        body: list[ast.Statement] = []
        while self.current.type is not TokenType.EOF:
            body.append(self.parse_statement())
        return ast.Program(body, position=position)

    def parse_program_with_recovery(
        self,
    ) -> tuple[ast.Program, list[SkippedStatement]]:
        """Parse, skipping top-level statements that fail to parse.

        On a parse error the parser resynchronizes at the next plausible
        top-level statement boundary (a ``;`` or closing ``}`` at
        bracket depth zero) and keeps going, recording what was dropped.
        The analyzed remainder under-approximates the addon, so callers
        must flag the run degraded and widen its signature (DESIGN.md,
        "Failure modes and degradation semantics").
        """
        position = self.current.position
        body: list[ast.Statement] = []
        skipped: list[SkippedStatement] = []
        while self.current.type is not TokenType.EOF:
            start = self.index
            start_position = self.current.position
            try:
                body.append(self.parse_statement())
            except ParseError as error:
                self._resynchronize(start)
                # The last consumed token bounds the dropped span. At
                # least one token past ``start`` was consumed, so the
                # end never precedes the start.
                end_position = self.tokens[max(start, self.index - 1)].position
                skipped.append(
                    SkippedStatement(
                        position=error.position,
                        message=error.message,
                        unsupported=isinstance(error, UnsupportedSyntaxError),
                        span=Span(start=start_position, end=end_position),
                    )
                )
        return ast.Program(body, position=position), skipped

    def _resynchronize(self, start: int) -> None:
        """Skip past the statement that failed to parse.

        Scans from the error point, tracking bracket depth, until just
        past a ``;`` at depth zero, a ``}`` that closes to depth zero,
        or EOF. Always consumes at least one token beyond ``start`` so
        recovery makes progress.
        """
        if self.index == start:
            self._advance()
        depth = 0
        while self.current.type is not TokenType.EOF:
            token = self._advance()
            if token.type is not TokenType.PUNCTUATOR:
                continue
            if token.value in "{[(":
                depth += 1
            elif token.value in ")]":
                depth = max(0, depth - 1)
            elif token.value == "}":
                depth = max(0, depth - 1)
                if depth == 0:
                    return
            elif token.value == ";" and depth == 0:
                return

    def parse_statement(self) -> ast.Statement:
        token = self.current
        if token.type is TokenType.PUNCTUATOR:
            if token.value == "{":
                return self.parse_block()
            if token.value == ";":
                self._advance()
                return ast.EmptyStatement(position=token.position)
        if token.type is TokenType.KEYWORD:
            handler = {
                "var": self._parse_variable_statement,
                "function": self._parse_function_declaration,
                "if": self._parse_if,
                "while": self._parse_while,
                "do": self._parse_do_while,
                "for": self._parse_for,
                "return": self._parse_return,
                "break": self._parse_break,
                "continue": self._parse_continue,
                "throw": self._parse_throw,
                "try": self._parse_try,
                "switch": self._parse_switch,
                "debugger": self._parse_debugger,
            }.get(token.value)
            if handler is not None:
                return handler()
            if token.value in _UNSUPPORTED_KEYWORDS:
                raise UnsupportedSyntaxError(
                    f"{token.value!r} statements are outside the supported subset",
                    token.position,
                )
        if (
            token.type is TokenType.IDENTIFIER
            and self._peek().is_punctuator(":")
        ):
            return self._parse_labeled_statement()
        return self._parse_expression_statement()

    def parse_block(self) -> ast.BlockStatement:
        open_brace = self._expect_punctuator("{")
        body: list[ast.Statement] = []
        while not self.current.is_punctuator("}"):
            if self.current.type is TokenType.EOF:
                raise ParseError("unterminated block", open_brace.position)
            body.append(self.parse_statement())
        self._expect_punctuator("}")
        return ast.BlockStatement(body, position=open_brace.position)

    def _parse_variable_statement(self) -> ast.VariableDeclaration:
        keyword = self._expect_keyword("var")
        declaration = self._parse_variable_declaration_list(no_in=False)
        declaration.position = keyword.position
        self._consume_semicolon()
        return declaration

    def _parse_variable_declaration_list(self, no_in: bool) -> ast.VariableDeclaration:
        declarations: list[ast.VariableDeclarator] = []
        while True:
            position = self.current.position
            name = self._expect_identifier()
            init: ast.Expression | None = None
            if self.current.is_punctuator("="):
                self._advance()
                init = self.parse_assignment_expression(no_in=no_in)
            declarations.append(ast.VariableDeclarator(name, init, position=position))
            if not self.current.is_punctuator(","):
                break
            self._advance()
        return ast.VariableDeclaration(declarations, position=declarations[0].position)

    def _parse_function_declaration(self) -> ast.FunctionDeclaration:
        keyword = self._expect_keyword("function")
        name = self._expect_identifier()
        params = self._parse_parameter_list()
        body = self.parse_block()
        return ast.FunctionDeclaration(name, params, body, position=keyword.position)

    def _parse_parameter_list(self) -> list[str]:
        self._expect_punctuator("(")
        params: list[str] = []
        if not self.current.is_punctuator(")"):
            while True:
                params.append(self._expect_identifier())
                if not self.current.is_punctuator(","):
                    break
                self._advance()
        self._expect_punctuator(")")
        return params

    def _parse_if(self) -> ast.IfStatement:
        keyword = self._expect_keyword("if")
        self._expect_punctuator("(")
        test = self.parse_expression()
        self._expect_punctuator(")")
        consequent = self.parse_statement()
        alternate: ast.Statement | None = None
        if self.current.is_keyword("else"):
            self._advance()
            alternate = self.parse_statement()
        return ast.IfStatement(test, consequent, alternate, position=keyword.position)

    def _parse_while(self) -> ast.WhileStatement:
        keyword = self._expect_keyword("while")
        self._expect_punctuator("(")
        test = self.parse_expression()
        self._expect_punctuator(")")
        body = self.parse_statement()
        return ast.WhileStatement(test, body, position=keyword.position)

    def _parse_do_while(self) -> ast.DoWhileStatement:
        keyword = self._expect_keyword("do")
        body = self.parse_statement()
        self._expect_keyword("while")
        self._expect_punctuator("(")
        test = self.parse_expression()
        self._expect_punctuator(")")
        self._consume_semicolon()
        return ast.DoWhileStatement(body, test, position=keyword.position)

    def _parse_for(self) -> ast.Statement:
        keyword = self._expect_keyword("for")
        self._expect_punctuator("(")

        init: ast.VariableDeclaration | ast.Expression | None = None
        if self.current.is_keyword("var"):
            self._advance()
            declaration = self._parse_variable_declaration_list(no_in=True)
            if self.current.is_keyword("in") and len(declaration.declarations) == 1:
                declarator = declaration.declarations[0]
                if declarator.init is not None:
                    raise ParseError(
                        "for-in loop variable may not have an initializer",
                        declarator.position,
                    )
                return self._parse_for_in_tail(
                    keyword.position, declarator.name, declares=True
                )
            init = declaration
        elif not self.current.is_punctuator(";"):
            expr = self.parse_expression(no_in=True)
            if self.current.is_keyword("in"):
                if not isinstance(expr, ast.Identifier):
                    raise UnsupportedSyntaxError(
                        "for-in target must be a simple variable in the "
                        "supported subset",
                        expr.position,
                    )
                return self._parse_for_in_tail(
                    keyword.position, expr.name, declares=False
                )
            init = expr

        self._expect_punctuator(";")
        test = None if self.current.is_punctuator(";") else self.parse_expression()
        self._expect_punctuator(";")
        update = None if self.current.is_punctuator(")") else self.parse_expression()
        self._expect_punctuator(")")
        body = self.parse_statement()
        return ast.ForStatement(init, test, update, body, position=keyword.position)

    def _parse_for_in_tail(
        self, position: SourcePosition, variable: str, declares: bool
    ) -> ast.ForInStatement:
        self._expect_keyword("in")
        obj = self.parse_expression()
        self._expect_punctuator(")")
        body = self.parse_statement()
        return ast.ForInStatement(variable, declares, obj, body, position=position)

    def _parse_return(self) -> ast.ReturnStatement:
        keyword = self._expect_keyword("return")
        argument: ast.Expression | None = None
        if (
            not self.current.is_punctuator(";", "}")
            and self.current.type is not TokenType.EOF
            and not self.current.preceded_by_newline
        ):
            argument = self.parse_expression()
        self._consume_semicolon()
        return ast.ReturnStatement(argument, position=keyword.position)

    def _parse_break(self) -> ast.BreakStatement:
        keyword = self._expect_keyword("break")
        label = self._parse_optional_label()
        self._consume_semicolon()
        return ast.BreakStatement(label, position=keyword.position)

    def _parse_continue(self) -> ast.ContinueStatement:
        keyword = self._expect_keyword("continue")
        label = self._parse_optional_label()
        self._consume_semicolon()
        return ast.ContinueStatement(label, position=keyword.position)

    def _parse_optional_label(self) -> str | None:
        if (
            self.current.type is TokenType.IDENTIFIER
            and not self.current.preceded_by_newline
        ):
            return self._advance().value
        return None

    def _parse_throw(self) -> ast.ThrowStatement:
        keyword = self._expect_keyword("throw")
        if self.current.preceded_by_newline:
            raise ParseError(
                "newline not allowed after 'throw'", keyword.position
            )
        argument = self.parse_expression()
        self._consume_semicolon()
        return ast.ThrowStatement(argument, position=keyword.position)

    def _parse_try(self) -> ast.TryStatement:
        keyword = self._expect_keyword("try")
        block = self.parse_block()
        handler: ast.CatchClause | None = None
        finalizer: ast.BlockStatement | None = None
        if self.current.is_keyword("catch"):
            catch_token = self._advance()
            self._expect_punctuator("(")
            param = self._expect_identifier()
            self._expect_punctuator(")")
            handler = ast.CatchClause(
                param, self.parse_block(), position=catch_token.position
            )
        if self.current.is_keyword("finally"):
            self._advance()
            finalizer = self.parse_block()
        if handler is None and finalizer is None:
            raise ParseError("try statement needs catch or finally", keyword.position)
        return ast.TryStatement(block, handler, finalizer, position=keyword.position)

    def _parse_switch(self) -> ast.SwitchStatement:
        keyword = self._expect_keyword("switch")
        self._expect_punctuator("(")
        discriminant = self.parse_expression()
        self._expect_punctuator(")")
        self._expect_punctuator("{")
        cases: list[ast.SwitchCase] = []
        seen_default = False
        while not self.current.is_punctuator("}"):
            case_token = self.current
            if case_token.is_keyword("case"):
                self._advance()
                test: ast.Expression | None = self.parse_expression()
            elif case_token.is_keyword("default"):
                if seen_default:
                    raise ParseError(
                        "multiple default clauses in switch", case_token.position
                    )
                seen_default = True
                self._advance()
                test = None
            else:
                raise ParseError(
                    f"expected 'case' or 'default' but found {case_token}",
                    case_token.position,
                )
            self._expect_punctuator(":")
            body: list[ast.Statement] = []
            while not (
                self.current.is_punctuator("}")
                or self.current.is_keyword("case", "default")
            ):
                if self.current.type is TokenType.EOF:
                    raise ParseError("unterminated switch", keyword.position)
                body.append(self.parse_statement())
            cases.append(ast.SwitchCase(test, body, position=case_token.position))
        self._expect_punctuator("}")
        return ast.SwitchStatement(discriminant, cases, position=keyword.position)

    def _parse_debugger(self) -> ast.DebuggerStatement:
        keyword = self._expect_keyword("debugger")
        self._consume_semicolon()
        return ast.DebuggerStatement(position=keyword.position)

    def _parse_labeled_statement(self) -> ast.LabeledStatement:
        label_token = self._advance()
        self._expect_punctuator(":")
        body = self.parse_statement()
        return ast.LabeledStatement(
            label_token.value, body, position=label_token.position
        )

    def _parse_expression_statement(self) -> ast.ExpressionStatement:
        position = self.current.position
        if self.current.is_keyword("function"):
            raise ParseError(
                "function declaration not allowed in expression position; "
                "parenthesize to create a function expression",
                position,
            )
        expression = self.parse_expression()
        self._consume_semicolon()
        return ast.ExpressionStatement(expression, position=position)

    # ------------------------------------------------------------------
    # Expressions

    def parse_expression(self, no_in: bool = False) -> ast.Expression:
        expr = self.parse_assignment_expression(no_in=no_in)
        if not self.current.is_punctuator(","):
            return expr
        position = expr.position
        expressions = [expr]
        while self.current.is_punctuator(","):
            self._advance()
            expressions.append(self.parse_assignment_expression(no_in=no_in))
        return ast.SequenceExpression(expressions, position=position)

    def parse_assignment_expression(self, no_in: bool = False) -> ast.Expression:
        left = self._parse_conditional(no_in=no_in)
        token = self.current
        if token.type is TokenType.PUNCTUATOR and token.value in _ASSIGNMENT_OPERATORS:
            if not isinstance(left, (ast.Identifier, ast.MemberExpression)):
                raise ParseError("invalid assignment target", left.position)
            self._advance()
            value = self.parse_assignment_expression(no_in=no_in)
            return ast.AssignmentExpression(
                token.value, left, value, position=left.position
            )
        return left

    def _parse_conditional(self, no_in: bool) -> ast.Expression:
        test = self._parse_binary(0, no_in=no_in)
        if not self.current.is_punctuator("?"):
            return test
        self._advance()
        consequent = self.parse_assignment_expression()
        self._expect_punctuator(":")
        alternate = self.parse_assignment_expression(no_in=no_in)
        return ast.ConditionalExpression(
            test, consequent, alternate, position=test.position
        )

    def _binary_operator(self, no_in: bool) -> str | None:
        token = self.current
        if token.type is TokenType.PUNCTUATOR and token.value in _BINARY_PRECEDENCE:
            return token.value
        if token.is_keyword("instanceof"):
            return "instanceof"
        if token.is_keyword("in") and not no_in:
            return "in"
        return None

    def _parse_binary(self, min_precedence: int, no_in: bool) -> ast.Expression:
        left = self._parse_unary(no_in=no_in)
        while True:
            operator = self._binary_operator(no_in)
            if operator is None:
                return left
            precedence = _BINARY_PRECEDENCE[operator]
            if precedence < min_precedence:
                return left
            self._advance()
            right = self._parse_binary(precedence + 1, no_in=no_in)
            if operator in ("&&", "||"):
                left = ast.LogicalExpression(
                    operator, left, right, position=left.position
                )
            else:
                left = ast.BinaryExpression(
                    operator, left, right, position=left.position
                )

    def _parse_unary(self, no_in: bool) -> ast.Expression:
        token = self.current
        if token.type is TokenType.PUNCTUATOR and token.value in _UNARY_OPERATORS:
            self._advance()
            argument = self._parse_unary(no_in=no_in)
            return ast.UnaryExpression(token.value, argument, position=token.position)
        if token.type is TokenType.KEYWORD and token.value in _UNARY_KEYWORDS:
            self._advance()
            argument = self._parse_unary(no_in=no_in)
            return ast.UnaryExpression(token.value, argument, position=token.position)
        if token.is_punctuator("++", "--"):
            self._advance()
            argument = self._parse_unary(no_in=no_in)
            self._check_update_target(argument)
            return ast.UpdateExpression(
                token.value, argument, prefix=True, position=token.position
            )
        return self._parse_postfix(no_in=no_in)

    def _parse_postfix(self, no_in: bool) -> ast.Expression:
        expr = self._parse_call_chain(self._parse_new_or_primary())
        token = self.current
        if token.is_punctuator("++", "--") and not token.preceded_by_newline:
            self._advance()
            self._check_update_target(expr)
            return ast.UpdateExpression(
                token.value, expr, prefix=False, position=expr.position
            )
        return expr

    @staticmethod
    def _check_update_target(expr: ast.Expression) -> None:
        if not isinstance(expr, (ast.Identifier, ast.MemberExpression)):
            raise ParseError("invalid increment/decrement target", expr.position)

    def _parse_new_or_primary(self) -> ast.Expression:
        if self.current.is_keyword("new"):
            new_token = self._advance()
            callee = self._parse_member_chain(self._parse_new_or_primary())
            arguments: list[ast.Expression] = []
            if self.current.is_punctuator("("):
                arguments = self._parse_arguments()
            return ast.NewExpression(callee, arguments, position=new_token.position)
        return self._parse_primary()

    def _parse_member_chain(self, expr: ast.Expression) -> ast.Expression:
        """Consume ``.prop`` and ``[expr]`` suffixes (no calls) — used for
        the callee of ``new``."""
        while True:
            if self.current.is_punctuator("."):
                self._advance()
                expr = self._member_access(expr)
            elif self.current.is_punctuator("["):
                self._advance()
                index = self.parse_expression()
                self._expect_punctuator("]")
                expr = ast.MemberExpression(
                    expr, index, computed=True, position=expr.position
                )
            else:
                return expr

    def _parse_call_chain(self, expr: ast.Expression) -> ast.Expression:
        while True:
            if self.current.is_punctuator("."):
                self._advance()
                expr = self._member_access(expr)
            elif self.current.is_punctuator("["):
                self._advance()
                index = self.parse_expression()
                self._expect_punctuator("]")
                expr = ast.MemberExpression(
                    expr, index, computed=True, position=expr.position
                )
            elif self.current.is_punctuator("("):
                arguments = self._parse_arguments()
                expr = ast.CallExpression(expr, arguments, position=expr.position)
            else:
                return expr

    def _member_access(self, obj: ast.Expression) -> ast.MemberExpression:
        token = self.current
        # Property names may be keywords (e.g. ``obj.delete``); accept any
        # identifier-shaped token.
        if token.type not in (TokenType.IDENTIFIER, TokenType.KEYWORD):
            raise ParseError(
                f"expected property name but found {token}", token.position
            )
        self._advance()
        prop = ast.StringLiteral(token.value, position=token.position)
        return ast.MemberExpression(obj, prop, computed=False, position=obj.position)

    def _parse_arguments(self) -> list[ast.Expression]:
        self._expect_punctuator("(")
        arguments: list[ast.Expression] = []
        if not self.current.is_punctuator(")"):
            while True:
                arguments.append(self.parse_assignment_expression())
                if not self.current.is_punctuator(","):
                    break
                self._advance()
        self._expect_punctuator(")")
        return arguments

    def _parse_primary(self) -> ast.Expression:
        token = self.current
        position = token.position

        if token.type is TokenType.NUMBER:
            self._advance()
            return ast.NumberLiteral(_parse_number(token.value), position=position)
        if token.type is TokenType.STRING:
            self._advance()
            return ast.StringLiteral(token.value, position=position)
        if token.type is TokenType.REGEX:
            self._advance()
            return ast.RegexLiteral(token.value, position=position)
        if token.type is TokenType.IDENTIFIER:
            self._advance()
            return ast.Identifier(token.value, position=position)
        if token.type is TokenType.KEYWORD:
            if token.value == "true":
                self._advance()
                return ast.BooleanLiteral(True, position=position)
            if token.value == "false":
                self._advance()
                return ast.BooleanLiteral(False, position=position)
            if token.value == "null":
                self._advance()
                return ast.NullLiteral(position=position)
            if token.value == "undefined":
                self._advance()
                return ast.UndefinedLiteral(position=position)
            if token.value == "this":
                self._advance()
                return ast.ThisExpression(position=position)
            if token.value == "function":
                return self._parse_function_expression()
            if token.value in _UNSUPPORTED_KEYWORDS:
                raise UnsupportedSyntaxError(
                    f"{token.value!r} is outside the supported subset", position
                )
        if token.is_punctuator("("):
            self._advance()
            expr = self.parse_expression()
            self._expect_punctuator(")")
            return expr
        if token.is_punctuator("["):
            return self._parse_array_literal()
        if token.is_punctuator("{"):
            return self._parse_object_literal()
        raise ParseError(f"unexpected token {token}", position)

    def _parse_function_expression(self) -> ast.FunctionExpression:
        keyword = self._expect_keyword("function")
        name: str | None = None
        if self.current.type is TokenType.IDENTIFIER:
            name = self._advance().value
        params = self._parse_parameter_list()
        body = self.parse_block()
        return ast.FunctionExpression(name, params, body, position=keyword.position)

    def _parse_array_literal(self) -> ast.ArrayLiteral:
        open_bracket = self._expect_punctuator("[")
        elements: list[ast.Expression] = []
        while not self.current.is_punctuator("]"):
            if self.current.is_punctuator(","):
                # Elision: hole in the array becomes an explicit undefined.
                elements.append(
                    ast.UndefinedLiteral(position=self.current.position)
                )
                self._advance()
                continue
            elements.append(self.parse_assignment_expression())
            if self.current.is_punctuator(","):
                self._advance()
            elif not self.current.is_punctuator("]"):
                raise ParseError(
                    f"expected ',' or ']' but found {self.current}",
                    self.current.position,
                )
        self._expect_punctuator("]")
        return ast.ArrayLiteral(elements, position=open_bracket.position)

    def _parse_object_literal(self) -> ast.ObjectLiteral:
        open_brace = self._expect_punctuator("{")
        properties: list[ast.Property] = []
        while not self.current.is_punctuator("}"):
            properties.append(self._parse_property())
            if self.current.is_punctuator(","):
                self._advance()
            elif not self.current.is_punctuator("}"):
                raise ParseError(
                    f"expected ',' or '}}' but found {self.current}",
                    self.current.position,
                )
        self._expect_punctuator("}")
        return ast.ObjectLiteral(properties, position=open_brace.position)

    def _parse_property(self) -> ast.Property:
        token = self.current
        if token.type in (TokenType.IDENTIFIER, TokenType.KEYWORD):
            key = token.value
        elif token.type is TokenType.STRING:
            key = token.value
        elif token.type is TokenType.NUMBER:
            key = _number_to_property_key(_parse_number(token.value))
        else:
            raise ParseError(
                f"expected property key but found {token}", token.position
            )
        self._advance()
        if token.value in ("get", "set") and not self.current.is_punctuator(":"):
            raise UnsupportedSyntaxError(
                "getter/setter properties are outside the supported subset",
                token.position,
            )
        self._expect_punctuator(":")
        value = self.parse_assignment_expression()
        return ast.Property(key, value, position=token.position)


def _parse_number(text: str) -> float:
    if text.lower().startswith("0x"):
        return float(int(text, 16))
    return float(text)


def _number_to_property_key(value: float) -> str:
    """Render a numeric property key the way JavaScript coerces it."""
    if value == int(value):
        return str(int(value))
    return repr(value)


def _with_recursion_room(tokens: list[Token], filename: str, run):
    """Run a parse of ``tokens`` under a raised (bounded) recursion limit.

    The parser is recursive-descent, so deeply nested expressions consume
    Python stack; the limit is raised (bounded) for the duration of the
    parse so legitimately deep inputs don't hit Python's default ceiling.
    Every parse goes through here, including the linter's, which keeps
    its own token list for the token rules.
    """
    import sys

    wanted = min(100_000, max(sys.getrecursionlimit(), 40 * 256 + len(tokens) * 10))
    previous = sys.getrecursionlimit()
    sys.setrecursionlimit(max(previous, wanted))
    try:
        return run(Parser(tokens, filename))
    finally:
        sys.setrecursionlimit(previous)


def parse(source: str, filename: str = "<addon>") -> ast.Program:
    """Parse JavaScript ``source`` into an AST."""
    return _with_recursion_room(
        tokenize(source, filename), filename, Parser.parse_program
    )


def parse_with_recovery(
    source: str, filename: str = "<addon>"
) -> tuple[ast.Program, list[SkippedStatement]]:
    """Parse ``source``, skipping unparseable top-level statements.

    Returns the program built from the statements that did parse plus
    the list of skipped spans. A lexer error still raises (there is no
    token stream to resynchronize on).
    """
    return _with_recursion_room(
        tokenize(source, filename), filename,
        Parser.parse_program_with_recovery,
    )
