"""Abstract syntax tree for the supported JavaScript subset.

The node vocabulary mirrors the ESTree shape (SpiderMonkey Parser API) for
the ES5 constructs that browser addons use, so anyone familiar with Esprima/
Rhino output can read these trees directly.

Every node knows its children (:meth:`Node.children`), which powers generic
traversals, the AST node count used as the size metric in Table 1 (the
paper uses Rhino's node count; ours is the direct analogue), and structural
equality for tests.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, fields
from typing import Iterator

from repro.js.errors import SourcePosition


@dataclass
class Node:
    """Base class for all AST nodes."""

    position: SourcePosition = field(
        default=SourcePosition(0, 0), repr=False, compare=False, kw_only=True
    )

    @property
    def kind(self) -> str:
        """The node's type name, e.g. ``"CallExpression"``."""
        return type(self).__name__

    def children(self) -> Iterator["Node"]:
        """Yield all direct child nodes, in source order."""
        for name in _child_fields(type(self)):
            value = getattr(self, name)
            if isinstance(value, Node):
                yield value
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Node):
                        yield item

    def walk(self) -> Iterator["Node"]:
        """Yield this node and all descendants, pre-order.

        Iterative (an explicit stack), so arbitrarily deep trees walk
        without touching Python's recursion limit."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(list(node.children())))


@functools.cache
def _child_fields(cls: type) -> tuple[str, ...]:
    """The names of ``cls``'s fields that may hold child nodes."""
    return tuple(f.name for f in fields(cls) if f.name != "position")


def node_count(node: Node) -> int:
    """Number of AST nodes in the subtree rooted at ``node``.

    This is the "Size" metric of Table 1 (the paper counts Rhino AST nodes;
    we count our own, which plays the same role).
    """
    return sum(1 for _ in node.walk())


# ----------------------------------------------------------------------
# Expressions


@dataclass
class Expression(Node):
    """Base class for expression nodes."""


@dataclass
class NumberLiteral(Expression):
    value: float


@dataclass
class StringLiteral(Expression):
    value: str


@dataclass
class BooleanLiteral(Expression):
    value: bool


@dataclass
class NullLiteral(Expression):
    pass


@dataclass
class UndefinedLiteral(Expression):
    """The ``undefined`` identifier, treated as a literal for analysis."""


@dataclass
class RegexLiteral(Expression):
    pattern: str


@dataclass
class Identifier(Expression):
    name: str


@dataclass
class ThisExpression(Expression):
    pass


@dataclass
class ArrayLiteral(Expression):
    elements: list[Expression]


@dataclass
class Property(Node):
    """A ``key: value`` entry in an object literal. Keys are always strings
    after parsing (identifier keys, string keys, and numeric keys are all
    normalized to their string form)."""

    key: str
    value: Expression


@dataclass
class ObjectLiteral(Expression):
    properties: list[Property]


@dataclass
class FunctionExpression(Expression):
    name: str | None
    params: list[str]
    body: "BlockStatement"


@dataclass
class MemberExpression(Expression):
    """Property access: ``obj.prop`` (computed=False, property is an
    Identifier-derived StringLiteral) or ``obj[expr]`` (computed=True)."""

    object: Expression
    property: Expression
    computed: bool


@dataclass
class CallExpression(Expression):
    callee: Expression
    arguments: list[Expression]


@dataclass
class NewExpression(Expression):
    callee: Expression
    arguments: list[Expression]


@dataclass
class UnaryExpression(Expression):
    operator: str  # one of: - + ! ~ typeof void delete
    argument: Expression


@dataclass
class UpdateExpression(Expression):
    operator: str  # ++ or --
    argument: Expression
    prefix: bool


@dataclass
class BinaryExpression(Expression):
    operator: str  # arithmetic, comparison, bitwise, in, instanceof
    left: Expression
    right: Expression


@dataclass
class LogicalExpression(Expression):
    operator: str  # && or ||
    left: Expression
    right: Expression


@dataclass
class ConditionalExpression(Expression):
    test: Expression
    consequent: Expression
    alternate: Expression


@dataclass
class AssignmentExpression(Expression):
    operator: str  # = += -= *= /= %= &= |= ^= <<= >>= >>>=
    target: Expression  # Identifier or MemberExpression
    value: Expression


@dataclass
class SequenceExpression(Expression):
    expressions: list[Expression]


# ----------------------------------------------------------------------
# Statements


@dataclass
class Statement(Node):
    """Base class for statement nodes."""


@dataclass
class Program(Node):
    body: list[Statement]


@dataclass
class ExpressionStatement(Statement):
    expression: Expression


@dataclass
class VariableDeclarator(Node):
    name: str
    init: Expression | None


@dataclass
class VariableDeclaration(Statement):
    declarations: list[VariableDeclarator]


@dataclass
class FunctionDeclaration(Statement):
    name: str
    params: list[str]
    body: "BlockStatement"


@dataclass
class BlockStatement(Statement):
    body: list[Statement]


@dataclass
class EmptyStatement(Statement):
    pass


@dataclass
class DebuggerStatement(Statement):
    pass


@dataclass
class IfStatement(Statement):
    test: Expression
    consequent: Statement
    alternate: Statement | None


@dataclass
class WhileStatement(Statement):
    test: Expression
    body: Statement


@dataclass
class DoWhileStatement(Statement):
    body: Statement
    test: Expression


@dataclass
class ForStatement(Statement):
    init: "VariableDeclaration | Expression | None"
    test: Expression | None
    update: Expression | None
    body: Statement


@dataclass
class ForInStatement(Statement):
    """``for (var x in obj)`` / ``for (x in obj)``. ``declares`` records
    whether the loop variable was declared with ``var`` at the loop head."""

    variable: str
    declares: bool
    object: Expression
    body: Statement


@dataclass
class ReturnStatement(Statement):
    argument: Expression | None


@dataclass
class BreakStatement(Statement):
    label: str | None


@dataclass
class ContinueStatement(Statement):
    label: str | None


@dataclass
class ThrowStatement(Statement):
    argument: Expression


@dataclass
class CatchClause(Node):
    param: str
    body: BlockStatement


@dataclass
class TryStatement(Statement):
    block: BlockStatement
    handler: CatchClause | None
    finalizer: BlockStatement | None


@dataclass
class SwitchCase(Node):
    test: Expression | None  # None for the default clause
    body: list[Statement]


@dataclass
class SwitchStatement(Statement):
    discriminant: Expression
    cases: list[SwitchCase]


@dataclass
class LabeledStatement(Statement):
    label: str
    body: Statement
