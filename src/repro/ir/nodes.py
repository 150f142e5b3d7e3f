"""Intermediate representation for the analysis.

The AST is lowered (:mod:`repro.ir.lower`) into a flat, three-address-style
statement IR in which

- every operand is an *atom* (a resolved variable reference or a constant),
- every property read/write, call, allocation, and branch is its own
  statement, and
- control flow is explicit: each statement records its CFG successors with
  an :class:`EdgeKind` that distinguishes structured flow from explicit
  jumps and implicit exceptions.

This statement granularity is what the paper's PDG construction needs: one
node per statement, with per-statement read/write sets, and CFG edge kinds
that drive the four-stage CDG construction of Section 3.3.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.js.errors import SourcePosition

#: Sentinel distinguishing JavaScript ``undefined`` from ``null`` (``None``)
#: inside :class:`Const`.
UNDEFINED = type("UndefinedType", (), {"__repr__": lambda self: "undefined"})()

#: Scope id used for references to global variables.
GLOBAL_SCOPE = -1


# ----------------------------------------------------------------------
# Atoms


@dataclass(frozen=True, slots=True)
class Atom:
    """Base class for IR operands."""


@dataclass(frozen=True, slots=True)
class Const(Atom):
    """A constant: float, str, bool, None (JS null), or UNDEFINED."""

    value: object

    def __repr__(self) -> str:
        return f"Const({self.value!r})"


@dataclass(frozen=True, slots=True)
class Var(Atom):
    """A lexically resolved variable reference.

    ``scope`` is the id of the :class:`FunctionIR` whose frame declares the
    variable, or :data:`GLOBAL_SCOPE` for globals. Two ``Var`` objects are
    interchangeable iff they agree on both fields, which makes read/write
    set computation a matter of plain equality.
    """

    name: str
    scope: int

    def __repr__(self) -> str:
        where = "global" if self.scope == GLOBAL_SCOPE else f"s{self.scope}"
        return f"{self.name}@{where}"


# ----------------------------------------------------------------------
# Right-hand sides for Assign


@dataclass(frozen=True, slots=True)
class Rhs:
    """Base class for assignment right-hand sides."""


@dataclass(frozen=True, slots=True)
class AtomRhs(Rhs):
    atom: Atom


@dataclass(frozen=True, slots=True)
class BinOpRhs(Rhs):
    operator: str
    left: Atom
    right: Atom


@dataclass(frozen=True, slots=True)
class UnOpRhs(Rhs):
    operator: str
    operand: Atom


# ----------------------------------------------------------------------
# CFG edges


class EdgeKind(enum.Enum):
    """How a CFG edge arose — the input to the staged CDG construction.

    SEQ
        Structured control flow: fallthrough, or the true/false arms of a
        branch. These are the only edges present in the most-pruned CFG
        (stage 1, ``local`` annotations).
    JUMP
        Explicit non-local flow: the edge a ``break``/``continue``/
        ``return``/``throw`` takes to its target (stage 2, ``nonlocexp``).
    IMPLICIT
        Implicit-exception flow: the edge from a statement that may throw
        implicitly (property access on undefined, call of a non-function)
        to the enclosing catch handler (stage 3, ``nonlocimp``). These
        edges are *candidates*: they participate only when the base
        analysis confirms the statement may actually throw.
    FALLTHROUGH
        The structured successor a jump statement *would* have if the jump
        were ignored. Used only when building the pruned CFGs of the CDG
        stages (a pruned jump "falls through"); never part of the real CFG.
    """

    SEQ = "seq"
    JUMP = "jump"
    IMPLICIT = "implicit"
    FALLTHROUGH = "fallthrough"


@dataclass(frozen=True, slots=True)
class Edge:
    """A CFG edge to ``target`` (a statement id) of kind ``kind``."""

    target: int
    kind: EdgeKind


# ----------------------------------------------------------------------
# Statements


@dataclass(slots=True)
class Stmt:
    """Base class for IR statements.

    ``sid`` is unique across the whole program; ``line`` is the source line
    of the originating AST node (several IR statements lowered from one
    source statement share a line, which is how analysis results are
    reported back in source terms).
    """

    sid: int = field(init=False, default=-1)
    position: SourcePosition = field(
        default=SourcePosition(0, 0), repr=False, kw_only=True
    )
    edges: list[Edge] = field(default_factory=list, repr=False, kw_only=True)

    #: Statement classes that can raise an implicit exception set this.
    may_throw_implicitly = False

    @property
    def line(self) -> int:
        return self.position.line

    def successors(self, kinds: frozenset[EdgeKind]) -> list[int]:
        return [e.target for e in self.edges if e.kind in kinds]

    def add_edge(self, target: int, kind: EdgeKind) -> None:
        edge = Edge(target, kind)
        if edge not in self.edges:
            self.edges.append(edge)


@dataclass(slots=True)
class EntryStmt(Stmt):
    """Function entry marker; binds parameters (handled by the interpreter)."""

    function_id: int = 0


@dataclass(slots=True)
class ExitStmt(Stmt):
    """Function exit marker; the join point of all returns."""

    function_id: int = 0


@dataclass(slots=True)
class AssignStmt(Stmt):
    """``target = rhs`` where rhs involves only atoms."""

    target: Var = None  # type: ignore[assignment]
    rhs: Rhs = None  # type: ignore[assignment]


@dataclass(slots=True)
class LoadPropStmt(Stmt):
    """``target = obj[prop]``."""

    target: Var = None  # type: ignore[assignment]
    obj: Atom = None  # type: ignore[assignment]
    prop: Atom = None  # type: ignore[assignment]

    may_throw_implicitly = True


@dataclass(slots=True)
class StorePropStmt(Stmt):
    """``obj[prop] = value``."""

    obj: Atom = None  # type: ignore[assignment]
    prop: Atom = None  # type: ignore[assignment]
    value: Atom = None  # type: ignore[assignment]

    may_throw_implicitly = True


@dataclass(slots=True)
class DeletePropStmt(Stmt):
    """``delete obj[prop]``."""

    obj: Atom = None  # type: ignore[assignment]
    prop: Atom = None  # type: ignore[assignment]

    may_throw_implicitly = True


@dataclass(slots=True)
class AllocStmt(Stmt):
    """Allocate a fresh object (``kind`` is "object", "array" or "regex").

    The statement id doubles as the allocation site for the pointer
    analysis.
    """

    target: Var = None  # type: ignore[assignment]
    kind: str = "object"


@dataclass(slots=True)
class ClosureStmt(Stmt):
    """``target = closure(function_id)`` — create a function value."""

    target: Var = None  # type: ignore[assignment]
    function_id: int = 0


@dataclass(slots=True)
class CallStmt(Stmt):
    """``target = callee.apply(this, args)``; ``target`` may be None when
    the result is discarded (the lowering always names results, so in
    practice it is a temp)."""

    target: Var | None = None
    callee: Atom = None  # type: ignore[assignment]
    this: Atom | None = None
    args: list[Atom] = field(default_factory=list)

    may_throw_implicitly = True


@dataclass(slots=True)
class ConstructStmt(Stmt):
    """``target = new callee(args)``."""

    target: Var | None = None
    callee: Atom = None  # type: ignore[assignment]
    args: list[Atom] = field(default_factory=list)

    may_throw_implicitly = True


@dataclass(slots=True)
class BranchStmt(Stmt):
    """Two-way branch on ``condition``; its two SEQ successors are the two
    arms. ``truthy_first`` records the polarity: when True, the first SEQ
    edge is taken when the condition is truthy (the default for if/while/
    for; ``||`` lowers with the opposite polarity)."""

    condition: Atom = None  # type: ignore[assignment]
    truthy_first: bool = True


@dataclass(slots=True)
class ReturnStmt(Stmt):
    """``return value`` — JUMP edge to the function exit."""

    value: Atom | None = None


@dataclass(slots=True)
class ThrowStmt(Stmt):
    """``throw value`` — JUMP edge to the innermost handler, if any. With
    no handler the exception is uncaught: the paper omits those edges
    (termination is out of scope)."""

    value: Atom = None  # type: ignore[assignment]


@dataclass(slots=True)
class CatchStmt(Stmt):
    """Handler entry: binds the in-flight exception value to ``target``."""

    target: Var = None  # type: ignore[assignment]


@dataclass(slots=True)
class ForInNextStmt(Stmt):
    """For-in driver: binds the next enumerated property name of ``obj`` to
    ``target`` and branches (SEQ edges) to the loop body or the exit.
    ES5 for-in over undefined/null silently skips, so it cannot throw."""

    target: Var = None  # type: ignore[assignment]
    obj: Atom = None  # type: ignore[assignment]


@dataclass(slots=True)
class NopStmt(Stmt):
    """Join point / no-op, labeled for debugging."""

    label: str = ""


@dataclass(slots=True)
class EventLoopStmt(Stmt):
    """The synthetic addon event loop appended after top-level evaluation.

    The abstract interpreter treats it as a non-deterministic call to every
    handler registered via the browser stubs, looping forever (a SEQ
    self-edge makes the cycle explicit so handler bodies are classified as
    amplified control).

    Multi-component extensions (``repro.webext``) lower to one loop per
    component; ``component`` names the owning component so the interpreter
    dispatches each component's channel handlers at its own loop. ``None``
    (single-file addons) dispatches everything.
    """

    component: str | None = None


# ----------------------------------------------------------------------
# Functions and programs


@dataclass
class FunctionIR:
    """A lowered function: its frame layout and its statements.

    ``fid`` 0 is always the synthetic top-level (global code + event loop).
    """

    fid: int
    name: str
    params: list[str]
    #: All function-scoped names: params, vars, declared functions,
    #: renamed catch parameters, and compiler temporaries.
    locals: set[str]
    parent: int | None
    statements: list[Stmt] = field(default_factory=list)

    @property
    def entry(self) -> Stmt:
        return self.statements[0]

    @property
    def exit(self) -> Stmt:
        return self.statements[-1]


@dataclass
class ProgramIR:
    """The whole lowered program."""

    functions: dict[int, FunctionIR]
    #: Statement id -> statement, across all functions.
    stmts: dict[int, Stmt]
    #: Statement id -> owning function id.
    owner: dict[int, int]
    #: Names assigned at the global scope (informational).
    global_names: set[str]
    #: Extension component roots: component function id -> component name
    #: (empty for single-file addons). Set by ``repro.webext.lowering``.
    components: dict[int, str] = field(default_factory=dict)

    @property
    def main(self) -> FunctionIR:
        return self.functions[0]

    def function_of(self, sid: int) -> FunctionIR:
        return self.functions[self.owner[sid]]

    def component_of(self, sid: int) -> str | None:
        """The extension component a statement belongs to, or ``None``.

        Walks the lexical parent chain from the owning function to the
        nearest component root. Single-file addons (no components) always
        return ``None``.
        """
        if not self.components:
            return None
        fid: int | None = self.owner[sid]
        while fid is not None:
            name = self.components.get(fid)
            if name is not None:
                return name
            fid = self.functions[fid].parent
        return None

    def pretty(self) -> str:
        """A readable dump of the IR, for debugging and golden tests."""
        lines: list[str] = []
        for fid in sorted(self.functions):
            function = self.functions[fid]
            params = ", ".join(function.params)
            lines.append(f"function #{fid} {function.name}({params}):")
            for stmt in function.statements:
                edges = ", ".join(
                    f"{e.kind.value}->{e.target}" for e in stmt.edges
                )
                description = _describe(stmt)
                lines.append(f"  [{stmt.sid:>3}] {description}  {{{edges}}}")
        return "\n".join(lines)


def _describe(stmt: Stmt) -> str:
    if isinstance(stmt, EntryStmt):
        return "entry"
    if isinstance(stmt, ExitStmt):
        return "exit"
    if isinstance(stmt, AssignStmt):
        return f"{stmt.target!r} = {stmt.rhs!r}"
    if isinstance(stmt, LoadPropStmt):
        return f"{stmt.target!r} = {stmt.obj!r}[{stmt.prop!r}]"
    if isinstance(stmt, StorePropStmt):
        return f"{stmt.obj!r}[{stmt.prop!r}] = {stmt.value!r}"
    if isinstance(stmt, DeletePropStmt):
        return f"delete {stmt.obj!r}[{stmt.prop!r}]"
    if isinstance(stmt, AllocStmt):
        return f"{stmt.target!r} = alloc {stmt.kind}"
    if isinstance(stmt, ClosureStmt):
        return f"{stmt.target!r} = closure #{stmt.function_id}"
    if isinstance(stmt, CallStmt):
        args = ", ".join(repr(a) for a in stmt.args)
        return f"{stmt.target!r} = call {stmt.callee!r}({args})"
    if isinstance(stmt, ConstructStmt):
        args = ", ".join(repr(a) for a in stmt.args)
        return f"{stmt.target!r} = new {stmt.callee!r}({args})"
    if isinstance(stmt, BranchStmt):
        return f"branch {stmt.condition!r}"
    if isinstance(stmt, ReturnStmt):
        return f"return {stmt.value!r}"
    if isinstance(stmt, ThrowStmt):
        return f"throw {stmt.value!r}"
    if isinstance(stmt, CatchStmt):
        return f"catch -> {stmt.target!r}"
    if isinstance(stmt, ForInNextStmt):
        return f"{stmt.target!r} = for-in next {stmt.obj!r}"
    if isinstance(stmt, NopStmt):
        return f"nop {stmt.label}"
    if isinstance(stmt, EventLoopStmt):
        if stmt.component is not None:
            return f"event-loop [{stmt.component}]"
        return "event-loop"
    return repr(stmt)
