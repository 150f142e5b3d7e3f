"""Lowering from the JavaScript AST to the statement IR.

The lowering performs, in one pass per function:

- **hoisting** of ``var`` and function declarations (ES5 semantics:
  function-scoped variables, declarations usable before their textual
  position),
- **lexical resolution** of every identifier to a ``(scope, name)`` pair
  (top-level ``var`` declarations are globals, as in real JS),
- **flattening** of expressions into three-address statements over atoms,
  with fresh temporaries per function,
- **explicit control flow**: structured edges for branches and loops,
  JUMP edges for break/continue/return/throw, IMPLICIT edges from
  potentially-throwing statements to the innermost enclosing catch
  handler, and FALLTHROUGH edges recording the structured successor of
  each jump (used by the pruned CFGs of the CDG construction),
- the synthetic **event loop** statement appended after top-level code,
  which the abstract interpreter treats as a non-deterministic dispatch
  over all registered event handlers (Section 6.1 of the paper).

Deliberate simplifications (documented in DESIGN.md): ``finally`` blocks
are duplicated onto the normal and exceptional paths; exceptions propagate
to handlers within the same function only (an exception escaping a
function is treated as termination, consistent with the paper omitting
uncaught-exception edges); the ``arguments`` object is not modeled.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.js import ast
from repro.js.errors import SourcePosition, UnsupportedSyntaxError
from repro.ir.nodes import (
    GLOBAL_SCOPE,
    UNDEFINED,
    AllocStmt,
    AssignStmt,
    Atom,
    AtomRhs,
    BinOpRhs,
    BranchStmt,
    CallStmt,
    CatchStmt,
    ClosureStmt,
    Const,
    ConstructStmt,
    DeletePropStmt,
    EdgeKind,
    EntryStmt,
    EventLoopStmt,
    ExitStmt,
    ForInNextStmt,
    FunctionIR,
    LoadPropStmt,
    NopStmt,
    ProgramIR,
    ReturnStmt,
    Rhs,
    Stmt,
    StorePropStmt,
    ThrowStmt,
    UnOpRhs,
    Var,
)


def lower(program: ast.Program, event_loop: bool = True) -> ProgramIR:
    """Lower a parsed program to IR.

    ``event_loop`` controls whether the synthetic addon event loop is
    appended after the top-level code (on by default, matching the paper's
    treatment of addons; turn it off for plain-script analyses and unit
    tests).
    """
    return Lowerer().lower_program(program, event_loop=event_loop)


@dataclass
class _Pending:
    """An edge waiting for its target: ``stmt`` will get an edge of
    ``kind`` to the next statement placed on the current path."""

    stmt: Stmt
    kind: EdgeKind


@dataclass
class _LoopContext:
    """Break/continue bookkeeping for one enclosing loop or switch."""

    label: str | None
    breaks: list[Stmt] = field(default_factory=list)
    continues: list[Stmt] | None = None  # None => continue not allowed (switch)


class Lowerer:
    """Shared state across all functions of one program."""

    def __init__(self) -> None:
        self.functions: dict[int, FunctionIR] = {}
        self.stmts: dict[int, Stmt] = {}
        self.owner: dict[int, int] = {}
        self.global_names: set[str] = set()
        self._next_sid = 0
        self._next_fid = 0

    def lower_program(self, program: ast.Program, event_loop: bool) -> ProgramIR:
        main = self._new_function("<main>", params=[], parent=None)
        body = _FunctionLowerer(self, main, chain=[main], top_level=True)
        body.lower_body(program.body, position=program.position)
        if event_loop:
            loop = body.emit(EventLoopStmt(position=program.position))
            loop.add_edge(loop.sid, EdgeKind.SEQ)
        body.finish(position=program.position)
        return ProgramIR(
            functions=self.functions,
            stmts=self.stmts,
            owner=self.owner,
            global_names=self.global_names,
        )

    # ------------------------------------------------------------------
    # Allocation helpers

    def _new_function(
        self, name: str, params: list[str], parent: int | None
    ) -> FunctionIR:
        fid = self._next_fid
        self._next_fid += 1
        function = FunctionIR(
            fid=fid, name=name, params=list(params),
            locals=set(params), parent=parent,
        )
        self.functions[fid] = function
        return function

    def new_sid(self) -> int:
        sid = self._next_sid
        self._next_sid += 1
        return sid

    def register(self, stmt: Stmt, function: FunctionIR) -> Stmt:
        stmt.sid = self.new_sid()
        self.stmts[stmt.sid] = stmt
        self.owner[stmt.sid] = function.fid
        function.statements.append(stmt)
        return stmt


class _FunctionLowerer:
    """Lowers the body of a single function."""

    def __init__(
        self,
        lowerer: Lowerer,
        function: FunctionIR,
        chain: list[FunctionIR],
        top_level: bool = False,
    ):
        self.lowerer = lowerer
        self.function = function
        self.chain = chain  # outermost .. innermost (== function)
        self.top_level = top_level
        self.pending: list[_Pending] = []
        self.handlers: list[int] = []  # innermost catch handler sid last
        self.loops: list[_LoopContext] = []
        self.renames: list[dict[str, str]] = []  # catch-param renames
        self._temp_counter = 0
        self._returns: list[Stmt] = []

    # ------------------------------------------------------------------
    # Emission machinery

    def emit(self, stmt: Stmt) -> Stmt:
        """Place ``stmt`` on the current path: register it, connect every
        pending edge to it, and make it the new sole pending source."""
        self.lowerer.register(stmt, self.function)
        for pending in self.pending:
            pending.stmt.add_edge(stmt.sid, pending.kind)
        self.pending = [_Pending(stmt, EdgeKind.SEQ)]
        if stmt.may_throw_implicitly and self.handlers:
            stmt.add_edge(self.handlers[-1], EdgeKind.IMPLICIT)
        return stmt

    def _terminate_path(self, stmt: Stmt) -> None:
        """After a jump statement: the structured successor (used by the
        pruned CFGs) is whatever comes next lexically."""
        self.pending = [_Pending(stmt, EdgeKind.FALLTHROUGH)]

    def temp(self) -> Var:
        name = f"%t{self._temp_counter}"
        self._temp_counter += 1
        self.function.locals.add(name)
        return Var(name, self.function.fid)

    # ------------------------------------------------------------------
    # Name resolution

    def resolve(self, name: str) -> Var:
        for renames in reversed(self.renames):
            if name in renames:
                return Var(renames[name], self.function.fid)
        for scope in reversed(self.chain):
            if name in scope.locals:
                return Var(name, scope.fid)
        self.lowerer.global_names.add(name)
        return Var(name, GLOBAL_SCOPE)

    def declare(self, name: str) -> Var:
        """Resolve a ``var``-declared name: function-local, except at the
        top level where ``var`` creates a global (real JS semantics)."""
        if self.top_level:
            self.lowerer.global_names.add(name)
            return Var(name, GLOBAL_SCOPE)
        self.function.locals.add(name)
        return Var(name, self.function.fid)

    # ------------------------------------------------------------------
    # Function body orchestration

    def lower_body(
        self,
        statements: list[ast.Statement],
        position: SourcePosition,
        self_name: str | None = None,
    ) -> None:
        # Synthetic markers get line 0 so line-level projections of
        # analysis results never attribute them to source lines.
        entry = EntryStmt(function_id=self.function.fid, position=SourcePosition(0, 0))
        self.lowerer.register(entry, self.function)
        self.pending = [_Pending(entry, EdgeKind.SEQ)]
        if self_name is not None:
            # Named function expression: bind the function's own name
            # before the body runs, so recursion through the name works.
            self.emit(
                ClosureStmt(
                    target=Var(self_name, self.function.fid),
                    function_id=self.function.fid,
                    position=position,
                )
            )
        self._hoist(statements)
        for statement in statements:
            self.lower_statement(statement)

    def finish(self, position: SourcePosition) -> Stmt:
        exit_stmt = ExitStmt(
            function_id=self.function.fid, position=SourcePosition(0, 0)
        )
        self.lowerer.register(exit_stmt, self.function)
        for pending in self.pending:
            pending.stmt.add_edge(exit_stmt.sid, pending.kind)
        for stmt in self._returns:
            stmt.add_edge(exit_stmt.sid, EdgeKind.JUMP)
        self.pending = []
        return exit_stmt

    def _hoist(self, statements: list[ast.Statement]) -> None:
        """ES5 hoisting: declare all ``var`` names, then emit closure
        creation for every function declaration (usable before its textual
        position)."""
        var_names, function_decls = _collect_declarations(statements)
        for name in var_names:
            self.declare(name)
        for decl in function_decls:
            target = self.declare(decl.name)
            fid = self._lower_function(decl.name, decl.params, decl.body)
            self.emit(
                ClosureStmt(target=target, function_id=fid, position=decl.position)
            )

    def _lower_function(
        self, name: str | None, params: list[str], body: ast.BlockStatement
    ) -> int:
        function = self.lowerer._new_function(
            name or "<anonymous>", params, parent=self.function.fid
        )
        function.locals.add("this")
        if name is not None:
            # A named function expression can refer to itself by name.
            function.locals.add(name)
        sub = _FunctionLowerer(self.lowerer, function, chain=self.chain + [function])
        sub.lower_body(body.body, position=body.position, self_name=name)
        sub.finish(position=body.position)
        return function.fid

    # ------------------------------------------------------------------
    # Statements

    def lower_statement(self, node: ast.Statement) -> None:
        method = getattr(self, f"_stmt_{type(node).__name__}", None)
        if method is None:
            raise UnsupportedSyntaxError(
                f"cannot lower {node.kind}", node.position
            )
        method(node)

    def _stmt_ExpressionStatement(self, node: ast.ExpressionStatement) -> None:
        self.lower_expression(node.expression)

    def _stmt_EmptyStatement(self, node: ast.EmptyStatement) -> None:
        pass

    def _stmt_DebuggerStatement(self, node: ast.DebuggerStatement) -> None:
        pass

    def _stmt_BlockStatement(self, node: ast.BlockStatement) -> None:
        for statement in node.body:
            self.lower_statement(statement)

    def _stmt_FunctionDeclaration(self, node: ast.FunctionDeclaration) -> None:
        pass  # handled during hoisting

    def _stmt_VariableDeclaration(self, node: ast.VariableDeclaration) -> None:
        for declarator in node.declarations:
            if declarator.init is None:
                continue
            value = self.lower_expression(declarator.init)
            target = self.resolve(declarator.name)
            self.emit(
                AssignStmt(
                    target=target, rhs=AtomRhs(value), position=declarator.position
                )
            )

    def _stmt_IfStatement(self, node: ast.IfStatement) -> None:
        condition = self.lower_expression(node.test)
        branch = self.emit(BranchStmt(condition=condition, position=node.position))
        self.pending = [_Pending(branch, EdgeKind.SEQ)]
        self.lower_statement(node.consequent)
        after_true = self.pending
        self.pending = [_Pending(branch, EdgeKind.SEQ)]
        if node.alternate is not None:
            self.lower_statement(node.alternate)
        self.pending = after_true + self.pending

    def _stmt_WhileStatement(self, node: ast.WhileStatement) -> None:
        header = self.emit(NopStmt(label="while", position=node.position))
        condition = self.lower_expression(node.test)
        branch = self.emit(BranchStmt(condition=condition, position=node.test.position))
        context = _LoopContext(label=self._pending_label(), continues=[])
        self.loops.append(context)
        self.pending = [_Pending(branch, EdgeKind.SEQ)]
        self.lower_statement(node.body)
        self._close_loop(context, header, branch, node.position)

    def _stmt_DoWhileStatement(self, node: ast.DoWhileStatement) -> None:
        header = self.emit(NopStmt(label="do", position=node.position))
        context = _LoopContext(label=self._pending_label(), continues=[])
        self.loops.append(context)
        self.lower_statement(node.body)
        # continue in a do-while jumps to the condition check.
        condition_start = self.emit(NopStmt(label="do-cond", position=node.test.position))
        for stmt in context.continues or []:
            stmt.add_edge(condition_start.sid, EdgeKind.JUMP)
        context.continues = []
        condition = self.lower_expression(node.test)
        branch = self.emit(BranchStmt(condition=condition, position=node.test.position))
        branch.add_edge(header.sid, EdgeKind.SEQ)
        self.loops.pop()
        exit_nop = self.emit(NopStmt(label="do-exit", position=node.position))
        for stmt in context.breaks:
            stmt.add_edge(exit_nop.sid, EdgeKind.JUMP)

    def _stmt_ForStatement(self, node: ast.ForStatement) -> None:
        if isinstance(node.init, ast.VariableDeclaration):
            self._stmt_VariableDeclaration(node.init)
        elif isinstance(node.init, ast.Expression):
            self.lower_expression(node.init)
        header = self.emit(NopStmt(label="for", position=node.position))
        branch: Stmt | None = None
        if node.test is not None:
            condition = self.lower_expression(node.test)
            branch = self.emit(
                BranchStmt(condition=condition, position=node.test.position)
            )
            self.pending = [_Pending(branch, EdgeKind.SEQ)]
        context = _LoopContext(label=self._pending_label(), continues=[])
        self.loops.append(context)
        self.lower_statement(node.body)
        update_start = self.emit(NopStmt(label="for-update", position=node.position))
        for stmt in context.continues or []:
            stmt.add_edge(update_start.sid, EdgeKind.JUMP)
        if node.update is not None:
            self.lower_expression(node.update)
        for pending in self.pending:
            pending.stmt.add_edge(header.sid, pending.kind)
        self.loops.pop()
        if branch is not None:
            self.pending = [_Pending(branch, EdgeKind.SEQ)]
        else:
            self.pending = []
        exit_nop = self.emit(NopStmt(label="for-exit", position=node.position))
        for stmt in context.breaks:
            stmt.add_edge(exit_nop.sid, EdgeKind.JUMP)

    def _close_loop(
        self,
        context: _LoopContext,
        header: Stmt,
        branch: Stmt,
        position: SourcePosition,
    ) -> None:
        """Wire the back edge, continues, breaks and exit of a while loop."""
        for pending in self.pending:
            pending.stmt.add_edge(header.sid, pending.kind)
        for stmt in context.continues or []:
            stmt.add_edge(header.sid, EdgeKind.JUMP)
        self.loops.pop()
        self.pending = [_Pending(branch, EdgeKind.SEQ)]
        exit_nop = self.emit(NopStmt(label="loop-exit", position=position))
        for stmt in context.breaks:
            stmt.add_edge(exit_nop.sid, EdgeKind.JUMP)

    def _stmt_ForInStatement(self, node: ast.ForInStatement) -> None:
        obj = self.lower_expression(node.object)
        if node.declares:
            target = self.declare(node.variable)
        else:
            target = self.resolve(node.variable)
        driver = self.emit(
            ForInNextStmt(target=target, obj=obj, position=node.position)
        )
        context = _LoopContext(label=self._pending_label(), continues=[])
        self.loops.append(context)
        self.pending = [_Pending(driver, EdgeKind.SEQ)]
        self.lower_statement(node.body)
        for pending in self.pending:
            pending.stmt.add_edge(driver.sid, pending.kind)
        for stmt in context.continues or []:
            stmt.add_edge(driver.sid, EdgeKind.JUMP)
        self.loops.pop()
        self.pending = [_Pending(driver, EdgeKind.SEQ)]
        exit_nop = self.emit(NopStmt(label="forin-exit", position=node.position))
        for stmt in context.breaks:
            stmt.add_edge(exit_nop.sid, EdgeKind.JUMP)

    _label_for_next_loop: str | None = None

    def _pending_label(self) -> str | None:
        label = self._label_for_next_loop
        self._label_for_next_loop = None
        return label

    def _stmt_LabeledStatement(self, node: ast.LabeledStatement) -> None:
        if isinstance(
            node.body,
            (ast.WhileStatement, ast.DoWhileStatement, ast.ForStatement,
             ast.ForInStatement),
        ):
            self._label_for_next_loop = node.label
            self.lower_statement(node.body)
            return
        # Label on a non-loop statement: only `break label` targets it.
        context = _LoopContext(label=node.label, continues=None)
        self.loops.append(context)
        self.lower_statement(node.body)
        self.loops.pop()
        exit_nop = self.emit(NopStmt(label=f"label-{node.label}", position=node.position))
        for stmt in context.breaks:
            stmt.add_edge(exit_nop.sid, EdgeKind.JUMP)

    def _find_loop(self, label: str | None, for_continue: bool) -> _LoopContext:
        for context in reversed(self.loops):
            if for_continue and context.continues is None:
                continue
            if label is None or context.label == label:
                return context
        kind = "continue" if for_continue else "break"
        raise UnsupportedSyntaxError(f"{kind} outside of a matching loop")

    def _stmt_BreakStatement(self, node: ast.BreakStatement) -> None:
        context = self._find_loop(node.label, for_continue=False)
        stmt = self.emit(NopStmt(label="break", position=node.position))
        context.breaks.append(stmt)
        self._terminate_path(stmt)

    def _stmt_ContinueStatement(self, node: ast.ContinueStatement) -> None:
        context = self._find_loop(node.label, for_continue=True)
        stmt = self.emit(NopStmt(label="continue", position=node.position))
        assert context.continues is not None
        context.continues.append(stmt)
        self._terminate_path(stmt)

    def _stmt_ReturnStatement(self, node: ast.ReturnStatement) -> None:
        value = (
            self.lower_expression(node.argument)
            if node.argument is not None
            else Const(UNDEFINED)
        )
        stmt = self.emit(ReturnStmt(value=value, position=node.position))
        # The JUMP edge to the function exit is wired in finish().
        self._returns.append(stmt)
        self._terminate_path(stmt)

    def _stmt_ThrowStatement(self, node: ast.ThrowStatement) -> None:
        value = self.lower_expression(node.argument)
        stmt = self.emit(ThrowStmt(value=value, position=node.position))
        if self.handlers:
            stmt.add_edge(self.handlers[-1], EdgeKind.JUMP)
        self._terminate_path(stmt)

    def _stmt_TryStatement(self, node: ast.TryStatement) -> None:
        if node.handler is not None:
            self._lower_try_catch(node.block, node.handler)
        else:
            self._lower_try_body_with_handler(node.block, handler_sid=None)
        if node.finalizer is not None:
            # Normal-path copy of the finalizer. (The exceptional-path copy
            # of an ES5 finally is approximated: exceptions reaching a
            # finally-only try propagate to the outer handler directly.)
            self.lower_statement(node.finalizer)

    def _lower_try_catch(self, block: ast.BlockStatement, handler: ast.CatchClause) -> None:
        # Pre-allocate the catch statement so throws inside the block can
        # target it; it is appended to the statement list after the block
        # to keep lexical order roughly intact.
        renamed = f"{handler.param}#catch{self.lowerer._next_sid}"
        self.function.locals.add(renamed)
        catch_stmt = CatchStmt(
            target=Var(renamed, self.function.fid), position=handler.position
        )
        self.lowerer.register(catch_stmt, self.function)

        self.handlers.append(catch_stmt.sid)
        self.lower_statement(block)
        self.handlers.pop()
        normal_exit = self.pending

        self.pending = [_Pending(catch_stmt, EdgeKind.SEQ)]
        self.renames.append({handler.param: renamed})
        self.lower_statement(handler.body)
        self.renames.pop()
        self.pending = normal_exit + self.pending
        self.emit(NopStmt(label="try-join", position=block.position))

    def _lower_try_body_with_handler(
        self, block: ast.BlockStatement, handler_sid: int | None
    ) -> None:
        if handler_sid is not None:
            self.handlers.append(handler_sid)
            self.lower_statement(block)
            self.handlers.pop()
        else:
            self.lower_statement(block)

    def _stmt_SwitchStatement(self, node: ast.SwitchStatement) -> None:
        discriminant = self.lower_expression(node.discriminant)
        context = _LoopContext(label=self._pending_label(), continues=None)
        self.loops.append(context)

        # First the comparison chain, collecting a pending branch edge per
        # case; case bodies are emitted afterwards, in order, with
        # fallthrough between them.
        case_entries: list[NopStmt] = []
        default_index: int | None = None
        for index, case in enumerate(node.cases):
            entry = NopStmt(label=f"case-{index}", position=case.position)
            case_entries.append(entry)
            if case.test is None:
                default_index = index

        pending_into_case: list[list[_Pending]] = [[] for _ in node.cases]
        for index, case in enumerate(node.cases):
            if case.test is None:
                continue
            test_value = self.lower_expression(case.test)
            compare = self.temp()
            self.emit(
                AssignStmt(
                    target=compare,
                    rhs=BinOpRhs("===", discriminant, test_value),
                    position=case.position,
                )
            )
            # The no-match edge (to the next comparison) is wired first,
            # the case-entry edge second: polarity is falsy-first.
            branch = self.emit(
                BranchStmt(condition=Var(compare.name, compare.scope),
                           truthy_first=False, position=case.position)
            )
            pending_into_case[index].append(_Pending(branch, EdgeKind.SEQ))
            self.pending = [_Pending(branch, EdgeKind.SEQ)]
        # No case matched: go to default if present, else past the switch.
        no_match = self.pending
        if default_index is not None:
            pending_into_case[default_index].extend(no_match)
            no_match = []

        fallthrough: list[_Pending] = []
        for index, case in enumerate(node.cases):
            entry = case_entries[index]
            self.pending = pending_into_case[index] + fallthrough
            self.lowerer.register(entry, self.function)
            for pending in self.pending:
                pending.stmt.add_edge(entry.sid, pending.kind)
            self.pending = [_Pending(entry, EdgeKind.SEQ)]
            for statement in case.body:
                self.lower_statement(statement)
            fallthrough = self.pending

        self.loops.pop()
        self.pending = fallthrough + no_match
        exit_nop = self.emit(NopStmt(label="switch-exit", position=node.position))
        for stmt in context.breaks:
            stmt.add_edge(exit_nop.sid, EdgeKind.JUMP)

    # ------------------------------------------------------------------
    # Expressions

    def lower_expression(self, node: ast.Expression) -> Atom:
        method = getattr(self, f"_expr_{type(node).__name__}", None)
        if method is None:
            raise UnsupportedSyntaxError(
                f"cannot lower {node.kind}", node.position
            )
        return method(node)

    def _expr_NumberLiteral(self, node: ast.NumberLiteral) -> Atom:
        return Const(node.value)

    def _expr_StringLiteral(self, node: ast.StringLiteral) -> Atom:
        return Const(node.value)

    def _expr_BooleanLiteral(self, node: ast.BooleanLiteral) -> Atom:
        return Const(node.value)

    def _expr_NullLiteral(self, node: ast.NullLiteral) -> Atom:
        return Const(None)

    def _expr_UndefinedLiteral(self, node: ast.UndefinedLiteral) -> Atom:
        return Const(UNDEFINED)

    def _expr_RegexLiteral(self, node: ast.RegexLiteral) -> Atom:
        target = self.temp()
        self.emit(AllocStmt(target=target, kind="regex", position=node.position))
        return target

    def _expr_Identifier(self, node: ast.Identifier) -> Atom:
        return self.resolve(node.name)

    def _expr_ThisExpression(self, node: ast.ThisExpression) -> Atom:
        if self.top_level:
            return self.resolve("this")  # global `this`, bound by the env
        return Var("this", self.function.fid)

    def _expr_ArrayLiteral(self, node: ast.ArrayLiteral) -> Atom:
        target = self.temp()
        self.emit(AllocStmt(target=target, kind="array", position=node.position))
        for index, element in enumerate(node.elements):
            value = self.lower_expression(element)
            self.emit(
                StorePropStmt(
                    obj=target, prop=Const(str(index)), value=value,
                    position=element.position,
                )
            )
        self.emit(
            StorePropStmt(
                obj=target, prop=Const("length"),
                value=Const(float(len(node.elements))), position=node.position,
            )
        )
        return target

    def _expr_ObjectLiteral(self, node: ast.ObjectLiteral) -> Atom:
        target = self.temp()
        self.emit(AllocStmt(target=target, kind="object", position=node.position))
        for prop in node.properties:
            value = self.lower_expression(prop.value)
            self.emit(
                StorePropStmt(
                    obj=target, prop=Const(prop.key), value=value,
                    position=prop.position,
                )
            )
        return target

    def _expr_FunctionExpression(self, node: ast.FunctionExpression) -> Atom:
        fid = self._lower_function(node.name, node.params, node.body)
        target = self.temp()
        self.emit(ClosureStmt(target=target, function_id=fid, position=node.position))
        return target

    def _expr_MemberExpression(self, node: ast.MemberExpression) -> Atom:
        obj = self.lower_expression(node.object)
        prop = self._property_atom(node)
        target = self.temp()
        self.emit(
            LoadPropStmt(target=target, obj=obj, prop=prop, position=node.position)
        )
        return target

    def _property_atom(self, node: ast.MemberExpression) -> Atom:
        if node.computed:
            return self.lower_expression(node.property)
        assert isinstance(node.property, ast.StringLiteral)
        return Const(node.property.value)

    def _expr_CallExpression(self, node: ast.CallExpression) -> Atom:
        this_atom: Atom | None = None
        if isinstance(node.callee, ast.MemberExpression):
            this_atom = self.lower_expression(node.callee.object)
            prop = self._property_atom(node.callee)
            callee = self.temp()
            self.emit(
                LoadPropStmt(
                    target=callee, obj=this_atom, prop=prop,
                    position=node.callee.position,
                )
            )
            callee_atom: Atom = callee
        else:
            callee_atom = self.lower_expression(node.callee)
        args = [self.lower_expression(argument) for argument in node.arguments]
        target = self.temp()
        self.emit(
            CallStmt(
                target=target, callee=callee_atom, this=this_atom, args=args,
                position=node.position,
            )
        )
        return target

    def _expr_NewExpression(self, node: ast.NewExpression) -> Atom:
        callee = self.lower_expression(node.callee)
        args = [self.lower_expression(argument) for argument in node.arguments]
        target = self.temp()
        self.emit(
            ConstructStmt(
                target=target, callee=callee, args=args, position=node.position
            )
        )
        return target

    def _expr_UnaryExpression(self, node: ast.UnaryExpression) -> Atom:
        if node.operator == "delete":
            return self._lower_delete(node)
        operand = self.lower_expression(node.argument)
        target = self.temp()
        self.emit(
            AssignStmt(
                target=target, rhs=UnOpRhs(node.operator, operand),
                position=node.position,
            )
        )
        return target

    def _lower_delete(self, node: ast.UnaryExpression) -> Atom:
        if isinstance(node.argument, ast.MemberExpression):
            obj = self.lower_expression(node.argument.object)
            prop = self._property_atom(node.argument)
            self.emit(DeletePropStmt(obj=obj, prop=prop, position=node.position))
        return Const(True)

    def _expr_UpdateExpression(self, node: ast.UpdateExpression) -> Atom:
        operator = "+" if node.operator == "++" else "-"
        old = self._read_reference(node.argument)
        new = self.temp()
        self.emit(
            AssignStmt(
                target=new, rhs=BinOpRhs(operator, old, Const(1.0)),
                position=node.position,
            )
        )
        self._write_reference(node.argument, new, node.position)
        return old if not node.prefix else new

    def _read_reference(self, node: ast.Expression) -> Atom:
        """Read an lvalue into an atom, leaving it usable for a later write."""
        if isinstance(node, ast.Identifier):
            source = self.resolve(node.name)
            copy = self.temp()
            self.emit(
                AssignStmt(target=copy, rhs=AtomRhs(source), position=node.position)
            )
            return copy
        assert isinstance(node, ast.MemberExpression)
        return self.lower_expression(node)

    def _write_reference(
        self, node: ast.Expression, value: Atom, position: SourcePosition
    ) -> None:
        if isinstance(node, ast.Identifier):
            self.emit(
                AssignStmt(
                    target=self.resolve(node.name), rhs=AtomRhs(value),
                    position=position,
                )
            )
            return
        assert isinstance(node, ast.MemberExpression)
        obj = self.lower_expression(node.object)
        prop = self._property_atom(node)
        self.emit(StorePropStmt(obj=obj, prop=prop, value=value, position=position))

    def _expr_BinaryExpression(self, node: ast.BinaryExpression) -> Atom:
        left = self.lower_expression(node.left)
        right = self.lower_expression(node.right)
        target = self.temp()
        self.emit(
            AssignStmt(
                target=target, rhs=BinOpRhs(node.operator, left, right),
                position=node.position,
            )
        )
        return target

    def _expr_LogicalExpression(self, node: ast.LogicalExpression) -> Atom:
        """Short-circuit: lower to an explicit branch, so the control
        dependence the paper's example relies on (e.g. the ``&&`` in the
        while condition of Figure 1) is visible in the CDG."""
        result = self.temp()
        left = self.lower_expression(node.left)
        self.emit(
            AssignStmt(target=result, rhs=AtomRhs(left), position=node.position)
        )
        branch = self.emit(
            BranchStmt(
                condition=left,
                truthy_first=(node.operator == "&&"),
                position=node.position,
            )
        )
        self.pending = [_Pending(branch, EdgeKind.SEQ)]
        # For `&&` the right side (the first arm) evaluates when the left
        # is truthy; for `||` when it is falsy — recorded in truthy_first.
        right = self.lower_expression(node.right)
        self.emit(
            AssignStmt(target=result, rhs=AtomRhs(right), position=node.right.position)
        )
        evaluated = self.pending
        self.pending = [_Pending(branch, EdgeKind.SEQ)] + evaluated
        self.emit(NopStmt(label=f"logical-{node.operator}", position=node.position))
        return result

    def _expr_ConditionalExpression(self, node: ast.ConditionalExpression) -> Atom:
        result = self.temp()
        condition = self.lower_expression(node.test)
        branch = self.emit(BranchStmt(condition=condition, position=node.position))
        self.pending = [_Pending(branch, EdgeKind.SEQ)]
        consequent = self.lower_expression(node.consequent)
        self.emit(
            AssignStmt(
                target=result, rhs=AtomRhs(consequent),
                position=node.consequent.position,
            )
        )
        after_true = self.pending
        self.pending = [_Pending(branch, EdgeKind.SEQ)]
        alternate = self.lower_expression(node.alternate)
        self.emit(
            AssignStmt(
                target=result, rhs=AtomRhs(alternate),
                position=node.alternate.position,
            )
        )
        self.pending = after_true + self.pending
        self.emit(NopStmt(label="ternary-join", position=node.position))
        return result

    def _expr_AssignmentExpression(self, node: ast.AssignmentExpression) -> Atom:
        if node.operator == "=":
            value = self.lower_expression(node.value)
            self._write_reference(node.target, value, node.position)
            return value
        # Compound assignment: read-modify-write.
        operator = node.operator[:-1]
        old = self._read_reference(node.target)
        rhs_value = self.lower_expression(node.value)
        new = self.temp()
        self.emit(
            AssignStmt(
                target=new, rhs=BinOpRhs(operator, old, rhs_value),
                position=node.position,
            )
        )
        self._write_reference(node.target, new, node.position)
        return new

    def _expr_SequenceExpression(self, node: ast.SequenceExpression) -> Atom:
        value: Atom = Const(UNDEFINED)
        for expression in node.expressions:
            value = self.lower_expression(expression)
        return value


def _collect_declarations(
    statements: list[ast.Statement],
) -> tuple[list[str], list[ast.FunctionDeclaration]]:
    """Collect hoisted ``var`` names and function declarations, without
    descending into nested functions."""
    var_names: list[str] = []
    seen: set[str] = set()
    function_decls: list[ast.FunctionDeclaration] = []
    # Pre-order walk on an explicit stack (children pushed reversed):
    # a self-recursive closure would hold itself in a reference cycle.
    stack: list[ast.Node] = list(reversed(statements))
    while stack:
        node = stack.pop()
        if isinstance(node, ast.FunctionDeclaration):
            function_decls.append(node)
            continue
        if isinstance(node, ast.FunctionExpression):
            continue
        if isinstance(node, ast.VariableDeclaration):
            for declarator in node.declarations:
                if declarator.name not in seen:
                    seen.add(declarator.name)
                    var_names.append(declarator.name)
        if isinstance(node, ast.ForInStatement) and node.declares:
            if node.variable not in seen:
                seen.add(node.variable)
                var_names.append(node.variable)
        stack.extend(reversed(list(node.children())))
    return var_names, function_decls
