"""Andersen-style (flow- and context-insensitive) call graph.

Function values propagate through *name bindings*: ``function f(){}``
binds ``f``; ``var g = function(){}`` and ``g = function(){}`` bind
``g``; ``obj.m = function(){}`` and ``{m: function(){}}`` bind the
property name ``m``; a named function expression binds its own name for
recursion. A call site's callee set is then every function its callee
*name* can denote (for ``x.m()``, every function bound to property name
``m`` anywhere — the Andersen collapse of field-sensitivity onto field
*names*).

Reachability is reference-closure from the top level: a function is
reachable when it is referenced — called, passed as an argument (event
or message handler registration), assigned, or mentioned — from
top-level code or from inside another reachable function. The event
loop needs no special casing under this rule: a handler can only be
dispatched after a registration call mentions it (by name or inline),
which is exactly a reference from reachable code. A *declaration* whose
name is never mentioned in reachable code is therefore invokable by
nothing — the basis for the CG001 lint rule.

The graph serves the lint rules CG001/CG002 only; no vet builds it and
no pass rewrites the program from it. The interpreter only enters
functions that are called, so an unreachable declaration costs lowering
and one closure allocation, never fixpoint work.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from repro.js import ast as js_ast
from repro.js.errors import Span
from repro.lint.rules import callee_name, static_property_name

FunctionNode = js_ast.FunctionDeclaration | js_ast.FunctionExpression

#: Virtual caller id for top-level code.
TOP_LEVEL = -1


@dataclass(frozen=True)
class FunctionInfo:
    """One function in the table."""

    fid: int
    name: str | None
    kind: str  # "declaration" | "expression"
    span: Span
    node_count: int


@dataclass(frozen=True)
class CallSite:
    """One call/new expression and the functions it can invoke."""

    caller: int  # fid of the enclosing function, or TOP_LEVEL
    callee_name: str | None  # identifier or static property name, if any
    callees: frozenset[int]
    span: Span


@dataclass
class CallGraph:
    """The solved call graph of one (possibly multi-file) program."""

    functions: tuple[FunctionInfo, ...] = ()
    sites: tuple[CallSite, ...] = ()
    #: fids referenced (transitively) from top-level code — the
    #: functions *some* execution of the machine could ever enter.
    reachable: frozenset[int] = frozenset()
    #: Names bound to at least one function value.
    bound_names: frozenset[str] = frozenset()
    #: All names the program binds in any way (vars, params, catch,
    #: for-in, function names) — a call to a name outside this set and
    #: outside the environment cannot invoke anything but UNDEF.
    program_bindings: frozenset[str] = frozenset()

    @property
    def edges(self) -> int:
        return sum(len(site.callees) for site in self.sites)

    def unreachable_declarations(self) -> list[FunctionInfo]:
        """Named functions no reachable code references (CG001)."""
        return [
            info
            for info in self.functions
            if info.name is not None and info.fid not in self.reachable
        ]


def _span(node: js_ast.Node) -> Span:
    return Span.at(node.position)


def build_callgraph(programs: Iterable[js_ast.Program]) -> CallGraph:
    programs = tuple(programs)
    functions: list[FunctionInfo] = []
    fid_of: dict[int, int] = {}  # id(ast node) -> fid
    nodes: list[FunctionNode] = []

    for program in programs:
        for node in program.walk():
            if isinstance(node, (js_ast.FunctionDeclaration, js_ast.FunctionExpression)):
                fid = len(functions)
                fid_of[id(node)] = fid
                nodes.append(node)
                functions.append(
                    FunctionInfo(
                        fid=fid,
                        name=node.name or None,
                        kind=(
                            "declaration"
                            if isinstance(node, js_ast.FunctionDeclaration)
                            else "expression"
                        ),
                        span=_span(node),
                        node_count=js_ast.node_count(node),
                    )
                )

    # ------------------------------------------------------------------
    # Name bindings: which names can denote which function values.
    bound_to: dict[str, set[int]] = {}
    program_bindings: set[str] = set()

    def bind(name: str, target: js_ast.Expression) -> None:
        if isinstance(target, js_ast.FunctionExpression):
            bound_to.setdefault(name, set()).add(fid_of[id(target)])

    for program in programs:
        for node in program.walk():
            if isinstance(node, js_ast.FunctionDeclaration):
                bound_to.setdefault(node.name, set()).add(fid_of[id(node)])
                program_bindings.add(node.name)
                program_bindings.update(node.params)
            elif isinstance(node, js_ast.FunctionExpression):
                if node.name:
                    bound_to.setdefault(node.name, set()).add(fid_of[id(node)])
                    program_bindings.add(node.name)
                program_bindings.update(node.params)
            elif isinstance(node, js_ast.VariableDeclarator):
                program_bindings.add(node.name)
                if node.init is not None:
                    bind(node.name, node.init)
            elif isinstance(node, js_ast.AssignmentExpression):
                if isinstance(node.target, js_ast.Identifier):
                    program_bindings.add(node.target.name)
                    bind(node.target.name, node.value)
                elif isinstance(node.target, js_ast.MemberExpression):
                    prop = static_property_name(node.target)
                    if prop is not None:
                        bind(prop, node.value)
            elif isinstance(node, js_ast.Property):
                bind(node.key, node.value)
            elif isinstance(node, js_ast.ForInStatement):
                program_bindings.add(node.variable)
            elif isinstance(node, js_ast.CatchClause):
                program_bindings.add(node.param)

    # ------------------------------------------------------------------
    # Ownership: the enclosing *declaration* region of every node. A
    # function expression's body belongs to the region that contains it
    # (it can run whenever that region runs); a nested declaration opens
    # its own region (it runs only if something references its name).
    # An explicit stack, so arbitrarily deep trees need no recursion.
    owner_of: dict[int, int] = {}
    stack: list[tuple[js_ast.Node, int]] = [
        (program, TOP_LEVEL) for program in programs
    ]
    while stack:
        node, region = stack.pop()
        owner_of[id(node)] = region
        for child in node.children():
            if isinstance(child, js_ast.FunctionDeclaration):
                stack.append((child, fid_of[id(child)]))
            else:
                stack.append((child, region))

    # A function expression is *activated* with its region; a nested
    # declaration is activated when its name is referenced from an
    # active region. References are identifier mentions plus property
    # names that some binding ties to a function.
    mentions: dict[int, set[str]] = {}  # region -> names mentioned
    inline: dict[int, set[int]] = {}  # region -> expression fids inside it

    for program in programs:
        for node in program.walk():
            region = owner_of[id(node)]
            if isinstance(node, js_ast.Identifier):
                mentions.setdefault(region, set()).add(node.name)
            elif isinstance(node, js_ast.MemberExpression):
                prop = static_property_name(node)
                if prop is not None:
                    mentions.setdefault(region, set()).add(prop)
            elif isinstance(node, js_ast.FunctionExpression):
                inline.setdefault(region, set()).add(fid_of[id(node)])

    reachable: set[int] = set()
    frontier = [TOP_LEVEL]
    while frontier:
        region = frontier.pop()
        for fid in inline.get(region, ()):
            if fid not in reachable:
                reachable.add(fid)
                frontier.append(fid)
        # A mention only activates *declarations*: a function expression
        # value exists only after the statement carrying it ran, i.e.
        # after the inline rule already activated it with its region.
        for name in mentions.get(region, ()):
            for fid in bound_to.get(name, ()):
                if fid not in reachable and isinstance(
                    nodes[fid], js_ast.FunctionDeclaration
                ):
                    reachable.add(fid)
                    frontier.append(fid)

    # ------------------------------------------------------------------
    # Call sites.
    sites: list[CallSite] = []
    for program in programs:
        for node in program.walk():
            if isinstance(node, (js_ast.CallExpression, js_ast.NewExpression)):
                name = callee_name(node.callee)
                if name is None and isinstance(node.callee, js_ast.MemberExpression):
                    name = static_property_name(node.callee)
                callees: frozenset[int]
                if isinstance(node.callee, js_ast.FunctionExpression):
                    callees = frozenset({fid_of[id(node.callee)]})
                elif name is not None:
                    callees = frozenset(bound_to.get(name, ()))
                else:
                    callees = frozenset()
                sites.append(
                    CallSite(
                        caller=owner_of[id(node)],
                        callee_name=name,
                        callees=callees,
                        span=_span(node),
                    )
                )

    return CallGraph(
        functions=tuple(functions),
        sites=tuple(sites),
        reachable=frozenset(reachable),
        bound_names=frozenset(bound_to),
        program_bindings=frozenset(program_bindings),
    )
