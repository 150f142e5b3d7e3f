"""The built-in lint rules over addon JavaScript.

Each rule targets a pattern that either defeats the abstract
interpreter outright (dynamic code, ``with`` scoping), widens its
results (dynamic property access, prefix-domain-hostile string
construction), or marks security-relevant behavior a vetter should eye
before trusting any signature (sensitive browser-API writes, script
injection). The ids are stable wire strings; severities express how
much the finding undermines the analysis, not how malicious the addon
is.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

from repro.domains.lattice import greatest_common_prefix
from repro.js import ast as js_ast
from repro.js.errors import Span
from repro.js.tokens import Token
from repro.lint.engine import LintContext, Rule, register
from repro.lint.findings import Severity

#: Browser globals whose object graph the security spec cares about —
#: dynamic property access rooted here can reach any source or sink.
BROWSER_ROOTS = frozenset(
    {"window", "document", "content", "gBrowser", "navigator", "Services"}
)

#: Property writes that change what the browser loads or leaks.
SENSITIVE_WRITE_PROPS = frozenset(
    {
        "href", "location", "src", "innerHTML", "outerHTML", "cookie",
        "domain", "onclick", "onload", "onmessage", "onerror",
    }
)

#: Timer APIs whose first argument may be a string of code.
TIMER_NAMES = frozenset({"setTimeout", "setInterval"})


def static_property_name(member: js_ast.MemberExpression) -> str | None:
    """The statically known property name of a member access, if any.

    Non-computed access always has one (the parser normalizes ``a.b`` to
    a string-literal property); computed access has one only for string
    or integral-number literal keys.
    """
    prop = member.property
    if isinstance(prop, js_ast.StringLiteral):
        return prop.value
    if isinstance(prop, js_ast.NumberLiteral) and prop.value == int(prop.value):
        return str(int(prop.value))
    return None


def callee_name(callee: js_ast.Expression) -> str | None:
    """The identifier or static property name a call goes through."""
    if isinstance(callee, js_ast.Identifier):
        return callee.name
    if isinstance(callee, js_ast.MemberExpression):
        return static_property_name(callee)
    return None


def member_root(expression: js_ast.Expression) -> str | None:
    """The identifier at the root of a member chain (``a.b[c].d`` →
    ``a``), or None when the chain is rooted in a call/literal."""
    node = expression
    while isinstance(node, js_ast.MemberExpression):
        node = node.object
    if isinstance(node, js_ast.Identifier):
        return node.name
    return None


def _urlish(text: str) -> bool:
    """Does a string literal look like (part of) a URL?"""
    return "://" in text or text.startswith(("http", "/", "www."))


# ----------------------------------------------------------------------
# Dangerous dynamic code


@register
class EvalCall(Rule):
    id = "JS001"
    name = "eval-call"
    severity = Severity.ERROR
    description = (
        "call to eval(): string-to-code execution the static analysis "
        "cannot see through"
    )
    node_types = (js_ast.CallExpression,)

    def check(
        self, node: js_ast.Node, context: LintContext
    ) -> Iterator[tuple[str, Span]]:
        assert isinstance(node, js_ast.CallExpression)
        if callee_name(node.callee) == "eval":
            yield (
                "eval() executes a dynamically built string as code; no "
                "static signature can cover what it does",
                context.span_of(node),
            )


@register
class FunctionConstructor(Rule):
    id = "JS002"
    name = "function-constructor"
    severity = Severity.ERROR
    description = (
        "Function(...) constructor: compiles its string arguments into "
        "code at runtime"
    )
    node_types = (js_ast.CallExpression, js_ast.NewExpression)

    def check(
        self, node: js_ast.Node, context: LintContext
    ) -> Iterator[tuple[str, Span]]:
        assert isinstance(node, (js_ast.CallExpression, js_ast.NewExpression))
        if (
            isinstance(node.callee, js_ast.Identifier)
            and node.callee.name == "Function"
        ):
            yield (
                "the Function constructor compiles string arguments into "
                "code at runtime",
                context.span_of(node),
            )


@register
class StringCodeTimer(Rule):
    id = "JS003"
    name = "string-code-timer"
    severity = Severity.ERROR
    description = (
        "setTimeout/setInterval with a string argument: implicit eval "
        "on every tick"
    )
    node_types = (js_ast.CallExpression,)

    def check(
        self, node: js_ast.Node, context: LintContext
    ) -> Iterator[tuple[str, Span]]:
        assert isinstance(node, js_ast.CallExpression)
        if callee_name(node.callee) not in TIMER_NAMES or not node.arguments:
            return
        handler = node.arguments[0]
        stringy = isinstance(handler, js_ast.StringLiteral) or (
            isinstance(handler, js_ast.BinaryExpression)
            and handler.operator == "+"
            and (
                isinstance(handler.left, js_ast.StringLiteral)
                or isinstance(handler.right, js_ast.StringLiteral)
            )
        )
        if stringy:
            yield (
                "timer handler is a string, which the browser evals on "
                "every tick; pass a function instead",
                context.span_of(handler),
            )


@register
class WithStatement(Rule):
    id = "JS004"
    name = "with-statement"
    severity = Severity.ERROR
    description = (
        "with-statement: makes every identifier's scope dynamic "
        "(outside the analyzable subset)"
    )

    def check_tokens(
        self, tokens: Sequence[Token], context: LintContext
    ) -> Iterator[tuple[str, Span]]:
        # Token-level: `with` never survives parsing (the statement is
        # skipped by recovery), but the lint must still point at it.
        for token in tokens:
            if token.is_keyword("with"):
                yield (
                    "with makes every identifier lookup dynamic; the "
                    "analysis rejects it",
                    Span.at(token.position),
                )


# ----------------------------------------------------------------------
# Sensitive browser-API surface


@register
class SensitivePropertyWrite(Rule):
    id = "JS005"
    name = "sensitive-prop-write"
    severity = Severity.WARNING
    description = (
        "write to a security-sensitive browser property (href, "
        "innerHTML, cookie, event handlers, ...)"
    )
    node_types = (js_ast.AssignmentExpression,)

    def check(
        self, node: js_ast.Node, context: LintContext
    ) -> Iterator[tuple[str, Span]]:
        assert isinstance(node, js_ast.AssignmentExpression)
        target = node.target
        if not isinstance(target, js_ast.MemberExpression):
            return
        prop = static_property_name(target)
        if prop in SENSITIVE_WRITE_PROPS:
            yield (
                f"assignment to sensitive property '{prop}' can redirect, "
                "inject markup, or leak data without any network call",
                context.span_of(node),
            )


@register
class DynamicPropertyAccess(Rule):
    id = "JS006"
    name = "dynamic-property-access"
    severity = Severity.WARNING
    description = (
        "computed property access with a non-literal key on a browser "
        "API object: reaches arbitrary sources/sinks"
    )
    node_types = (js_ast.MemberExpression,)

    def check(
        self, node: js_ast.Node, context: LintContext
    ) -> Iterator[tuple[str, Span]]:
        assert isinstance(node, js_ast.MemberExpression)
        if not node.computed or static_property_name(node) is not None:
            return
        root = member_root(node.object)
        if root in BROWSER_ROOTS:
            yield (
                f"dynamic property access on '{root}' can reach any "
                "browser API; the relevance prefilter must assume all "
                "of them",
                context.span_of(node),
            )


@register
class PrefixHostileUrl(Rule):
    id = "JS007"
    name = "prefix-hostile-url"
    severity = Severity.INFO
    description = (
        "URL built in a way the prefix string domain cannot track "
        "(unknown head, or branches with no common prefix)"
    )
    node_types = (
        js_ast.BinaryExpression,
        js_ast.ConditionalExpression,
        js_ast.LogicalExpression,
    )

    def check(
        self, node: js_ast.Node, context: LintContext
    ) -> Iterator[tuple[str, Span]]:
        if isinstance(node, js_ast.BinaryExpression):
            if (
                node.operator == "+"
                and not isinstance(node.left, js_ast.StringLiteral)
                and isinstance(node.right, js_ast.StringLiteral)
                and _urlish(node.right.value)
            ):
                yield (
                    "URL fragment follows a non-constant head: the prefix "
                    "domain keeps only the unknown head and loses "
                    f"'{node.right.value}'",
                    context.span_of(node),
                )
            return
        if isinstance(node, js_ast.ConditionalExpression):
            left, right = node.consequent, node.alternate
        else:
            assert isinstance(node, js_ast.LogicalExpression)
            left, right = node.left, node.right
        if not (
            isinstance(left, js_ast.StringLiteral)
            and isinstance(right, js_ast.StringLiteral)
        ):
            return
        if not (_urlish(left.value) or _urlish(right.value)):
            return
        common = greatest_common_prefix(left.value, right.value)
        if common not in (left.value, right.value):
            yield (
                "branches choose between URLs whose common prefix is "
                f"only '{common}': the prefix domain joins them to that "
                "and loses both hosts",
                context.span_of(node),
            )


@register
class ScriptInjection(Rule):
    id = "JS008"
    name = "script-injection"
    severity = Severity.WARNING
    description = (
        "script injection surface: loadSubScript, document.write, or "
        "createElement('script')"
    )
    node_types = (js_ast.CallExpression,)

    def check(
        self, node: js_ast.Node, context: LintContext
    ) -> Iterator[tuple[str, Span]]:
        assert isinstance(node, js_ast.CallExpression)
        name = callee_name(node.callee)
        if name == "loadSubScript":
            yield (
                "loadSubScript pulls in and runs another script; its "
                "behavior is invisible to this addon's signature",
                context.span_of(node),
            )
        elif (
            name == "write"
            and isinstance(node.callee, js_ast.MemberExpression)
            and member_root(node.callee.object) == "document"
        ):
            yield (
                "document.write splices markup (and scripts) directly "
                "into the page",
                context.span_of(node),
            )
        elif (
            name == "createElement"
            and node.arguments
            and isinstance(node.arguments[0], js_ast.StringLiteral)
            and node.arguments[0].value.lower() == "script"
        ):
            yield (
                "createElement('script') builds a script element; "
                "whatever src it is given will run with addon privileges",
                context.span_of(node),
            )


# ----------------------------------------------------------------------
# Call-graph rules (whole-program: one check per file's Program node)

#: Constructors and callables real addons invoke that the modeled
#: browser environment does not install as globals. Calling one is fine
#: at runtime, so CG002 must not fire on them (``Function`` is still
#: flagged — by JS002, as dynamic code, which is the right complaint).
_CALLABLE_BUILTINS = frozenset(
    {
        "Array", "Boolean", "Date", "Error", "Function", "Number",
        "Object", "Promise", "RangeError", "RegExp", "String",
        "TypeError",
    }
)


@register
class UnreachableFunction(Rule):
    id = "CG001"
    name = "unreachable-function"
    severity = Severity.WARNING
    description = (
        "function declaration never referenced from top-level code or "
        "any reachable handler: nothing can ever invoke it"
    )
    node_types = (js_ast.Program,)

    def check(
        self, node: js_ast.Node, context: LintContext
    ) -> Iterator[tuple[str, Span]]:
        assert isinstance(node, js_ast.Program)
        # Imported lazily: repro.lint.callgraph imports helpers from
        # this module at import time.
        from repro.lint.callgraph import build_callgraph

        graph = build_callgraph([node])
        for info in graph.unreachable_declarations():
            if info.kind != "declaration":
                continue
            yield (
                f"function '{info.name}' is referenced by no top-level "
                "statement and no reachable function; no execution can "
                "invoke it",
                info.span,
            )


@register
class UnboundCallee(Rule):
    id = "CG002"
    name = "unbound-callee"
    severity = Severity.WARNING
    description = (
        "call to a name the program never binds and the browser "
        "environment does not provide: its callee set is empty"
    )
    node_types = (js_ast.Program,)

    def check(
        self, node: js_ast.Node, context: LintContext
    ) -> Iterator[tuple[str, Span]]:
        assert isinstance(node, js_ast.Program)
        from repro.lint.callgraph import build_callgraph
        from repro.lint.keys import environment_global_names

        graph = build_callgraph([node])
        known = (
            graph.program_bindings
            | environment_global_names()
            | _CALLABLE_BUILTINS
        )
        for call in node.walk():
            if not isinstance(
                call, (js_ast.CallExpression, js_ast.NewExpression)
            ):
                continue
            if not isinstance(call.callee, js_ast.Identifier):
                continue  # property calls resolve through objects
            name = call.callee.name
            if name in known:
                continue
            yield (
                f"'{name}' is bound by neither the program nor the "
                "browser environment; the abstract machine can only "
                "call undefined here",
                context.span_of(call),
            )
