"""Computed-key resolution for the relevance prefilter.

A computed access ``obj[k]`` defeats the plain surface scan: it cannot
bound which property the site names, so one such site flips
``Surface.dynamic_properties`` for the whole addon. This module
recovers the common benign shape — ``k`` is a constant string, or a
join/concatenation of constant strings — with a flow-insensitive
whole-program fixpoint over a small lattice:

    KeyValue = (tostr : StringSet, surely_string : bool)

``tostr`` over-approximates ``ToString(v)`` for every value ``v`` the
expression can produce *in the abstract machine* (the interpreter of
:mod:`repro.analysis`, whose property reads coerce keys through
:meth:`AbstractValue.to_property_name`); ``surely_string`` records that
every such value is a string primitive, which is what licenses treating
JavaScript ``+`` as concatenation.

Soundness is with respect to the abstract machine, name by name:

- a name bound by the *environment* (``window``, ``document``,
  ``chrome``, the builtin globals, ...) can hold objects whose string
  coercion the machine tracks as ⊤ — such names are pinned to ⊤ here
  (:func:`environment_global_names` enumerates them from the real
  environment setup, so the list cannot drift);
- a name ever bound as a function parameter, catch parameter, or
  ``for-in`` variable receives machine values we do not model — ⊤;
- a name assigned only expressions this lattice can evaluate gets the
  join of those evaluations, *plus* ``"undefined"`` at every read site
  (hoisted reads observe the pre-assignment ``undefined``; the machine
  reads unassigned variables as UNDEF, whose property-name coercion is
  exactly ``"undefined"``);
- everything else (calls, member reads, arithmetic, ...) evaluates
  to ⊤.

The fixpoint is join-only over a finite-height lattice (``StringSet``
normalizes over-budget sets to a single joined prefix, and prefix
concatenation is absorbing on the non-exact side), and a pass cap with
widening-to-⊤ backstops termination regardless.

:func:`resolve_computed_sites` classifies each site against the solved
environment. Its only caller is :func:`repro.lint.surface.resolved_surface`,
which runs it only when computed sites alone would refuse the fast lane.
Resolution is *whole-program only*: the solved environment assumes it
has seen every assignment to every name, which holds for a full parse
set but not for program fragments (the diffvet change-surface
certificate keeps to the plain scan), nor under dynamic code or a
degraded parse (the caller then never asks).
"""

from __future__ import annotations

import functools
from collections.abc import Iterable
from dataclasses import dataclass

from repro.domains import numbers
from repro.domains.stringset import StringSet
from repro.js import ast as js_ast
from repro.js.errors import Span
from repro.lint.rules import static_property_name

#: Passes of the round-robin constraint solver before the still-unstable
#: names are widened to ⊤. Join-only iteration converges far earlier in
#: practice; the cap is a termination backstop, not a tuning knob.
SOLVER_PASS_CAP = 16

#: Disjunction budget of the resolution ``StringSet``s. Wider than the
#: inference default (3) because a resolved key set feeds the *surface*,
#: where extra names only cost prefilter precision — a benign ``k`` that
#: ranges over half a dozen constants should still resolve.
RESOLUTION_BOUND = 8


def _exact(text: str) -> StringSet:
    return StringSet.exact(text, RESOLUTION_BOUND)


#: Names whose reads are never resolved even when the program also binds
#: them: the machine may hand them values we do not model. ``arguments``
#: is the callee's argument object; ``NaN``/``Infinity``/``undefined``
#: are global value names (the parser folds ``undefined`` into a
#: literal, but a shadowing ``var undefined`` would bring it back as an
#: identifier).
_ALWAYS_TOP_NAMES = frozenset({"arguments", "undefined", "NaN", "Infinity", "this"})


@dataclass(frozen=True)
class KeyValue:
    """One element of the resolution lattice."""

    #: Sound over-approximation of ``ToString(v)`` for every possible
    #: value ``v``.
    tostr: StringSet
    #: Every possible value is a string primitive (licenses ``+`` as
    #: concatenation). ``True`` is the *more precise* claim, so the
    #: lattice order reads ``True ⊑ False``.
    surely_string: bool

    def leq(self, other: KeyValue) -> bool:
        if not self.tostr.leq(other.tostr):
            return False
        return self.surely_string or not other.surely_string

    def join(self, other: KeyValue) -> KeyValue:
        return KeyValue(
            tostr=self.tostr.join(other.tostr),
            surely_string=self.surely_string and other.surely_string,
        )

    def meet(self, other: KeyValue) -> KeyValue:
        return KeyValue(
            tostr=self.tostr.meet(other.tostr),
            surely_string=self.surely_string or other.surely_string,
        )

    def concretes(self) -> set[str] | None:
        """The finite set of strings this key can coerce to, or ``None``
        when any component is non-exact (prefix / ⊤)."""
        return self.tostr.concretes()


KEY_BOTTOM = KeyValue(tostr=StringSet.bottom(RESOLUTION_BOUND), surely_string=True)
KEY_TOP = KeyValue(tostr=StringSet.top(RESOLUTION_BOUND), surely_string=False)
KEY_UNDEFINED = KeyValue(tostr=_exact("undefined"), surely_string=False)


def key_string(text: str) -> KeyValue:
    return KeyValue(tostr=_exact(text), surely_string=True)


def key_plus(left: KeyValue, right: KeyValue) -> KeyValue:
    """JavaScript ``+`` on the key lattice.

    When either operand is surely a string, ``+`` is string
    concatenation and the result's ``ToString`` is the concatenation of
    the operands' ``ToString`` sets (string + anything coerces the other
    side through ``ToString``). Otherwise the operation may be numeric
    addition, whose string form we do not track — ⊤.
    """
    if left.surely_string or right.surely_string:
        return KeyValue(tostr=left.tostr.concat(right.tostr), surely_string=True)
    return KEY_TOP


@functools.cache
def environment_global_names() -> frozenset[str]:
    """Every global name the analysis environments bind before the addon
    runs — enumerated from the *real* setup code, so new environment
    globals can never silently drift out of the resolution blocklist.
    Cached: listing them sets up both environments."""
    from repro.analysis import builtins as analysis_builtins
    from repro.browser.chrome import WebExtEnvironment
    from repro.browser.env import BrowserEnvironment
    from repro.domains.state import State
    from repro.ir.nodes import GLOBAL_SCOPE

    names: set[str] = set()
    for setup in (BrowserEnvironment().setup, WebExtEnvironment().setup):
        state = State()
        analysis_builtins.install(state)
        setup(state, None)
        names.update(
            name for scope, name in state.vars.keys() if scope == GLOBAL_SCOPE
        )
    return frozenset(names)


class ConstantStringEnv:
    """The solved flow-insensitive name → :class:`KeyValue` environment."""

    __slots__ = ("_values", "_blocked")

    def __init__(self, values: dict[str, KeyValue], blocked: frozenset[str]):
        self._values = values
        self._blocked = blocked

    def read(self, name: str) -> KeyValue:
        """The abstract value of reading ``name`` anywhere in the
        program: the join of everything assigned to it, plus the
        hoisted-read ``undefined``."""
        if name in self._blocked:
            return KEY_TOP
        return self._values.get(name, KEY_BOTTOM).join(KEY_UNDEFINED)

    def eval(self, expr: js_ast.Expression) -> KeyValue:
        """Sound ``ToString`` over-approximation of ``expr``."""
        if isinstance(expr, js_ast.StringLiteral):
            return key_string(expr.value)
        if isinstance(expr, js_ast.NumberLiteral):
            rendered = numbers.to_property_string(numbers.constant(expr.value))
            if rendered is None:
                return KEY_TOP
            return KeyValue(tostr=_exact(rendered), surely_string=False)
        if isinstance(expr, js_ast.BooleanLiteral):
            return KeyValue(
                tostr=_exact("true" if expr.value else "false"),
                surely_string=False,
            )
        if isinstance(expr, js_ast.NullLiteral):
            return KeyValue(tostr=_exact("null"), surely_string=False)
        if isinstance(expr, js_ast.UndefinedLiteral):
            return KEY_UNDEFINED
        if isinstance(expr, js_ast.Identifier):
            return self.read(expr.name)
        if isinstance(expr, js_ast.BinaryExpression):
            if expr.operator == "+":
                return key_plus(self.eval(expr.left), self.eval(expr.right))
            return KEY_TOP
        if isinstance(expr, js_ast.LogicalExpression):
            # `a || b` / `a && b` yield one of the operand *values*.
            return self.eval(expr.left).join(self.eval(expr.right))
        if isinstance(expr, js_ast.ConditionalExpression):
            return self.eval(expr.consequent).join(self.eval(expr.alternate))
        if isinstance(expr, js_ast.AssignmentExpression):
            if expr.operator == "=":
                return self.eval(expr.value)
            return KEY_TOP
        if isinstance(expr, js_ast.SequenceExpression):
            if expr.expressions:
                return self.eval(expr.expressions[-1])
            return KEY_TOP
        return KEY_TOP


def solve_environment(programs: Iterable[js_ast.Program]) -> ConstantStringEnv:
    """Collect and solve the flow-insensitive string constraints of a
    whole program (possibly multi-file: constraints union across files,
    matching the conflated global scope of the lowered bundle)."""
    blocked: set[str] = set(_ALWAYS_TOP_NAMES)
    blocked.update(environment_global_names())
    constraints: list[tuple[str, js_ast.Expression | None]] = []

    for program in programs:
        for node in program.walk():
            if isinstance(node, js_ast.VariableDeclarator):
                constraints.append((node.name, node.init))
            elif isinstance(node, js_ast.AssignmentExpression):
                if isinstance(node.target, js_ast.Identifier):
                    if node.operator == "=":
                        constraints.append((node.target.name, node.value))
                    else:
                        # Compound assignment mixes the old value with
                        # arithmetic we do not track.
                        blocked.add(node.target.name)
            elif isinstance(node, js_ast.UpdateExpression):
                if isinstance(node.argument, js_ast.Identifier):
                    blocked.add(node.argument.name)
            elif isinstance(node, js_ast.ForInStatement):
                # Enumerates arbitrary property names.
                blocked.add(node.variable)
            elif isinstance(
                node, (js_ast.FunctionDeclaration, js_ast.FunctionExpression)
            ):
                # Parameters receive arbitrary call arguments (including
                # environment-made values at event dispatch); a function
                # name is bound to a closure whose string coercion the
                # machine tracks as ⊤.
                blocked.update(node.params)
                if node.name:
                    blocked.add(node.name)
            elif isinstance(node, js_ast.CatchClause):
                blocked.add(node.param)

    values: dict[str, KeyValue] = {}
    env = ConstantStringEnv(values, frozenset(blocked))
    pending = [
        (name, init)
        for name, init in constraints
        if name not in blocked
    ]
    changed = True
    passes = 0
    while changed and passes < SOLVER_PASS_CAP:
        changed = False
        passes += 1
        for name, init in pending:
            contribution = env.eval(init) if init is not None else KEY_UNDEFINED
            current = values.get(name, KEY_BOTTOM)
            joined = current.join(contribution)
            if joined != current:
                values[name] = joined
                changed = True
    if changed:
        # The pass cap tripped before stabilization: widen every name
        # that still moved to ⊤ rather than ship an under-approximation.
        for name, _init in pending:
            values[name] = KEY_TOP
    return env


def resolve_computed_sites(
    programs: tuple[js_ast.Program, ...],
) -> tuple[list[frozenset[str]], tuple[Span, ...]]:
    """Classify every computed property site with a non-literal key, in
    walk order: the name set of each site whose key resolves to a
    finite set, and the span of each *residual* site that does not."""
    env = solve_environment(programs)
    resolved: list[frozenset[str]] = []
    residual: list[Span] = []
    for program in programs:
        for node in program.walk():
            if not isinstance(node, js_ast.MemberExpression) or not node.computed:
                continue
            if static_property_name(node) is not None:
                continue
            names = env.eval(node.property).concretes()
            if names is None:
                residual.append(Span.at(node.position))
            else:
                resolved.append(frozenset(names))
    return resolved, tuple(residual)
