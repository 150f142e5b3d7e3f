"""Computed-property resolution for the relevance prefilter.

:func:`resolve_computed_sites` classifies each ``obj[k]`` site with a
non-literal key: it either resolves to a finite name set under the
constant-string lattice (:mod:`repro.preanalysis.constants`) or stays a
*residual dynamic site*. The prefilter
(:func:`repro.lint.surface.resolved_surface`) calls it only when its
plain surface scan refuses on computed sites alone — the one case where
a verdict can change a decision — and folds the resolved names into
that scan's surface.

Resolution is *whole-program only*: the solved environment assumes it
has seen every assignment to every name, which holds for a full parse
set but not for program fragments. Fragment consumers (the diffvet
change-surface certificate) must keep calling the resolution-free
surface scan.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.js import ast as js_ast
from repro.js.errors import Span
from repro.lint.rules import static_property_name
from repro.preanalysis.constants import solve_environment


@dataclass
class Resolution:
    """Per-site outcome of computed-property resolution.

    ``resolved`` is keyed by ``id()`` of the ``MemberExpression`` node —
    valid only against the exact AST objects that were resolved (the
    surface scan walks those same objects).
    """

    resolved: dict[int, frozenset[str]] = field(default_factory=dict)
    resolved_spans: tuple[Span, ...] = ()
    residual_spans: tuple[Span, ...] = ()

    @property
    def resolved_sites(self) -> int:
        return len(self.resolved)

    @property
    def residual_sites(self) -> int:
        return len(self.residual_spans)


def resolve_computed_sites(
    programs: tuple[js_ast.Program, ...], *, trusted: bool
) -> Resolution:
    """Classify every computed property site with a non-literal key.

    ``trusted`` is False when dynamic code (or a degraded parse) means
    the solved environment may miss assignments — every site is then
    residual by fiat.
    """
    env = solve_environment(programs) if trusted else None
    resolved: dict[int, frozenset[str]] = {}
    resolved_spans: list[Span] = []
    residual_spans: list[Span] = []
    for program in programs:
        for node in program.walk():
            if not isinstance(node, js_ast.MemberExpression) or not node.computed:
                continue
            if static_property_name(node) is not None:
                continue
            names = None
            if env is not None:
                names = env.eval(node.property).concretes()
            span = Span.at(node.position)
            if names is None:
                residual_spans.append(span)
            else:
                resolved[id(node)] = frozenset(names)
                resolved_spans.append(span)
    return Resolution(
        resolved=resolved,
        resolved_spans=tuple(resolved_spans),
        residual_spans=tuple(residual_spans),
    )
