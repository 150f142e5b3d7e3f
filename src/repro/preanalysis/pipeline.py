"""The pre-analysis orchestrator: scan, resolve, graph, count.

``preanalyze`` is the single entry the vetting pipeline calls between
parsing and lowering. It runs its passes in their dependency order:

1. the **surface scan** (:func:`repro.lint.surface.nodes_surface`) —
   whether the program set builds code from strings, which decides
   whether resolution can be trusted;
2. computed-property **resolution** (:mod:`repro.preanalysis.constants`)
   — each ``obj[k]`` site either resolves to a finite name set or stays
   a *residual dynamic site*;
3. the **call graph** (:mod:`repro.preanalysis.callgraph`) — advisory:
   lint rules and counters, never signatures.

The scan's surface, with the resolved names folded in and only the
residual sites left dynamic, goes to the relevance prefilter, so a vet
walks the program set for its surface once.

Resolution is *whole-program only*: the solved environment assumes it
has seen every assignment to every name, which holds for a full parse
set but not for program fragments. Fragment consumers (the diffvet
change-surface certificate) must keep calling the resolution-free
surface scan.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

from repro.js import ast as js_ast
from repro.js.errors import Span
from repro.lint.rules import static_property_name
from repro.preanalysis.callgraph import CallGraph, build_callgraph
from repro.preanalysis.constants import solve_environment

if TYPE_CHECKING:
    from repro.lint.surface import Surface


@dataclass
class Resolution:
    """Per-site outcome of computed-property resolution.

    ``resolved`` is keyed by ``id()`` of the ``MemberExpression`` node —
    valid only against the exact AST objects that were preanalyzed (the
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


@dataclass
class Preanalysis:
    """Everything the pre-analysis learned about one program set."""

    resolution: Resolution
    callgraph: CallGraph
    #: The program set's surface with resolution applied: resolved
    #: names are named surface, residual sites stay dynamic. Equal to
    #: ``nodes_surface(programs, resolution)``, from a single scan.
    surface: Surface

    @property
    def counters(self) -> dict[str, int]:
        return {
            "resolved_sites": self.resolution.resolved_sites,
            "residual_dynamic_sites": self.resolution.residual_sites,
            "callgraph_edges": self.callgraph.edges,
        }

    def render(self) -> str:
        return (
            "preanalysis: "
            f"{self.resolution.resolved_sites} computed site(s) resolved, "
            f"{self.resolution.residual_sites} residual dynamic, "
            f"{self.callgraph.edges} call edge(s)"
        )


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


def preanalyze(
    programs: Iterable[js_ast.Program], *, degraded: bool = False
) -> Preanalysis:
    """Run the whole pre-analysis over a parsed program set."""
    from repro.lint.surface import nodes_surface

    programs = tuple(programs)
    surface = nodes_surface(programs)
    trusted = not degraded and not surface.dynamic_code
    resolution = resolve_computed_sites(programs, trusted=trusted)
    return Preanalysis(
        resolution=resolution,
        callgraph=build_callgraph(programs),
        surface=replace(
            surface,
            names=surface.names.union(*resolution.resolved.values()),
            dynamic_properties=bool(resolution.residual_spans),
            dynamic_property_sites=resolution.residual_spans,
            resolved_sites=len(resolution.resolved_spans),
        ),
    )
