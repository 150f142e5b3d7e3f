"""The sound relevance prefilter (static triage, flow-insensitive).

The heavyweight pipeline — abstract interpretation, PDG construction,
flow-type fixpoints — only ever produces signature entries for addons
that *name* part of the security spec's surface: a source property
(``href``, ``keyCode``, ...), a sink method (``open``, ``send``,
``setData``, ...), or a spec-tagged global (``XHRWrapper``, ``eval``).
That gives a cheap, sound triage test:

1. Over-approximate the addon's *surface*: every identifier, every
   statically known property name, every declared name (a
   flow-insensitive walk of the AST — :func:`addon_surface`).
2. Over-approximate the spec's surface: every property/method/global
   name any of its matchers could possibly need (:func:`spec_surface`).
3. If the two are disjoint **and** the addon has no dynamic code
   (``eval``/``Function``/string timers) **and** no dynamic property
   access (a computed key could name anything), then no run of the full
   analysis can produce a non-empty signature — the addon gets the
   trivially-empty signature without the interpreter ever starting.

Soundness argument (see DESIGN.md "Prefilter soundness"): every
source/sink/API matcher in :mod:`repro.signatures.spec` fires only on
statements that reach a native through a *named* property read or a
*named* global — both of which put the name into the addon surface. A
computed access with a non-literal key could denote any name, so it
forces ``dynamic_properties`` and disqualifies the fast lane; dynamic
code and recovery-degraded parses disqualify it by fiat. The prefilter
therefore never fires on an addon whose full analysis could emit an
entry — tested addon-by-addon in
``tests/lint/test_prefilter_soundness.py``.

The surface also records *where* each disqualifier lives (per-site
spans, not just booleans). When computed sites are the only thing
keeping an addon out of the fast lane, the prefilter asks the
constant-key resolver (:func:`repro.preanalysis.resolve_computed_sites`)
for their verdicts (:func:`resolved_surface`): a computed site whose
key provably ranges over a finite string set is demoted from
``dynamic_properties`` to ordinary named surface — its resolved names
join ``Surface.names``, and only the *residual* sites still disqualify.
Resolution is sound only whole-program (the solved environment must
have seen every assignment), so fragment consumers (the diffvet
change-surface certificate) call the plain scan.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from repro.js import ast as js_ast
from repro.js.errors import Span
from repro.lint.rules import TIMER_NAMES, callee_name, static_property_name
from repro.signatures.spec import (
    CallSource,
    ChannelSource,
    NetworkSink,
    PropertySource,
    PropertyWriteSink,
    SecuritySpec,
)

if TYPE_CHECKING:
    from repro.preanalysis.pipeline import Resolution

#: Names that mean string-to-code execution wherever they appear.
_DYNAMIC_CODE_NAMES = frozenset({"eval", "Function"})


@dataclass(frozen=True)
class Surface:
    """A flow-insensitive over-approximation of what an addon can touch."""

    #: Every identifier, statically known property name, declared
    #: variable/function/parameter name, object-literal key, and
    #: resolved computed-key name.
    names: frozenset[str]
    #: The addon may build code from strings (eval / Function / string
    #: timer handlers) — nothing syntactic bounds what it touches.
    dynamic_code: bool
    #: The addon uses a computed property key that is not a literal and
    #: that resolution could not bound — the property surface is
    #: unbounded.
    dynamic_properties: bool
    #: Where each dynamic-code construct appears.
    dynamic_code_sites: tuple[Span, ...] = ()
    #: Where each *unresolved* computed property access appears.
    dynamic_property_sites: tuple[Span, ...] = ()
    #: Computed sites the resolver bounded to a finite name set (their
    #: names are already folded into ``names``).
    resolved_sites: int = 0


def addon_surface(program: js_ast.Node) -> Surface:
    """Collect the addon's syntactic surface in one AST walk."""
    return nodes_surface([program])


def nodes_surface(
    roots: Iterable[js_ast.Node], resolution: "Resolution | None" = None
) -> Surface:
    """The combined syntactic surface of an arbitrary set of AST nodes
    (each walked recursively).

    This is :func:`addon_surface` generalized to *parts* of a program:
    the differential-vetting fast lane (``repro.diffvet.incremental``)
    uses it to over-approximate what a version update's *changed
    statements* can touch, with exactly the same collection rules — so
    the change-surface certificate inherits the prefilter's soundness
    argument for named access.

    ``resolution`` (whole-program callers only) demotes computed sites
    the resolver proved finite: their resolved names join the surface
    instead of tripping ``dynamic_properties``. It is keyed by node
    identity, so it must come from a resolution of these same AST
    objects.
    """
    names: set[str] = set()
    dynamic_code = False
    dynamic_properties = False
    dynamic_code_sites: list[Span] = []
    dynamic_property_sites: list[Span] = []
    resolved_sites = 0
    resolved = resolution.resolved if resolution is not None else {}

    for node in _walk_all(roots):
        if isinstance(node, js_ast.Identifier):
            names.add(node.name)
            if node.name in _DYNAMIC_CODE_NAMES:
                dynamic_code = True
                dynamic_code_sites.append(Span.at(node.position))
        elif isinstance(node, js_ast.MemberExpression):
            prop = static_property_name(node)
            if prop is not None:
                names.add(prop)
                if prop in _DYNAMIC_CODE_NAMES:
                    dynamic_code = True
                    dynamic_code_sites.append(Span.at(node.position))
            elif id(node) in resolved:
                names.update(resolved[id(node)])
                resolved_sites += 1
            else:
                dynamic_properties = True
                dynamic_property_sites.append(Span.at(node.position))
        elif isinstance(node, js_ast.Property):
            names.add(node.key)
        elif isinstance(node, js_ast.VariableDeclarator):
            names.add(node.name)
        elif isinstance(node, (js_ast.FunctionDeclaration, js_ast.FunctionExpression)):
            if node.name:
                names.add(node.name)
            names.update(node.params)
        elif isinstance(node, js_ast.ForInStatement):
            names.add(node.variable)
        elif isinstance(node, js_ast.CallExpression):
            if callee_name(node.callee) in TIMER_NAMES and node.arguments:
                handler = node.arguments[0]
                if not isinstance(
                    handler,
                    (js_ast.FunctionExpression, js_ast.Identifier,
                     js_ast.MemberExpression),
                ):
                    # A timer handler that is not (a reference to) a
                    # function may be a string of code.
                    dynamic_code = True
                    dynamic_code_sites.append(Span.at(node.position))
    return Surface(
        names=frozenset(names),
        dynamic_code=dynamic_code,
        dynamic_properties=dynamic_properties,
        dynamic_code_sites=tuple(dynamic_code_sites),
        dynamic_property_sites=tuple(dynamic_property_sites),
        resolved_sites=resolved_sites,
    )


def _walk_all(roots: Iterable[js_ast.Node]):
    for root in roots:
        yield from root.walk()


def resolved_surface(
    programs: Iterable[js_ast.Program], *, degraded: bool = False
) -> Surface:
    """The whole-program surface of a program set, with computed keys
    resolved where that can change a prefilter decision.

    The plain scan runs once. Resolution runs only when its verdicts can
    matter: the input is not ``degraded`` (a skipped statement may hold
    an assignment the solver never saw), has no dynamic code (``eval``
    could assign any name), and the scan found unresolved computed
    sites. Its resolved names are folded into that same surface; only
    the residual sites stay dynamic. Equal to ``nodes_surface(programs,
    resolution=resolve_computed_sites(programs, trusted=...))`` — the
    eager form, pinned in ``tests/preanalysis/test_surface.py``.
    """
    programs = tuple(programs)
    surface = nodes_surface(programs)
    if degraded or surface.dynamic_code or not surface.dynamic_properties:
        return surface
    # Looked up at call time so a tracer wrapping the module attribute
    # sees the call.
    from repro.preanalysis import pipeline

    resolution = pipeline.resolve_computed_sites(programs, trusted=True)
    return replace(
        surface,
        names=surface.names.union(*resolution.resolved.values()),
        dynamic_properties=bool(resolution.residual_spans),
        dynamic_property_sites=resolution.residual_spans,
        resolved_sites=resolution.resolved_sites,
    )


def _tag_names(tag: str) -> set[str]:
    """The names an addon must utter to reach a native with ``tag``.

    Dotted tags (``xhr.send``) are reached through a property read of
    the method name; bare tags (``XHRWrapper``, ``eval``) are global
    bindings reached by identifier. All components go in — extra names
    only cost precision (a skipped fast lane), never soundness.
    """
    return set(tag.split("."))


def spec_surface(spec: SecuritySpec) -> frozenset[str]:
    """Every name whose appearance in an addon could let some matcher
    of ``spec`` fire."""
    names: set[str] = set()
    for source in spec.sources:
        if isinstance(source, PropertySource):
            names.update(source.props)
        elif isinstance(source, CallSource):
            for tag in source.tags:
                names.update(_tag_names(tag))
        elif isinstance(source, ChannelSource):
            # A channel handler only ever registers through one of the
            # listener names the source declares (onMessage, ...): an
            # addon that never utters them cannot make the loop dispatch
            # the channel, so the matcher cannot fire.
            names.update(source.surface_names())
    for sink in spec.sinks:
        if isinstance(sink, NetworkSink):
            for tag, _rule in sink.rules:
                names.update(_tag_names(tag))
        elif isinstance(sink, PropertyWriteSink):
            names.update(sink.props)
    for api in spec.apis:
        for tag in api.tags:
            names.update(_tag_names(tag))
    return frozenset(names)


def _render_spans(spans: tuple[Span, ...], limit: int = 4) -> str:
    shown = ", ".join(
        f"{span.start.line}:{span.start.column}" for span in spans[:limit]
    )
    if len(spans) > limit:
        shown += f", +{len(spans) - limit} more"
    return shown


@dataclass(frozen=True)
class PrefilterDecision:
    """Whether the full analysis must run, and why."""

    relevant: bool
    #: ``"degraded-input"`` / ``"dynamic-code"`` / ``"dynamic-properties"``
    #: / ``"surface-overlap"`` when relevant; ``"no-overlap"`` otherwise.
    reason: str
    #: The names shared by addon and spec (empty unless surface-overlap).
    overlap: frozenset[str] = frozenset()
    #: Every dynamic-code construct the scan saw (where the fast lane
    #: died, when ``reason == "dynamic-code"``).
    dynamic_code_sites: tuple[Span, ...] = ()
    #: Every computed property access resolution could not bound.
    dynamic_property_sites: tuple[Span, ...] = ()
    #: Computed sites resolution *did* bound (demoted to named surface).
    resolved_sites: int = 0

    @property
    def counters(self) -> dict[str, int]:
        """The resolution counters a vet with the prefilter reports."""
        return {
            "resolved_sites": self.resolved_sites,
            "residual_dynamic_sites": len(self.dynamic_property_sites),
        }

    def render(self) -> str:
        if not self.relevant:
            suffix = (
                f" ({self.resolved_sites} computed site(s) resolved)"
                if self.resolved_sites
                else ""
            )
            return (
                "prefiltered: addon surface shares nothing with the spec"
                + suffix
            )
        detail = f" ({', '.join(sorted(self.overlap))})" if self.overlap else ""
        lines = [f"relevant: {self.reason}{detail}"]
        if self.dynamic_code_sites:
            lines.append(
                f"  dynamic code at {_render_spans(self.dynamic_code_sites)}"
            )
        if self.dynamic_property_sites:
            lines.append(
                "  unresolved computed properties at "
                f"{_render_spans(self.dynamic_property_sites)}"
            )
        if self.resolved_sites:
            lines.append(
                f"  {self.resolved_sites} computed site(s) resolved to named surface"
            )
        return "\n".join(lines)


def decide_relevance(
    programs: Iterable[js_ast.Node],
    spec: SecuritySpec,
    *,
    degraded: bool = False,
) -> PrefilterDecision:
    """The prefilter decision for one parsed program set: a single file
    or every component file of an extension bundle (``repro.webext``).

    The surface is the union across the set, so a spec name uttered in
    *any* file disqualifies the fast lane for all of it. The soundness
    argument holds for a set as for one file — the lowered program is
    built from exactly these ASTs, so every name the full analysis could
    resolve appears in one of them.

    ``degraded`` must be True when recovery-mode parsing skipped any
    statement: the ASTs under-approximate the addon, so no syntactic
    argument about them is sound and the full (widening) pipeline must
    run.

    The set is scanned once (:func:`resolved_surface`); computed sites
    are resolved only when they alone would refuse the fast lane, and
    resolved sites count as named surface instead of disqualifying
    dynamism (sound because the resolver's name sets over-approximate
    the machine's key coercion — DESIGN.md §5j).
    """
    if degraded:
        return PrefilterDecision(relevant=True, reason="degraded-input")
    surface = resolved_surface(programs)
    if surface.dynamic_code:
        return PrefilterDecision(
            relevant=True,
            reason="dynamic-code",
            dynamic_code_sites=surface.dynamic_code_sites,
            dynamic_property_sites=surface.dynamic_property_sites,
            resolved_sites=surface.resolved_sites,
        )
    if surface.dynamic_properties:
        return PrefilterDecision(
            relevant=True,
            reason="dynamic-properties",
            dynamic_property_sites=surface.dynamic_property_sites,
            resolved_sites=surface.resolved_sites,
        )
    overlap = surface.names & spec_surface(spec)
    if overlap:
        return PrefilterDecision(
            relevant=True,
            reason="surface-overlap",
            overlap=overlap,
            resolved_sites=surface.resolved_sites,
        )
    return PrefilterDecision(
        relevant=False, reason="no-overlap", resolved_sites=surface.resolved_sites
    )
