"""The lint rule engine: visitor infrastructure and the rule registry.

A :class:`Rule` inspects either the AST (set ``node_types`` and override
:meth:`Rule.check`) or the raw token stream (override
:meth:`Rule.check_tokens` — needed for constructs like ``with`` that the
parser rejects before an AST exists). Rules are registered with the
:func:`register` decorator and carry a stable id, slug, severity, and
description, which is what the CLI rule table and the JSON findings
expose.

:func:`lint_source` is the entry point: it tokenizes, parses with
recovery (so one malformed statement cannot hide findings in the rest
of the file), runs every registered rule, and folds recovery skips in
as ``R001`` findings — lint findings and degradation records share one
span format by construction.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar

from repro.js import ast as js_ast
from repro.js.errors import FrontendError, SourcePosition, Span
from repro.js.lexer import tokenize
from repro.js.parser import Parser, SkippedStatement, _with_recursion_room
from repro.js.tokens import Token
from repro.lint.findings import Finding, LintReport, Severity

# ----------------------------------------------------------------------
# Frontend pseudo-rules (emitted by the engine, not the registry)

#: The whole file failed to tokenize: nothing else can run.
LEX_ERROR_RULE = ("R000", "lex-error", Severity.ERROR)
#: A top-level statement was dropped by recovery-mode parsing.
PARSE_SKIP_RULE = ("R001", "parse-skip", Severity.ERROR)


@dataclass
class LintContext:
    """Per-run state handed to every rule."""

    filename: str
    source: str

    def span_of(self, node: js_ast.Node) -> Span:
        """The (single-point) span of an AST node."""
        return Span.at(node.position)


class Rule:
    """Base class for lint rules.

    Subclasses set the class attributes, then override :meth:`check`
    (called once per AST node matching ``node_types``) and/or
    :meth:`check_tokens` (called once per file with the raw token
    stream). Both yield ``(message, span)`` pairs; the engine stamps
    them with the rule's id/slug/severity.
    """

    id: ClassVar[str]
    name: ClassVar[str]
    severity: ClassVar[Severity]
    description: ClassVar[str]
    #: AST node classes this rule wants to see (empty = AST-blind).
    node_types: ClassVar[tuple[type, ...]] = ()

    def check(
        self, node: js_ast.Node, context: LintContext
    ) -> Iterator[tuple[str, Span]]:
        return iter(())

    def check_tokens(
        self, tokens: Sequence[Token], context: LintContext
    ) -> Iterator[tuple[str, Span]]:
        return iter(())


#: id -> rule class, in registration order.
_REGISTRY: dict[str, type[Rule]] = {}


def register(cls: type[Rule]) -> type[Rule]:
    """Class decorator adding a rule to the registry (ids must be
    unique; re-registering an id is a programming error)."""
    if cls.id in _REGISTRY:
        raise ValueError(f"duplicate lint rule id: {cls.id}")
    _REGISTRY[cls.id] = cls
    return cls


def all_rules() -> list[Rule]:
    """Fresh instances of every registered rule, ordered by id."""
    import repro.lint.rules  # noqa: F401  (registration side effect)

    return [_REGISTRY[rule_id]() for rule_id in sorted(_REGISTRY)]


def rule_table() -> list[tuple[str, str, str, str]]:
    """(id, name, severity, description) for every rule — registered
    ones plus the engine's frontend pseudo-rules. Powers ``addon-sig
    lint --rules`` and the README rule table."""
    rows = [
        (rule.id, rule.name, rule.severity.value, rule.description)
        for rule in all_rules()
    ]
    rows.append(
        (*LEX_ERROR_RULE[:2], LEX_ERROR_RULE[2].value,
         "the file could not be tokenized; nothing else can run")
    )
    rows.append(
        (*PARSE_SKIP_RULE[:2], PARSE_SKIP_RULE[2].value,
         "a top-level statement was dropped by recovery-mode parsing")
    )
    from repro.lint.webext import WEB_RULES

    rows.extend(
        (rule_id, slug, severity.value, description)
        for rule_id, slug, severity, description in WEB_RULES
    )
    return sorted(rows)


# ----------------------------------------------------------------------
# Running rules

def _skip_finding(skip: SkippedStatement, filename: str) -> Finding:
    rule_id, slug, severity = PARSE_SKIP_RULE
    span = skip.span
    if span is None:  # pragma: no cover - recovery always records spans
        span = Span.at(skip.position or SourcePosition(0, 0))
    return Finding(
        rule=rule_id,
        name=slug,
        severity=severity,
        message=f"statement skipped by recovery: {skip.message}",
        span=span,
        file=filename,
    )


def lint_source(
    source: str,
    filename: str = "<addon>",
    rules: Iterable[Rule] | None = None,
) -> list[Finding]:
    """Lint one addon source; returns findings in stable order.

    Never raises for bad addon code: a lex error becomes the single
    ``R000`` finding, unparseable top-level statements become ``R001``
    findings, and every rule still runs over the statements that did
    parse.
    """
    context = LintContext(filename=filename, source=source)
    try:
        tokens = tokenize(source)
    except FrontendError as error:
        rule_id, slug, severity = LEX_ERROR_RULE
        span = Span.at(error.position or SourcePosition(0, 0))
        return [
            Finding(
                rule=rule_id, name=slug, severity=severity,
                message=error.message, span=span, file=filename,
            )
        ]

    program, skipped = _with_recursion_room(
        tokens, filename, Parser.parse_program_with_recovery
    )
    findings = [_skip_finding(skip, filename) for skip in skipped]

    active = list(rules) if rules is not None else all_rules()
    for rule in active:
        for message, span in rule.check_tokens(tokens, context):
            findings.append(
                Finding(
                    rule=rule.id, name=rule.name, severity=rule.severity,
                    message=message, span=span, file=filename,
                )
            )
    ast_rules = [rule for rule in active if rule.node_types]
    for node in program.walk():
        for rule in ast_rules:
            if isinstance(node, rule.node_types):
                for message, span in rule.check(node, context):
                    findings.append(
                        Finding(
                            rule=rule.id, name=rule.name,
                            severity=rule.severity, message=message,
                            span=span, file=filename,
                        )
                    )
    return sorted(findings, key=Finding.sort_key)


def file_surface(source: str) -> dict | None:
    """The per-file syntactic-surface summary for the JSON report.

    Builds the surface the prefilter decides on (a lint file is its own
    whole program), so the section shows the *residual* dynamic sites —
    the ones that actually disqualify the prefilter — next to the count
    of computed sites resolution bounded. ``None`` when the file cannot
    be tokenized (the ``R000`` finding covers it).
    """
    from repro.lint.surface import resolved_surface

    try:
        tokens = tokenize(source)
    except FrontendError:
        return None
    program, skipped = _with_recursion_room(
        tokens, "<addon>", Parser.parse_program_with_recovery
    )
    surface = resolved_surface([program], degraded=bool(skipped))
    return {
        "dynamic_code": surface.dynamic_code,
        "dynamic_code_sites": [
            span.to_json() for span in surface.dynamic_code_sites
        ],
        "dynamic_properties": surface.dynamic_properties,
        "dynamic_property_sites": [
            span.to_json() for span in surface.dynamic_property_sites
        ],
        "resolved_sites": surface.resolved_sites,
        "residual_dynamic_sites": len(surface.dynamic_property_sites),
    }


def expand_paths(paths: Iterable[str | Path]) -> list[Path]:
    """Resolve files/directories to the ``.js`` files under them,
    sorted for deterministic reports."""
    files: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.js")))
        else:
            files.append(path)
    return files


def lint_paths(paths: Iterable[str | Path]) -> LintReport:
    """Lint files and/or directories (directories: every ``*.js`` under
    them) into one report.

    A directory containing a ``manifest.json`` is treated as a
    WebExtension: besides the per-file rules, the whole-bundle WEB rules
    of :mod:`repro.lint.webext` run over it (manifest over-permission,
    unguarded message handlers, wildcard match patterns).
    """
    report = LintReport()
    for raw in paths:
        root = Path(raw)
        if root.is_dir() and (root / "manifest.json").is_file():
            from repro.lint.webext import lint_extension_dir

            report.files.append(str(root / "manifest.json"))
            report.findings.extend(lint_extension_dir(root))
    for path in expand_paths(paths):
        name = str(path)
        source = path.read_text(encoding="utf-8")
        report.files.append(name)
        report.findings.extend(lint_source(source, filename=name))
        surface = file_surface(source)
        if surface is not None:
            report.surfaces[name] = surface
    return report


def lint_corpus() -> LintReport:
    """Lint the built-in benchmark corpus (named by addon)."""
    from repro.addons import CORPUS

    report = LintReport()
    for spec in CORPUS:
        source = spec.source()
        report.files.append(spec.name)
        report.findings.extend(lint_source(source, filename=spec.name))
        surface = file_surface(source)
        if surface is not None:
            report.surfaces[spec.name] = surface
    return report
