"""Lint & triage: rule engine, relevance prefilter, and the lattice-law
sanitizer.

Public surface:

- :func:`lint_source` / :func:`lint_paths` / :func:`lint_corpus` — run
  the rule engine; :class:`Finding` / :class:`LintReport` are the
  results.
- :func:`decide_relevance` — the sound prefilter the batch engine uses
  to skip spec-irrelevant addons.
- :func:`run_selfcheck` — the lattice-law sanitizer behind
  ``addon-sig selfcheck``.

Two flow-insensitive whole-program analyses live here with their only
users (DESIGN.md §5j): :mod:`repro.lint.keys`, the computed-key
resolver the prefilter asks when computed sites alone would refuse the
fast lane, and :mod:`repro.lint.callgraph`, the Andersen-style call
graph behind the rules CG001/CG002.
"""

from repro.lint.engine import (
    LintContext,
    Rule,
    all_rules,
    lint_corpus,
    lint_paths,
    lint_source,
    register,
    rule_table,
)
from repro.lint.findings import Finding, LintReport, Severity
from repro.lint.selfcheck import DomainCheck, render_selfcheck, run_selfcheck
from repro.lint.surface import (
    PrefilterDecision,
    Surface,
    addon_surface,
    decide_relevance,
    spec_surface,
)

__all__ = [
    "DomainCheck",
    "Finding",
    "LintContext",
    "LintReport",
    "PrefilterDecision",
    "Rule",
    "Severity",
    "Surface",
    "addon_surface",
    "all_rules",
    "decide_relevance",
    "lint_corpus",
    "lint_paths",
    "lint_source",
    "register",
    "render_selfcheck",
    "rule_table",
    "run_selfcheck",
    "spec_surface",
]
