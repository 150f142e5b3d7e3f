"""Structured lint findings: the rule engine's output vocabulary.

A :class:`Finding` is one diagnostic anchored to a source span — the
same :class:`repro.js.errors.Span` format recovery-mode parsing records
for skipped statements, so triage tooling sees one span grammar
everywhere. A :class:`LintReport` is the per-run collection, renderable
as human text or as stable JSON (the ``LINT_findings.json`` CI
artifact).
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field

from repro.js.errors import Span


class Severity(enum.Enum):
    """How alarming a finding is. The values are stable wire strings."""

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"

    def __str__(self) -> str:
        return self.value


#: Rendering/sort order: most severe first.
_SEVERITY_RANK = {Severity.ERROR: 0, Severity.WARNING: 1, Severity.INFO: 2}


@dataclass(frozen=True)
class Finding:
    """One lint diagnostic, anchored to a source span."""

    #: Stable rule id, e.g. ``"JS001"`` (``"R001"`` for frontend skips).
    rule: str
    #: Human-memorable rule slug, e.g. ``"eval-call"``.
    name: str
    severity: Severity
    message: str
    span: Span
    file: str = "<addon>"

    def render(self) -> str:
        return (
            f"{self.file}:{self.span}: {self.severity}"
            f" [{self.rule}/{self.name}] {self.message}"
        )

    def sort_key(self) -> tuple:
        return (
            self.file,
            self.span.start.line,
            self.span.start.column,
            self.rule,
            self.message,
        )

    def to_json(self) -> dict:
        return {
            "rule": self.rule,
            "name": self.name,
            "severity": self.severity.value,
            "message": self.message,
            "span": self.span.to_json(),
            "file": self.file,
        }


#: Schema tag stamped on the JSON report (bump on shape changes).
#: v2: per-file ``surfaces`` section (dynamic-code / dynamic-property
#: site spans and resolved-site counts from key resolution).
SCHEMA = "addon-sig/lint/v2"


@dataclass
class LintReport:
    """All findings of one lint run, in a stable order."""

    findings: list[Finding] = field(default_factory=list)
    #: The files linted (relative paths as given), in lint order.
    files: list[str] = field(default_factory=list)
    #: file -> syntactic-surface summary (dynamic sites with spans,
    #: resolved-site counts); absent for files that failed to tokenize.
    surfaces: dict[str, dict] = field(default_factory=dict)

    def sorted_findings(self) -> list[Finding]:
        return sorted(self.findings, key=Finding.sort_key)

    def count(self, severity: Severity) -> int:
        return sum(1 for f in self.findings if f.severity is severity)

    @property
    def has_errors(self) -> bool:
        return any(f.severity is Severity.ERROR for f in self.findings)

    def summary(self) -> dict[str, int]:
        return {
            severity.value: self.count(severity)
            for severity in sorted(Severity, key=_SEVERITY_RANK.get)
        }

    def render(self) -> str:
        lines = [finding.render() for finding in self.sorted_findings()]
        counts = ", ".join(
            f"{count} {name}" for name, count in self.summary().items()
        )
        lines.append(
            f"{len(self.findings)} finding(s) in {len(self.files)} file(s)"
            f" ({counts})"
        )
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "schema": SCHEMA,
            "files": list(self.files),
            "summary": self.summary(),
            "findings": [f.to_json() for f in self.sorted_findings()],
            "surfaces": {
                name: dict(surface)
                for name, surface in sorted(self.surfaces.items())
            },
        }

    def render_json(self) -> str:
        return json.dumps(self.to_json(), indent=2, ensure_ascii=False)
