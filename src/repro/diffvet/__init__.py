"""Differential vetting: incremental re-analysis and signature diffing
for addon *updates*.

The paper's workflow checks a signature at first submission and
re-checks it on every update; at marketplace scale, updates dominate.
This package makes "what changed since the approved version?" a
first-class, cheap query:

- :mod:`repro.diffvet.diff` — classify every signature-entry change
  (``unchanged`` / ``narrowed`` / ``widened`` / ``new-flow`` /
  ``removed-flow``) under the signature lattice order, and route the
  update (``approve`` / ``re-review``);
- :mod:`repro.diffvet.incremental` — the change-surface certificate:
  prove ``signature(new) == signature(old)`` syntactically and skip the
  interpreter entirely (refusing, never guessing, on anything dynamic,
  degraded, or entangled);
- :mod:`repro.diffvet.store` — per-addon version chains layered on the
  vetting cache, supplying baselines to the batch engine;
- :mod:`repro.diffvet.report` — the deterministic versioned-corpus diff
  report (``DIFF_report.json``) CI regenerates and the golden tests pin.

Entry points: :func:`repro.api.diff_vet` (one update), ``addon-sig diff
old.js new.js`` (CLI), and ``vet_corpus(..., baseline=...)`` /
``vet_many(..., store=...)`` (batch).

The re-exports resolve on first access (:mod:`repro.lazy`), so the
vetting daemon imports :mod:`repro.diffvet.store` without loading the
analyzer behind :mod:`repro.diffvet.incremental`.
"""

from repro.lazy import lazy_exports

_EXPORTS = {
    "CHANGE_KINDS": "repro.diffvet.diff",
    "EntryChange": "repro.diffvet.diff",
    "SignatureDiff": "repro.diffvet.diff",
    "diff_signatures": "repro.diffvet.diff",
    "ChangeCertificate": "repro.diffvet.incremental",
    "ChangeSurface": "repro.diffvet.incremental",
    "certify_unchanged": "repro.diffvet.incremental",
    "change_surface": "repro.diffvet.incremental",
    "VersionPair": "repro.diffvet.report",
    "diff_report": "repro.diffvet.report",
    "discover_pairs": "repro.diffvet.report",
    "render_report": "repro.diffvet.report",
    "VersionRecord": "repro.diffvet.store",
    "VersionStore": "repro.diffvet.store",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
