"""The WebExtensions front end: bundle text -> :class:`~repro.api.ProgramSet`.

:func:`repro.api.vet` runs one pipeline for every input; a bundle swaps
in the multi-file parse and lowering, the
:class:`repro.browser.chrome.WebExtEnvironment`, the
:func:`repro.browser.chrome.webext_spec` default, and one extra
inference step: the sender-guard downgrade of :mod:`repro.webext.guards`,
applied *before* salvage widening (a degraded run's ⊤ entries must stay
⊤). The counters additionally record the cross-component shape of the
run: ``components``, ``channels`` (distinct channels any loop
dispatched), and ``sender_guards``.

The prefilter sees every parsed component file at once, so its key
resolution is whole-bundle (a content script may hold the only write to
a key a background script reads).
"""

from __future__ import annotations

from repro.analysis import AnalysisResult
from repro.api import FrontEnd, ProgramSet, recovery_degradation
from repro.browser.chrome import WebExtEnvironment, webext_spec
from repro.js import node_count
from repro.pdg import PDG
from repro.perf import Counters
from repro.signatures import InferenceDetail
from repro.webext.guards import downgrade_guarded, find_sender_guards
from repro.webext.loader import bundle_from_text
from repro.webext.lowering import lower_parsed_extension, parse_extension


def read_bundle(source: str, recover: bool) -> ProgramSet:
    """Parse every component file of a serialized bundle."""
    parsed = parse_extension(bundle_from_text(source), recover=recover)
    return ProgramSet(
        programs=parsed.parsed,
        degradations=[
            recovery_degradation(skip, f" in {path}") for path, skip in parsed.skipped
        ],
        ast_nodes=sum(node_count(program) for program in parsed.parsed),
        lower=lambda: lower_parsed_extension(parsed).program,
        environment=WebExtEnvironment,
        post_inference=_downgrade_sender_guarded,
        counters={"components": len(parsed.component_files)},
    )


def _downgrade_sender_guarded(
    result: AnalysisResult, pdg: PDG, detail: InferenceDetail, counters: Counters
) -> InferenceDetail:
    guards = find_sender_guards(result, pdg)
    counters["channels"] = len(
        {channel for channels in result.loop_channels.values() for channel in channels}
    )
    counters["sender_guards"] = len(guards.branches)
    return downgrade_guarded(detail, guards)


#: A serialized extension bundle. The change-surface certificate is
#: defined over single JS files, so bundle updates never take the fast
#: lane.
BUNDLE = FrontEnd(
    read=read_bundle,
    default_spec=webext_spec,
    certificate_refusal="refused:webext-bundle",
)
