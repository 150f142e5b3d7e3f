"""Computed-key resolution soundness, proven corpus-by-corpus.

The resolver only ever runs inside the relevance prefilter, so its arms
are the prefilter on (resolving computed keys where they alone would
refuse the fast lane) and off (the full analysis). The claim: for every
addon — curated benchmark corpus, examples corpus under recovery,
WebExtension bundles, generated fleet corpus — both produce
bit-identical rendered signatures. Budget trips are the one sanctioned
divergence: the two arms need not trip at the same step, so the
degraded (⊤-widened) arm must *subsume* the exact one rather than equal
it.
"""

from pathlib import Path

import pytest

from repro.addons import CORPUS
from repro.api import vet
from repro.faults import Budget
from repro.signatures import subsumes

REPO = Path(__file__).resolve().parents[2]
EXAMPLE_FILES = sorted((REPO / "examples" / "addons").glob("*.js"))
EXTENSION_DIRS = sorted(
    child
    for child in (REPO / "examples" / "extensions").iterdir()
    if child.is_dir() and (child / "manifest.json").exists()
)

pytestmark = pytest.mark.preanalysis


def _identical(source: str, **kwargs) -> None:
    on = vet(source, prefilter=True, **kwargs)
    off = vet(source, prefilter=False, **kwargs)
    assert on.signature.render() == off.signature.render()
    assert on.degraded == off.degraded


class TestBitIdentity:
    @pytest.mark.parametrize("spec", CORPUS, ids=lambda s: s.name)
    def test_curated_corpus(self, spec):
        _identical(spec.source())

    @pytest.mark.parametrize("path", EXAMPLE_FILES, ids=lambda p: p.name)
    def test_examples_under_recovery(self, path):
        _identical(path.read_text(encoding="utf-8"), recover=True)

    @pytest.mark.parametrize("root", EXTENSION_DIRS, ids=lambda p: p.name)
    def test_webext_bundles(self, root):
        from repro.webext.loader import load_source

        _identical(load_source(root))

    def test_shortcut_palette_resolves(self):
        source = (
            REPO / "examples" / "addons" / "shortcut_palette.js"
        ).read_text(encoding="utf-8")
        report = vet(source, recover=True, prefilter=True)
        assert report.counters["resolved_sites"] == 1
        _identical(source, recover=True)

    @pytest.mark.slow
    def test_generated_corpus(self):
        from repro.corpusgen import generate_corpus

        for addon in generate_corpus(20, seed=13):
            _identical(addon.source)


class TestBudgetTrips:
    """A tiny budget may trip in one arm only; soundness there is
    subsumption, not equality."""

    def test_tiny_budget_arms_subsume(self):
        source = (REPO / "examples" / "addons" / "telemetry_beacon.js").read_text(
            encoding="utf-8"
        )
        exact = vet(source).signature
        for max_steps in (2, 5, 20, 100):
            on = vet(source, prefilter=True, budget=Budget(max_steps=max_steps))
            off = vet(source, prefilter=False, budget=Budget(max_steps=max_steps))
            for arm in (on, off):
                assert subsumes(arm.signature, exact), max_steps
