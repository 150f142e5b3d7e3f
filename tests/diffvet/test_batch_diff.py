"""Differential vetting through the batch engine.

The engine-level guarantees: the fast lane never changes a batch result
(bit-identity with the incremental switch off), baselines resolve from
a :class:`VersionStore` or a plain mapping, stores advance their chains
with clean outcomes only, and fast-lane outcomes cache and replay like
any other outcome.
"""

from pathlib import Path

import pytest

from repro import batch
from repro.batch import VetTask, summarize, vet_many
from repro.diffvet import VersionStore, discover_pairs

pytestmark = pytest.mark.diffvet

REPO = Path(__file__).resolve().parents[2]
VERSIONS = REPO / "examples" / "addons" / "versions"
PAIRS = discover_pairs(VERSIONS)


def _baseline_outcomes():
    return vet_many(
        [
            VetTask(name=pair.name, source=pair.old_source(), recover=True)
            for pair in PAIRS
        ],
        use_cache=False, workers=1,
    )


def _update_tasks(baselines, incremental):
    return [
        VetTask(
            name=pair.name,
            source=pair.new_source(),
            recover=True,
            baseline_source=pair.old_source(),
            baseline_signature_text=outcome.signature_text,
            incremental=incremental,
        )
        for pair, outcome in zip(PAIRS, baselines)
    ]


class TestFastLaneIdentity:
    """Acceptance: fast lane on == fast lane off, for every pair."""

    @pytest.fixture(scope="class")
    def baselines(self):
        return _baseline_outcomes()

    def test_signatures_bit_identical_on_vs_off(self, baselines):
        fast = vet_many(
            _update_tasks(baselines, True), use_cache=False, workers=1
        )
        full = vet_many(
            _update_tasks(baselines, False), use_cache=False, workers=1
        )
        for on, off in zip(fast, full):
            assert on.ok and off.ok
            assert on.signature_text == off.signature_text
            assert on.diff_verdict is not None and off.diff_verdict is not None

    def test_fast_lane_actually_fires(self, baselines):
        fast = vet_many(
            _update_tasks(baselines, True), use_cache=False, workers=1
        )
        by_name = {outcome.name: outcome for outcome in fast}
        assert by_name["big_dashboard"].incremental
        assert by_name["big_dashboard"].diff_verdict == "approve-fast"
        # A fast-laned outcome still reports a nonzero p1 (the
        # certificate check) and a real AST size.
        assert by_name["big_dashboard"].ast_nodes > 0
        assert by_name["big_dashboard"].timing_samples == 1

    def test_cost_gate_skips_certification_on_small_updates(
        self, baselines, monkeypatch
    ):
        # ui_theme's certificate would hold, but the addon is far below
        # the cost gate: parsing it twice to certify costs more than
        # simply re-analyzing it, so the engine skips certification and
        # records the skip.
        fast = vet_many(
            _update_tasks(baselines, True), use_cache=False, workers=1
        )
        by_name = {outcome.name: outcome for outcome in fast}
        small = by_name["ui_theme"]
        assert not small.incremental
        assert small.counters.get("certification_skipped") == 1
        assert by_name["big_dashboard"].counters.get(
            "certification_attempted"
        ) == 1
        # Gate off: the certificate fires even on the tiny update.
        monkeypatch.setattr(batch, "FAST_LANE_MIN_SOURCE_CHARS", 0)
        ungated = vet_many(
            _update_tasks(baselines, True), use_cache=False, workers=1
        )
        assert {o.name: o for o in ungated}["ui_theme"].incremental

    def test_bundle_updates_skip_certification(self, monkeypatch):
        # The certificate is defined over single JS files: a bundle
        # update skips it, as diff_vet refuses it, at any size.
        from repro.diffvet import incremental
        from repro.webext.loader import load_source

        def certify(*args, **kwargs):
            raise AssertionError("a bundle update reached the certificate")

        monkeypatch.setattr(incremental, "certify_unchanged", certify)
        monkeypatch.setattr(batch, "FAST_LANE_MIN_SOURCE_CHARS", 0)
        extensions = REPO / "examples" / "extensions"
        old = load_source(extensions / "cookie_exfil_guarded")
        [baseline] = vet_many([VetTask(name="x", source=old)], use_cache=False, workers=1)
        [update] = vet_many(
            [
                VetTask(
                    name="x",
                    source=load_source(extensions / "cookie_exfil"),
                    baseline_source=old,
                    baseline_signature_text=baseline.signature_text,
                )
            ],
            use_cache=False, workers=1,
        )
        assert update.ok and not update.incremental
        assert update.counters.get("certification_skipped") == 1
        assert "certification_attempted" not in update.counters
        assert update.diff_verdict == "re-review"

    def test_incremental_off_never_fast_lanes(self, baselines):
        full = vet_many(
            _update_tasks(baselines, False), use_cache=False, workers=1
        )
        assert not any(outcome.incremental for outcome in full)

    def test_re_reviews_carry_changes_and_witnesses(self, baselines):
        fast = vet_many(
            _update_tasks(baselines, True), use_cache=False, workers=1
        )
        by_name = {outcome.name: outcome for outcome in fast}
        widened = by_name["telemetry_beacon"]
        assert widened.diff_verdict == "re-review"
        assert any(
            change["kind"] == "widened" for change in widened.diff_changes
        )
        reversed_sync = vet_many(
            [
                VetTask(
                    name="sync_report_reversed",
                    source=next(
                        p for p in PAIRS if p.name == "sync_report"
                    ).old_source(),
                    baseline_source=next(
                        p for p in PAIRS if p.name == "sync_report"
                    ).new_source(),
                    baseline_signature_text=by_name["sync_report"].signature_text,
                )
            ],
            use_cache=False, workers=1,
        )[0]
        # Old direction gains the cookie flow: a witness path comes along.
        assert reversed_sync.diff_verdict == "re-review"
        assert reversed_sync.diff_witnesses

    def test_summarize_counts_incremental_and_diff_verdicts(self, baselines):
        fast = vet_many(
            _update_tasks(baselines, True), use_cache=False, workers=1
        )
        summary = summarize(fast)
        assert summary["incremental"] == sum(1 for o in fast if o.incremental)
        assert summary["diff_verdicts"]["approve-fast"] >= 1
        assert summary["diff_verdicts"]["re-review"] >= 1
        assert summary["certifications"]["attempted"] >= 1
        assert summary["certifications"]["skipped"] >= 1


class TestBaselineResolution:
    def test_mapping_baseline_resolves_by_name(self, tmp_path, monkeypatch):
        old = "var quiet = 1;"
        new = "// churn\nvar quiet = 1;"
        # Gate off: the fixture is tiny by design; the test exercises
        # baseline resolution, not the cost gate.
        monkeypatch.setattr(batch, "FAST_LANE_MIN_SOURCE_CHARS", 0)
        [outcome] = vet_many(
            [VetTask(name="addon", source=new)],
            baseline={"addon": (old, "")},
            use_cache=False, workers=1,
        )
        assert outcome.incremental
        assert outcome.diff_verdict == "approve-fast"

    def test_unmatched_names_vet_cold(self):
        [outcome] = vet_many(
            [VetTask(name="addon", source="var a = 1;")],
            baseline={"other": ("var b = 2;", "")},
            use_cache=False, workers=1,
        )
        assert outcome.ok
        assert not outcome.incremental
        assert outcome.diff_verdict is None

    def test_store_supplies_baselines_and_advances_chains(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(batch, "FAST_LANE_MIN_SOURCE_CHARS", 0)
        store = VersionStore(tmp_path)
        old = "var quiet = 1;"
        new = "var quiet = 1;\nvar island_probe = { probe_key: 2 };"
        [first] = vet_many(
            [VetTask(name="addon", source=old)],
            store=store, use_cache=False, workers=1,
        )
        assert not first.incremental  # no baseline yet
        assert len(store.chain("addon")) == 1
        [second] = vet_many(
            [VetTask(name="addon", source=new)],
            store=store, use_cache=False, workers=1,
        )
        assert second.incremental
        assert second.diff_verdict == "approve-fast"
        chain = store.chain("addon")
        assert [record.version for record in chain] == [1, 2]
        assert chain[-1].diff_verdict == "approve-fast"

    def test_replaying_a_sweep_does_not_grow_chains(self, tmp_path):
        store = VersionStore(tmp_path)
        task = VetTask(name="addon", source="var quiet = 1;")
        vet_many([task], store=store, use_cache=False, workers=1)
        vet_many([task], store=store, use_cache=False, workers=1)
        assert len(store.chain("addon")) == 1

    def test_degraded_outcomes_never_recorded(self, tmp_path):
        store = VersionStore(tmp_path)
        broken = "var ok = 1;\nwith (ok) { var x = 2; }"
        [outcome] = vet_many(
            [VetTask(name="addon", source=broken, recover=True)],
            store=store, use_cache=False, workers=1,
        )
        assert outcome.ok and outcome.degraded
        assert store.chain("addon") == []


class TestCaching:
    def test_fast_lane_outcome_caches_and_replays(self, tmp_path, monkeypatch):
        monkeypatch.setattr(batch, "FAST_LANE_MIN_SOURCE_CHARS", 0)
        old = "var quiet = 1;"
        task = VetTask(
            name="addon", source="// churn\n" + old,
            baseline_source=old, baseline_signature_text="",
        )
        [first] = vet_many([task], cache_dir=tmp_path, workers=1)
        assert first.incremental and not first.cached
        [replay] = vet_many([task], cache_dir=tmp_path, workers=1)
        assert replay.cached
        assert replay.incremental
        assert replay.diff_verdict == "approve-fast"
        assert replay.signature_text == first.signature_text

    def test_baseline_is_part_of_the_cache_key(self, tmp_path):
        source = "var quiet = 1;"
        plain = VetTask(name="addon", source=source)
        update = VetTask(
            name="addon", source=source,
            baseline_source="var older = 0;", baseline_signature_text="",
        )
        [cold] = vet_many([plain], cache_dir=tmp_path, workers=1)
        assert not cold.cached
        [differential] = vet_many([update], cache_dir=tmp_path, workers=1)
        # A differential task must never be served the cold task's
        # cached outcome (it would lack the diff verdict).
        assert not differential.cached
        assert differential.diff_verdict is not None
