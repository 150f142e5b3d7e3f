"""The batch vetting engine: parallelism, caching, and isolation.

The load-bearing guarantee is *bit-identity*: a signature inferred by a
pooled worker process, or replayed from the on-disk cache, must render
exactly as the one from a plain sequential :func:`repro.api.vet` call.
``Signature.render()`` is sorted, so string equality is a faithful
cross-process comparison.
"""

import json

import pytest

from repro import batch
from repro.addons import CORPUS
from repro.api import vet
from repro.batch import VetOutcome, VetTask, cache_key, vet_corpus, vet_many
from repro.signatures import parse_signature


def _sequential_renderings():
    rendered = {}
    for spec in CORPUS:
        manual = parse_signature(spec.manual_signature_text)
        extras = (
            frozenset(parse_signature(spec.real_extras_text).entries)
            if spec.real_extras_text
            else frozenset()
        )
        report = vet(spec.source(), manual=manual, real_extras=extras)
        assert report.comparison is not None
        rendered[spec.name] = (
            report.signature.render(),
            report.comparison.verdict.value,
        )
    return rendered


class TestCorpusIdentity:
    """Acceptance: parallel and cached vetting are bit-identical to
    sequential vetting on all ten corpus addons."""

    @pytest.fixture(scope="class")
    def sequential(self):
        return _sequential_renderings()

    def test_parallel_matches_sequential(self, sequential):
        outcomes = vet_corpus(runs=1, workers=2, use_cache=False)
        assert len(outcomes) == len(CORPUS)
        for outcome in outcomes:
            assert outcome.ok, outcome.error
            signature, verdict = sequential[outcome.name]
            assert outcome.signature_text == signature
            assert outcome.verdict == verdict

    def test_cache_replay_matches_sequential(self, sequential, tmp_path):
        first = vet_corpus(runs=1, workers=1, cache_dir=tmp_path)
        assert all(not outcome.cached for outcome in first)
        replay = vet_corpus(runs=1, workers=1, cache_dir=tmp_path)
        assert all(outcome.cached for outcome in replay)
        for outcome in replay:
            signature, verdict = sequential[outcome.name]
            assert outcome.signature_text == signature
            assert outcome.verdict == verdict


class TestIsolation:
    def test_broken_addon_does_not_kill_the_batch(self, tmp_path):
        outcomes = vet_many(
            ["var ok = 1;", "var broken = ;;;(", "send(2);"],
            cache_dir=tmp_path,
        )
        assert [outcome.ok for outcome in outcomes] == [True, False, True]
        assert "ParseError" in outcomes[1].error

    def test_broken_addon_isolated_in_pool(self, tmp_path):
        outcomes = vet_many(
            ["var ok = 1;", "var broken = ;;;("],
            workers=2, cache_dir=tmp_path,
        )
        assert [outcome.ok for outcome in outcomes] == [True, False]

    def test_timeout_degrades_to_sound_outcome(self, tmp_path):
        source = CORPUS[0].source()
        outcomes = vet_many(
            [VetTask(name="slow", source=source, runs=5)],
            workers=2, timeout=0.001, use_cache=False,
        )
        [outcome] = outcomes
        # The cooperative deadline normally catches it (degraded, sound
        # signature); the pool-level hard backstop is the fallback.
        if outcome.ok:
            assert outcome.degraded
            assert "budget-time" in outcome.degradation_kinds
        else:
            assert outcome.failure == "budget-time"

    def test_timeout_honored_in_process(self):
        source = CORPUS[0].source()
        [outcome] = vet_many(
            [VetTask(name="slow", source=source, runs=1)],
            workers=1, timeout=0.001, use_cache=False,
        )
        assert outcome.ok and outcome.degraded
        assert "budget-time" in outcome.degradation_kinds

    def test_errors_are_not_cached(self, tmp_path):
        vet_many(["var broken = ;;;("], cache_dir=tmp_path)
        assert list(tmp_path.glob("*.json")) == []


class TestCache:
    def test_hit_skips_recompute(self, tmp_path, monkeypatch):
        [first] = vet_many(["var x = 1;"], cache_dir=tmp_path)
        assert first.ok and not first.cached

        def explode(task, spec):
            raise AssertionError("cache hit must not re-execute the pipeline")

        monkeypatch.setattr(batch, "_execute_task", explode)
        [second] = vet_many(["var x = 1;"], cache_dir=tmp_path)
        assert second.cached
        assert second.signature_text == first.signature_text

    def test_key_covers_source_k_and_spec(self):
        base = VetTask(name="a", source="var x = 1;")
        assert cache_key(base, None) == cache_key(base, None)
        other_source = VetTask(name="a", source="var x = 2;")
        other_k = VetTask(name="a", source="var x = 1;", k=2)
        from repro.browser import mozilla_spec

        keys = {
            cache_key(base, None),
            cache_key(other_source, None),
            cache_key(other_k, None),
            cache_key(base, mozilla_spec()),
        }
        assert len(keys) == 4  # every dimension changes the key

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        [first] = vet_many(["var x = 1;"], cache_dir=tmp_path)
        [entry] = tmp_path.glob("*.json")
        entry.write_text("{not json", encoding="utf-8")
        [second] = vet_many(["var x = 1;"], cache_dir=tmp_path)
        assert not second.cached
        assert second.signature_text == first.signature_text

    def test_outcome_round_trips_through_json(self):
        outcome = VetOutcome(
            name="a", ok=True, signature_text="sig", verdict="pass",
            times={"p1": 0.1, "p2": 0.2, "p3": 0.3},
            counters={"fixpoint_steps": 7}, ast_nodes=42,
        )
        replayed = VetOutcome.from_json(
            json.loads(json.dumps(outcome.to_json())), cached=True
        )
        assert replayed.cached
        replayed.cached = False
        assert replayed == outcome


class TestTransientCounters:
    """Lookup-layer events (quarantine, pool retries) belong to one
    lookup, never to the persisted result — the regression here was a
    quarantine counter annotated onto the outcome *before* it was
    cached, so every later replay of that entry re-reported the
    quarantine."""

    def test_quarantine_counter_not_persisted_or_double_counted(self, tmp_path):
        task = VetTask(name="addon", source="var x = 1;")
        path = tmp_path / f"{cache_key(task, None)}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("{not json", encoding="utf-8")

        [recomputed] = vet_many([task], cache_dir=tmp_path)
        assert recomputed.counters.get("cache_quarantined") == 1
        # The freshly cached entry must be pristine: no transient
        # counters on disk.
        stored = json.loads(path.read_text(encoding="utf-8"))
        assert "cache_quarantined" not in stored["counters"]
        # And replays must not re-report an event that never recurred.
        [replay] = vet_many([task], cache_dir=tmp_path)
        assert replay.cached
        assert "cache_quarantined" not in replay.counters
        [again] = vet_many([task], cache_dir=tmp_path)
        assert "cache_quarantined" not in again.counters

    def test_annotation_happens_on_a_copy(self):
        outcome = VetOutcome(name="a", ok=True, counters={"steps": 3})
        bumped = batch._bump_counter(outcome, "cache_quarantined")
        assert bumped.counters == {"steps": 3, "cache_quarantined": 1}
        assert outcome.counters == {"steps": 3}  # the original is pristine

    def test_cache_store_strips_every_transient_counter(self, tmp_path):
        outcome = VetOutcome(
            name="a", ok=True,
            counters={"steps": 3, "cache_quarantined": 2, "pool_retries": 1},
        )
        batch._cache_store(batch._open_cache(tmp_path, None), "key", outcome)
        stored = json.loads((tmp_path / "key.json").read_text(encoding="utf-8"))
        assert stored["counters"] == {"steps": 3}
        # Stripping operates on a projection, never the live outcome.
        assert outcome.counters == {
            "steps": 3, "cache_quarantined": 2, "pool_retries": 1,
        }


def _outcome_strategy():
    """Arbitrary well-formed outcomes, biased toward the degraded and
    differential shapes whose serialization was audited for this pin."""
    from hypothesis import strategies as st

    text = st.text(max_size=20)
    counter_names = st.sampled_from(
        ["fixpoint_steps", "joins", "cache_quarantined", "pool_retries",
         "incremental", "diff_changed_statements"]
    )
    degradation = st.fixed_dictionaries(
        {"kind": st.sampled_from(["budget-steps", "budget-time", "parse-skip"]),
         "detail": text}
    )
    change = st.fixed_dictionaries(
        {"kind": st.sampled_from(["unchanged", "narrowed", "widened",
                                  "new-flow", "removed-flow"]),
         "old": st.none() | text, "new": st.none() | text}
    )
    times = st.none() | st.fixed_dictionaries(
        {"p1": st.floats(0, 10), "p2": st.floats(0, 10),
         "p3": st.floats(0, 10)}
    )
    return st.builds(
        VetOutcome,
        name=text,
        ok=st.booleans(),
        error=st.none() | text,
        failure=st.none() | st.sampled_from(["parse", "budget-time"]),
        degraded=st.booleans(),
        degradations=st.lists(degradation, max_size=3),
        signature_text=text,
        verdict=st.none() | st.sampled_from(["pass", "fail", "leak"]),
        extra_entries=st.lists(text, max_size=3),
        missing_entries=st.lists(text, max_size=3),
        ast_nodes=st.integers(0, 10_000),
        times=times,
        counters=st.dictionaries(counter_names, st.integers(0, 99), max_size=4),
        timing_samples=st.integers(0, 11),
        prefiltered=st.booleans(),
        incremental=st.booleans(),
        diff_verdict=st.none() | st.sampled_from(
            ["approve-fast", "approve", "re-review"]
        ),
        diff_changes=st.lists(change, max_size=3),
        diff_witnesses=st.lists(text, max_size=2),
    )


class TestOutcomeRoundTripProperty:
    """``from_json(to_json(o)) == o`` for *every* outcome shape —
    including degraded, failed, and differential ones — after a real
    trip through the JSON codec (what the on-disk cache does)."""

    def test_round_trip_is_the_identity(self):
        from hypothesis import given, settings

        @settings(max_examples=120, deadline=None)
        @given(outcome=_outcome_strategy())
        def check(outcome):
            replayed = VetOutcome.from_json(
                json.loads(json.dumps(outcome.to_json())), cached=True
            )
            assert replayed.cached
            replayed.cached = False
            assert replayed == outcome

        check()

    def test_unknown_fields_from_future_engines_are_ignored(self):
        data = VetOutcome(name="a", ok=True).to_json()
        data["a_future_field"] = {"nested": True}
        replayed = VetOutcome.from_json(data)
        assert replayed.name == "a" and replayed.ok


class TestSummarizeAllPoison:
    """A generated fleet shard can be all-poison: nothing vetted
    cleanly, failures untyped, degradation events malformed. The
    summary must still add up rather than assume a clean signature."""

    def test_all_error_outcomes_summarize(self, tmp_path):
        outcomes = vet_many(
            ["var a = ;;;(", "function (", ")...("], cache_dir=tmp_path
        )
        summary = batch.summarize(outcomes)
        assert summary["total"] == summary["failed"] == 3
        assert summary["ok"] == 0
        assert sum(summary["failures"].values()) == 3

    def test_untyped_failures_bucket_as_unclassified(self):
        outcomes = [
            batch.VetOutcome(name="poison", ok=False, error="boom"),
            batch.VetOutcome(name="poison2", ok=False, error="boom",
                             failure="budget-time"),
        ]
        summary = batch.summarize(outcomes)
        assert summary["failures"] == {"budget-time": 1, "unclassified": 1}
        assert sum(summary["failures"].values()) == summary["failed"]

    def test_all_degraded_outcomes_summarize(self):
        outcomes = [
            batch.VetOutcome(
                name=f"d{i}", ok=True, degraded=True,
                degradations=[{"kind": "budget-steps", "detail": ""}],
            )
            for i in range(3)
        ]
        summary = batch.summarize(outcomes)
        assert summary["degraded"] == 3
        assert summary["degradation_kinds"] == {"budget-steps": 3}

    def test_malformed_degradation_events_bucket_as_unclassified(self):
        outcome = batch.VetOutcome(
            name="mangled", ok=True, degraded=True,
            # A poison cache shard can round-trip junk events.
            degradations=[{"detail": "kindless"}, "not-a-dict",
                          {"kind": "budget-steps"}],
        )
        assert outcome.degradation_kinds == ["budget-steps", "unclassified"]
        summary = batch.summarize([outcome])
        assert summary["degradation_kinds"]["unclassified"] == 1

    def test_empty_outcome_list_summarizes(self):
        summary = batch.summarize([])
        assert summary["total"] == 0
        assert summary["failures"] == {}
        assert summary["diff_verdicts"] == {}


class TestEngineShape:
    def test_string_items_get_default_names(self, tmp_path):
        outcomes = vet_many(["var a = 1;", "var b = 2;"], cache_dir=tmp_path)
        assert [outcome.name for outcome in outcomes] == ["addon-0", "addon-1"]

    def test_results_preserve_input_order_with_mixed_hits(self, tmp_path):
        vet_many(["var b = 2;"], cache_dir=tmp_path)  # warm one entry
        outcomes = vet_many(
            ["var a = 1;", "var b = 2;", "var c = 3;"], cache_dir=tmp_path
        )
        assert [outcome.name for outcome in outcomes] == [
            "addon-0", "addon-1", "addon-2",
        ]
        assert [outcome.cached for outcome in outcomes] == [False, True, False]
