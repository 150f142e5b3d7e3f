"""The fleet benchmark harness: section shape, soundness, merging."""

import json

import pytest

from repro.corpusgen.fleet import FLEET_SECTION_KEYS, render_fleet, run_fleet
from repro.evaluation.bench import merge_sections

pytestmark = pytest.mark.fleet


@pytest.fixture(scope="module")
def section(tmp_path_factory):
    output = tmp_path_factory.mktemp("fleet") / "BENCH_corpus.json"
    return run_fleet(
        18, seed=0, workers=1, update_count=4, output=output
    ), output


class TestFleetRun:
    def test_zero_verdict_mismatches(self, section):
        report, _ = section
        assert report["verdict_mismatches"] == 0
        assert report["mismatches"] == []

    def test_section_schema(self, section):
        report, _ = section
        assert tuple(sorted(report)) == tuple(sorted(FLEET_SECTION_KEYS))

    def test_throughput_is_measured(self, section):
        report, _ = section
        throughput = report["throughput"]
        assert throughput["addons_per_s"] > 0
        assert throughput["addons_per_s_per_core"] > 0
        assert throughput["cores"] >= 1

    def test_hit_rates_recorded(self, section):
        report, _ = section
        assert 0.0 <= report["prefilter"]["hit_rate"] <= 1.0
        assert report["cache"]["hit_rate"] == 1.0  # warm run: all hits
        assert 0.0 <= report["updates"]["hit_rate"] <= 1.0

    def test_peak_rss_recorded(self, section):
        report, _ = section
        assert report["peak_rss_mb"] is None or report["peak_rss_mb"] > 0

    def test_generated_breakdown_sums(self, section):
        report, _ = section
        generated = report["generated"]
        assert generated["singles"] + generated["bundles"] == report["count"]

    def test_render_mentions_soundness(self, section):
        report, _ = section
        rendered = render_fleet(report)
        assert "verdict mismatches: 0" in rendered
        assert "SOUND" in rendered


def _plain_scan_hits(corpus) -> int:
    """Test-side control: how many addons a prefilter without
    computed-key resolution skips (plain surface scan, every computed
    site dynamic)."""
    from repro.api import select_front_end
    from repro.lint.surface import nodes_surface, spec_surface

    hits = 0
    for addon in corpus:
        front_end = select_front_end(addon.source)
        program_set = front_end.read(addon.source, False)
        surface = nodes_surface(program_set.programs)
        if not (
            program_set.degradations
            or surface.dynamic_code
            or surface.dynamic_properties
            or surface.names & spec_surface(front_end.default_spec())
        ):
            hits += 1
    return hits


class TestResolutionControl:
    """``hits_without_resolution`` is derived from the prefilter-on
    outcomes instead of re-scanning; it must equal a real plain scan."""

    def test_derived_count_equals_a_plain_scan(self):
        from repro.batch import VetTask, hits_without_resolution, vet_many
        from repro.corpusgen import generate_corpus

        corpus = generate_corpus(80, seed=0)
        outcomes = vet_many(
            [VetTask(name=a.name, source=a.source) for a in corpus],
            workers=1, use_cache=False,
        )
        hits = sum(1 for outcome in outcomes if outcome.prefiltered)
        derived = hits_without_resolution(outcomes)
        assert derived == _plain_scan_hits(corpus)
        assert hits > derived  # resolution lets some addons through

    def test_fleet_section_uses_the_derived_count(self, section):
        from repro.corpusgen import generate_corpus

        report, _ = section
        prefilter = report["prefilter"]
        assert prefilter["hits_without_resolution"] == _plain_scan_hits(
            generate_corpus(report["count"], seed=report["seed"])
        )
        assert prefilter["resolution_gain"] == (
            prefilter["hits"] - prefilter["hits_without_resolution"]
        )


class TestFleetMerge:
    def test_merge_into_existing_report_preserves_sections(self, tmp_path):
        path = tmp_path / "BENCH_corpus.json"
        path.write_text(json.dumps({
            "schema": "addon-sig/bench-corpus/v6",
            "corpus": {"count": 10},
            "prefilter": {"hit_rate": 0.33},
        }))
        merged = merge_sections(path, {"fleet": {"count": 5}})
        data = json.loads(path.read_text())
        assert data["schema"].endswith("/v9")
        assert data["corpus"] == {"count": 10}
        assert data["prefilter"] == {"hit_rate": 0.33}
        assert data["fleet"] == {"count": 5}
        assert merged == data

    def test_merge_creates_fresh_report(self, tmp_path):
        path = tmp_path / "BENCH_corpus.json"
        merge_sections(path, {"fleet": {"count": 5}})
        data = json.loads(path.read_text())
        assert data["fleet"]["count"] == 5

    def test_merge_survives_corrupt_report(self, tmp_path):
        path = tmp_path / "BENCH_corpus.json"
        path.write_text("{not json")
        merge_sections(path, {"fleet": {"count": 5}})
        assert json.loads(path.read_text())["fleet"]["count"] == 5

    def test_run_writes_and_merges(self, section):
        report, output = section
        data = json.loads(output.read_text())
        assert data["fleet"]["count"] == report["count"]
        assert data["schema"].endswith("/v9")
