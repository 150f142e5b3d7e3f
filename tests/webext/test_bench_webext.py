"""The ``webext`` section of the corpus bench report."""

from pathlib import Path

import pytest

from repro.evaluation import run_bench

pytestmark = pytest.mark.webext

EXTENSIONS = (
    Path(__file__).resolve().parent.parent.parent / "examples" / "extensions"
)


def _webext_section(extensions_dir, runs=3):
    """The bench report's ``webext`` section alone: no corpus addons,
    the other side corpora off."""
    return run_bench(
        runs=runs, workers=1, output=None, corpus=[],
        examples_dir=None, versions_dir=None, extensions_dir=extensions_dir,
    )["webext"]


class TestWebextBenchSection:
    @pytest.fixture(scope="class")
    def section(self):
        return _webext_section(EXTENSIONS, runs=1)

    def test_covers_the_whole_mini_corpus(self, section):
        assert section is not None
        assert section["count"] >= 6
        assert len(section["extensions"]) == section["count"]

    def test_entries_carry_phase_times_and_shape(self, section):
        for entry in section["extensions"]:
            assert entry["total_s"] >= entry["p1_s"] > 0
            assert entry["ast_nodes"] > 0
            assert entry["components"] >= 1
            assert entry["samples_kept"] == 1

    def test_channel_counts_reflect_message_passing(self, section):
        by_name = {e["name"]: e for e in section["extensions"]}
        assert by_name["cookie_exfil"]["channels"] >= 2
        assert by_name["cookie_exfil_guarded"]["sender_guards"] == 1
        assert by_name["cookie_exfil"]["sender_guards"] == 0

    def test_prefilter_soundness_holds_on_bundles(self, section):
        assert section["identical_signatures"]
        assert 0.0 <= section["prefilter_hit_rate"] <= 1.0

    def test_missing_directory_is_skipped(self, tmp_path):
        assert _webext_section(tmp_path / "nope") is None
        assert _webext_section(None) is None

    def test_directory_without_manifests_yields_zero_counts(self, tmp_path):
        (tmp_path / "stray").mkdir()
        section = _webext_section(tmp_path)
        assert section["count"] == 0
        assert section["prefilter_hits"] == 0
        assert section["prefilter_hit_rate"] is None  # null rate, no crash
        assert section["extensions"] == []
