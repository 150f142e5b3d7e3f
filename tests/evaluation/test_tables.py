"""Tests for the evaluation harness (Tables 1 and 2, figures)."""

import pytest

from repro.evaluation import (
    FIGURE2_EXPECTED,
    check_figure2,
    compute_table1,
    compute_table2,
    figure4_lattice,
    render_figure2,
    render_figure4,
    render_table1,
    render_table2,
)
from repro.batch import VetTask, vet_many
from repro.evaluation.tables import format_count, render_table


class TestTableRendering:
    def test_render_table_alignment(self):
        text = render_table(["a", "bb"], [["1", "2"], ["333", "4"]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")

    def test_format_count(self):
        assert format_count(7600428) == "7,600,428"
        assert format_count(609) == "609"


class TestTable1:
    def test_rows_cover_corpus(self):
        rows = compute_table1()
        assert len(rows) == 10
        assert all(row.measured_ast_nodes > 0 for row in rows)

    def test_smallest_addon_is_odesk(self):
        # The paper's smallest addon stays the smallest in our corpus.
        rows = compute_table1()
        smallest = min(rows, key=lambda r: r.measured_ast_nodes)
        assert smallest.spec.name == "oDeskJobWatcher"

    def test_render_contains_all_names(self):
        rows = compute_table1()
        text = render_table1(rows)
        for row in rows:
            assert row.spec.name in text


@pytest.mark.slow
class TestTable2:
    @pytest.fixture(scope="class")
    def rows(self):
        # Four runs keep three samples after the warm-up discard, so the
        # per-phase median absorbs one outlier sample.
        return compute_table2(runs=4)

    def test_full_table_matches_paper(self, rows):
        assert len(rows) == 10
        assert all(row.matches_paper for row in rows)

    def test_phase_time_shape(self, rows):
        for row in rows:
            # Signature inference is the cheap phase, as in the paper.
            assert row.times.p3 <= row.times.p1
            assert row.times.total < 60.0  # "under one minute"

    def test_render_mentions_match_count(self, rows):
        assert "10/10" in render_table2(rows)


class TestTimingProtocol:
    """Section 6.2: run each addon ``runs`` times, discard the first
    (warm-up) run, report the per-phase median of the rest."""

    @staticmethod
    def _time(runs):
        [outcome] = vet_many(
            [VetTask(name="tiny", source="var x = 1;", runs=runs)],
            workers=1, use_cache=False,
        )
        assert outcome.ok
        return outcome

    def test_median_protocol_runs(self):
        outcome = self._time(runs=3)
        assert outcome.times["p1"] > 0 and outcome.total_time > 0
        assert outcome.timing_samples == 2

    def test_single_run_allowed(self):
        outcome = self._time(runs=1)
        assert outcome.total_time > 0
        assert outcome.timing_samples == 1


class TestFigures:
    def test_all_expected_figure2_edges_found(self):
        outcomes = check_figure2()
        assert len(outcomes) == len(FIGURE2_EXPECTED)
        assert all(ok for (_s, _t, _a, ok) in outcomes)

    def test_render_figure2_marks_ok(self):
        text = render_figure2()
        assert "MISSING" not in text
        assert "datastrong" in text

    def test_figure4_has_eight_types(self):
        triples = figure4_lattice()
        assert len(triples) == 8
        ranks = [rank for (_t, rank, _a) in triples]
        assert ranks == sorted(ranks)

    def test_render_figure4(self):
        text = render_figure4()
        assert "type1" in text and "nonlocimp" in text


@pytest.mark.slow
class TestReport:
    def test_generated_report_content(self):
        from repro.evaluation.report import render_report

        text = render_report(runs=1)
        assert "# Evaluation report" in text
        assert "10/10" in text  # all verdicts match
        assert "| LivePagerank |" in text
        assert "Figure 2" in text
        assert "prefix domain: usable network domain for **8/10** addons" in text
