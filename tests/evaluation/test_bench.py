"""The bench harnesses' report contracts.

``run_bench`` and ``run_scaling`` are what CI archives and gates on, so
their schemas and protocol invariants are pinned here — on a one-addon
corpus and tiny synthetic sizes, not the full sweeps, to stay tier-1
cheap.
"""

import json

import pytest

from repro.addons import CORPUS
from repro.corpusgen.fleet import render_fleet, run_fleet
from repro.evaluation import (
    check_regression,
    render_bench,
    render_scaling,
    run_bench,
    run_scaling,
)
from repro.evaluation.scaling import (
    _loglog_slope,
    synthesize_chain,
    synthesize_flat,
)


@pytest.fixture(scope="module")
def bench_report(tmp_path_factory):
    output = tmp_path_factory.mktemp("bench") / "BENCH_corpus.json"
    # Default protocol (runs=3), one addon, no side corpora: the
    # protocol invariants are per-addon, so one is enough.
    return run_bench(
        runs=3, workers=1, output=output,
        examples_dir=None, versions_dir=None, extensions_dir=None,
        corpus=CORPUS[:1],
    ), output


class TestBenchProtocol:
    def test_default_protocol_keeps_at_least_two_samples(self, bench_report):
        report, _ = bench_report
        assert report["protocol"]["runs"] == 3
        assert report["protocol"]["discard_first"]
        ok_addons = [a for a in report["addons"] if a["ok"]]
        assert ok_addons
        # The v5 protocol exists precisely so medians are never single
        # samples: warm-up discarded, >= 2 kept.
        for addon in ok_addons:
            assert addon["samples_kept"] >= 2

    def test_report_is_written_and_round_trips(self, bench_report):
        report, output = bench_report
        assert json.loads(output.read_text(encoding="utf-8")) == report
        assert report["schema"] == "addon-sig/bench-corpus/v9"

    def test_single_run_protocol_keeps_its_only_sample(self):
        report = run_bench(
            runs=1, workers=1, output=None,
            examples_dir=None, versions_dir=None, extensions_dir=None,
            corpus=CORPUS[:1],
        )
        assert not report["protocol"]["discard_first"]
        for addon in report["addons"]:
            if addon["ok"]:
                assert addon["samples_kept"] == 1


def _side_sections(**dirs) -> dict:
    """A bench report over the given side-corpus directories only: no
    corpus addons, the other side corpora off."""
    options = {"examples_dir": None, "versions_dir": None,
               "extensions_dir": None, **dirs}
    return run_bench(runs=1, workers=1, output=None, corpus=[], **options)


def _degenerate_bench(tmp_path):
    report = run_bench(
        runs=1, workers=1, output=None,
        examples_dir=tmp_path, versions_dir=tmp_path,
        extensions_dir=None, corpus=CORPUS[:1],
    )
    return [report["prefilter"]["hit_rate"]], render_bench(report)


def _empty_fleet(tmp_path):
    section = run_fleet(count=0, update_count=0, workers=1, output=None)
    rates = [
        section["prefilter"]["hit_rate"],
        section["cache"]["hit_rate"],
        section["cache"]["speedup"],
        section["updates"]["hit_rate"],
        section["throughput"]["addons_per_s"],
    ]
    return rates, render_fleet(section)


class TestDegenerateCorpora:
    """Empty or fully-filtered side corpora: null rates with zero
    counts, never a ZeroDivisionError (the v7 contract)."""

    def test_empty_examples_dir_yields_null_rate(self, tmp_path):
        # exists, holds no *.js
        section = _side_sections(examples_dir=tmp_path)["prefilter"]
        assert section["addons"] == 0
        assert section["hits"] == 0
        assert section["hit_rate"] is None
        assert section["identical_signatures"]

    def test_empty_versions_dir_yields_null_rate(self, tmp_path):
        # exists, holds no pairs
        section = _side_sections(versions_dir=tmp_path)["incremental"]
        assert section["pairs"] == 0
        assert section["hit_rate"] is None
        assert section["verdicts"] == {}

    def test_empty_examples_dir_yields_null_preanalysis_rates(self, tmp_path):
        # exists, holds no *.js
        section = _side_sections(examples_dir=tmp_path)["preanalysis"]
        assert section["addons"] == 0
        assert section["resolution_rate"] is None
        assert section["hit_rate_with_resolution"] is None
        assert section["hit_rate_without_resolution"] is None
        assert section["identical_signatures"]

    def test_missing_dirs_still_skip_the_section(self, tmp_path):
        report = _side_sections(
            examples_dir=tmp_path / "nope", versions_dir=tmp_path / "nope"
        )
        assert report["prefilter"] is None
        assert report["incremental"] is None

    @pytest.mark.parametrize("harness", [_degenerate_bench, _empty_fleet])
    def test_degenerate_sections_render(self, tmp_path, harness):
        rates, rendered = harness(tmp_path)
        assert all(value is None for value in rates)
        assert "n/a" in rendered
        assert "hit rate 0%" not in rendered


class TestSoundnessGate:
    """``addon-sig bench`` exits 1 and names the section when a sweep's
    two arms disagree on a signature."""

    @pytest.mark.parametrize("skew, code", [(False, 0), (True, 1)])
    def test_differing_arm_fails_the_bench(
        self, tmp_path, monkeypatch, capsys, skew, code
    ):
        from dataclasses import replace

        from repro import cli
        from repro.evaluation import bench

        examples = tmp_path / "examples" / "addons"
        examples.mkdir(parents=True)
        (examples / "leak.js").write_text("send(document.cookie);")
        monkeypatch.chdir(tmp_path)  # the default side corpora: examples only
        monkeypatch.setattr("repro.addons.CORPUS", [])
        vet_many = bench.vet_many

        def skewed(tasks, **options):
            outcomes = vet_many(tasks, **options)
            if skew and tasks and not tasks[0].prefilter:
                outcomes = [
                    replace(o, signature_text=o.signature_text + "!")
                    for o in outcomes
                ]
            return outcomes

        monkeypatch.setattr(bench, "vet_many", skewed)
        output = tmp_path / "BENCH_corpus.json"
        assert cli.main(["bench", "--runs", "1", "--workers", "1",
                         "--output", str(output)]) == code
        report = json.loads(output.read_text(encoding="utf-8"))
        assert report["prefilter"]["identical_signatures"] is not skew
        err = capsys.readouterr().err
        assert ("BENCH UNSOUND: prefilter, preanalysis" in err) is skew


class TestFleetSectionPreservation:
    def test_rerunning_bench_keeps_the_fleet_section(self, tmp_path):
        output = tmp_path / "BENCH_corpus.json"
        output.write_text(json.dumps({
            "schema": "addon-sig/bench-corpus/v8",
            "fleet": {"count": 123, "verdict_mismatches": 0},
        }))
        report = run_bench(
            runs=1, workers=1, output=output,
            examples_dir=None, versions_dir=None, extensions_dir=None,
            corpus=CORPUS[:1],
        )
        assert report["fleet"]["count"] == 123
        written = json.loads(output.read_text(encoding="utf-8"))
        assert written["fleet"] == report["fleet"]
        assert written["corpus"]["count"] == 1


#: One tiny size per shape: the contract under test is the report
#: shape, not the curve.
TINY_SIZES = {"flat": (1, 2), "chain": (2, 4)}


@pytest.fixture(scope="module")
def scaling_report():
    return run_scaling(runs=3, sizes=TINY_SIZES, output=None)


class TestScalingReport:
    def test_entries_carry_sizes_times_and_counters(self, scaling_report):
        assert scaling_report["schema"] == "addon-sig/bench-scaling/v1"
        assert scaling_report["protocol"]["statistic"] == "min"
        by_shape = {s["shape"]: s for s in scaling_report["shapes"]}
        assert set(by_shape) == set(TINY_SIZES)
        for shape, sizes in TINY_SIZES.items():
            entries = by_shape[shape]["entries"]
            assert [e["size"] for e in entries] == list(sizes)
            for entry in entries:
                assert entry["ast_nodes"] > 0
                assert entry["p1_s"] > 0
                assert entry["samples_kept"] == 2
                assert entry["counters"]["fixpoint_steps"] > 0
                assert entry["counters"]["wto_components"] > 0
                peaks = [entry[f"p{n}_peak_mb"] for n in (1, 2, 3)]
                assert all(peak > 0 for peak in peaks), peaks

    def test_peak_rss_recorded_and_rendered(self, scaling_report):
        peak = scaling_report["peak_rss_mb"]
        assert peak is None or peak > 0
        assert f"peak RSS {peak} MB" in render_scaling(scaling_report)
        assert "peak MB P1/P2/P3 " in render_scaling(scaling_report)

    def test_p2_slope_reported_next_to_p1s(self, scaling_report):
        for shape_report in scaling_report["shapes"]:
            slopes = (
                f"log-log slope P1 {shape_report['loglog_slope']} "
                f"P2 {shape_report['p2_loglog_slope']},"
            )
            assert slopes in render_scaling(scaling_report)
            assert isinstance(shape_report["p2_loglog_slope"], float)

    def test_flows_found_at_every_size(self, scaling_report):
        by_shape = {s["shape"]: s for s in scaling_report["shapes"]}
        for entry in by_shape["flat"]["entries"]:
            assert entry["flows"] == entry["size"]
        for entry in by_shape["chain"]["entries"]:
            assert entry["flows"] == 1

    def test_synthesizers_scale_node_counts(self):
        from repro.js import node_count, parse

        small = node_count(parse(synthesize_flat(1)))
        large = node_count(parse(synthesize_flat(8)))
        assert large > 6 * small
        assert node_count(parse(synthesize_chain(8))) > node_count(
            parse(synthesize_chain(2))
        )

    def test_regression_gate_passes_against_itself(self, scaling_report):
        assert check_regression(scaling_report, scaling_report) == []

    def test_regression_gate_fires_on_inflated_largest_size(
        self, scaling_report
    ):
        inflated = json.loads(json.dumps(scaling_report))
        for shape in inflated["shapes"]:
            shape["entries"][-1]["p1_s"] = round(
                shape["entries"][-1]["p1_s"] * 10, 6
            )
        failures = check_regression(inflated, scaling_report)
        assert len(failures) == len(TINY_SIZES)

    def test_slope_reads_the_curve_across_two_doublings(self):
        def entries(times):
            return [
                {"ast_nodes": nodes, "p1_s": t}
                for nodes, t in zip((100, 200, 400), times)
            ]

        assert _loglog_slope(entries((0.01, 0.02, 0.04))) == 1.0
        assert _loglog_slope(entries((0.01, 0.04, 0.16))) == 2.0
        # Below the 10ms floor an entry is not an endpoint.
        assert _loglog_slope(entries((0.005, 0.02, 0.08))) == 0.0

    def test_slope_across_one_doubling_reads_zero(self):
        # A linear pipeline whose top entry hit one 1.8x timing spike
        # would read slope ~1.9 here: too narrow a span to call.
        spiked = [
            {"ast_nodes": 127, "p1_s": 0.0101},
            {"ast_nodes": 227, "p1_s": 0.0101 * 227 / 127 * 1.8},
        ]
        assert _loglog_slope(spiked) == 0.0

    def test_checked_in_baseline_is_fresh(self):
        """The CI gate compares against this file; it must exist, parse,
        and cover the shapes and headline sizes the sweep produces."""
        from pathlib import Path

        baseline_path = (
            Path(__file__).resolve().parents[2]
            / "benchmarks" / "BENCH_scaling_baseline.json"
        )
        baseline = json.loads(baseline_path.read_text(encoding="utf-8"))
        assert baseline["schema"] == "addon-sig/bench-scaling/v1"
        by_shape = {s["shape"]: s for s in baseline["shapes"]}
        assert by_shape["flat"]["entries"][-1]["size"] == 128
        assert by_shape["flat"]["entries"][-1]["ast_nodes"] >= 10_000
        assert by_shape["chain"]["entries"][-1]["size"] == 128
        for shape in baseline["shapes"]:
            assert shape["subquadratic"]
