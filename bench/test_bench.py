"""Tests of the benchmark itself: ``python -m pytest bench``.

Not part of the tier-1 suite (``testpaths`` names ``tests`` only).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from types import SimpleNamespace

import pytest

from bench import ROOT, TIMINGS, use_checkout
from bench.__main__ import load_spec, measure
from bench.compare import classify, claim, directions, gate_totals
from bench.tracing import LAYER, TARGETS, Tracer, _resolve, span_metrics
from bench.workloads import WORKLOADS, Result, _BatchWorkload

use_checkout()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_workload_emits_exactly_the_benchmark_metrics(workload, trace):
    spec = load_spec()
    wanted = {
        m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]
    }
    result = measure(workload, seed=0, seconds=1, trace=bool(trace), scale=0.02)
    assert result["correct"], result["problems"]
    assert result["attempted"] >= 1
    assert {n: m["unit"] for n, m in result["metrics"].items()} == wanted
    timings = {} if trace else {n: unit for n, (unit, _, _) in TIMINGS.items()}
    assert {n: m["unit"] for n, m in result["timings"].items()} == timings
    values = [m["value"] for m in [*result["metrics"].values(), *result["timings"].values()]]
    assert all(isinstance(value, (int, float)) for value in values)


def test_traced_signatures_are_identical_and_wrappers_are_removed():
    from repro import batch
    from repro.corpusgen.generator import generate_corpus

    before = {target: _resolve(target)[2] for target in TARGETS}
    tasks = [
        batch.VetTask(name=a.name, source=a.source) for a in generate_corpus(100, 0)
    ]
    plain = batch.vet_many(tasks, workers=1, use_cache=False)
    with Tracer() as tracer:
        traced = batch.vet_many(tasks, workers=1, use_cache=False)
    assert [o.signature_text for o in traced] == [o.signature_text for o in plain]
    assert tracer.missing == []
    layers = {span[LAYER] for span in tracer.spans}
    assert {"batch", "api", "js", "preanalysis", "lint.surface", "ir", "webext",
            "analysis", "pdg", "signatures"} <= layers
    for target in TARGETS:
        assert _resolve(target)[2] is before[target], target


def test_self_time_counts_same_layer_nesting_once():
    # outer (batch) 0..10 ⊃ decide (lint) 1..5 ⊃ decide_many (lint) 2..4,
    # and parse (js) 6..8.
    spans = [
        ["batch.vet_many", "batch", 0.0, 10.0, -1, None, {"tasks": 1, "cached": 0}],
        ["lint.surface.decide", "lint.surface", 1.0, 5.0, 0, None, {"prefiltered": True}],
        ["lint.surface.decide", "lint.surface", 2.0, 4.0, 1, None, {"prefiltered": True}],
        ["js.parse", "js", 6.0, 8.0, 0, None, None],
    ]
    metrics = span_metrics(spans, wall=10.0)
    assert metrics["batch.self_s"] == 4.0
    assert metrics["lint.surface.self_s"] == 4.0
    assert metrics["lint.surface.calls"] == 1
    assert metrics["lint.surface.hit_rate"] == 1.0
    assert metrics["js.parse.self_s"] == 2.0
    assert metrics["trace.coverage"] == 1.0


def test_a_failed_task_is_not_also_a_mismatch():
    result = Result()
    workload = SimpleNamespace(
        check=lambda item, outcome, result: result.mismatch(f"{item}: differs")
    )
    outcomes = [
        SimpleNamespace(ok=False, name="a", failure="crash", error="boom"),
        SimpleNamespace(ok=True, name="b"),
    ]
    _BatchWorkload.judge(workload, ["a", "b"], outcomes, result)
    assert (result.attempted, result.failed, result.mismatches) == (2, 1, 1)
    assert len(result.problems) == 2


def test_compare_classifies_against_the_bounds():
    parent = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert classify(parent, [100.2, 99.8, 100.1], "lower", 0.10) == "unchanged"
    assert classify(parent, [115.0, 114.0, 116.0], "lower", 0.10) == "worse"
    assert classify(parent, [85.0, 86.0, 84.0], "lower", 0.10) == "better"
    assert classify(parent, [92.0, 93.0, 91.0], "lower", 0.10) == "unchanged"
    assert classify(parent, [92.0, 93.0, 91.0], "higher", 0.10) == "unchanged"
    assert classify(parent, [80.0, 79.0, 81.0], "higher", 0.10) == "worse"


def test_compare_judges_all_eight_end_to_end_metrics_under_their_bounds():
    assert directions() == {
        "setup_s": ("lower", 0.25),
        "addons_per_s": ("higher", 0.10),
        "latency_p50_ms": ("lower", 0.10),
        "latency_p90_ms": ("lower", 0.15),
        "vet_geomean_ms": ("lower", 0.10),
        "peak_rss_mb": ("lower", 0.10),
        "verdict_mismatches": ("lower", None),
        "failed_fraction": ("lower", None),
    }


def test_compare_reports_unresolved_when_the_parent_spread_exceeds_the_bound():
    noisy = [70.0, 100.0, 130.0, 85.0, 115.0]
    assert classify(noisy, [101.0, 99.0], "lower", 0.10) == "unresolved"
    # Unless every change run beats every parent run.
    assert classify(noisy, [50.0, 52.0], "lower", 0.10) == "better"


def test_compare_gates_flag_any_increase():
    assert classify([0, 0, 0], [0, 1, 1], "lower", None) == "worse"
    assert classify([0, 0, 0], [0, 0, 0], "lower", None) == "unchanged"
    assert classify([0, 1, 0], [0, 0, 0], "lower", None) == "better"


def test_compare_gates_flag_an_increase_the_median_hides():
    # One failing run in five leaves the median at 0.
    assert classify([0, 0, 0, 0, 0], [0, 0, 0, 0, 2], "lower", None) == "worse"
    # The same maximum, but more often.
    assert classify([0, 0, 0, 0, 2], [0, 0, 0, 2, 2], "lower", None) == "worse"


def test_claim_needs_nine_of_ten_pairs_and_a_gap_beyond_the_spread():
    parent = [100.0 + (i % 3) for i in range(10)]
    change = [90.0] * 9 + [103.0]
    assert claim(parent, change, "lower")["holds"]
    assert not claim(parent, [90.0] * 8 + [103.0] * 2, "lower")["holds"]
    assert not claim(parent[:9], change[:9], "lower")["holds"]
    assert not claim(parent, [99.5] * 10, "lower")["holds"]


def test_claim_fails_when_the_change_fails_more_often():
    parent = [100.0 + (i % 3) for i in range(10)]
    change = [90.0] * 10
    even = {"verdict_mismatches": (0.0, 0.0), "failed_fraction": (0.01, 0.01)}
    assert claim(parent, change, "lower", even)["holds"]
    worse = {"verdict_mismatches": (0.0, 0.0), "failed_fraction": (0.0, 0.002)}
    verdict = claim(parent, change, "lower", worse)
    assert not verdict["holds"]
    assert verdict["more_failures"] == ["failed_fraction"]


def test_gate_totals_sum_every_workload_and_run():
    parent = {("fleet", "failed_fraction"): [0.0, 0.1],
              ("large", "failed_fraction"): [0.2],
              ("fleet", "addons_per_s"): [300.0]}
    change = {("fleet", "verdict_mismatches"): [1, 2]}
    assert gate_totals(parent, change) == {
        "verdict_mismatches": (0, 3), "failed_fraction": (pytest.approx(0.3), 0),
    }


def test_measure_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        ROOT / "bench", tmp_path / "bench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    command = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    completed = subprocess.run(
        [sys.executable, *command[1:], "--workload", "fleet", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""
