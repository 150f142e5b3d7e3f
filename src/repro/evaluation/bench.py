"""``addon-sig bench``: the corpus benchmark harness.

Runs the full benchmark corpus through the batch vetting engine under
the paper's timing protocol (``runs`` pipeline executions per addon,
first discarded, per-phase medians of the rest — Section 6.2) and writes
a machine-readable ``BENCH_corpus.json``:

- per addon: P1/P2/P3 median times, hot-path counters (fixpoint steps,
  states created, joins, PDG edges, ...), AST size, verdict;
- corpus totals plus the end-to-end wall time of the sweep itself (which
  is what the parallel engine improves — per-addon medians measure the
  single-pipeline hot paths).

Run: ``addon-sig bench [--runs N] [--workers N] [--output FILE]``.
"""

from __future__ import annotations

import argparse
import time
from pathlib import Path

from repro.addons import CORPUS
from repro.batch import (
    hits_without_resolution,
    summarize,
    vet_corpus,
    vet_many,
)

SCHEMA = "addon-sig/bench-corpus/v9"


def _hit_rate(hits: int, total: int) -> float | None:
    """``hits/total`` rounded — or ``None`` (a null rate, not a crash)
    when the corpus was empty or fully filtered and ``total`` is 0."""
    if total == 0:
        return None
    return round(hits / total, 4)

#: Where the examples corpus (the prefilter's benchmark) lives.
EXAMPLES_DIR = "examples/addons"

#: Where the versioned update pairs (the fast lane's benchmark) live.
VERSIONS_DIR = "examples/addons/versions"

#: Where the WebExtensions mini-corpus (the multi-file pipeline's
#: benchmark) lives: one directory per extension, each with a manifest.
EXTENSIONS_DIR = "examples/extensions"


def _bench_prefilter(examples_dir: str | Path | None) -> tuple[dict, dict] | None:
    """Measure the relevance prefilter on the examples corpus.

    Vets every ``*.js`` under ``examples_dir`` twice — prefilter on,
    prefilter off — in-process, uncached, with ``recover=True`` (the
    corpus deliberately contains an unparseable legacy addon). Returns
    the ``prefilter`` section — the hit rate, both wall clocks, and
    whether the two sweeps produced bit-identical signatures (they
    must: the prefilter is sound) — and the ``preanalysis`` section
    derived from the prefilter-on arm (:func:`_bench_preanalysis`)."""
    from repro.batch import VetTask

    if examples_dir is None:
        return None
    directory = Path(examples_dir)
    if not directory.is_dir():
        return None
    files = sorted(directory.glob("*.js"))
    if not files:
        # The directory exists but holds nothing vettable (empty or
        # fully filtered): a zero-count section with a null rate — the
        # old ``hits / len(files)`` was a ZeroDivisionError here.
        section = {
            "corpus": str(directory), "addons": 0, "hits": 0,
            "hit_rate": None, "wall_on_s": 0.0, "wall_off_s": 0.0,
            "wall_delta_s": 0.0, "identical_signatures": True,
        }
        return section, _bench_preanalysis(section, [])

    def tasks(prefilter: bool) -> list[VetTask]:
        return [
            VetTask(
                name=path.name,
                source=path.read_text(encoding="utf-8"),
                recover=True,
                prefilter=prefilter,
            )
            for path in files
        ]

    start = time.perf_counter()
    with_prefilter = vet_many(tasks(True), use_cache=False, workers=1)
    wall_on = time.perf_counter() - start
    start = time.perf_counter()
    without_prefilter = vet_many(tasks(False), use_cache=False, workers=1)
    wall_off = time.perf_counter() - start
    hits = sum(1 for outcome in with_prefilter if outcome.prefiltered)
    section = {
        "corpus": str(directory),
        "addons": len(files),
        "hits": hits,
        "hit_rate": _hit_rate(hits, len(files)),
        "wall_on_s": round(wall_on, 6),
        "wall_off_s": round(wall_off, 6),
        "wall_delta_s": round(wall_off - wall_on, 6),
        "identical_signatures": all(
            on.signature_text == off.signature_text
            for on, off in zip(with_prefilter, without_prefilter)
        ),
    }
    return section, _bench_preanalysis(section, with_prefilter)


def _bench_preanalysis(prefilter: dict, outcomes: list) -> dict:
    """The prefilter's computed-key resolution, read off the
    prefilter-on arm ``outcomes`` of the ``prefilter`` section: how many
    computed sites resolved, and the hit rate with and without them.
    It runs no sweep of its own; ``identical_signatures`` is the
    section's resolving prefilter against the full analysis."""
    resolved = sum(o.counters.get("resolved_sites", 0) for o in outcomes)
    residual = sum(
        o.counters.get("residual_dynamic_sites", 0) for o in outcomes
    )
    hits_plain = hits_without_resolution(outcomes)
    return {
        "corpus": prefilter["corpus"],
        "addons": prefilter["addons"],
        "resolved_sites": resolved,
        "residual_dynamic_sites": residual,
        # Of all computed property sites resolution looked at, how many
        # the constant-string lattice pinned down to named accesses.
        "resolution_rate": _hit_rate(resolved, resolved + residual),
        # The prefilter's hit rate with and without resolution — the
        # difference is what resolution buys the fast lane.
        "hits_with_resolution": prefilter["hits"],
        "hit_rate_with_resolution": prefilter["hit_rate"],
        "hits_without_resolution": hits_plain,
        "hit_rate_without_resolution": _hit_rate(
            hits_plain, prefilter["addons"]
        ),
        "identical_signatures": prefilter["identical_signatures"],
    }


def _bench_incremental(versions_dir: str | Path | None) -> dict | None:
    """Measure the incremental fast lane on the versioned update pairs.

    For every pair under ``versions_dir`` the approved old version is
    vetted once to establish the baseline signature, then the new
    version is vetted twice — fast lane on, fast lane off — in-process,
    uncached. Returns the certificate hit count/rate, both wall clocks,
    and whether the fast lane served bit-identical signatures to the
    full re-analysis (it must: the certificate is sound)."""
    from repro.batch import VetTask
    from repro.diffvet import discover_pairs

    if versions_dir is None:
        return None
    if not Path(versions_dir).is_dir():
        return None
    pairs = discover_pairs(versions_dir)
    if not pairs:
        # Existing-but-empty chains directory: null rate, zero counts
        # (the old ``hits / len(pairs)`` divided by zero).
        return {
            "corpus": str(versions_dir), "pairs": 0, "hits": 0,
            "hit_rate": None, "certifications_attempted": 0,
            "certifications_skipped": 0, "wall_incremental_s": 0.0,
            "wall_full_s": 0.0, "wall_delta_s": 0.0,
            "identical_signatures": True, "verdicts": {},
        }

    baselines = vet_many(
        [
            VetTask(name=f"{pair.name}@old", source=pair.old_source(),
                    recover=True)
            for pair in pairs
        ],
        use_cache=False, workers=1,
    )

    def tasks(incremental: bool) -> list[VetTask]:
        return [
            VetTask(
                name=f"{pair.name}@new",
                source=pair.new_source(),
                recover=True,
                baseline_source=pair.old_source(),
                baseline_signature_text=baseline.signature_text,
                incremental=incremental,
            )
            for pair, baseline in zip(pairs, baselines)
        ]

    start = time.perf_counter()
    fast = vet_many(tasks(True), use_cache=False, workers=1)
    wall_incremental = time.perf_counter() - start
    start = time.perf_counter()
    full = vet_many(tasks(False), use_cache=False, workers=1)
    wall_full = time.perf_counter() - start
    hits = sum(1 for outcome in fast if outcome.incremental)
    attempted = sum(
        outcome.counters.get("certification_attempted", 0) for outcome in fast
    )
    skipped = sum(
        outcome.counters.get("certification_skipped", 0) for outcome in fast
    )
    verdicts: dict[str, int] = {}
    for outcome in fast:
        if outcome.diff_verdict:
            key = outcome.diff_verdict
            verdicts[key] = verdicts.get(key, 0) + 1
    return {
        "corpus": str(versions_dir),
        "pairs": len(pairs),
        "hits": hits,
        "hit_rate": _hit_rate(hits, len(pairs)),
        # The cost gate's economics: certificates attempted vs. skipped
        # because full re-analysis was predicted cheaper.
        "certifications_attempted": attempted,
        "certifications_skipped": skipped,
        "wall_incremental_s": round(wall_incremental, 6),
        "wall_full_s": round(wall_full, 6),
        "wall_delta_s": round(wall_full - wall_incremental, 6),
        "identical_signatures": all(
            on.signature_text == off.signature_text
            for on, off in zip(fast, full)
        ),
        "verdicts": verdicts,
    }


def _bench_webext(extensions_dir: str | Path | None, runs: int = 3) -> dict | None:
    """Measure the multi-file WebExtensions pipeline on the mini-corpus.

    Each extension directory under ``extensions_dir`` is vetted ``runs``
    times under the paper's timing protocol (warm-up discarded, per-phase
    medians of the rest) with the prefilter off, recording the
    cross-component shape of each run (components, dispatched channels,
    sender guards). A second single-pass sweep with the prefilter on
    yields the bundle-level hit rate and the bit-identical-signatures
    soundness check."""
    import statistics

    from repro.api import vet
    from repro.webext.loader import load_source

    if extensions_dir is None:
        return None
    directory = Path(extensions_dir)
    if not directory.is_dir():
        return None
    roots = sorted(
        child for child in directory.iterdir()
        if child.is_dir() and (child / "manifest.json").exists()
    )
    if not roots:
        # Existing-but-manifestless directory: zero-count section with
        # a null rate (``hits / len(extensions)`` used to divide by 0).
        return {
            "corpus": str(directory), "extensions": [], "count": 0,
            "prefilter_hits": 0, "prefilter_hit_rate": None,
            "identical_signatures": True,
        }

    extensions = []
    hits = 0
    identical = True
    for root in roots:
        source = load_source(root)
        samples = [vet(source, prefilter=False) for _ in range(max(runs, 1))]
        kept = samples[1:] if len(samples) > 1 else samples
        report = kept[-1]
        filtered = vet(source, prefilter=True)
        if filtered.prefiltered:
            hits += 1
        if filtered.signature.render() != report.signature.render():
            identical = False
        extensions.append({
            "name": root.name,
            "degraded": report.degraded,
            "prefiltered": filtered.prefiltered,
            "ast_nodes": report.ast_nodes,
            "p1_s": round(statistics.median(s.phase_times.p1 for s in kept), 6),
            "p2_s": round(statistics.median(s.phase_times.p2 for s in kept), 6),
            "p3_s": round(statistics.median(s.phase_times.p3 for s in kept), 6),
            "total_s": round(
                statistics.median(s.phase_times.total for s in kept), 6
            ),
            "samples_kept": len(kept),
            "components": report.counters.get("components", 0),
            "channels": report.counters.get("channels", 0),
            "sender_guards": report.counters.get("sender_guards", 0),
            "signature_entries": report.counters.get("signature_entries", 0),
        })
    return {
        "corpus": str(directory),
        "extensions": extensions,
        "count": len(extensions),
        "prefilter_hits": hits,
        "prefilter_hit_rate": _hit_rate(hits, len(extensions)),
        "identical_signatures": identical,
    }


def run_bench(
    runs: int = 3,
    k: int = 1,
    workers: int | None = None,
    output: str | Path | None = "BENCH_corpus.json",
    use_cache: bool = False,
    timeout: float | None = None,
    examples_dir: str | Path | None = EXAMPLES_DIR,
    versions_dir: str | Path | None = VERSIONS_DIR,
    extensions_dir: str | Path | None = EXTENSIONS_DIR,
    corpus=None,
) -> dict:
    """Benchmark the corpus; returns (and optionally writes) the report.

    Beyond the timings, the report records each addon's robustness
    outcome (typed failure kind, degraded flag and degradation kinds)
    and a corpus-level per-kind breakdown, so the perf trajectory in
    ``BENCH_corpus.json`` also tracks robustness regressions.

    Since v3 the report also carries a ``prefilter`` section: the
    examples corpus (``examples/addons``) vetted with the relevance
    prefilter on and off — hit count/rate, both wall clocks, and a
    bit-identical-signatures check. Skipped (``None``) when the
    examples directory is absent or empty.

    Since v4 it also carries an ``incremental`` section — the versioned
    update pairs (``examples/addons/versions``) vetted with the
    differential fast lane on and off: certificate hit rate, both wall
    clocks, the diff-verdict breakdown, and the fast-lane soundness
    check (served signatures bit-identical to full re-analysis) — and
    each per-addon entry records ``samples_kept``, how many timing
    samples actually survived the warm-up discard.

    Since v5 the default protocol is ``runs=3`` (discard the warm-up,
    median of 2 kept samples — the cheapest protocol whose medians are
    not single samples) and the incremental section counts fast-lane
    certifications attempted vs. skipped by the cost gate
    (``repro.batch.FAST_LANE_MIN_SOURCE_CHARS``).

    Since v6 the report carries a ``webext`` section: the multi-file
    extension mini-corpus (``examples/extensions``) vetted under the
    same timing protocol — per-extension phase medians, cross-component
    shape (components, dispatched channels, sender guards), and the
    bundle-level prefilter hit rate with its bit-identical-signatures
    soundness check. Skipped (``None``) when the extensions directory
    is absent or holds no manifests.

    Since v7 hit rates are *null* (``None``) with zero counts when a
    section's corpus directory exists but is empty or fully filtered —
    never a ZeroDivisionError — and the report can carry a ``fleet``
    section written by ``addon-sig fleet`` (:mod:`repro.corpusgen
    .fleet`): store-scale throughput, cache/prefilter/incremental hit
    rates, peak RSS, and the zero-must-hold verdict-mismatch count over
    a generated corpus. ``run_bench`` preserves an existing ``fleet``
    section in ``output`` when rewriting the other sections.

    Since v8 the report carries a ``preanalysis`` section, and the
    ``fleet`` prefilter section the matching ``hits_without_resolution``
    control and ``resolution_gain``.

    Since v9 the ``preanalysis`` section runs no sweep of its own: it is
    read off the ``prefilter`` section's prefilter-on arm — resolved and
    residual computed sites, the resolution rate, and the prefilter hit
    rate with and without resolution — and carries no call-graph edge
    count or wall clocks.

    ``corpus`` restricts the sweep to the given addon specs (default:
    the full benchmark corpus)."""
    start = time.perf_counter()
    outcomes = vet_corpus(corpus if corpus is not None else CORPUS,
                          runs=runs, k=k, workers=workers,
                          use_cache=use_cache, timeout=timeout)
    wall_s = time.perf_counter() - start

    addons = []
    totals = {"p1_s": 0.0, "p2_s": 0.0, "p3_s": 0.0, "total_s": 0.0}
    ok_count = 0
    for outcome in outcomes:
        entry: dict = {
            "name": outcome.name,
            "ok": outcome.ok,
            "cached": outcome.cached,
            "degraded": outcome.degraded,
            "prefiltered": outcome.prefiltered,
        }
        if outcome.degradations:
            entry["degradations"] = list(outcome.degradations)
        if outcome.ok and outcome.times is not None:
            ok_count += 1
            entry.update(
                verdict=outcome.verdict,
                ast_nodes=outcome.ast_nodes,
                p1_s=outcome.times["p1"],
                p2_s=outcome.times["p2"],
                p3_s=outcome.times["p3"],
                total_s=outcome.total_time,
                samples_kept=outcome.timing_samples,
                counters=dict(outcome.counters),
            )
            totals["p1_s"] += outcome.times["p1"]
            totals["p2_s"] += outcome.times["p2"]
            totals["p3_s"] += outcome.times["p3"]
            totals["total_s"] += outcome.total_time
        else:
            entry["error"] = outcome.error
            entry["failure"] = outcome.failure
        addons.append(entry)

    examples = _bench_prefilter(examples_dir)
    prefilter, preanalysis = examples if examples is not None else (None, None)
    report = {
        "schema": SCHEMA,
        "protocol": {
            "runs": runs,
            "discard_first": runs > 1,
            "statistic": "median",
            "k": k,
            "workers": workers,
            "timeout_s": timeout,
        },
        "addons": addons,
        "corpus": {
            "count": len(addons),
            "ok": ok_count,
            # Sum of per-addon median pipeline times (sequential cost)...
            **{key: round(value, 6) for key, value in totals.items()},
            # ...versus the batch engine's actual end-to-end wall clock.
            "wall_s": round(wall_s, 6),
        },
        # The per-kind failure/degradation breakdown: the robustness
        # trajectory tracked alongside the perf trajectory.
        "robustness": summarize(outcomes),
        # The relevance prefilter measured on the examples corpus...
        "prefilter": prefilter,
        # ...and its computed-key resolution, from the same sweep.
        "preanalysis": preanalysis,
        # The incremental fast lane measured on the versioned pairs.
        "incremental": _bench_incremental(versions_dir),
        # The multi-file WebExtensions pipeline on its mini-corpus.
        "webext": _bench_webext(extensions_dir, runs=runs),
    }
    if output is not None:
        import json

        from repro.store import atomic_write_json

        # A fleet section (written by ``addon-sig fleet``) rides along:
        # rewriting the bench sections must not drop it.
        path = Path(output)
        if path.exists():
            try:
                previous = json.loads(path.read_text(encoding="utf-8"))
            except (OSError, ValueError):
                previous = {}
            if isinstance(previous, dict) and "fleet" in previous:
                report["fleet"] = previous["fleet"]
        atomic_write_json(path, report, fsync=False)
    return report


def render_bench(report: dict) -> str:
    lines = [
        f"corpus bench ({report['protocol']['runs']} runs/addon, median after warm-up discard)",
        "",
    ]
    for addon in report["addons"]:
        if addon["ok"]:
            cached = " [cached]" if addon["cached"] else ""
            degraded = ""
            if addon.get("degraded"):
                kinds = sorted({d["kind"] for d in addon.get("degradations", [])})
                degraded = f" [degraded: {','.join(kinds)}]"
            lines.append(
                f"  {addon['name']:<22} {addon['verdict']:<5}"
                f" P1 {addon['p1_s']:.3f}s  P2 {addon['p2_s']:.3f}s"
                f"  P3 {addon['p3_s']:.3f}s  total {addon['total_s']:.3f}s"
                f"{cached}{degraded}"
            )
        else:
            kind = addon.get("failure") or "?"
            lines.append(
                f"  {addon['name']:<22} ERROR [{kind}] {addon['error']}"
            )
    corpus = report["corpus"]
    lines.append("")
    lines.append(
        f"  corpus: {corpus['ok']}/{corpus['count']} ok,"
        f" summed pipeline {corpus['total_s']:.3f}s,"
        f" batch wall {corpus['wall_s']:.3f}s"
    )
    def rate(value: float | None) -> str:
        return "n/a" if value is None else f"{value:.0%}"

    prefilter = report.get("prefilter")
    if prefilter:
        lines.append(
            f"  prefilter ({prefilter['corpus']}):"
            f" {prefilter['hits']}/{prefilter['addons']} addons skipped"
            f" (hit rate {rate(prefilter['hit_rate'])}),"
            f" wall {prefilter['wall_on_s']:.3f}s on"
            f" vs {prefilter['wall_off_s']:.3f}s off"
        )
    preanalysis = report.get("preanalysis")
    if preanalysis:
        lines.append(
            f"  preanalysis ({preanalysis['corpus']}):"
            f" {preanalysis['resolved_sites']} computed site(s) resolved"
            f" (rate {rate(preanalysis['resolution_rate'])}),"
            f" prefilter {rate(preanalysis['hit_rate_without_resolution'])}"
            f" -> {rate(preanalysis['hit_rate_with_resolution'])}"
        )
    incremental = report.get("incremental")
    if incremental:
        lines.append(
            f"  incremental ({incremental['corpus']}):"
            f" {incremental['hits']}/{incremental['pairs']} updates fast-laned"
            f" (hit rate {rate(incremental['hit_rate'])}),"
            f" wall {incremental['wall_incremental_s']:.3f}s on"
            f" vs {incremental['wall_full_s']:.3f}s off"
        )
    webext = report.get("webext")
    if webext:
        total = sum(e["total_s"] for e in webext["extensions"])
        channels = sum(e["channels"] for e in webext["extensions"])
        lines.append(
            f"  webext ({webext['corpus']}):"
            f" {webext['count']} extensions in {total:.3f}s,"
            f" {channels} channels dispatched,"
            f" prefilter hit rate {rate(webext['prefilter_hit_rate'])}"
        )
    fleet = report.get("fleet")
    if fleet:
        throughput = fleet.get("throughput", {})
        lines.append(
            f"  fleet: {fleet['count']} generated addons,"
            f" {throughput.get('addons_per_s') or 0:.1f} addons/s,"
            f" verdict mismatches {fleet['verdict_mismatches']}"
        )
    robustness = report.get("robustness", {})
    if robustness.get("failed") or robustness.get("degraded"):
        failures = ", ".join(
            f"{kind}={count}" for kind, count in robustness["failures"].items()
        ) or "none"
        degraded = ", ".join(
            f"{kind}={count}"
            for kind, count in robustness["degradation_kinds"].items()
        ) or "none"
        lines.append(
            f"  robustness: failures [{failures}], degraded [{degraded}]"
        )
    return "\n".join(lines)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--runs", type=int, default=3)
    parser.add_argument("--k", type=int, default=1)
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument("--output", default="BENCH_corpus.json")
    parser.add_argument("--cache", action="store_true")
    parser.add_argument("--timeout", type=float, default=None)
    arguments = parser.parse_args()
    report = run_bench(
        runs=arguments.runs, k=arguments.k, workers=arguments.workers,
        output=arguments.output, use_cache=arguments.cache,
        timeout=arguments.timeout,
    )
    print(render_bench(report))
    print(f"\nwritten to {arguments.output}")


if __name__ == "__main__":
    main()
