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

The module also owns the sweep code ``addon-sig fleet`` shares: one
timed ``vet_many`` arm (:func:`timed_vet`), one soundness check
(:func:`identical_signatures`), one on/off sweep and section builder
each for the prefilter and the fast lane (:func:`prefilter_sweep`,
:func:`incremental_sweep`), and the one writer of
``BENCH_corpus.json`` (:func:`merge_sections`).
"""

from __future__ import annotations

import dataclasses
import json
import time
from pathlib import Path

from repro.batch import (
    VetOutcome,
    VetTask,
    hits_without_resolution,
    summarize,
    vet_corpus,
    vet_many,
)
from repro.perf import rate, tally
from repro.store import atomic_write_json

SCHEMA = "addon-sig/bench-corpus/v9"

#: Where the examples corpus (the prefilter's benchmark) lives.
EXAMPLES_DIR = "examples/addons"

#: Where the versioned update pairs (the fast lane's benchmark) live.
VERSIONS_DIR = "examples/addons/versions"

#: Where the WebExtensions mini-corpus (the multi-file pipeline's
#: benchmark) lives: one directory per extension, each with a manifest.
EXTENSIONS_DIR = "examples/extensions"

#: One timed sweep arm: the outcomes of one ``vet_many`` call and its
#: wall time in seconds.
Arm = tuple[list[VetOutcome], float]


def timed_vet(tasks: list, **options) -> Arm:
    """``vet_many(tasks, **options)`` and its wall time in seconds."""
    start = time.perf_counter()
    outcomes = vet_many(tasks, **options)
    return outcomes, time.perf_counter() - start


def identical_signatures(a: list[VetOutcome], b: list[VetOutcome]) -> bool:
    """Whether two arms over the same tasks produced bit-identical
    signatures (a sound fast path must never change one)."""
    return all(x.signature_text == y.signature_text for x, y in zip(a, b))


def _on_off(tasks: list[VetTask], switch: str, **options) -> tuple[Arm, Arm]:
    """Two timed arms over ``tasks``: the boolean task field ``switch``
    on, then off."""
    def arm(flag: bool) -> Arm:
        return timed_vet(
            [dataclasses.replace(task, **{switch: flag}) for task in tasks],
            **options,
        )

    return arm(True), arm(False)


def prefilter_sweep(
    tasks: list[VetTask], **options
) -> tuple[dict, list[VetOutcome], list[VetOutcome]]:
    """The relevance prefilter's on/off sweep over ``tasks``.

    Returns the section — hit count/rate, both wall clocks, and whether
    both arms produced bit-identical signatures (they must: the
    prefilter is sound) — and the on and off arms' outcomes.
    ``options`` go to ``vet_many``."""
    (on, wall_on), (off, wall_off) = _on_off(tasks, "prefilter", **options)
    hits = sum(1 for outcome in on if outcome.prefiltered)
    return {
        "addons": len(tasks),
        "hits": hits,
        "hit_rate": rate(hits, len(tasks)),
        "wall_on_s": round(wall_on, 6),
        "wall_off_s": round(wall_off, 6),
        "wall_delta_s": round(wall_off - wall_on, 6),
        "identical_signatures": identical_signatures(on, off),
    }, on, off


def incremental_sweep(
    tasks: list[VetTask], **options
) -> tuple[dict, list[VetOutcome], list[VetOutcome]]:
    """The differential fast lane's on/off sweep over update ``tasks``
    (each carrying its baseline).

    Returns the section — certificate hit count/rate, certifications
    attempted and skipped, both wall clocks, and the fast arm's
    diff-verdict tally — and the fast and full arms' outcomes.
    ``options`` go to ``vet_many``."""
    (fast, wall_fast), (full, wall_full) = _on_off(
        tasks, "incremental", **options
    )
    hits = sum(1 for outcome in fast if outcome.incremental)
    return {
        "pairs": len(tasks),
        "hits": hits,
        "hit_rate": rate(hits, len(tasks)),
        # The cost gate's economics: certificates attempted vs. skipped
        # because full re-analysis was predicted cheaper.
        "certifications_attempted": sum(
            o.counters.get("certification_attempted", 0) for o in fast
        ),
        "certifications_skipped": sum(
            o.counters.get("certification_skipped", 0) for o in fast
        ),
        "wall_incremental_s": round(wall_fast, 6),
        "wall_full_s": round(wall_full, 6),
        "wall_delta_s": round(wall_full - wall_fast, 6),
        "verdicts": tally(o.diff_verdict for o in fast if o.diff_verdict),
    }, fast, full


def merge_sections(path: str | Path, sections: dict) -> dict:
    """Merge ``sections`` into the bench report at ``path`` and return
    the merged report: every other section in the file is kept (a
    missing, unreadable or non-object file counts as empty), the report
    is stamped with :data:`SCHEMA`, and the write is atomic."""
    path = Path(path)
    try:
        report = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        report = {}
    if not isinstance(report, dict):
        report = {}
    report["schema"] = SCHEMA
    report.update(sections)
    atomic_write_json(path, report, fsync=False)
    return report


def _directory(path: str | Path | None) -> Path | None:
    """``path`` as a directory, or ``None`` when unset or absent — its
    section is then skipped."""
    if path is None or not Path(path).is_dir():
        return None
    return Path(path)


def _examples_sections(directory: Path) -> tuple[dict, dict]:
    """The ``prefilter`` and ``preanalysis`` sections: every ``*.js``
    under ``directory`` through the prefilter sweep, in-process,
    uncached, with ``recover=True`` (the examples corpus deliberately
    contains an unparseable legacy addon)."""
    tasks = [
        VetTask(
            name=path.name,
            source=path.read_text(encoding="utf-8"),
            recover=True,
        )
        for path in sorted(directory.glob("*.js"))
    ]
    section, on, _ = prefilter_sweep(tasks, use_cache=False, workers=1)
    prefilter = {"corpus": str(directory), **section}
    return prefilter, _preanalysis_section(prefilter, on)


def _preanalysis_section(prefilter: dict, outcomes: list) -> dict:
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
        "resolution_rate": rate(resolved, resolved + residual),
        # The prefilter's hit rate with and without resolution — the
        # difference is what resolution buys the fast lane.
        "hits_with_resolution": prefilter["hits"],
        "hit_rate_with_resolution": prefilter["hit_rate"],
        "hits_without_resolution": hits_plain,
        "hit_rate_without_resolution": rate(hits_plain, prefilter["addons"]),
        "identical_signatures": prefilter["identical_signatures"],
    }


def _incremental_section(directory: Path) -> dict:
    """The ``incremental`` section: each update pair under
    ``directory`` has its approved old version vetted once for the
    baseline signature, then its new version goes through the fast-lane
    sweep, in-process, uncached. Both arms must serve bit-identical
    signatures (the certificate is sound)."""
    from repro.diffvet import discover_pairs

    pairs = discover_pairs(directory)
    baselines = vet_many(
        [
            VetTask(name=f"{pair.name}@old", source=pair.old_source(),
                    recover=True)
            for pair in pairs
        ],
        use_cache=False, workers=1,
    )
    section, fast, full = incremental_sweep(
        [
            VetTask(
                name=f"{pair.name}@new",
                source=pair.new_source(),
                recover=True,
                baseline_source=pair.old_source(),
                baseline_signature_text=baseline.signature_text,
            )
            for pair, baseline in zip(pairs, baselines)
        ],
        use_cache=False, workers=1,
    )
    return {
        "corpus": str(directory),
        **section,
        "identical_signatures": identical_signatures(fast, full),
    }


def _webext_section(directory: Path, runs: int) -> dict:
    """The ``webext`` section: each extension's bundle text under
    ``directory`` vetted with the prefilter off under the paper's
    timing protocol (``runs`` pipelines, warm-up discarded, per-phase
    medians), recording its cross-component shape (components,
    dispatched channels, sender guards). A single-pass sweep with the
    prefilter on yields the bundle-level hit rate and the
    bit-identical-signatures soundness check."""
    from repro.webext.loader import load_source

    roots = sorted(
        child for child in directory.iterdir()
        if child.is_dir() and (child / "manifest.json").exists()
    )
    sources = [load_source(root) for root in roots]
    plain = vet_many(
        sources, runs=runs, prefilter=False, workers=1, use_cache=False
    )
    filtered = vet_many(sources, prefilter=True, workers=1, use_cache=False)
    hits = sum(1 for outcome in filtered if outcome.prefiltered)
    extensions = [
        {
            "name": root.name,
            "degraded": outcome.degraded,
            "prefiltered": on.prefiltered,
            "ast_nodes": outcome.ast_nodes,
            "p1_s": round(outcome.times["p1"], 6),
            "p2_s": round(outcome.times["p2"], 6),
            "p3_s": round(outcome.times["p3"], 6),
            "total_s": round(outcome.total_time, 6),
            "samples_kept": outcome.timing_samples,
            "components": outcome.counters.get("components", 0),
            "channels": outcome.counters.get("channels", 0),
            "sender_guards": outcome.counters.get("sender_guards", 0),
            "signature_entries": outcome.counters.get("signature_entries", 0),
        }
        for root, outcome, on in zip(roots, plain, filtered)
    ]
    return {
        "corpus": str(directory),
        "extensions": extensions,
        "count": len(extensions),
        "prefilter_hits": hits,
        "prefilter_hit_rate": rate(hits, len(extensions)),
        "identical_signatures": identical_signatures(filtered, plain),
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

    The side corpora feed their own sections: the examples corpus the
    ``prefilter`` and ``preanalysis`` sections, the versioned update
    pairs the ``incremental`` section, and the extension mini-corpus
    the ``webext`` section. A section is ``None`` when its directory is
    unset or absent; an existing but empty directory yields zero counts
    and null rates. With ``output`` set the report is merged into that
    file (:func:`merge_sections`), so a ``fleet`` section written by
    ``addon-sig fleet`` survives. DESIGN.md records the schema history.

    ``corpus`` restricts the sweep to the given addon specs (default:
    the full benchmark corpus)."""
    start = time.perf_counter()
    outcomes = vet_corpus(corpus, runs=runs, k=k, workers=workers,
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

    examples = _directory(examples_dir)
    versions = _directory(versions_dir)
    extensions = _directory(extensions_dir)
    prefilter, preanalysis = (
        _examples_sections(examples) if examples else (None, None)
    )
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
        "incremental": _incremental_section(versions) if versions else None,
        # The multi-file WebExtensions pipeline on its mini-corpus.
        "webext": _webext_section(extensions, runs) if extensions else None,
    }
    if output is not None:
        report = merge_sections(output, report)
    return report


def format_rate(value: float | None, template: str = "{:.0%}") -> str:
    """A rate as the renderers print it: ``n/a`` for a null rate (the
    v7 contract), never a made-up zero."""
    return "n/a" if value is None else template.format(value)


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
    prefilter = report.get("prefilter")
    if prefilter:
        lines.append(
            f"  prefilter ({prefilter['corpus']}):"
            f" {prefilter['hits']}/{prefilter['addons']} addons skipped"
            f" (hit rate {format_rate(prefilter['hit_rate'])}),"
            f" wall {prefilter['wall_on_s']:.3f}s on"
            f" vs {prefilter['wall_off_s']:.3f}s off"
        )
    preanalysis = report.get("preanalysis")
    if preanalysis:
        lines.append(
            f"  preanalysis ({preanalysis['corpus']}):"
            f" {preanalysis['resolved_sites']} computed site(s) resolved"
            f" (rate {format_rate(preanalysis['resolution_rate'])}),"
            " prefilter"
            f" {format_rate(preanalysis['hit_rate_without_resolution'])} ->"
            f" {format_rate(preanalysis['hit_rate_with_resolution'])}"
        )
    incremental = report.get("incremental")
    if incremental:
        lines.append(
            f"  incremental ({incremental['corpus']}):"
            f" {incremental['hits']}/{incremental['pairs']} updates fast-laned"
            f" (hit rate {format_rate(incremental['hit_rate'])}),"
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
            f" prefilter hit rate {format_rate(webext['prefilter_hit_rate'])}"
        )
    fleet = report.get("fleet")
    if fleet:
        throughput = fleet.get("throughput", {})
        lines.append(
            f"  fleet: {fleet['count']} generated addons,"
            f" {format_rate(throughput.get('addons_per_s'), '{:.1f}')}"
            " addons/s,"
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
