"""``addon-sig fleet``: store-scale benchmark runs over generated corpora.

Vets a seeded :mod:`repro.corpusgen` corpus (1k+ addons by default)
through the batch engine and measures what a 10-addon corpus cannot:

- **throughput** — addons/s and addons/s/core over the parallel pool;
- **prefilter economics at scale** — hit rate plus the on/off wall
  delta (the benign share of a store is where the prefilter pays);
- **cache economics** — a cold then warm sweep against a fresh on-disk
  cache: hit rate and warm/cold speedup under re-submission traffic;
- **incremental economics** — generated update chains vetted with the
  fast lane on and off: certificate hit rate, attempted/skipped counts,
  and the wall delta that a 5-pair corpus could never amortize;
- **peak RSS** — ``getrusage`` high-water mark of the run, self +
  children (the pool workers);

and — the reason the corpus is generated rather than scraped — a
**verdict-mismatch count that must be zero**: every generated addon
carries its expected signature and every update pair its expected
diffvet classification, so the throughput numbers are simultaneously a
soundness sweep. Results land in the ``fleet`` section of
``BENCH_corpus.json`` (the bench report schema), merged without
disturbing the other sections.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from pathlib import Path

from repro.batch import (
    VetTask,
    hits_without_resolution,
    summarize,
    vet_many,
)
from repro.corpusgen.generator import (
    GeneratedAddon,
    GeneratedUpdate,
    generate_corpus,
    generate_updates,
)
from repro.perf import peak_rss_mb

#: The keys every ``fleet`` section must carry — CI fails on drift.
FLEET_SECTION_KEYS = (
    "count",
    "seed",
    "workers",
    "generated",
    "verdict_mismatches",
    "mismatches",
    "throughput",
    "prefilter",
    "cache",
    "updates",
    "service",
    "peak_rss_mb",
    "robustness",
)


def _tasks(corpus: list[GeneratedAddon], *, prefilter: bool = True) -> list[VetTask]:
    return [
        VetTask(name=addon.name, source=addon.source, prefilter=prefilter)
        for addon in corpus
    ]


def _check_signatures(
    corpus: list[GeneratedAddon], outcomes, mismatches: list[dict], arm: str
) -> None:
    """Every outcome must be clean and bit-identical to its expected
    signature; anything else is a recorded mismatch."""
    for addon, outcome in zip(corpus, outcomes):
        if not outcome.ok:
            mismatches.append({
                "name": addon.name, "arm": arm, "kind": "error",
                "detail": f"{outcome.failure}: {outcome.error}",
            })
        elif outcome.signature_text != addon.expected_signature:
            mismatches.append({
                "name": addon.name, "arm": arm, "kind": "signature",
                "expected": addon.expected_signature,
                "got": outcome.signature_text,
            })


def _sweep_throughput(
    corpus: list[GeneratedAddon], workers: int | None,
    mismatches: list[dict],
) -> tuple[list, dict]:
    start = time.perf_counter()
    outcomes = vet_many(_tasks(corpus), workers=workers, use_cache=False)
    wall = time.perf_counter() - start
    _check_signatures(corpus, outcomes, mismatches, "throughput")
    cores = os.cpu_count() or 1
    effective = min(workers or cores, cores)
    rate = len(corpus) / wall if wall > 0 else None
    return outcomes, {
        "wall_s": round(wall, 6),
        "addons_per_s": round(rate, 2) if rate else None,
        "addons_per_s_per_core": (
            round(rate / effective, 2) if rate else None
        ),
        "cores": effective,
    }


def _sweep_prefilter(
    corpus: list[GeneratedAddon], workers: int | None,
    on_outcomes, on_wall: float, mismatches: list[dict],
) -> dict:
    """The control arm: the same corpus with the prefilter off. The
    throughput sweep above is the on arm (no extra wall clock)."""
    start = time.perf_counter()
    off = vet_many(
        _tasks(corpus, prefilter=False), workers=workers, use_cache=False
    )
    wall_off = time.perf_counter() - start
    _check_signatures(corpus, off, mismatches, "prefilter-off")
    hits = sum(1 for outcome in on_outcomes if outcome.prefiltered)
    hits_plain = hits_without_resolution(on_outcomes)
    return {
        "addons": len(corpus),
        "hits": hits,
        "hit_rate": round(hits / len(corpus), 4) if corpus else None,
        # The same decision without computed-key resolution (derived
        # from the on arm): computed sites all read as dynamic, so
        # addons whose only dynamism is a provably-constant key fall
        # out of the fast lane.
        "hits_without_resolution": hits_plain,
        "hit_rate_without_resolution": (
            round(hits_plain / len(corpus), 4) if corpus else None
        ),
        "resolution_gain": hits - hits_plain,
        "wall_on_s": round(on_wall, 6),
        "wall_off_s": round(wall_off, 6),
        "wall_delta_s": round(wall_off - on_wall, 6),
        "identical_signatures": all(
            a.signature_text == b.signature_text
            for a, b in zip(on_outcomes, off)
        ),
    }


def _sweep_cache(
    corpus: list[GeneratedAddon], workers: int | None, mismatches: list[dict]
) -> dict:
    """Cold then warm against a fresh cache directory: the hit rate and
    speedup a vetting service sees under re-submission traffic."""
    with tempfile.TemporaryDirectory(prefix="fleet-cache-") as cache_dir:
        start = time.perf_counter()
        vet_many(
            _tasks(corpus), workers=workers, use_cache=True,
            cache_dir=cache_dir,
        )
        cold_wall = time.perf_counter() - start
        start = time.perf_counter()
        warm = vet_many(
            _tasks(corpus), workers=workers, use_cache=True,
            cache_dir=cache_dir,
        )
        warm_wall = time.perf_counter() - start
    _check_signatures(corpus, warm, mismatches, "cache-warm")
    hits = sum(1 for outcome in warm if outcome.cached)
    return {
        "addons": len(corpus),
        "hits": hits,
        "hit_rate": round(hits / len(corpus), 4) if corpus else None,
        "cold_wall_s": round(cold_wall, 6),
        "warm_wall_s": round(warm_wall, 6),
        "speedup": (
            round(cold_wall / warm_wall, 2) if warm_wall > 0 else None
        ),
    }


def _update_tasks(
    updates: list[GeneratedUpdate], *, incremental: bool
) -> list[VetTask]:
    return [
        VetTask(
            name=update.name,
            source=update.new_source,
            baseline_source=update.old_source,
            baseline_signature_text=update.old_expected,
            incremental=incremental,
        )
        for update in updates
    ]


def _sweep_updates(
    updates: list[GeneratedUpdate], workers: int | None,
    mismatches: list[dict],
) -> dict:
    """Generated update chains through the differential lane, fast lane
    on vs. off. Baselines come from the generator (the old version's
    expected signature *is* its vetted signature — checked by the
    single-addon sweeps), so no extra old-version vetting run is paid."""
    start = time.perf_counter()
    fast = vet_many(
        _update_tasks(updates, incremental=True),
        workers=workers, use_cache=False,
    )
    wall_fast = time.perf_counter() - start
    start = time.perf_counter()
    full = vet_many(
        _update_tasks(updates, incremental=False),
        workers=workers, use_cache=False,
    )
    wall_full = time.perf_counter() - start

    verdicts: dict[str, int] = {}
    for update, fast_outcome, full_outcome in zip(updates, fast, full):
        for arm, outcome in (("update-fast", fast_outcome),
                             ("update-full", full_outcome)):
            if not outcome.ok:
                mismatches.append({
                    "name": update.name, "arm": arm, "kind": "error",
                    "detail": f"{outcome.failure}: {outcome.error}",
                })
                continue
            if outcome.signature_text != update.new_expected:
                mismatches.append({
                    "name": update.name, "arm": arm, "kind": "signature",
                    "expected": update.new_expected,
                    "got": outcome.signature_text,
                })
            if outcome.diff_verdict not in update.expected_verdicts:
                mismatches.append({
                    "name": update.name, "arm": arm, "kind": "verdict",
                    "mutation": update.mutation,
                    "expected": list(update.expected_verdicts),
                    "got": outcome.diff_verdict,
                })
        if fast_outcome.diff_verdict:
            verdicts[fast_outcome.diff_verdict] = (
                verdicts.get(fast_outcome.diff_verdict, 0) + 1
            )

    hits = sum(1 for outcome in fast if outcome.incremental)
    return {
        "pairs": len(updates),
        "hits": hits,
        "hit_rate": round(hits / len(updates), 4) if updates else None,
        "certifications_attempted": sum(
            o.counters.get("certification_attempted", 0) for o in fast
        ),
        "certifications_skipped": sum(
            o.counters.get("certification_skipped", 0) for o in fast
        ),
        "wall_incremental_s": round(wall_fast, 6),
        "wall_full_s": round(wall_full, 6),
        "wall_delta_s": round(wall_full - wall_fast, 6),
        "verdicts": verdicts,
        "mutations": _count(update.mutation for update in updates),
    }


def _count(items) -> dict[str, int]:
    counts: dict[str, int] = {}
    for item in items:
        counts[item] = counts.get(item, 0) + 1
    return dict(sorted(counts.items()))


def _sweep_service(
    corpus: list[GeneratedAddon], workers: int | None,
    mismatches: list[dict], sample: int = 50,
) -> dict:
    """Optional arm: round-trip a sample of the corpus through the
    ``addon-sig serve`` daemon and hold its outcomes to the same
    expected signatures — the service path must not bend results."""
    from repro.service.loadgen import DaemonHandle

    subset = corpus[:sample]
    with tempfile.TemporaryDirectory(prefix="fleet-service-") as directory:
        handle = DaemonHandle(
            Path(directory), workers=min(workers or 2, 4),
            max_attempts=3, fsync=False,
        )
        handle.start()
        try:
            start = time.perf_counter()
            job_ids = [
                handle.client.submit(
                    VetTask(name=addon.name, source=addon.source)
                )["id"]
                for addon in subset
            ]
            outcomes = []
            for job_id in job_ids:
                handle.client.wait(job_id, timeout=300.0)
                payload = handle.client.result(job_id)["outcome"]
                outcomes.append(payload)
            wall = time.perf_counter() - start
        finally:
            handle.stop()
    hits = 0
    for addon, outcome in zip(subset, outcomes):
        if outcome.get("ok") and (
            outcome.get("signature_text") == addon.expected_signature
        ):
            hits += 1
        else:
            mismatches.append({
                "name": addon.name, "arm": "service",
                "kind": "signature" if outcome.get("ok") else "error",
                "expected": addon.expected_signature,
                "got": outcome.get("signature_text") or outcome.get("error"),
            })
    return {
        "addons": len(subset),
        "ok": hits,
        "wall_s": round(wall, 6),
    }


def run_fleet(
    count: int = 1000,
    seed: int = 0,
    *,
    workers: int | None = None,
    update_count: int | None = None,
    bundle_fraction: float = 0.25,
    service: bool = False,
    output: str | Path | None = "BENCH_corpus.json",
) -> dict:
    """Run the full fleet benchmark; returns the ``fleet`` section.

    ``update_count`` defaults to ``max(count // 5, 10)`` version pairs.
    With ``output`` set, the section is merged into the bench report at
    that path (creating a minimal ``fleet``-only report when no bench
    has run yet) under the bench report schema."""
    corpus = generate_corpus(count, seed, bundle_fraction=bundle_fraction)
    updates = generate_updates(
        update_count if update_count is not None else max(count // 5, 10),
        seed,
    )
    mismatches: list[dict] = []

    outcomes, throughput = _sweep_throughput(corpus, workers, mismatches)
    prefilter = _sweep_prefilter(
        corpus, workers, outcomes, throughput["wall_s"], mismatches
    )
    cache = _sweep_cache(corpus, workers, mismatches)
    update_section = _sweep_updates(updates, workers, mismatches)
    service_section = (
        _sweep_service(corpus, workers, mismatches) if service else None
    )

    section = {
        "count": count,
        "seed": seed,
        "workers": workers,
        "generated": {
            "singles": sum(1 for a in corpus if a.kind == "single"),
            "bundles": sum(1 for a in corpus if a.kind == "bundle"),
            "benign": sum(1 for a in corpus if not a.expected_entries),
            "dynamic": sum(1 for a in corpus if a.dynamic),
            "fragments": _count(
                kind for addon in corpus for kind in addon.fragments
            ),
            "mutations": _count(
                name for addon in corpus for name in addon.mutations
            ),
        },
        "verdict_mismatches": len(mismatches),
        # Capped detail: enough to reproduce (the corpus is seeded), not
        # enough to bloat the report when something goes badly wrong.
        "mismatches": mismatches[:20],
        "throughput": throughput,
        "prefilter": prefilter,
        "cache": cache,
        "updates": update_section,
        "service": service_section,
        "peak_rss_mb": peak_rss_mb(),
        "robustness": summarize(outcomes),
    }
    if output is not None:
        merge_fleet_section(Path(output), section)
    return section


def merge_fleet_section(path: Path, section: dict) -> dict:
    """Merge the ``fleet`` section into the bench report at ``path``,
    preserving every other section, and stamp the bench report schema."""
    from repro.evaluation.bench import SCHEMA
    from repro.store import atomic_write_json

    report: dict = {}
    if path.exists():
        try:
            report = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            report = {}
    if not isinstance(report, dict):
        report = {}
    report["schema"] = SCHEMA
    report["fleet"] = section
    atomic_write_json(path, report, fsync=False)
    return report


def render_fleet(section: dict) -> str:
    generated = section["generated"]
    throughput = section["throughput"]
    prefilter = section["prefilter"]
    cache = section["cache"]
    updates = section["updates"]
    lines = [
        f"fleet: {section['count']} generated addons (seed {section['seed']})"
        f" — {generated['singles']} single-file, {generated['bundles']}"
        f" bundles, {generated['benign']} benign",
        f"  throughput: {throughput['wall_s']:.2f}s wall,"
        f" {throughput['addons_per_s'] or 0:.1f} addons/s"
        f" ({throughput['addons_per_s_per_core'] or 0:.1f}/core,"
        f" {throughput['cores']} cores)",
        f"  prefilter: {prefilter['hits']}/{prefilter['addons']} skipped"
        f" (hit rate {(prefilter['hit_rate'] or 0):.0%}),"
        f" wall {prefilter['wall_on_s']:.2f}s on"
        f" vs {prefilter['wall_off_s']:.2f}s off"
        f" (delta {prefilter['wall_delta_s']:+.2f}s)",
        f"  cache: warm hit rate {(cache['hit_rate'] or 0):.0%},"
        f" cold {cache['cold_wall_s']:.2f}s vs warm"
        f" {cache['warm_wall_s']:.2f}s"
        f" ({cache['speedup'] or 0:.1f}x)",
        f"  updates: {updates['hits']}/{updates['pairs']} fast-laned"
        f" (hit rate {(updates['hit_rate'] or 0):.0%}),"
        f" wall {updates['wall_incremental_s']:.2f}s on"
        f" vs {updates['wall_full_s']:.2f}s off"
        f" (delta {updates['wall_delta_s']:+.2f}s)",
    ]
    if section.get("service"):
        service = section["service"]
        lines.append(
            f"  service: {service['ok']}/{service['addons']} round-tripped"
            f" in {service['wall_s']:.2f}s"
        )
    if section.get("peak_rss_mb") is not None:
        lines.append(f"  peak RSS: {section['peak_rss_mb']:.0f} MB")
    lines.append(
        f"  verdict mismatches: {section['verdict_mismatches']}"
        + (" — SOUND" if not section["verdict_mismatches"] else " — FAILED")
    )
    for mismatch in section["mismatches"][:5]:
        lines.append(
            f"    mismatch [{mismatch['arm']}/{mismatch['kind']}]"
            f" {mismatch['name']}"
        )
    return "\n".join(lines)
