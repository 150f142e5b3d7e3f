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

import os
import tempfile
import time
from pathlib import Path

from repro.batch import (
    VetOutcome,
    VetTask,
    hits_without_resolution,
    summarize,
)
from repro.corpusgen.generator import (
    GeneratedAddon,
    GeneratedUpdate,
    generate_corpus,
    generate_updates,
)
from repro.evaluation.bench import (
    format_rate,
    incremental_sweep,
    merge_sections,
    prefilter_sweep,
    timed_vet,
)
from repro.perf import peak_rss_mb, rate, tally

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


def _check(
    mismatches: list[dict], arm: str, name: str, outcome: VetOutcome,
    expected: str, update: GeneratedUpdate | None = None,
) -> bool:
    """Hold one outcome to its expectation: a clean run, the expected
    signature and, for an ``update``, one of its expected diff
    verdicts. Records each miss in ``mismatches``; returns whether the
    outcome held."""
    if not outcome.ok:
        mismatches.append({
            "name": name, "arm": arm, "kind": "error",
            "detail": f"{outcome.failure}: {outcome.error}",
        })
        return False
    before = len(mismatches)
    if outcome.signature_text != expected:
        mismatches.append({
            "name": name, "arm": arm, "kind": "signature",
            "expected": expected, "got": outcome.signature_text,
        })
    if update is not None and (
        outcome.diff_verdict not in update.expected_verdicts
    ):
        mismatches.append({
            "name": name, "arm": arm, "kind": "verdict",
            "mutation": update.mutation,
            "expected": list(update.expected_verdicts),
            "got": outcome.diff_verdict,
        })
    return len(mismatches) == before


def _check_corpus(
    mismatches: list[dict], arm: str, corpus: list[GeneratedAddon],
    outcomes: list[VetOutcome],
) -> int:
    """Hold an arm over the corpus to the expected signatures; returns
    how many outcomes held."""
    return sum(
        _check(mismatches, arm, addon.name, outcome,
               addon.expected_signature)
        for addon, outcome in zip(corpus, outcomes)
    )


def _throughput(addons: int, wall: float, workers: int | None) -> dict:
    cores = os.cpu_count() or 1
    effective = min(workers or cores, cores)
    per_s = addons / wall if wall > 0 else None
    return {
        "wall_s": wall,
        "addons_per_s": round(per_s, 2) if per_s else None,
        "addons_per_s_per_core": (
            round(per_s / effective, 2) if per_s else None
        ),
        "cores": effective,
    }


def _tasks(corpus: list[GeneratedAddon]) -> list[VetTask]:
    return [VetTask(name=addon.name, source=addon.source) for addon in corpus]


def _sweep_prefilter(
    corpus: list[GeneratedAddon], workers: int | None,
    mismatches: list[dict],
) -> tuple[dict, list[VetOutcome]]:
    """The shared prefilter sweep, both arms held to the expected
    signatures. Its on arm is the throughput arm (the production
    configuration, timed once); returns the section and that arm."""
    section, on, off = prefilter_sweep(
        _tasks(corpus), workers=workers, use_cache=False
    )
    _check_corpus(mismatches, "throughput", corpus, on)
    _check_corpus(mismatches, "prefilter-off", corpus, off)
    # The same decision without computed-key resolution (derived from
    # the on arm): computed sites all read as dynamic, so addons whose
    # only dynamism is a provably-constant key fall out of the fast lane.
    hits_plain = hits_without_resolution(on)
    section.update({
        "hits_without_resolution": hits_plain,
        "hit_rate_without_resolution": rate(hits_plain, len(corpus)),
        "resolution_gain": section["hits"] - hits_plain,
    })
    return section, on


def _sweep_cache(
    corpus: list[GeneratedAddon], workers: int | None,
    mismatches: list[dict],
) -> dict:
    """Cold then warm against a fresh cache directory: the hit rate and
    speedup a vetting service sees under re-submission traffic."""
    tasks = _tasks(corpus)
    with tempfile.TemporaryDirectory(prefix="fleet-cache-") as cache_dir:
        # Only the cold arm's wall clock: its outcomes are dropped
        # before the warm arm runs.
        cold_wall = timed_vet(
            tasks, workers=workers, use_cache=True, cache_dir=cache_dir
        )[1]
        warm, warm_wall = timed_vet(
            tasks, workers=workers, use_cache=True, cache_dir=cache_dir
        )
    _check_corpus(mismatches, "cache-warm", corpus, warm)
    hits = sum(1 for outcome in warm if outcome.cached)
    return {
        "addons": len(tasks),
        "hits": hits,
        "hit_rate": rate(hits, len(tasks)),
        "cold_wall_s": round(cold_wall, 6),
        "warm_wall_s": round(warm_wall, 6),
        "speedup": (
            round(cold_wall / warm_wall, 2)
            if tasks and warm_wall > 0 else None
        ),
    }


def _sweep_updates(
    updates: list[GeneratedUpdate], workers: int | None,
    mismatches: list[dict],
) -> dict:
    """The shared fast-lane sweep over the generated update pairs, both
    arms held to the expected signatures and diff verdicts. Baselines
    come from the generator (the old version's expected signature *is*
    its vetted signature — checked by the single-addon sweeps), so no
    extra old-version vetting run is paid."""
    section, fast, full = incremental_sweep(
        [
            VetTask(
                name=update.name,
                source=update.new_source,
                baseline_source=update.old_source,
                baseline_signature_text=update.old_expected,
            )
            for update in updates
        ],
        workers=workers, use_cache=False,
    )
    for arm, outcomes in (("update-fast", fast), ("update-full", full)):
        for update, outcome in zip(updates, outcomes):
            _check(mismatches, arm, update.name, outcome,
                   update.new_expected, update)
    section["mutations"] = tally(update.mutation for update in updates)
    return section


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
                handle.client.submit(task)["id"] for task in _tasks(subset)
            ]
            outcomes = []
            for job_id in job_ids:
                handle.client.wait(job_id, timeout=300.0)
                payload = handle.client.result(job_id)["outcome"]
                outcomes.append(VetOutcome.from_json(payload))
            wall = time.perf_counter() - start
        finally:
            handle.stop()
    return {
        "addons": len(subset),
        "ok": _check_corpus(mismatches, "service", subset, outcomes),
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
    that path (:func:`repro.evaluation.bench.merge_sections`, creating
    a ``fleet``-only report when no bench has run yet)."""
    corpus = generate_corpus(count, seed, bundle_fraction=bundle_fraction)
    updates = generate_updates(
        update_count if update_count is not None else max(count // 5, 10),
        seed,
    )
    mismatches: list[dict] = []

    prefilter, outcomes = _sweep_prefilter(corpus, workers, mismatches)
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
            "fragments": tally(
                kind for addon in corpus for kind in addon.fragments
            ),
            "mutations": tally(
                name for addon in corpus for name in addon.mutations
            ),
        },
        "verdict_mismatches": len(mismatches),
        # Capped detail: enough to reproduce (the corpus is seeded), not
        # enough to bloat the report when something goes badly wrong.
        "mismatches": mismatches[:20],
        "throughput": _throughput(
            len(corpus), prefilter["wall_on_s"], workers
        ),
        "prefilter": prefilter,
        "cache": cache,
        "updates": update_section,
        "service": service_section,
        "peak_rss_mb": peak_rss_mb(),
        "robustness": summarize(outcomes),
    }
    if output is not None:
        merge_sections(output, {"fleet": section})
    return section


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
        f" {format_rate(throughput['addons_per_s'], '{:.1f}')} addons/s"
        f" ({format_rate(throughput['addons_per_s_per_core'], '{:.1f}')}"
        "/core,"
        f" {throughput['cores']} cores)",
        f"  prefilter: {prefilter['hits']}/{prefilter['addons']} skipped"
        f" (hit rate {format_rate(prefilter['hit_rate'])}),"
        f" wall {prefilter['wall_on_s']:.2f}s on"
        f" vs {prefilter['wall_off_s']:.2f}s off"
        f" (delta {prefilter['wall_delta_s']:+.2f}s)",
        f"  cache: warm hit rate {format_rate(cache['hit_rate'])},"
        f" cold {cache['cold_wall_s']:.2f}s vs warm"
        f" {cache['warm_wall_s']:.2f}s"
        f" ({format_rate(cache['speedup'], '{:.1f}x')})",
        f"  updates: {updates['hits']}/{updates['pairs']} fast-laned"
        f" (hit rate {format_rate(updates['hit_rate'])}),"
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
