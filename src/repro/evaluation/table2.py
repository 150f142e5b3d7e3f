"""Table 2 reproduction: signature inference results and timings.

For each benchmark addon: the pass/fail/leak classification against the
manual signature (written from the developer summary; the fail/leak
distinction uses the corpus ground truth — see
:mod:`repro.signatures.compare`), and the P1/P2/P3 phase timings under
the paper's 11-runs-drop-first-median protocol.

The corpus sweep goes through the batch engine
(:func:`repro.batch.vet_corpus`): addons are vetted in parallel across
worker processes, a broken addon degrades to an ``error`` row instead of
aborting the table, and ``--cache`` reuses on-disk results keyed by
(source, k, spec, version).

Alongside the paper's table, :func:`compute_diff_rows` reproduces the
differential-vetting extension on the versioned examples
(``examples/addons/versions``): each curated update pair gets a Diff
column — fast-laned or re-analyzed, the routing verdict, and the
classified signature changes.

Run: ``python -m repro.evaluation.table2 [--runs N] [--workers N]``
(the paper uses 11 runs; smaller N is handy while iterating).
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass, field
from pathlib import Path

from repro.addons import CORPUS, AddonSpec
from repro.batch import VetOutcome, vet_corpus
from repro.evaluation.tables import render_table
from repro.perf import PhaseTimes


@dataclass
class Table2Row:
    spec: AddonSpec
    verdict: str
    times: PhaseTimes
    extra_entries: list[str]
    missing_entries: list[str]
    error: str | None = None
    #: Typed failure kind (repro.faults.FailureKind value) on error rows.
    failure: str | None = None
    #: True when the signature was ⊤-widened by salvage mode.
    degraded: bool = False
    degradation_kinds: list[str] = field(default_factory=list)
    #: True when the relevance prefilter skipped the interpreter.
    prefiltered: bool = False
    counters: dict[str, int] = field(default_factory=dict)

    @property
    def matches_paper(self) -> bool:
        return self.verdict == self.spec.expected_verdict

    @property
    def robustness(self) -> str:
        """The breakdown-column cell: ok / degraded(kinds) / failure."""
        if self.failure is not None:
            return f"fail({self.failure})"
        if self.degraded:
            return f"degraded({','.join(self.degradation_kinds)})"
        if self.prefiltered:
            return "prefiltered"
        return "ok"


def _row_from_outcome(spec: AddonSpec, outcome: VetOutcome) -> Table2Row:
    if not outcome.ok:
        return Table2Row(
            spec=spec,
            verdict="error",
            times=PhaseTimes(p1=0.0, p2=0.0, p3=0.0),
            extra_entries=[],
            missing_entries=[],
            error=outcome.error,
            failure=outcome.failure,
        )
    assert outcome.times is not None and outcome.verdict is not None
    return Table2Row(
        spec=spec,
        verdict=outcome.verdict,
        times=PhaseTimes(**outcome.times),
        extra_entries=list(outcome.extra_entries),
        missing_entries=list(outcome.missing_entries),
        degraded=outcome.degraded,
        degradation_kinds=outcome.degradation_kinds,
        prefiltered=outcome.prefiltered,
        counters=dict(outcome.counters),
    )


def compute_table2(
    runs: int = 11,
    k: int = 1,
    workers: int | None = None,
    use_cache: bool = False,
    timeout: float | None = None,
    recover: bool = False,
) -> list[Table2Row]:
    outcomes = vet_corpus(
        CORPUS, runs=runs, k=k, workers=workers, use_cache=use_cache,
        timeout=timeout, recover=recover,
    )
    return [
        _row_from_outcome(spec, outcome)
        for spec, outcome in zip(CORPUS, outcomes)
    ]


def render_table2(rows: list[Table2Row]) -> str:
    body = render_table(
        headers=[
            "Addon Name", "Result", "Paper", "P1 (s)", "P2 (s)", "P3 (s)",
            "Robustness",
        ],
        rows=[
            [
                row.spec.name,
                row.verdict,
                row.spec.expected_verdict,
                f"{row.times.p1:.2f}",
                f"{row.times.p2:.2f}",
                f"{row.times.p3:.2f}",
                row.robustness,
            ]
            for row in rows
        ],
        title="Table 2: addon signature inference result summary",
    )
    matched = sum(row.matches_paper for row in rows)
    footer = [f"\n{matched}/{len(rows)} verdicts match the paper's Table 2."]
    breakdown: dict[str, int] = {}
    for row in rows:
        if row.failure is not None:
            breakdown[f"fail:{row.failure}"] = breakdown.get(f"fail:{row.failure}", 0) + 1
        for kind in row.degradation_kinds:
            breakdown[f"degraded:{kind}"] = breakdown.get(f"degraded:{kind}", 0) + 1
    if breakdown:
        rendered = ", ".join(f"{k}={v}" for k, v in sorted(breakdown.items()))
        footer.append(f"\nrobustness breakdown: {rendered}")
    for row in rows:
        if row.error:
            footer.append(f"\n{row.spec.name}: ERROR {row.error}")
        if row.extra_entries or row.missing_entries:
            footer.append(f"\n{row.spec.name} ({row.verdict}):")
            for entry in row.extra_entries:
                footer.append(f"  extra:   {entry}")
            for entry in row.missing_entries:
                footer.append(f"  missing: {entry}")
    return body + "\n" + "\n".join(footer)


@dataclass
class DiffRow:
    """One versioned update pair's differential-vetting summary."""

    name: str
    certificate: str  # "fast-lane" or the refusal reason
    verdict: str  # approve-fast / approve / re-review
    changes: str  # compact "kind=count" change breakdown


def compute_diff_rows(
    versions_dir: str | Path = "examples/addons/versions",
) -> list[DiffRow]:
    """The Diff column on the versioned examples: every curated update
    pair run through :func:`repro.api.diff_vet`. Empty when the
    versioned corpus is absent."""
    from repro.api import diff_vet
    from repro.diffvet import discover_pairs

    rows = []
    for pair in discover_pairs(versions_dir):
        report = diff_vet(pair.old_source(), pair.new_source())
        if report.fast_lane:
            certificate = "fast-lane"
        else:
            certificate = f"refused({report.certificate.reason})"
        changes = ", ".join(
            f"{kind}={count}"
            for kind, count in sorted(report.diff.counts.items())
            if count and kind != "unchanged"
        ) or "none"
        rows.append(DiffRow(
            name=pair.name, certificate=certificate,
            verdict=report.verdict, changes=changes,
        ))
    return rows


def render_diff_table(rows: list[DiffRow]) -> str:
    body = render_table(
        headers=["Addon Update", "Certificate", "Diff Verdict", "Changes"],
        rows=[
            [row.name, row.certificate, row.verdict, row.changes]
            for row in rows
        ],
        title="Differential vetting on the versioned examples",
    )
    fast = sum(row.verdict == "approve-fast" for row in rows)
    rereview = sum(row.verdict == "re-review" for row in rows)
    return body + (
        f"\n\n{len(rows)} update pairs: {fast} fast-laned,"
        f" {rereview} routed to re-review."
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--runs", type=int, default=11,
        help="timing runs per addon (first is discarded; paper: 11)",
    )
    parser.add_argument("--k", type=int, default=1, help="context sensitivity")
    parser.add_argument(
        "--workers", type=int, default=None,
        help="vetting worker processes (default: one per CPU)",
    )
    parser.add_argument(
        "--cache", action="store_true",
        help="reuse the on-disk vetting result cache",
    )
    parser.add_argument(
        "--timeout", type=float, default=None,
        help="per-run wall-clock budget in seconds (degrades, not fails)",
    )
    arguments = parser.parse_args()
    print(render_table2(compute_table2(
        runs=arguments.runs, k=arguments.k,
        workers=arguments.workers, use_cache=arguments.cache,
        timeout=arguments.timeout,
    )))
    diff_rows = compute_diff_rows()
    if diff_rows:
        print()
        print(render_diff_table(diff_rows))


if __name__ == "__main__":
    main()
