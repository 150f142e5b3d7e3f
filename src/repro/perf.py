"""Lightweight performance observability shared across the pipeline.

Small pieces every layer can agree on without import cycles:

- :class:`PhaseTimes` — the paper's P1/P2/P3 wall-time split (Section
  6.2), used by ``api.vet``, the timing harness, the batch engine, and
  the bench command;
- :class:`Counters` — a plain named-integer bag for hot-path statistics
  (fixpoint steps, states created, joins, PDG edges, ...). Counters are
  pure observation: they never feed back into analysis decisions, so
  enabling them cannot change any signature;
- :func:`peak_rss_mb` — the process's memory high-water mark, and
  :func:`vm_hwm_mb` another live process's;
- :func:`phase_peaks` — the traced-memory peak of each phase of one
  vet, recorded at the phase boundaries ``api.vet`` marks with
  :func:`phase_end`;
- :func:`rate` and :func:`tally` — the hit rates and breakdowns the
  bench reports carry.
"""

from __future__ import annotations

import gc
import statistics
import time
from collections import Counter
from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class PhaseTimes:
    """One addon's phase timings, in seconds."""

    p1: float
    p2: float
    p3: float

    @property
    def total(self) -> float:
        return self.p1 + self.p2 + self.p3

    def render(self) -> str:
        return (
            f"P1 {self.p1:.3f}s | P2 {self.p2:.3f}s | P3 {self.p3:.3f}s"
            f" (total {self.total:.3f}s)"
        )


def kept_samples(
    samples: list[PhaseTimes], discard_first: bool = True
) -> list[PhaseTimes]:
    """The samples the paper's protocol actually aggregates: everything
    after the warm-up discard — which only happens when there *is* a
    sample to spare. With a single sample, nothing is discarded."""
    if discard_first and len(samples) > 1:
        return list(samples[1:])
    return list(samples)


def median_report(
    samples: list[PhaseTimes], discard_first: bool = True
) -> tuple[PhaseTimes, int]:
    """The per-phase medians *and how many samples they summarize*.

    The kept-sample count travels with the number because a "median"
    of one post-warm-up sample (``runs=2`` with the discard) is just
    that sample — reporting it as a median with no sample count invites
    misreading downstream (BENCH_corpus.json carries the count per
    addon since v4). Raises ``ValueError`` on an empty sample list: a
    protocol that produced no timing runs has no statistic to report,
    and silently inventing one would be worse than failing.
    """
    if not samples:
        raise ValueError(
            "median_report: no timing samples (runs must be >= 1)"
        )
    kept = kept_samples(samples, discard_first)
    times = PhaseTimes(
        p1=statistics.median(sample.p1 for sample in kept),
        p2=statistics.median(sample.p2 for sample in kept),
        p3=statistics.median(sample.p3 for sample in kept),
    )
    return times, len(kept)


class Counters(dict):
    """A ``dict[str, int]`` with a convenient increment. Kept as a plain
    dict subclass so it serializes as-is (JSON, pickle across the
    process pool) and merges with ``update``."""

    def bump(self, name: str, amount: int = 1) -> None:
        self[name] = self.get(name, 0) + amount

    def merged(self, other: dict[str, int]) -> "Counters":
        merged = Counters(self)
        for name, amount in other.items():
            merged[name] = merged.get(name, 0) + amount
        return merged


#: While :func:`phase_peaks` runs: the tracemalloc peak of each vet
#: phase ended so far, in bytes. Process-wide, as tracemalloc is.
_PHASE_PEAKS: list[int] | None = None


def phase_end() -> float:
    """``time.perf_counter()``, read where a vet phase ends. Under
    :func:`phase_peaks` it also records the phase's tracemalloc peak and
    starts the next phase's."""
    if _PHASE_PEAKS is not None:
        import tracemalloc

        _PHASE_PEAKS.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()
    return time.perf_counter()


@contextmanager
def phase_peaks() -> Iterator[list[float]]:
    """Trace memory while the body runs one vet. The yielded list then
    holds each phase's peak (P1, P2, P3; only P1 for a prefiltered vet)
    in MB over the traced memory at entry, so a phase's peak counts
    what earlier phases left alive. Only allocations made in the body
    are traced: run the vet once before to keep one-time caches out.

    The collector is run at entry and held off in the body. A full
    collection also empties CPython's free lists, whose parked objects
    count as traced, so without this a phase's peak would move with
    where the full collections happen to land."""
    global _PHASE_PEAKS
    import tracemalloc

    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    base = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    peaks: list[float] = []
    raw: list[int] = []
    _PHASE_PEAKS = raw
    try:
        yield peaks
    finally:
        _PHASE_PEAKS = None
        if started:
            tracemalloc.stop()
        if was_enabled:
            gc.enable()
    peaks.extend(round((peak - base) / 2**20, 2) for peak in raw)


def peak_rss_mb(*, children: bool = True) -> float | None:
    """High-water RSS of this process plus (unless ``children`` is
    false) its reaped children, MB."""
    try:
        import resource
    except ImportError:  # non-POSIX
        return None
    who = [resource.RUSAGE_SELF]
    if children:
        who.append(resource.RUSAGE_CHILDREN)
    peak_kb = sum(resource.getrusage(w).ru_maxrss for w in who)
    return round(peak_kb / 1024.0, 2)


def vm_hwm_mb(pid: int) -> float | None:
    """High-water RSS (``VmHWM``) of the live process ``pid``, MB, or
    ``None`` where ``/proc`` is absent or the process is gone."""
    try:
        with open(f"/proc/{pid}/status", "rb") as status:
            for line in status:
                if line.startswith(b"VmHWM:"):
                    return round(int(line.split()[1]) / 1024.0, 2)
    except OSError:
        pass
    return None


def rate(hits: int, total: int) -> float | None:
    """``hits/total`` rounded to 4 places, or ``None`` — a null rate,
    not a ZeroDivisionError — when ``total`` is 0 (an empty or fully
    filtered corpus)."""
    if total == 0:
        return None
    return round(hits / total, 4)


def tally(items: Iterable[str]) -> dict[str, int]:
    """How often each item occurs, keyed in sorted order."""
    return dict(sorted(Counter(items).items()))
