"""The parallel corpus vetting engine.

Batch-mode static vetting makes the corpus dimension embarrassingly
parallel: every addon's pipeline (P1 base analysis, P2 annotated PDG, P3
signature inference) is independent of every other addon's, so
:func:`vet_many` fans the corpus out over a :class:`WorkerPool` with

- **per-addon isolation with typed outcomes** — a parse error becomes a
  typed failure (:class:`repro.faults.FailureKind`), a blown analysis
  budget (fixpoint steps, cooperative wall-clock deadline, abstract
  states) *degrades* to a sound ⊤-widened signature flagged
  ``degraded``, a task wedged past its hard deadline fails as
  ``budget-time`` and its worker is killed, a task that kills its
  worker when run alone is quarantined as ``poison-job``, and a
  corrupt cache entry is quarantined — nothing one addon does kills
  the batch or goes unreported (:func:`summarize` gives the per-kind
  breakdown);
- **an on-disk result cache** keyed by ``(sha256(source), k, spec
  fingerprint, engine/repro version)`` — re-vetting an unchanged addon
  under an unchanged policy is a cache hit, which is what makes a
  vetting *service* cheap under heavy re-submission traffic;
- **deterministic outcomes** — a :class:`VetOutcome` is a compact,
  JSON-serializable summary (canonical signature text, verdict, phase
  times, hot-path counters), so parallel, sequential, and cached runs
  are directly comparable (and tested to be identical);
- **differential vetting** — a task carrying a *baseline* (the approved
  previous version's source and signature) takes the incremental fast
  lane when the change-surface certificate holds
  (:mod:`repro.diffvet.incremental`): the approved signature is served
  without re-running the interpreter, and otherwise the full
  re-analysis is diffed against the baseline
  (:func:`repro.diffvet.diff.diff_signatures`) into an
  ``approve-fast`` / ``approve`` / ``re-review`` verdict with witness
  paths for every widened or new flow. :class:`repro.diffvet.store
  .VersionStore` supplies baselines from per-addon version chains.

The evaluation harness (Table 2, the timing protocol, ``addon-sig
bench``) is built on this engine; :func:`vet_corpus` is the
corpus-shaped convenience entry. The vetting daemon
(:mod:`repro.service.server`) drives the same :class:`Dispatch` over a
:class:`WorkerPool` of its own.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import os
import signal
import sys
import time
from collections import deque
from dataclasses import dataclass, field
from math import inf
from pathlib import Path
from typing import TYPE_CHECKING

import repro
from repro.faults import Budget, FailureKind, classify_exception
from repro.lazy import lazy_exports, sha256_hex
from repro.perf import median_report
from repro.store import JsonStore

if TYPE_CHECKING:
    from concurrent.futures import Future, ProcessPoolExecutor

    from repro.signatures.spec import SecuritySpec

# The process pool (``concurrent.futures.process`` and
# ``multiprocessing``, ~2.5 MB) loads when a pool starts, never in a
# client that only builds tasks. :meth:`WorkerPool.start` reads the
# executor class through this module, so a test can substitute it.
__getattr__, __dir__ = lazy_exports(
    __name__, {"ProcessPoolExecutor": "concurrent.futures"}
)

#: Bump when the pipeline's observable output changes (invalidates every
#: cached outcome, together with ``repro.__version__``).
#: v3: the relevance prefilter joined the pipeline (outcomes carry
#: ``prefiltered`` and the cache key the prefilter switch).
#: v4: differential vetting (baseline-aware cache key; outcomes carry
#: ``incremental``/``diff_verdict``/``diff_changes``/``diff_witnesses``
#: and the kept timing-sample count).
#: v5: cost-gated fast lane (small updates skip certification; the gate
#: is part of the cache key, and outcomes count attempted/skipped
#: certifications).
#: v6: WebExtensions (``repro.webext``): bundle sources route through
#: the multi-file pipeline with the chrome.* model and the sender-guard
#: downgrade, so a bundle's signature can differ from what v5 (a parse
#: error on bundle text) produced.
#: v7: whole-program pre-analysis (``repro.preanalysis``): computed
#: properties resolve against a constant-string lattice (prefilter
#: decisions can change), dead top-level functions are pruned before
#: lowering, and outcomes carry the pre-analysis counters; the switch
#: joins the cache key.
#: v8: one vetting pipeline over a program set: dead-function pruning
#: is gone (outcomes no longer carry ``pruned_nodes``), and bundle
#: updates skip certification instead of attempting it.
#: v9: the pre-analysis switch is gone: the prefilter resolves computed
#: keys itself, only when they alone would refuse it, and the call
#: graph left the vet path (outcomes no longer carry
#: ``callgraph_edges``; the resolution counters appear only with the
#: prefilter on).
ENGINE_VERSION = 9

#: The fast lane's cost gate: updates whose new version is smaller than
#: this (source characters) skip the change-surface certificate and go
#: straight to full re-analysis. Certification parses both versions and
#: walks their surfaces — on a small addon that costs more than the full
#: pipeline it is trying to avoid, so attempting it loses wall clock
#: even when the certificate would hold. The threshold approximates the
#: size (roughly 250-300 AST nodes at the corpus's ~14 chars/node) below
#: which measured full-analysis time drops to certification time.
FAST_LANE_MIN_SOURCE_CHARS = 4096


# ----------------------------------------------------------------------
# Tasks and outcomes


@dataclass(frozen=True)
class VetTask:
    """One unit of batch vetting work (picklable, immutable)."""

    name: str
    source: str
    k: int = 1
    #: Timing runs; with ``runs > 1`` the first run is discarded and the
    #: per-phase median of the rest is reported (the paper's protocol).
    runs: int = 1
    #: Manual signature text to compare against (Table 2 methodology).
    manual_text: str | None = None
    real_extras_text: str = ""
    #: Fixpoint step budget; ``None`` = the interpreter default. A blown
    #: budget degrades the outcome (sound ⊤-widened signature) rather
    #: than failing it.
    max_steps: int | None = None
    #: Skip unparseable top-level statements and vet the remainder
    #: (degraded outcome) instead of failing on the first parse error.
    recover: bool = False
    #: Run the sound relevance prefilter first: an addon whose syntactic
    #: surface cannot reach the spec gets the trivially-empty signature
    #: without the interpreter (bit-identical results either way; see
    #: ``repro.lint.surface``). On by default in batch vetting.
    prefilter: bool = True
    #: The approved previous version's source, for differential vetting.
    #: With both baseline fields set, the task is an *update*: the
    #: incremental fast lane may serve the baseline signature, and a
    #: full re-analysis is diffed against it into a diff verdict.
    baseline_source: str | None = None
    #: The approved previous version's signature (canonical text).
    baseline_signature_text: str | None = None
    #: Allow the incremental fast lane for this task (off = always
    #: re-analyze in full, but still diff against the baseline; the
    #: bench uses off as the control arm).
    incremental: bool = True


@dataclass
class VetOutcome:
    """The compact, serializable result of vetting one addon."""

    name: str
    ok: bool
    error: str | None = None
    #: Typed failure classification (a :class:`repro.faults.FailureKind`
    #: value) when ``ok`` is false; ``error`` keeps the human detail.
    failure: str | None = None
    #: True when the run completed but had to degrade (budget trip,
    #: skipped statements): the signature is sound but ⊤-widened.
    degraded: bool = False
    #: The degradation events, as ``{"kind": ..., "detail": ...}``.
    degradations: list[dict] = field(default_factory=list)
    #: Canonical (sorted) rendering of the inferred signature.
    signature_text: str = ""
    verdict: str | None = None
    extra_entries: list[str] = field(default_factory=list)
    missing_entries: list[str] = field(default_factory=list)
    ast_nodes: int = 0
    #: Median phase times in seconds: {"p1": ..., "p2": ..., "p3": ...}.
    times: dict[str, float] | None = None
    #: Hot-path counters of the (last) run.
    counters: dict[str, int] = field(default_factory=dict)
    #: How many timing samples the per-phase medians summarize (after
    #: the warm-up discard): 1 means ``times`` is a single sample, not a
    #: median of several.
    timing_samples: int = 0
    #: True when the relevance prefilter proved the addon trivially
    #: safe and the interpreter never ran for it.
    prefiltered: bool = False
    #: True when the incremental fast lane served the baseline signature
    #: (change-surface certificate held; interpreter never ran).
    incremental: bool = False
    #: Differential verdict against the baseline, when one was given:
    #: ``approve-fast`` (fast lane), ``approve`` (re-analyzed, nothing
    #: widened or new), ``re-review`` (widened/new flows present).
    diff_verdict: str | None = None
    #: The classified entry changes vs. the baseline, as
    #: ``{"kind": ..., "old": ..., "new": ...}`` (see
    #: :mod:`repro.diffvet.diff`); empty for fast-lane outcomes.
    diff_changes: list[dict] = field(default_factory=list)
    #: Rendered ``explain_flow`` witness paths for every widened or
    #: new flow entry (the re-review evidence).
    diff_witnesses: list[str] = field(default_factory=list)
    #: True when this outcome was served from the on-disk cache.
    cached: bool = False

    @property
    def total_time(self) -> float:
        return sum((self.times or {}).values())

    @property
    def degradation_kinds(self) -> list[str]:
        """The distinct degradation kinds of this outcome, sorted.

        Tolerant of malformed events (a cache round-trip of a poison
        shard can hand back non-dict entries or kindless dicts): those
        bucket as ``unclassified`` instead of raising."""
        kinds = set()
        for event in self.degradations:
            if isinstance(event, dict) and event.get("kind"):
                kinds.add(str(event["kind"]))
            else:
                kinds.add("unclassified")
        return sorted(kinds)

    def to_json(self) -> dict:
        data = dataclasses.asdict(self)
        data.pop("cached")  # a property of the lookup, not the result
        return data

    @classmethod
    def from_json(cls, data: dict, cached: bool = False) -> "VetOutcome":
        known = {f.name for f in dataclasses.fields(cls)}
        outcome = cls(**{k: v for k, v in data.items() if k in known})
        outcome.cached = cached
        return outcome


# ----------------------------------------------------------------------
# Cache


def default_cache_dir() -> Path:
    """``$ADDON_SIG_CACHE`` > ``$XDG_CACHE_HOME/addon-sig`` >
    ``~/.cache/addon-sig``."""
    override = os.environ.get("ADDON_SIG_CACHE")
    if override:
        return Path(override)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "addon-sig"


def _canonical(obj: object) -> object:
    """A deterministic, JSON-able projection of a (frozen-dataclass)
    security spec — frozensets sorted, dataclasses tagged by class."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return [
            type(obj).__name__,
            {
                f.name: _canonical(getattr(obj, f.name))
                for f in dataclasses.fields(obj)
            },
        ]
    if isinstance(obj, (set, frozenset)):
        return sorted(_canonical(item) for item in obj)  # type: ignore[type-var]
    if isinstance(obj, (list, tuple)):
        return [_canonical(item) for item in obj]
    return obj


def spec_fingerprint(spec: SecuritySpec | None) -> str:
    """A stable hash of a security spec (``None`` = the default Mozilla
    spec, fingerprinted by name so the default can evolve with the
    version stamp rather than an import)."""
    if spec is None:
        return "mozilla-default"
    return sha256_hex(json.dumps(_canonical(spec), sort_keys=True))


def cache_key(task: VetTask, spec: SecuritySpec | None) -> str:
    """The on-disk cache key: source bytes, sensitivity, spec, manual
    comparison inputs, timing protocol, and the code version."""
    payload = json.dumps(
        {
            "engine": ENGINE_VERSION,
            "repro": repro.__version__,
            "source": sha256_hex(task.source),
            "k": task.k,
            "runs": task.runs,
            "spec": spec_fingerprint(spec),
            "manual": task.manual_text,
            "extras": task.real_extras_text,
            "max_steps": task.max_steps,
            "recover": task.recover,
            "prefilter": task.prefilter,
            "baseline": (
                sha256_hex(task.baseline_source)
                if task.baseline_source is not None
                else None
            ),
            "baseline_sig": task.baseline_signature_text,
            "incremental": task.incremental,
        },
        sort_keys=True,
    )
    return sha256_hex(payload)


def _cache_max_entries() -> int | None:
    """The cache's LRU bound: ``$ADDON_SIG_CACHE_MAX_ENTRIES``, else
    unbounded. Zero or negative disables the bound."""
    env = os.environ.get("ADDON_SIG_CACHE_MAX_ENTRIES")
    if not env:
        return None
    try:
        parsed = int(env)
    except ValueError:
        return None
    return parsed if parsed > 0 else None


def _open_cache(cache_dir: str | os.PathLike | None) -> JsonStore:
    """The outcome cache as a crash-consistent :class:`JsonStore` (flat
    layout — the historical ``<key>.json`` format — no fsync: a crash
    may lose a fresh entry but can never tear one)."""
    directory = Path(cache_dir) if cache_dir is not None else default_cache_dir()
    return JsonStore(directory, shards=1, max_entries=_cache_max_entries())


def _cache_load(
    cache: JsonStore, key: str, name: str
) -> tuple[VetOutcome | None, bool]:
    """Load one cache entry. Returns ``(outcome, quarantined)``.

    An unreadable *file* (absent, permission) is a plain miss. A file
    that reads but does not decode into an outcome — truncated JSON,
    garbage bytes, a foreign schema — is *corrupt*: it is renamed to
    ``<key>.corrupt`` so it never masquerades as a miss again (and can
    be inspected), and the quarantine is reported via the recomputed
    outcome's counters."""
    data, quarantined = cache.load(key)
    if data is None:
        return None, quarantined
    try:
        outcome = VetOutcome.from_json(data, cached=True)
    except Exception:  # decodes but is not an outcome: foreign schema
        cache.quarantine(key)
        return None, True
    outcome.name = name  # the same source may be vetted under any name
    return outcome, False


#: Counters that describe one *lookup/run* of the engine, not the
#: analysis result itself. They must never be persisted: a cached
#: outcome replayed N times would otherwise re-report the same event N
#: times (see the quarantine double-count regression test).
_TRANSIENT_COUNTERS = frozenset({"cache_quarantined", "pool_retries"})


def _cache_store(cache: JsonStore, key: str, outcome: VetOutcome) -> None:
    data = outcome.to_json()
    data["counters"] = {
        name: value
        for name, value in data.get("counters", {}).items()
        if name not in _TRANSIENT_COUNTERS
    }
    # Atomic publish (and LRU eviction) inside the store layer: a
    # read-only cache directory must not fail the batch, and a reader
    # can never observe a half-written entry.
    cache.put(key, data)


def _bump_counter(outcome: VetOutcome, name: str, by: int = 1) -> VetOutcome:
    """Annotate a lookup-layer event (quarantine, pool retry) on a
    *copy* of the outcome. The original — which may be cached on disk,
    held by a :class:`~repro.diffvet.store.VersionStore` chain, or
    shared with the caller — must stay pristine, or repeated lookups
    double-count the event (the PR-4 quarantine bug)."""
    counters = dict(outcome.counters)
    counters[name] = counters.get(name, 0) + by
    return dataclasses.replace(outcome, counters=counters)


# ----------------------------------------------------------------------
# Workers (module-level: picklable for the process pool)


def _task_budget(task: VetTask, timeout: float | None) -> Budget:
    """The per-run cooperative budget of a task (the default step
    bound unless the task sets its own)."""
    if task.max_steps is None:
        return Budget(max_seconds=timeout)
    return Budget(max_steps=task.max_steps, max_seconds=timeout)


def _fast_lane_outcome(
    task: VetTask, spec: SecuritySpec, manual, extras
) -> VetOutcome | None:
    """Try the incremental fast lane for an update task. Returns the
    served outcome when the change-surface certificate holds, ``None``
    when it is refused (the caller falls back to full re-analysis).

    The fast lane never runs on degraded machinery: the certificate
    itself refuses dynamic code, recovery skips, and unparseable input,
    and baselines come from clean (non-degraded) outcomes only — the
    :class:`~repro.diffvet.store.VersionStore` records nothing else.
    """
    from repro.diffvet.incremental import certify_unchanged
    from repro.signatures import parse_signature
    from repro.signatures.compare import compare

    assert task.baseline_source is not None
    assert task.baseline_signature_text is not None
    started = time.perf_counter()
    certificate = certify_unchanged(
        task.baseline_source, task.source, spec, recover=task.recover
    )
    if not certificate.certified:
        return None
    baseline = parse_signature(task.baseline_signature_text)
    comparison = compare(baseline, manual, extras) if manual is not None else None
    elapsed = time.perf_counter() - started
    return VetOutcome(
        name=task.name,
        ok=True,
        signature_text=baseline.render(),
        verdict=comparison.verdict.value if comparison is not None else None,
        extra_entries=(
            sorted(entry.render() for entry in comparison.extra)
            if comparison is not None else []
        ),
        missing_entries=(
            sorted(entry.render() for entry in comparison.missing)
            if comparison is not None else []
        ),
        ast_nodes=certificate.new_ast_nodes,
        times={"p1": elapsed, "p2": 0.0, "p3": 0.0},
        counters={
            "incremental": 1,
            "certification_attempted": 1,
            "diff_changed_statements": certificate.changed_statements,
        },
        timing_samples=1,
        incremental=True,
        diff_verdict="approve-fast",
    )


def _diff_against_baseline(task: VetTask, report) -> tuple[str, list, list]:
    """Diff a full re-analysis against the task's baseline signature:
    ``(diff_verdict, diff_changes, diff_witnesses)``."""
    from repro.api import diff_against
    from repro.signatures import parse_signature

    baseline = parse_signature(task.baseline_signature_text)
    diff, witnesses = diff_against(baseline, report)
    return (
        diff.verdict,
        [change.to_json() for change in diff.changes],
        [witness.render() for witness in witnesses],
    )


def _execute_task(
    task: VetTask, spec: SecuritySpec | None, timeout: float | None = None
) -> VetOutcome:
    """Vet one addon, with the paper's timing protocol when ``runs > 1``.
    Never raises: every failure becomes a *typed* failure outcome, every
    budget trip a *degraded* outcome.

    ``timeout`` is the per-run wall-clock budget, enforced cooperatively
    inside the analysis fixpoint — so it is honored identically whether
    this runs in a pool worker or in-process.

    A task with a baseline is an *update*: the incremental fast lane is
    tried first (unless ``task.incremental`` is off or the cost gate
    predicts full re-analysis is cheaper), and a full re-analysis is
    classified against the baseline into a diff verdict."""
    from repro.api import select_front_end, vet
    from repro.signatures import parse_signature

    try:
        manual = (
            parse_signature(task.manual_text)
            if task.manual_text is not None
            else None
        )
        extras = (
            frozenset(parse_signature(task.real_extras_text).entries)
            if task.real_extras_text
            else frozenset()
        )
        has_baseline = (
            task.baseline_source is not None
            and task.baseline_signature_text is not None
        )
        certification: str | None = None
        if has_baseline and task.incremental:
            front_end = select_front_end(task.baseline_source, task.source)
            if (
                len(task.source) >= FAST_LANE_MIN_SOURCE_CHARS
                and front_end.certificate_refusal is None
            ):
                certification = "attempted"
                served = _fast_lane_outcome(
                    task,
                    spec if spec is not None else front_end.default_spec(),
                    manual,
                    extras,
                )
                if served is not None:
                    return served
            else:
                # Below the gate, the certificate's double parse costs
                # more than the full pipeline, and a bundle update has
                # no certificate — skip straight to the full pipeline.
                certification = "skipped"
        budget = _task_budget(task, timeout)
        samples = []
        report = None
        for _ in range(max(1, task.runs)):
            report = vet(
                task.source, manual=manual, real_extras=extras,
                spec=spec, k=task.k, budget=budget, recover=task.recover,
                prefilter=task.prefilter,
            )
            samples.append(report.phase_times)
            if report.degraded:
                # Extra timing runs of a degraded pipeline are wasted
                # wall clock (and a time-tripped run would trip again).
                break
        assert report is not None and report.phase_times is not None
        times, kept = median_report(samples)
        comparison = report.comparison
        diff_verdict = None
        diff_changes: list = []
        diff_witnesses: list = []
        if has_baseline:
            diff_verdict, diff_changes, diff_witnesses = (
                _diff_against_baseline(task, report)
            )
        counters = dict(report.counters)
        if certification is not None:
            counters[f"certification_{certification}"] = 1
        return VetOutcome(
            name=task.name,
            ok=True,
            degraded=report.degraded,
            degradations=[d.to_json() for d in report.degradations],
            signature_text=report.signature.render(),
            verdict=comparison.verdict.value if comparison is not None else None,
            extra_entries=(
                sorted(entry.render() for entry in comparison.extra)
                if comparison is not None else []
            ),
            missing_entries=(
                sorted(entry.render() for entry in comparison.missing)
                if comparison is not None else []
            ),
            ast_nodes=report.ast_nodes,
            times={"p1": times.p1, "p2": times.p2, "p3": times.p3},
            counters=counters,
            timing_samples=kept,
            prefiltered=report.prefiltered,
            diff_verdict=diff_verdict,
            diff_changes=diff_changes,
            diff_witnesses=diff_witnesses,
        )
    except Exception as exc:  # isolation: one bad addon never kills a batch
        return _failed(
            task, classify_exception(exc), f"{type(exc).__name__}: {exc}"
        )


#: Why a task that broke the pool while it ran alone is poison.
POISON_DETAIL = "its worker died as it ran alone"


def _failed(task: VetTask, kind: FailureKind, error: str) -> VetOutcome:
    return VetOutcome(task.name, ok=False, failure=kind.value, error=error)


# ----------------------------------------------------------------------
# The worker pool


def _worker_init() -> None:
    """Boot a pool worker: detach it from its parent's signal plumbing,
    then load the vetting pipeline before the first task needs it.

    A SIGTERM delivered to a worker (which is exactly what the executor
    sends the survivors when one worker dies) must end the worker, never
    reach a parent's event loop as if the parent itself had been told to
    shut down; and a terminal's SIGINT is the parent's to handle, not
    its workers'."""
    try:
        signal.set_wakeup_fd(-1)
    except (ValueError, OSError):
        pass
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    _load_pipeline()


#: Every module :func:`_execute_task` imports, at once or on first use.
#: A batch parent imports them before it forks its workers, and the
#: service's template preloads them (:func:`start_template`), so no
#: worker imports while it vets.
PIPELINE_MODULES = (
    "repro.api",
    "repro.diffvet.diff",
    "repro.diffvet.incremental",
    "repro.lint.surface",
    "repro.preanalysis.pipeline",
    "repro.webext.pipeline",
)


def _load_pipeline() -> None:
    """Import :data:`PIPELINE_MODULES`. A worker forked from a parent or
    a template that ran this already finds them all loaded."""
    for name in PIPELINE_MODULES:
        importlib.import_module(name)


def _forkserver():
    """The ``forkserver`` start method's server: the *template* that
    every worker of a ``forkserver`` pool forks from. Python 3.11-3.13
    offer no public way to stop it or read its pid, so both go through
    this private object."""
    from multiprocessing import forkserver

    return forkserver._forkserver


def start_template() -> None:
    """Start the template unless it runs, and return at once.

    The template is a fresh interpreter that preloads
    :data:`PIPELINE_MODULES` while its caller goes on, so a worker boots
    as a fork (~30 ms) instead of an interpreter start and a pipeline
    import (~0.4 s). It inherits no fd of its caller but stdio; the
    first worker's ``Process.start()`` waits until the preload is done.
    """
    from multiprocessing import forkserver

    forkserver.set_forkserver_preload(list(PIPELINE_MODULES))
    forkserver.ensure_running()


def stop_template() -> None:
    """Stop the template and reap it; nothing happens if none runs.

    Shut its pools down first (``wait=True``): the template reaps the
    workers that exit before it, so their high-water marks reach the
    caller's child accounting only when the caller reaps the template.
    """
    _forkserver()._stop()


def template_pid() -> int | None:
    """The template's pid, or ``None`` when none runs."""
    return _forkserver()._forkserver_pid


class WorkerPool:
    """The crash-aware process pool under batch and service vetting.

    It owns the executor: workers boot through :func:`_worker_init`, a
    deadline reclaims them with :meth:`kill_workers`, and a pool that
    broke or was killed is dropped with :meth:`discard` and rebuilt by
    the next :meth:`submit`. :class:`Dispatch` holds the policy over it
    that batch and service vetting share.

    ``start_method`` is the one thing the callers set differently: the
    batch engine forks (its parent loaded the analyzer already), the
    daemon forks its workers from the template (``forkserver``,
    :func:`start_template`), which holds none of its sockets or files.
    """

    def __init__(self, workers: int, *, start_method: str) -> None:
        self.workers = max(1, workers)
        self.start_method = start_method
        self.rebuilds = 0
        self.boot_probes: list[Future] = []
        self._executor: ProcessPoolExecutor | None = None

    def start(self) -> None:
        """Build the executor, unless one is live, and boot every worker
        now rather than when tasks arrive."""
        if self._executor is not None:
            return
        import multiprocessing

        executor = sys.modules[__name__].ProcessPoolExecutor(
            max_workers=self.workers,
            mp_context=multiprocessing.get_context(self.start_method),
            initializer=_worker_init,
        )
        # The executor starts one worker per submit while none is idle.
        # The batch engine waits for these probes before it trusts the
        # pool; the service lets a boot failure surface as a crash.
        self.boot_probes = [
            executor.submit(os.getpid) for _ in range(self.workers)
        ]
        self._executor = executor

    @property
    def live(self) -> bool:
        """Is an executor built? False before :meth:`start` and after a
        discard."""
        return self._executor is not None

    def submit(self, fn, /, *args) -> Future:
        self.start()
        return self._executor.submit(fn, *args)  # type: ignore[union-attr]

    def kill_workers(self) -> None:
        """SIGKILL and reap every live worker: ``shutdown`` never stops
        a *running* one. Every unfinished future then fails with
        ``BrokenProcessPool``."""
        processes = list(self._processes().values())
        for process in processes:
            if process.is_alive():
                process.kill()
        for process in processes:
            process.join()

    def discard(self) -> None:
        """Drop an executor that broke or was killed; the next
        :meth:`submit` builds a fresh one."""
        self.rebuilds += 1
        self.shutdown()

    def shutdown(self, wait: bool = False) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=wait, cancel_futures=True)
            self._executor = None

    def _processes(self) -> dict:
        return getattr(self._executor, "_processes", None) or {}

    def worker_pids(self) -> list[int]:
        """The live worker pids. Empty before :meth:`start` and after a
        discard, until the next task rebuilds the pool."""
        return sorted(
            process.pid
            for process in self._processes().values()
            if process.is_alive() and process.pid is not None
        )


def _hard_timeout(task: VetTask, timeout: float | None) -> float | None:
    """The pool-level backstop for one task: the cooperative per-run
    deadline normally fires first, so this only catches work wedged
    outside the fixpoint loop (parsing, PDG, inference, a stuck
    worker). Generous by design: runs x timeout plus grace."""
    if timeout is None:
        return None
    return timeout * max(1, task.runs) + 10.0


class Dispatch:
    """The dispatch policy that batch and service vetting share, over
    one :class:`WorkerPool`. It does no I/O: its caller adds tasks and
    calls :meth:`fill`, waits until a future in :attr:`in_flight` is
    done or :meth:`backstop_in` seconds pass, then calls :meth:`settle`.

    - At most ``window`` tasks are in flight.
    - A task's hard backstop (:func:`_hard_timeout`) starts when it
      joins the running set: workers take tasks in submission order,
      so the oldest ``pool.workers`` tasks in flight are the running
      ones. A backstop that fires fails its task ``budget-time`` and
      kills the workers; the tasks that kill strands go straight back
      into the window, charged nothing.
    - A worker death strands the tasks in flight. Each reruns alone,
      charged nothing, and its outcome counts ``pool_retries`` 1.

    :meth:`settle` reports each finished task with its outcome; the
    task a backstop killed with ``killed`` set; and a task that broke
    the pool while it ran alone with ``None``, the one event its
    callers map their own way. ``notify`` is called with each future as
    it is done, on the pool's thread.
    """

    def __init__(
        self, pool: WorkerPool, spec: SecuritySpec | None,
        timeout: float | None, window: int, notify=None,
    ) -> None:
        self.pool = pool
        self.spec = spec
        self.timeout = timeout
        self.window = window
        self.notify = notify
        self.queue: deque = deque()  # (item, task) not yet submitted
        self.suspects: deque = deque()  # (item, task) stranded by a death
        self.in_flight: dict[Future, tuple] = {}  # future -> (item, task)
        self._deadlines: dict[Future, float] = {}  # running ones
        self._solo = self._broken = self._killed = False

    def add(self, item, task: VetTask) -> None:
        self.queue.append((item, task))

    def __bool__(self) -> bool:
        return bool(self.queue or self.suspects or self.in_flight)

    @property
    def room(self) -> int:
        """How many more tasks the window takes; none while stranded
        tasks rerun or a broken pool drains."""
        if self.suspects or self._solo or self._broken:
            return 0
        return max(0, self.window - len(self.in_flight) - len(self.queue))

    def fill(self) -> None:
        """Submit queued tasks up to the window, or the next stranded
        task alone. A pool that broke with nothing in flight is
        discarded; the next submit builds a fresh one."""
        if self.suspects:
            if not (self.in_flight or self._broken):
                self._solo = self._submit(self.suspects)
        elif not self._solo:  # nothing joins the last stranded task
            while (self.queue and not self._broken
                   and len(self.in_flight) < self.window):
                self._submit(self.queue)
        self._discard_drained()

    def _submit(self, entries: deque) -> bool:
        from concurrent.futures.process import BrokenProcessPool

        entry = entries.popleft()
        try:
            future = self.pool.submit(
                _execute_task, entry[1], self.spec, self.timeout
            )
        except BrokenProcessPool:  # broke since the last completion
            entries.appendleft(entry)
            self._broken = True
            return False
        if self.notify is not None:
            future.add_done_callback(self.notify)
        self.in_flight[future] = entry
        return True

    def backstop_in(self) -> float | None:
        """Seconds until the first backstop of a running task fires;
        ``None`` without one, or while a broken pool drains. Starts the
        clocks of the tasks that joined the running set since the last
        call."""
        now = time.monotonic()
        for future in list(self.in_flight)[:self.pool.workers]:
            if future not in self._deadlines:
                hard = _hard_timeout(self.in_flight[future][1], self.timeout)
                self._deadlines[future] = inf if hard is None else now + hard
        first = min(self._deadlines.values(), default=inf)
        return None if self._broken or first == inf else max(0.0, first - now)

    def settle(self) -> list[tuple[object, VetOutcome | None, bool]]:
        """Collect every done task, then fire the first backstop that
        is due: ``(item, outcome, killed)`` for each task that finished
        or that the backstop killed (``killed`` true), and
        ``(item, None, False)`` for one that broke the pool while it ran
        alone."""
        from concurrent.futures.process import BrokenProcessPool

        events: list[tuple[object, VetOutcome | None, bool]] = []
        for future in [f for f in self.in_flight if f.done()]:
            item, task = entry = self.in_flight.pop(future)
            self._deadlines.pop(future, None)
            try:
                outcome = future.result()
            except BrokenProcessPool:
                self._broken = True
                if self._killed:
                    self.queue.appendleft(entry)
                elif self._solo:
                    events.append((item, None, False))
                else:
                    self.suspects.append(entry)
                continue
            except Exception as exc:  # e.g. an unpicklable result
                outcome = _failed(
                    task, classify_exception(exc),
                    f"{type(exc).__name__}: {exc}",
                )
            events.append((item, self._rerun(outcome), False))
        first = min(self._deadlines, key=self._deadlines.get, default=None)
        if (first is not None and not self._broken
                and self._deadlines[first] <= time.monotonic()):
            # Wedged outside the fixpoint: only a kill reclaims it.
            item, task = self.in_flight.pop(first)
            del self._deadlines[first]
            self.pool.kill_workers()
            self._broken = self._killed = True
            events.append((item, self._rerun(_failed(
                task, FailureKind.BUDGET_TIME,
                f"timeout: exceeded {self.timeout}s wall-clock budget",
            )), True))
        self._discard_drained()
        return events

    def _rerun(self, outcome: VetOutcome) -> VetOutcome:
        return _bump_counter(outcome, "pool_retries") if self._solo else outcome

    def _discard_drained(self) -> None:
        if self.in_flight:
            return
        self._solo = False
        if self._broken:
            self.pool.discard()
            self._broken = self._killed = False


# ----------------------------------------------------------------------
# The engine


def _normalize(items, k: int, runs: int, prefilter: bool) -> list[VetTask]:
    tasks: list[VetTask] = []
    for index, item in enumerate(items):
        if isinstance(item, VetTask):
            tasks.append(item)
        else:
            tasks.append(VetTask(
                name=f"addon-{index}", source=item, k=k, runs=runs,
                prefilter=prefilter,
            ))
    return tasks


def _resolve_workers(workers: int | None, pending: int) -> int:
    if workers is not None:
        return max(1, workers)
    return max(1, min(pending, os.cpu_count() or 1))


def _resolve_baseline_pair(baseline, name: str) -> tuple[str, str] | None:
    """Look one addon's baseline up in whatever the caller passed: a
    :class:`~repro.diffvet.store.VersionStore`, or a mapping from name
    to ``(source, signature_text)`` (or to a ``VersionRecord``)."""
    from repro.diffvet.store import VersionRecord, VersionStore

    if baseline is None:
        return None
    if isinstance(baseline, VersionStore):
        record = baseline.baseline(name)
        return (record.source, record.signature_text) if record else None
    value = baseline.get(name)
    if value is None:
        return None
    if isinstance(value, VersionRecord):
        return (value.source, value.signature_text)
    source, signature_text = value
    return (source, signature_text)


def _with_baselines(tasks: list[VetTask], baseline) -> list[VetTask]:
    if baseline is None:
        return tasks
    resolved = []
    for task in tasks:
        if task.baseline_source is not None:
            resolved.append(task)  # an explicit baseline wins
            continue
        pair = _resolve_baseline_pair(baseline, task.name)
        if pair is None:
            resolved.append(task)
        else:
            resolved.append(dataclasses.replace(
                task, baseline_source=pair[0], baseline_signature_text=pair[1]
            ))
    return resolved


def vet_many(
    items,
    *,
    spec: SecuritySpec | None = None,
    k: int = 1,
    runs: int = 1,
    workers: int | None = None,
    use_cache: bool = True,
    cache_dir: str | os.PathLike | None = None,
    timeout: float | None = None,
    prefilter: bool = True,
    baseline=None,
    store=None,
) -> list[VetOutcome]:
    """Vet many addons, in parallel, with caching and error isolation.

    ``items`` — :class:`VetTask` objects, or plain source strings (named
    ``addon-N``; ``k``/``runs``/``prefilter`` apply to string items
    only).
    ``prefilter`` — run the sound relevance prefilter before the full
    pipeline (on by default): spec-irrelevant addons come back with the
    trivially-empty signature and ``outcome.prefiltered`` set, without
    the interpreter ever running. Results are bit-identical with the
    prefilter off.
    ``workers`` — process count; ``None`` = one per CPU (capped at the
    task count). ``workers=1`` and a lone cache miss run in the caller's
    process, with no crash isolation and no hard backstop; otherwise a
    pool of forked workers runs the misses (see :func:`_run_pool`).
    ``timeout`` — per-run wall-clock budget in seconds, enforced
    *cooperatively* inside the analysis fixpoint, so it is honored by
    in-process runs and pool workers alike. A timed-out run degrades to
    a sound ⊤-widened signature; in a pool, a hard backstop (for work
    wedged outside the fixpoint) yields a ``budget-time`` failure.
    ``baseline`` — approved previous versions for differential vetting:
    a :class:`~repro.diffvet.store.VersionStore` or a mapping from task
    name to ``(source, signature_text)``. Tasks that resolve a baseline
    get the incremental fast lane and a diff verdict
    (``outcome.diff_verdict``); tasks without one vet cold as before.
    ``store`` — a :class:`~repro.diffvet.store.VersionStore` to record
    clean (ok, non-degraded) outcomes into, advancing each addon's
    version chain; when ``baseline`` is omitted, the store also supplies
    the baselines, which is the long-running-service shape: every sweep
    diffs against the last and extends the chains.
    ``$ADDON_SIG_CACHE_MAX_ENTRIES`` — LRU bound on the outcome cache
    (reads refresh recency; overflowing writes evict the stalest
    entries); unset, zero or negative = unbounded.

    Returns one outcome per item, in input order. Failures are typed
    (:class:`repro.faults.FailureKind` in ``outcome.failure``) and
    degradations flagged (``outcome.degraded``) — nothing in here
    raises for a bad addon. Use :func:`summarize` for the per-kind
    breakdown of a batch.
    """
    tasks = _normalize(items, k=k, runs=runs, prefilter=prefilter)
    if baseline is None and store is not None:
        baseline = store
    tasks = _with_baselines(tasks, baseline)
    cache = _open_cache(cache_dir)

    outcomes: dict[int, VetOutcome] = {}
    quarantined: set[int] = set()
    pending: list[tuple[int, VetTask, str | None]] = []
    for index, task in enumerate(tasks):
        key = cache_key(task, spec) if use_cache else None
        if key is not None:
            hit, corrupt = _cache_load(cache, key, task.name)
            if corrupt:
                quarantined.add(index)
            if hit is not None:
                outcomes[index] = hit
                continue
        pending.append((index, task, key))

    if pending:
        worker_count = _resolve_workers(workers, len(pending))
        # A single miss (or workers=1) runs in-process; the cooperative
        # budget enforces ``timeout`` there just as in a pool worker.
        if worker_count <= 1 or len(pending) <= 1:
            fresh = [(index, key, _execute_task(task, spec, timeout))
                     for index, task, key in pending]
        else:
            fresh = _run_pool(pending, spec, worker_count, timeout)
        for index, key, outcome in fresh:
            # Degraded outcomes are machine/load-dependent (a deadline
            # that tripped here may not trip elsewhere): never cache.
            # Stored before any lookup-layer annotation, so the cached
            # object is pristine.
            if key is not None and outcome.ok and not outcome.degraded:
                _cache_store(cache, key, outcome)
            if index in quarantined:
                # Surface the quarantine once, on a copy of the
                # recomputed outcome — never by mutating an object that
                # is cached or shared (that double-counts on replay).
                outcome = _bump_counter(outcome, "cache_quarantined")
            outcomes[index] = outcome

    ordered = [outcomes[index] for index in range(len(tasks))]
    if store is not None:
        for task, outcome in zip(tasks, ordered):
            if outcome.ok and not outcome.degraded:
                store.record(
                    task.name, task.source, outcome.signature_text,
                    verdict=outcome.verdict,
                    diff_verdict=outcome.diff_verdict,
                )
    return ordered


def _run_pool(
    pending: list[tuple[int, VetTask, str | None]],
    spec: SecuritySpec | None,
    worker_count: int,
    timeout: float | None,
) -> list[tuple[int, str | None, VetOutcome]]:
    """Fan pending tasks over a :class:`WorkerPool` of forked workers,
    at most ``2 * worker_count`` in flight (:class:`Dispatch`).

    A task that breaks the pool while it runs alone ends ``poison-job``;
    no stranded task runs in the parent. A pool that cannot boot is an
    environment fault: tasks never submitted run in-process, stranded
    ones end ``worker-crash``.
    """
    from concurrent.futures import FIRST_COMPLETED, wait

    # Load the pipeline here, once, so every forked worker inherits it
    # instead of importing it again for each pool.
    _load_pipeline()

    results: list[tuple[int, str | None, VetOutcome]] = []
    pool = WorkerPool(worker_count, start_method="fork")
    dispatch = Dispatch(pool, spec, timeout, 2 * worker_count)
    for entry in pending:
        dispatch.add(entry, entry[1])
    try:
        while dispatch:
            if not pool.live:
                try:
                    pool.start()
                except (OSError, ValueError):
                    break  # no fork or semaphores here
                if any(p.exception() is not None for p in pool.boot_probes):
                    break  # workers die booting
            dispatch.fill()
            wait(dispatch.in_flight, dispatch.backstop_in(), FIRST_COMPLETED)
            for (index, task, key), outcome, _ in dispatch.settle():
                if outcome is None:  # it broke the pool while it ran alone
                    outcome = _failed(task, FailureKind.POISON, POISON_DETAIL)
                results.append((index, key, outcome))
    except BaseException:
        pool.kill_workers()  # an interrupt must not wait out running tasks
        raise
    finally:
        pool.shutdown(wait=True)
    return results + [
        (index, key, _failed(
            task, FailureKind.WORKER_CRASH, "stranded; no pool could be rebuilt"
        ))
        for (index, task, key), _ in dispatch.suspects
    ] + [
        (index, key, _execute_task(task, spec, timeout))
        for (index, task, key), _ in dispatch.queue
    ]


def vet_corpus(
    specs=None,
    *,
    k: int = 1,
    runs: int = 1,
    workers: int | None = None,
    use_cache: bool = True,
    cache_dir: str | os.PathLike | None = None,
    timeout: float | None = None,
    max_steps: int | None = None,
    recover: bool = False,
    prefilter: bool = True,
    baseline=None,
    store=None,
) -> list[VetOutcome]:
    """Vet the benchmark corpus (or a subset) through the batch engine,
    carrying each addon's manual signature so outcomes include the
    pass/fail/leak verdict. ``timeout``/``max_steps``/``recover`` apply
    the engine's fault-tolerance knobs to every addon; ``baseline`` /
    ``store`` turn the sweep into a *differential* one (each addon
    diffed against its approved version, fast lane where the
    change-surface certificate holds); see :func:`vet_many`."""
    from repro.addons import CORPUS

    chosen = list(specs) if specs is not None else list(CORPUS)
    tasks = [
        VetTask(
            name=spec.name,
            source=spec.source(),
            k=k,
            runs=runs,
            manual_text=spec.manual_signature_text,
            real_extras_text=spec.real_extras_text,
            max_steps=max_steps,
            recover=recover,
            prefilter=prefilter,
        )
        for spec in chosen
    ]
    return vet_many(
        tasks, workers=workers, use_cache=use_cache,
        cache_dir=cache_dir, timeout=timeout,
        baseline=baseline, store=store,
    )


def hits_without_resolution(outcomes: list[VetOutcome]) -> int:
    """How many of the prefilter-on ``outcomes`` a plain surface scan,
    without computed-key resolution, would also have prefiltered.

    The prefilter resolves keys only when computed sites alone refuse
    the fast lane. So an outcome prefiltered with no resolved site was
    skipped on the plain scan, and one prefiltered with resolved sites
    would have been refused on dynamic properties without them."""
    return sum(
        1 for o in outcomes
        if o.prefiltered and not o.counters.get("resolved_sites", 0)
    )


def summarize(outcomes: list[VetOutcome]) -> dict:
    """The robustness breakdown of a batch: per-kind failure and
    degradation counts, plus the headline totals.

    JSON-shaped; this is what ``table2`` footers, ``bench`` reports, and
    the CI fault job surface, so a robustness regression (new failure
    kind, growing degraded count) shows up in the numbers rather than in
    scrollback."""
    failures: dict[str, int] = {}
    degradation_kinds: dict[str, int] = {}
    diff_verdicts: dict[str, int] = {}
    cache_quarantined = 0
    pool_retries = 0
    for outcome in outcomes:
        if not outcome.ok:
            # Untyped failures (no FailureKind attached — e.g. an
            # all-poison generated shard) still count in the per-kind
            # breakdown, as ``unclassified``, so ``sum(failures
            # .values()) == failed`` holds even when nothing vetted
            # cleanly.
            kind = outcome.failure or "unclassified"
            failures[kind] = failures.get(kind, 0) + 1
        for kind in outcome.degradation_kinds:
            degradation_kinds[kind] = degradation_kinds.get(kind, 0) + 1
        if outcome.diff_verdict is not None:
            diff_verdicts[outcome.diff_verdict] = (
                diff_verdicts.get(outcome.diff_verdict, 0) + 1
            )
        cache_quarantined += outcome.counters.get("cache_quarantined", 0)
        pool_retries += outcome.counters.get("pool_retries", 0)
    certifications = {
        "attempted": sum(
            o.counters.get("certification_attempted", 0) for o in outcomes
        ),
        "skipped": sum(
            o.counters.get("certification_skipped", 0) for o in outcomes
        ),
    }
    preanalysis = {
        "resolved_sites": sum(
            o.counters.get("resolved_sites", 0) for o in outcomes
        ),
        "residual_dynamic_sites": sum(
            o.counters.get("residual_dynamic_sites", 0) for o in outcomes
        ),
    }
    return {
        "total": len(outcomes),
        "ok": sum(1 for o in outcomes if o.ok),
        "failed": sum(1 for o in outcomes if not o.ok),
        "degraded": sum(1 for o in outcomes if o.degraded),
        "prefiltered": sum(1 for o in outcomes if o.prefiltered),
        "incremental": sum(1 for o in outcomes if o.incremental),
        # Fast-lane certification economics: how many updates attempted
        # the change-surface certificate vs. skipped it on the cost gate.
        "certifications": certifications,
        # The prefilter's computed-key resolution: sites resolved vs.
        # residual.
        "preanalysis": preanalysis,
        "cached": sum(1 for o in outcomes if o.cached),
        "failures": dict(sorted(failures.items())),
        "degradation_kinds": dict(sorted(degradation_kinds.items())),
        "diff_verdicts": dict(sorted(diff_verdicts.items())),
        "cache_quarantined": cache_quarantined,
        # Tasks rerun alone after a worker death stranded them.
        "pool_retries": pool_retries,
    }
