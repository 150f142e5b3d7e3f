"""Fault-injection suite for the fault-tolerant vetting pipeline.

The invariant under test: *no* pathological input or injected
infrastructure fault may surface as an exception from the batch engine.
Every case must yield a reported outcome — a typed failure
(:class:`repro.faults.FailureKind`) or a degraded-but-sound signature —
and injected faults must not perturb the results of healthy addons
(parallel/cached outcomes stay bit-identical to sequential ones).

Soundness of salvage mode is checked via the signature subsumption
order: a degraded run's ⊤-widened signature must subsume the signature
of an unbudgeted run on the same addon.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import subprocess
import sys
import textwrap
import time
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path

import pytest

import repro.api
from repro import batch
from repro.addons import CORPUS
from repro.analysis import AnalysisBudgetExceeded, analyze
from repro.api import vet
from repro.batch import VetTask, cache_key, summarize, vet_corpus, vet_many
from repro.faults import Budget, Degradation, FailureKind, classify_exception
from repro.ir import lower
from repro.js import parse, parse_with_recovery
from repro.js.errors import ParseError, UnsupportedSyntaxError
from repro.signatures import subsumes

pytestmark = pytest.mark.faults

LEAKY = "var secret = document.cookie; send(secret);"


# ----------------------------------------------------------------------
# Cooperative budgets and salvage mode


class TestBudgetSalvage:
    def test_step_budget_degrades_not_raises(self):
        report = vet(LEAKY, budget=Budget(max_steps=3))
        assert report.degraded
        assert FailureKind.BUDGET_STEPS in {d.kind for d in report.degradations}

    def test_time_budget_degrades_not_raises(self):
        report = vet(LEAKY, budget=Budget(max_seconds=0.0))
        assert report.degraded
        assert FailureKind.BUDGET_TIME in {d.kind for d in report.degradations}

    def test_state_budget_degrades_not_raises(self):
        report = vet(LEAKY, budget=Budget(max_states=1))
        assert report.degraded
        assert FailureKind.BUDGET_STATES in {d.kind for d in report.degradations}

    @pytest.mark.parametrize("spec", CORPUS[:3], ids=lambda s: s.name)
    def test_degraded_signature_subsumes_unbudgeted(self, spec):
        full = vet(spec.source())
        assert not full.degraded
        degraded = vet(spec.source(), budget=Budget(max_steps=25))
        assert degraded.degraded
        assert subsumes(degraded.signature, full.signature)

    def test_salvage_off_still_raises_with_kind(self):
        program = lower(parse(LEAKY), event_loop=True)
        with pytest.raises(AnalysisBudgetExceeded) as raised:
            analyze(program, budget=Budget(max_steps=2))
        assert raised.value.kind is FailureKind.BUDGET_STEPS

    def test_salvaged_result_is_all_weak_downstream(self):
        from repro.analysis import ReadWriteSets
        from repro.browser import BrowserEnvironment

        program = lower(parse(LEAKY), event_loop=True)
        result = analyze(
            program, BrowserEnvironment(), budget=Budget(max_steps=2),
            salvage=True,
        )
        assert result.degraded and result.unsettled
        sets = ReadWriteSets(result)
        for (sid, context) in list(result.states)[:20]:
            rw = sets.of(sid, context)
            assert all(not strong for strong in rw.write_vars.values())
            assert all(not access.strong for access in rw.write_props)


# ----------------------------------------------------------------------
# Frontend recovery


class TestFrontendRecovery:
    def test_skips_bad_statement_keeps_rest(self):
        source = "var a = 1;\nlet b = 2;\nvar c = 3;"
        program, skipped = parse_with_recovery(source)
        assert len(program.body) == 2
        assert len(skipped) == 1 and skipped[0].unsupported

    def test_skips_malformed_statement(self):
        source = "var a = 1;\nvar broken = ;;;\nsend(a);"
        program, skipped = parse_with_recovery(source)
        # Resynchronisation stops past the first ';'; the stragglers
        # parse as empty statements, which is fine — the two real
        # statements survive.
        real = [
            statement for statement in program.body
            if type(statement).__name__ != "EmptyStatement"
        ]
        assert len(real) == 2
        assert len(skipped) == 1 and not skipped[0].unsupported

    def test_resync_swallows_braced_garbage(self):
        source = "with (x) { if (y) { z = 1; } }\nvar after = 1;"
        program, skipped = parse_with_recovery(source)
        assert len(program.body) == 1
        assert len(skipped) == 1

    def test_recovered_vet_is_degraded_and_sound(self):
        broken = LEAKY + "\nclass Oops {}\n"
        report = vet(broken, recover=True)
        assert report.degraded
        kinds = {d.kind for d in report.degradations}
        assert kinds & {FailureKind.PARSE_ERROR, FailureKind.UNSUPPORTED_SYNTAX}
        clean = vet(LEAKY)
        assert subsumes(report.signature, clean.signature)

    def test_without_recovery_still_raises(self):
        with pytest.raises(ParseError):
            vet("var broken = ;;;(")


# ----------------------------------------------------------------------
# Typed failure taxonomy


class TestTypedFailures:
    def test_parse_error_is_typed(self):
        [outcome] = vet_many(["var broken = ;;;("], use_cache=False)
        assert not outcome.ok
        assert outcome.failure == "parse-error"
        assert "ParseError" in outcome.error

    def test_unsupported_syntax_is_typed(self):
        [outcome] = vet_many(["with (x) { y = 1; }"], use_cache=False)
        assert not outcome.ok
        assert outcome.failure == "unsupported-syntax"

    def test_internal_crash_is_typed(self, monkeypatch):
        def explode(*args, **kwargs):
            raise RuntimeError("injected pipeline crash")

        monkeypatch.setattr(repro.api, "vet", explode)
        [outcome] = vet_many([VetTask("crasher", LEAKY)], use_cache=False)
        assert not outcome.ok
        assert outcome.failure == "internal"
        assert "injected pipeline crash" in outcome.error

    def test_classifier_mapping(self):
        assert classify_exception(ParseError("x")) is FailureKind.PARSE_ERROR
        assert (
            classify_exception(UnsupportedSyntaxError("x"))
            is FailureKind.UNSUPPORTED_SYNTAX
        )
        assert (
            classify_exception(BrokenProcessPool("x"))
            is FailureKind.WORKER_CRASH
        )
        assert classify_exception(ValueError("x")) is FailureKind.INTERNAL
        exc = AnalysisBudgetExceeded("x", kind=FailureKind.BUDGET_TIME)
        assert classify_exception(exc) is FailureKind.BUDGET_TIME

    def test_degradation_json_roundtrip(self):
        degradation = Degradation(FailureKind.BUDGET_STEPS, "after 5 steps")
        assert Degradation.from_json(degradation.to_json()) == degradation


# ----------------------------------------------------------------------
# Worker crashes and broken pools


class _BrokenPoolExecutor:
    """A ProcessPoolExecutor double whose every future is broken."""

    def __init__(self, max_workers=None, **kwargs):
        pass

    def submit(self, fn, *args, **kwargs):
        future = Future()
        future.set_exception(
            BrokenProcessPool("injected: a worker died abruptly")
        )
        return future

    def shutdown(self, wait=True, cancel_futures=False):
        pass


def _run_killer_everywhere(count: int, killer: int) -> list[dict]:
    """Vet ``count`` sources on two workers in a fresh interpreter in
    which the task at ``killer`` ends whatever process runs it. Returns
    the outcomes' JSON; fails the test if that interpreter died."""
    script = textwrap.dedent(f"""
        import json, os
        import repro.api
        from repro.batch import vet_many

        original = repro.api.vet

        def lethal(source, *args, **kwargs):
            if "KILLANY" in source:
                os._exit(9)  # an OOM kill or a native crash
            return original(source, *args, **kwargs)

        repro.api.vet = lethal
        sources = {_sources(count, killer)!r}
        outcomes = vet_many(sources, workers=2, use_cache=False)
        print(json.dumps([o.to_json() for o in outcomes]))
    """)
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True,
        text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout)


def _sources(count: int, killer: int) -> list[str]:
    return [
        "var k = 1; // KILLANY" if i == killer
        else f"var s{i} = document.cookie; send(s{i} + '{i}');" if i % 3
        else f"var v{i} = {i};"
        for i in range(count)
    ]


class TestWorkerCrash:
    def test_broken_pool_retries_stranded_tasks_in_process(self, monkeypatch):
        """A pool whose boot probes break is an environment fault, not
        a task's: no task is stranded or charged, and all run
        in-process (the sequential fallback)."""
        monkeypatch.setattr(batch, "ProcessPoolExecutor", _BrokenPoolExecutor)
        baseline = vet_many([LEAKY, "var ok = 1;"], workers=1, use_cache=False)
        outcomes = vet_many([LEAKY, "var ok = 1;"], workers=2, use_cache=False)
        assert [o.ok for o in outcomes] == [True, True]
        assert not any(o.counters.get("pool_retries") for o in outcomes)
        assert [o.signature_text for o in outcomes] == [
            o.signature_text for o in baseline
        ]
        breakdown = summarize(outcomes)
        assert breakdown["pool_retries"] == 0
        assert "pool_retry_attempts" not in breakdown

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="worker-kill injection relies on fork inheriting the patch",
    )
    def test_task_that_kills_any_process_is_poison(self):
        """A task that kills whatever process runs it ends
        ``poison-job``; the parent survives, only the tasks in flight
        beside it are rerun, and every other outcome matches a
        sequential run."""
        count, killer, workers = 40, 3, 2
        outcomes = _run_killer_everywhere(count, killer)
        assert outcomes[killer]["failure"] == "poison-job"
        others = [o for i, o in enumerate(outcomes) if i != killer]
        assert all(o["ok"] for o in others)
        sequential = vet_many(
            [s for i, s in enumerate(_sources(count, killer)) if i != killer],
            workers=1, use_cache=False,
        )
        assert [o["signature_text"] for o in others] == [
            o.signature_text for o in sequential
        ]
        rerun = [o for o in outcomes if o["counters"].get("pool_retries")]
        assert 1 <= len(rerun) <= 2 * workers

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="worker-kill injection relies on fork inheriting the patch",
    )
    def test_task_that_kills_only_its_first_run_is_not_poison(
        self, monkeypatch, tmp_path
    ):
        parent = os.getpid()
        original = repro.api.vet
        marker = tmp_path / "died-once"

        def lethal_once(source, *args, **kwargs):
            if "DIEONCE" in source and os.getpid() != parent:
                if not marker.exists():
                    marker.write_text("")
                    os._exit(13)
            return original(source, *args, **kwargs)

        monkeypatch.setattr(repro.api, "vet", lethal_once)
        flaky, sibling = vet_many(
            ["var a = 1; // DIEONCE", "var b = 2;"],
            workers=2, use_cache=False,
        )
        assert marker.exists()
        assert flaky.ok and flaky.counters.get("pool_retries") == 1
        assert sibling.ok

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="worker-kill injection relies on fork inheriting the patch",
    )
    def test_real_worker_death_is_contained(self, monkeypatch):
        parent = os.getpid()
        original = repro.api.vet

        def lethal(source, *args, **kwargs):
            if "KILLWORKER" in source and os.getpid() != parent:
                os._exit(13)  # simulate an abrupt worker death
            return original(source, *args, **kwargs)

        monkeypatch.setattr(repro.api, "vet", lethal)
        killer, sibling = vet_many(
            ["var a = 1; // KILLWORKER", "var b = 2;"],
            workers=2, use_cache=False,
        )
        # Zero uncaught exceptions: the killer, rerun alone in a worker,
        # kills it again and is poison; its sibling ends ok.
        assert not killer.ok and killer.failure == "poison-job"
        assert sibling.ok

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="worker-kill injection relies on fork inheriting the patch",
    )
    def test_stranded_tasks_never_run_in_process(self, monkeypatch):
        """When no pool can be rebuilt after a worker death, the tasks
        it stranded end ``worker-crash`` instead of running in the
        parent; only tasks never submitted take the in-process
        fallback."""
        parent = os.getpid()
        original = repro.api.vet
        real_executor = batch.ProcessPoolExecutor
        built = []

        def lethal(source, *args, **kwargs):
            if "KILLWORKER" in source and os.getpid() != parent:
                os._exit(13)
            return original(source, *args, **kwargs)

        def executor_once(*args, **kwargs):
            if built:
                raise OSError("injected: no more processes")
            built.append(True)
            return real_executor(*args, **kwargs)

        monkeypatch.setattr(repro.api, "vet", lethal)
        monkeypatch.setattr(batch, "ProcessPoolExecutor", executor_once)
        outcomes = vet_many(
            ["var a = 1; // KILLWORKER"]
            + [f"var b{i} = {i};" for i in range(9)],
            workers=2, use_cache=False,
        )
        assert outcomes[0].failure == "worker-crash"
        crashed = [o for o in outcomes if not o.ok]
        assert all(o.failure == "worker-crash" for o in crashed)
        assert len(crashed) <= 4  # at most 2 x workers were in flight
        assert not any(o.counters.get("pool_retries") for o in outcomes)

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="wedge injection relies on fork inheriting the patch",
    )
    def test_hard_deadline_kills_a_wedged_worker(self, monkeypatch, tmp_path):
        """A worker wedged outside the fixpoint (the cooperative budget
        never gets a say) fails its task at the hard backstop, and the
        backstop reclaims the worker: its pid is gone, not left running
        after ``vet_many`` returns."""
        parent = os.getpid()
        original = repro.api.vet
        pid_file = tmp_path / "wedged.pid"

        def wedge(source, *args, **kwargs):
            if "WEDGE" in source and os.getpid() != parent:
                pid_file.write_text(str(os.getpid()))
                time.sleep(10.0)
            return original(source, *args, **kwargs)

        monkeypatch.setattr(repro.api, "vet", wedge)
        monkeypatch.setattr(batch, "_hard_timeout", lambda task, timeout: 0.5)
        wedged, sibling = vet_many(
            ["var a = 1; // WEDGE", "var b = 2;"],
            workers=2, use_cache=False, timeout=5.0,
        )
        assert not wedged.ok
        assert wedged.failure == "budget-time"
        assert sibling.ok
        # Killed and reaped: a live worker or an unreaped zombie would
        # still accept signal 0.
        with pytest.raises(ProcessLookupError):
            os.kill(int(pid_file.read_text()), 0)

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="wedge injection relies on fork inheriting the patch",
    )
    def test_deadline_kills_charge_stranded_siblings_nothing(self, monkeypatch):
        """Four tasks wedged on two workers: each deadline kill strands
        the others, and a strand by a kill is no worker death. So no
        task runs out of retry attempts into an in-process salvage run
        (which would wedge the caller: there is no backstop there);
        every wedged task ends ``budget-time`` in the pool, and the
        healthy sibling ends ok."""
        original = repro.api.vet

        def wedge(source, *args, **kwargs):
            if "WEDGE" in source:
                time.sleep(30.0)
            return original(source, *args, **kwargs)

        monkeypatch.setattr(repro.api, "vet", wedge)
        monkeypatch.setattr(batch, "_hard_timeout", lambda task, timeout: 0.5)
        started = time.monotonic()
        outcomes = vet_many(
            [f"var w{i} = {i}; // WEDGE" for i in range(4)] + ["var b = 2;"],
            workers=2, use_cache=False, timeout=5.0,
        )
        elapsed = time.monotonic() - started
        assert [o.failure for o in outcomes[:4]] == ["budget-time"] * 4
        assert outcomes[4].ok
        assert not any(o.counters.get("pool_retries") for o in outcomes)
        # One 0.5 s backstop per wedged task, plus pool rebuilds.
        assert elapsed < 15.0

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="slow-task injection relies on fork inheriting the patch",
    )
    def test_hard_deadline_does_not_count_queue_wait(self, monkeypatch):
        """Six tasks that each run 1 s on two workers, under a 1.6 s
        backstop: a task waiting for a worker would reach its backstop
        after ~2 s if the wait counted. None may end ``budget-time``."""
        parent = os.getpid()
        original = repro.api.vet

        def slow(source, *args, **kwargs):
            if os.getpid() != parent:
                time.sleep(1.0)
            return original(source, *args, **kwargs)

        monkeypatch.setattr(repro.api, "vet", slow)
        monkeypatch.setattr(batch, "_hard_timeout", lambda task, timeout: 1.6)
        outcomes = vet_many(
            [f"var s{i} = {i};" for i in range(6)],
            workers=2, use_cache=False, timeout=30.0,
        )
        assert [o.failure for o in outcomes] == [None] * 6
        assert all(o.ok for o in outcomes)
        assert not any(o.counters.get("pool_retries") for o in outcomes)


# ----------------------------------------------------------------------
# Cache corruption


class TestCacheCorruption:
    def _entry_path(self, tmp_path, task):
        return tmp_path / f"{cache_key(task, None)}.json"

    @pytest.mark.parametrize(
        "garbage",
        ["{not json at all", '{"name": "x"', "\x00\x01\x02", '{"foo": 1}', "[]"],
        ids=["garbage", "truncated", "binary", "foreign-schema", "non-object"],
    )
    def test_corrupt_entry_quarantined_and_recomputed(self, tmp_path, garbage):
        task = VetTask("addon", LEAKY)
        path = self._entry_path(tmp_path, task)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(garbage, encoding="utf-8")

        [outcome] = vet_many([task], cache_dir=tmp_path)
        assert outcome.ok and not outcome.cached
        assert outcome.counters.get("cache_quarantined") == 1
        assert path.with_suffix(".corrupt").exists()
        assert summarize([outcome])["cache_quarantined"] == 1

        # The recomputed outcome was re-cached; the quarantined file
        # never masquerades as a hit or a miss again.
        [replay] = vet_many([task], cache_dir=tmp_path)
        assert replay.ok and replay.cached

    def test_corrupt_entry_matches_sequential_result(self, tmp_path):
        task = VetTask("addon", LEAKY)
        [baseline] = vet_many([task], use_cache=False)
        path = self._entry_path(tmp_path, task)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("][", encoding="utf-8")
        [outcome] = vet_many([task], cache_dir=tmp_path)
        assert outcome.signature_text == baseline.signature_text


# ----------------------------------------------------------------------
# The acceptance scenario: a hostile corpus end to end


@dataclass(frozen=True)
class _FakeSpec:
    """The duck-typed corpus-spec shape ``vet_corpus`` consumes."""

    name: str
    text: str
    manual_signature_text: str = ""
    real_extras_text: str = ""

    def source(self) -> str:
        return self.text


class TestHostileCorpus:
    def test_hostile_corpus_completes_with_typed_breakdown(self, monkeypatch):
        parent = os.getpid()
        original = repro.api.vet

        def unstable(source, *args, **kwargs):
            if "INTERNALCRASH" in source:
                raise RuntimeError("injected internal fault")
            return original(source, *args, **kwargs)

        monkeypatch.setattr(repro.api, "vet", unstable)
        corpus = [
            _FakeSpec("healthy", "var x = 1; send(x);"),
            _FakeSpec("budget-buster", CORPUS[0].source()),
            _FakeSpec("parse-failure", "var broken = ;;;("),
            _FakeSpec("crasher", "var y = 2; // INTERNALCRASH"),
        ]
        outcomes = vet_corpus(
            corpus, workers=1, use_cache=False, max_steps=40,
        )
        by_name = {outcome.name: outcome for outcome in outcomes}
        assert by_name["healthy"].ok
        assert by_name["budget-buster"].ok and by_name["budget-buster"].degraded
        assert "budget-steps" in by_name["budget-buster"].degradation_kinds
        assert by_name["parse-failure"].failure == "parse-error"
        assert by_name["crasher"].failure == "internal"

        breakdown = summarize(outcomes)
        assert breakdown["total"] == 4 and breakdown["failed"] == 2
        assert breakdown["failures"] == {"internal": 1, "parse-error": 1}
        assert breakdown["degradation_kinds"] == {"budget-steps": 1}
        json.dumps(breakdown)  # the breakdown is artifact-ready JSON

    def test_parallel_results_identical_under_injected_faults(self, tmp_path):
        tasks = [
            VetTask("good-1", LEAKY),
            VetTask("bad", "var broken = ;;;("),
            VetTask("good-2", "var ok = 1; send(ok);"),
            VetTask("buster", LEAKY, max_steps=3),
        ]
        sequential = vet_many(tasks, workers=1, use_cache=False)
        parallel = vet_many(tasks, workers=2, use_cache=False)
        primed = vet_many(tasks, workers=1, cache_dir=tmp_path)
        replay = vet_many(tasks, workers=1, cache_dir=tmp_path)
        for run in (parallel, primed, replay):
            assert [o.signature_text for o in run] == [
                o.signature_text for o in sequential
            ]
            assert [o.failure for o in run] == [o.failure for o in sequential]
            assert [o.degraded for o in run] == [o.degraded for o in sequential]
        # Failures and degraded outcomes are never served from cache;
        # the clean ones are.
        assert [o.cached for o in replay] == [True, False, True, False]


class TestDeepNesting:
    """A deeply nested literal parses, and the prefilter's surface scan
    walks it iteratively, so the vet ends ``ok`` and prefiltered — no
    recursive pass on the vet path turns it into ``internal``."""

    @pytest.mark.parametrize("depth", [1000, 2000])
    def test_deep_array_literal_is_prefiltered(self, depth):
        source = "var a = " + "[" * depth + "1" + "]" * depth + ";"
        [outcome] = vet_many(
            [VetTask(f"nested-{depth}", source)], workers=1, use_cache=False
        )
        assert outcome.ok, f"{outcome.failure}: {outcome.error}"
        assert outcome.prefiltered
        assert outcome.signature_text == ""
