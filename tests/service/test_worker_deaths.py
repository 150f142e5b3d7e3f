"""The daemon charges a worker death only to the job that caused it.

Jobs in flight beside a job that kills its worker, or beside a job the
hard backstop kills, rerun on their original attempt and end ``done``;
only a job that kills its worker while it runs alone spends an attempt.
The service runs in-process on a forked pool, so ``repro.api.vet``
patched here reaches its workers."""

import asyncio
import multiprocessing
import os
import time

import pytest

import repro.api
from repro import batch
from repro.analysis import AnalysisBudgetExceeded
from repro.batch import POISON_DETAIL, VetTask
from repro.faults import FailureKind
from repro.service.jobs import task_to_json
from repro.service.server import VettingService

pytestmark = [
    pytest.mark.service,
    pytest.mark.faults,
    pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="fault injection relies on fork inheriting the patch",
    ),
]


def _serve(directory, tasks: list[VetTask], **options) -> tuple:
    """Submit ``tasks`` to a fresh in-process service on a forked pool,
    wait until every job is terminal, stop it; returns the jobs, their
    committed outcomes (``None`` where none was) and the service's
    ``max_attempts``."""

    async def drive():
        service = VettingService(directory, fsync=False, **options)
        service.pool.start_method = "fork"
        await service.start()
        try:
            ids = [
                (await service.rpc("submit", {"task": task_to_json(task)}))["id"]
                for task in tasks
            ]
            give_up = time.monotonic() + 120.0
            while not all(service.queue.get(i).terminal for i in ids):
                assert time.monotonic() < give_up, service.stats()["queue"]
                await asyncio.sleep(0.05)
            return (
                [service.queue.get(i) for i in ids],
                [service.queue.result(i) for i in ids],
                service.queue.max_attempts,
            )
        finally:
            await service.stop()

    return asyncio.run(drive())


def test_only_a_job_that_kills_its_worker_alone_is_charged(
    monkeypatch, tmp_path
):
    parent = os.getpid()
    original = repro.api.vet

    def lethal(source, *args, **kwargs):
        if "KILLANY" in source and os.getpid() != parent:
            os._exit(9)  # an OOM kill or a native crash
        return original(source, *args, **kwargs)

    monkeypatch.setattr(repro.api, "vet", lethal)
    tasks = [
        VetTask(name=f"killer{n}", source=f"var k{n} = 1; // KILLANY")
        for n in range(2)
    ] + [
        VetTask(name=f"ok{n}", source=f"var s{n} = document.cookie; send(s{n});")
        for n in range(4)
    ]
    jobs, _, max_attempts = _serve(tmp_path, tasks, workers=3)
    for innocent in jobs[2:]:
        assert innocent.state == "done", innocent
        assert innocent.attempts == 1
        assert innocent.history == []
    for killer in jobs[:2]:
        assert killer.state == "poisoned", killer
        assert killer.attempts == max_attempts
        assert killer.history == [POISON_DETAIL] * max_attempts


def test_a_deadline_kill_charges_the_job_beside_it_nothing(
    monkeypatch, tmp_path
):
    """The backstop kills the wedged job's worker while the other job
    still runs: that job waits for the wedged worker to be gone. It
    reruns on its first attempt and ends ``done``."""
    original = repro.api.vet
    pid_file = tmp_path / "wedged.pid"

    def wedged_gone() -> bool:
        try:
            os.kill(int(pid_file.read_text()), 0)
        except (FileNotFoundError, ValueError):
            return False
        except ProcessLookupError:
            return True
        return False

    def stall(source, *args, **kwargs):
        if "WEDGE" in source:
            pid_file.write_text(str(os.getpid()))
            time.sleep(60.0)
        give_up = time.monotonic() + 60.0
        while "WAIT" in source and not wedged_gone():
            assert time.monotonic() < give_up
            time.sleep(0.05)
        return original(source, *args, **kwargs)

    monkeypatch.setattr(repro.api, "vet", stall)
    monkeypatch.setattr(
        batch, "_hard_timeout",
        lambda task, timeout: 0.5 if "WEDGE" in task.source else 30.0,
    )
    (wedged, beside), _, _ = _serve(
        tmp_path / "service",
        [VetTask(name="wedged", source="var w = 1; // WEDGE"),
         VetTask(name="beside", source="var s = 2; // WAIT")],
        workers=2, timeout=5.0,
    )
    assert beside.state == "done", beside
    assert beside.attempts == 1
    assert beside.history == []
    assert (wedged.state, wedged.failure) == ("failed", "budget-time")
    assert wedged.attempts == 1


def test_a_cooperative_budget_trip_is_committed_not_failed(
    monkeypatch, tmp_path
):
    """Only the hard backstop fails a job. A vet that trips its
    cooperative time budget and raises (no salvage) still ran to its
    end in the worker: the job ends ``done``, its failed outcome
    committed."""
    original = repro.api.vet

    def trips(source, *args, **kwargs):
        if "TRIP" in source:
            raise AnalysisBudgetExceeded(
                "time budget exhausted", kind=FailureKind.BUDGET_TIME
            )
        return original(source, *args, **kwargs)

    monkeypatch.setattr(repro.api, "vet", trips)
    (tripped,), (outcome,), _ = _serve(
        tmp_path, [VetTask(name="tripped", source="var t = 1; // TRIP")],
        workers=2, timeout=5.0,
    )
    assert (tripped.state, tripped.attempts) == ("done", 1), tripped
    assert outcome is not None
    assert (outcome["ok"], outcome["failure"]) == (False, "budget-time")
    assert "time budget exhausted" in outcome["error"]
