"""SupervisedPool under the shared dispatch core: typed outcomes come
through, a worker death heals, and a wedged worker is killed."""

import os
import signal
import threading
from concurrent.futures import FIRST_COMPLETED, wait

import pytest

from repro import batch
from repro.batch import Dispatch, VetTask
from repro.service.supervisor import SupervisedPool

pytestmark = pytest.mark.service


@pytest.fixture(scope="module")
def pool():
    pool = SupervisedPool(workers=1)
    yield pool
    pool.shutdown(wait=True)


def _vet(pool, *tasks, timeout=None) -> dict:
    """Run ``tasks`` through a :class:`Dispatch` on ``pool``, as the
    daemon does; returns each task name's event (``None`` for a task
    that broke the pool while it ran alone)."""
    dispatch = Dispatch(pool, None, timeout, pool.workers)
    for task in tasks:
        dispatch.add(task.name, task)
    events = {}
    while dispatch:
        dispatch.fill()
        wait(dispatch.in_flight, dispatch.backstop_in(), FIRST_COMPLETED)
        events.update((item, outcome) for item, outcome, _ in dispatch.settle())
    return events


def _big(statements: int) -> str:
    return "\n".join(
        f"var v{n} = document.cookie; send(v{n});" for n in range(statements)
    )


def test_run_returns_typed_outcome(pool):
    source = """
    var xhr = new XMLHttpRequest();
    xhr.open("GET", "https://feed.example/items", true);
    xhr.send(null);
    """
    outcome = _vet(pool, VetTask(name="ok", source=source))["ok"]
    assert outcome.ok
    assert "feed.example" in outcome.signature_text


def test_per_addon_faults_stay_inside_the_outcome(pool):
    outcome = _vet(pool, VetTask(name="broken", source="var broken = ;;;("))
    assert not outcome["broken"].ok
    assert outcome["broken"].failure == "parse-error"


@pytest.mark.faults
def test_worker_sigkill_strands_the_job_and_pool_heals(pool):
    """A SIGKILL from outside strands the job it hit; the job reruns
    alone on a rebuilt pool and its outcome stands."""
    _vet(pool, VetTask(name="warm", source="var w = 0;"))
    pids = pool.worker_pids()
    assert pids, "spawned worker should be visible"
    rebuilds = pool.rebuilds
    killer = threading.Timer(0.2, os.kill, (pids[0], signal.SIGKILL))
    killer.start()
    try:
        # Big enough to still be running when the kill lands.
        victim = _vet(pool, VetTask(name="victim", source=_big(2000)))
    finally:
        killer.join()
    assert victim["victim"].ok
    assert victim["victim"].counters["pool_retries"] == 1
    healed = _vet(pool, VetTask(name="after", source="var a = 1;"))
    assert healed["after"].ok
    assert pool.rebuilds == rebuilds + 1
    assert pool.worker_pids(), "pool rebuilt with fresh workers"


@pytest.mark.faults
def test_hard_deadline_fires_for_wedged_jobs(monkeypatch):
    """A job that outlives the hard backstop fails ``budget-time``, and
    its wedged worker is killed and reaped. The production backstop is
    deliberately generous (10s+ grace), so the test narrows it."""
    pool = SupervisedPool(workers=1)
    monkeypatch.setattr(batch, "_hard_timeout", lambda task, timeout: 0.5)
    running: list[int] = []
    capture = threading.Timer(0.2, lambda: running.extend(pool.worker_pids()))
    pool.start()
    capture.start()
    try:
        wedged = _vet(pool, VetTask(name="wedged", source=_big(5000)),
                      timeout=30.0)["wedged"]
        capture.join()
        assert wedged.failure == "budget-time"
        assert pool.rebuilds == 1
        assert pool.worker_pids() == [], "wedged worker torn down"
        assert running, "the wedged worker should be visible while it runs"
        for pid in running:
            # Killed and reaped: a live worker or an unreaped zombie
            # would still accept signal 0.
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)
        monkeypatch.undo()  # back to the generous production backstop
        healed = _vet(pool, VetTask(name="after", source="var a = 1;"),
                      timeout=30.0)
        assert healed["after"].ok
    finally:
        pool.shutdown(wait=True)
