"""SupervisedPool: typed outcomes through, crashes and deadlines out."""

import asyncio
import os
import signal
import time

import pytest

from repro.batch import VetTask
from repro.service.supervisor import (
    JobDeadlineError,
    SupervisedPool,
    WorkerCrashError,
)

pytestmark = pytest.mark.service


@pytest.fixture(scope="module")
def pool():
    pool = SupervisedPool(workers=1)
    yield pool
    pool.shutdown()


def test_run_returns_typed_outcome(pool):
    source = """
    var xhr = new XMLHttpRequest();
    xhr.open("GET", "https://feed.example/items", true);
    xhr.send(null);
    """
    outcome = asyncio.run(pool.run(VetTask(name="ok", source=source)))
    assert outcome.ok
    assert "feed.example" in outcome.signature_text


def test_per_addon_faults_stay_inside_the_outcome(pool):
    outcome = asyncio.run(
        pool.run(VetTask(name="broken", source="var broken = ;;;("))
    )
    assert not outcome.ok
    assert outcome.failure == "parse-error"


@pytest.mark.faults
def test_worker_sigkill_surfaces_as_crash_and_pool_heals(pool):
    async def crash_then_recover():
        # Warm the pool so there is a worker to kill.
        await pool.run(VetTask(name="warm", source="var w = 0;"))
        pids = pool.worker_pids()
        assert pids, "spawned worker should be visible"

        async def kill_soon():
            await asyncio.sleep(0.2)
            os.kill(pids[0], signal.SIGKILL)

        killer = asyncio.ensure_future(kill_soon())
        with pytest.raises(WorkerCrashError):
            # Big enough to still be running when the kill lands.
            big = "\n".join(
                f"var v{n} = document.cookie; send(v{n});"
                for n in range(2000)
            )
            await pool.run(VetTask(name="victim", source=big))
        await killer

        healed = await pool.run(VetTask(name="after", source="var a = 1;"))
        return healed

    healed = asyncio.run(crash_then_recover())
    assert healed.ok
    assert pool.rebuilds >= 1
    assert pool.worker_pids(), "pool rebuilt with fresh workers"


@pytest.mark.faults
def test_hard_deadline_fires_for_wedged_jobs():
    """A job that outlives the hard backstop fails as a deadline, and
    the wedged worker is reclaimed by a pool teardown. The production
    backstop is deliberately generous (10s+ grace), so the test narrows
    the seam instead of waiting it out."""
    pool = SupervisedPool(workers=1, timeout=30.0)
    pool._deadline = lambda task: 0.5

    big = "\n".join(
        f"var v{n} = document.cookie; send(v{n});" for n in range(5000)
    )
    running: list[int] = []

    async def run_wedged():
        async def capture_pids():
            await asyncio.sleep(0.2)
            running.extend(pool.worker_pids())

        capture = asyncio.ensure_future(capture_pids())
        try:
            await pool.run(VetTask(name="wedged", source=big))
        finally:
            await capture

    with pytest.raises(JobDeadlineError):
        asyncio.run(run_wedged())
    assert pool.rebuilds == 1
    assert pool.worker_pids() == [], "wedged worker torn down"
    assert running, "the wedged worker should be visible while it runs"
    for pid in running:
        # Killed and reaped: a live worker or an unreaped zombie would
        # still accept signal 0.
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)

    del pool._deadline  # back to the generous production backstop
    healed = asyncio.run(pool.run(VetTask(name="after", source="var a = 1;")))
    assert healed.ok
    pool.shutdown()
