"""The dispatch core that batch and service vetting share, on a fake
pool whose futures the test completes by hand: no process starts."""

from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro import batch
from repro.batch import Dispatch, VetOutcome, VetTask


class FakePool:
    """A :class:`repro.batch.WorkerPool` double: ``submit`` hands out
    pending futures, and a kill breaks every one still pending."""

    def __init__(self, workers: int) -> None:
        self.workers = workers
        self.live = True
        self.rebuilds = self.kills = 0
        self.submitted: list[tuple[str, Future]] = []

    def submit(self, fn, task, spec, timeout) -> Future:
        self.live = True
        future = Future()
        self.submitted.append((task.name, future))
        return future

    def kill_workers(self) -> None:
        self.kills += 1
        self.break_all()

    def break_all(self) -> None:
        for _, future in self.submitted:
            if not future.done():
                future.set_exception(BrokenProcessPool("a worker died"))

    def discard(self) -> None:
        self.rebuilds += 1
        self.live = False

    def finish(self, name: str) -> None:
        """Complete the latest submission of ``name`` with an outcome."""
        future = next(f for n, f in reversed(self.submitted) if n == name)
        future.set_result(VetOutcome(name, ok=True))

    def running(self) -> list[str]:
        return [name for name, future in self.submitted if not future.done()]


class Clock:
    def __init__(self) -> None:
        self.now = 100.0

    def monotonic(self) -> float:
        return self.now


@pytest.fixture
def clock(monkeypatch):
    clock = Clock()
    monkeypatch.setattr(batch, "time", clock)
    return clock


def _dispatch(workers: int, window: int, count: int, timeout=None):
    pool = FakePool(workers)
    dispatch = Dispatch(pool, None, timeout, window)
    for n in range(count):
        dispatch.add(f"t{n}", VetTask(name=f"t{n}", source=f"var v = {n};"))
    return pool, dispatch


def _events(dispatch) -> dict:
    return {
        item: None if outcome is None
        else (outcome.failure, outcome.counters, killed)
        for item, outcome, killed in dispatch.settle()
    }


def test_the_window_bounds_tasks_in_flight():
    pool, dispatch = _dispatch(workers=2, window=4, count=10)
    dispatch.fill()
    assert pool.running() == ["t0", "t1", "t2", "t3"]
    assert dispatch.room == 0
    pool.finish("t0")
    assert _events(dispatch) == {"t0": (None, {}, False)}
    dispatch.fill()
    assert pool.running() == ["t1", "t2", "t3", "t4"]


def test_room_counts_what_the_window_can_still_take():
    pool, dispatch = _dispatch(workers=2, window=2, count=0)
    assert dispatch.room == 2
    dispatch.add("a", VetTask(name="a", source="var a;"))
    assert dispatch.room == 1
    dispatch.fill()
    assert dispatch.room == 1 and pool.running() == ["a"]


def test_a_backstop_does_not_count_time_spent_queued(clock, monkeypatch):
    monkeypatch.setattr(batch, "_hard_timeout", lambda task, timeout: 1.0)
    pool, dispatch = _dispatch(workers=2, window=4, count=4, timeout=5.0)
    dispatch.fill()
    assert dispatch.backstop_in() == 1.0  # t0 and t1 run; t2, t3 wait
    clock.now = 100.9
    pool.finish("t0")
    pool.finish("t1")
    assert set(_events(dispatch)) == {"t0", "t1"}
    assert dispatch.backstop_in() == 1.0  # t2 and t3 joined the running set
    clock.now = 101.5  # past t2's backstop if its wait had counted
    assert _events(dispatch) == {}
    assert pool.kills == 0


def test_a_deadline_kill_fails_its_task_and_sends_the_rest_back_uncharged(
    clock, monkeypatch
):
    monkeypatch.setattr(
        batch, "_hard_timeout",
        lambda task, timeout: 1.0 if task.name == "t0" else 9.0,
    )
    pool, dispatch = _dispatch(workers=2, window=4, count=3, timeout=5.0)
    dispatch.fill()
    assert dispatch.backstop_in() == 1.0
    clock.now = 101.0
    events = _events(dispatch)
    assert events == {"t0": ("budget-time", {}, True)}
    assert pool.kills == 1
    assert _events(dispatch) == {}  # t1, t2 stranded by the kill
    assert pool.rebuilds == 1
    assert list(dispatch.suspects) == []
    assert [item for item, _ in dispatch.queue] == ["t2", "t1"]
    dispatch.fill()
    assert pool.running() == ["t2", "t1"]  # back in the window, not alone
    pool.finish("t1")
    assert _events(dispatch) == {"t1": (None, {}, False)}


def test_tasks_a_death_strands_rerun_alone_and_count_a_pool_retry():
    pool, dispatch = _dispatch(workers=2, window=4, count=5)
    dispatch.fill()
    pool.break_all()
    assert _events(dispatch) == {}
    assert pool.rebuilds == 1
    assert [item for item, _ in dispatch.suspects] == ["t0", "t1", "t2", "t3"]
    assert dispatch.room == 0
    dispatch.fill()
    assert pool.running() == ["t0"]
    dispatch.fill()
    assert pool.running() == ["t0"]  # one at a time
    pool.finish("t0")
    assert _events(dispatch) == {"t0": (None, {"pool_retries": 1}, False)}
    for name in ("t1", "t2", "t3"):
        dispatch.fill()
        assert pool.running() == [name]
        pool.finish(name)
        assert _events(dispatch) == {name: (None, {"pool_retries": 1}, False)}
    dispatch.fill()  # back to the window: t4 never ran, so is no suspect
    assert pool.running() == ["t4"]
    pool.finish("t4")
    assert _events(dispatch) == {"t4": (None, {}, False)}
    assert not dispatch


def test_a_task_that_breaks_the_pool_alone_is_reported():
    pool, dispatch = _dispatch(workers=2, window=4, count=2)
    dispatch.fill()
    pool.break_all()
    dispatch.settle()
    dispatch.fill()
    assert pool.running() == ["t0"]
    pool.break_all()
    assert _events(dispatch) == {"t0": None}
    assert pool.rebuilds == 2
    dispatch.fill()
    assert pool.running() == ["t1"]
    pool.finish("t1")
    assert _events(dispatch) == {"t1": (None, {"pool_retries": 1}, False)}


def test_a_pool_broken_before_submit_takes_the_task_back_uncharged():
    pool, dispatch = _dispatch(workers=2, window=2, count=1)

    def broken(*args):
        raise BrokenProcessPool("broke while idle")

    pool.submit, submit = broken, pool.submit
    dispatch.fill()
    assert pool.rebuilds == 1
    assert [item for item, _ in dispatch.queue] == ["t0"]
    pool.submit = submit
    dispatch.fill()
    pool.finish("t0")
    assert _events(dispatch) == {"t0": (None, {}, False)}


def test_nothing_joins_the_last_stranded_task_as_it_runs_alone():
    """A submit that breaks puts its task back in the queue while the
    tasks in flight become suspects. The queue waits until the last of
    them has run alone, so a death then charges that task only."""
    pool, dispatch = _dispatch(workers=2, window=3, count=4)
    submit = pool.submit

    def breaks_third(fn, task, *args):
        if len(pool.submitted) == 2 and task.name == "t2":
            raise BrokenProcessPool("broke as t2 was submitted")
        return submit(fn, task, *args)

    pool.submit = breaks_third
    dispatch.fill()
    assert pool.running() == ["t0", "t1"]
    pool.break_all()
    assert _events(dispatch) == {}
    assert [item for item, _ in dispatch.suspects] == ["t0", "t1"]
    assert [item for item, _ in dispatch.queue] == ["t2", "t3"]
    dispatch.fill()
    pool.finish("t0")
    assert _events(dispatch) == {"t0": (None, {"pool_retries": 1}, False)}
    dispatch.fill()
    assert pool.running() == ["t1"]
    dispatch.fill()  # e.g. a wake while t1 runs alone
    assert pool.running() == ["t1"]
    pool.break_all()
    assert _events(dispatch) == {"t1": None}
    dispatch.fill()
    assert pool.running() == ["t2", "t3"]
