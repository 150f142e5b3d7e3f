"""The supervised worker pool under the vetting daemon.

A thin, crash-aware wrapper around ``ProcessPoolExecutor``:

- jobs run :func:`repro.batch._execute_task` in a worker, so every
  per-addon fault (parse error, budget trip, salvage) already arrives
  as a typed outcome — the supervisor only has to handle the faults
  the worker *cannot* report: its own death and wedging;
- workers are spawned when the daemon starts (:meth:`SupervisedPool
  .start`), and each one loads the analyzer while it boots
  (:func:`_worker_init`), so the daemon itself never imports it and
  the first jobs do not wait for it;
- a worker death surfaces as :class:`WorkerCrashError`; the pool is
  torn down and lazily rebuilt, so the next job gets a healthy pool
  (the daemon decides requeue-vs-poison via the durable queue's
  attempt accounting);
- per-job deadlines reuse the :mod:`repro.faults` budget machinery:
  the cooperative ``timeout`` degrades inside the fixpoint, and the
  same generous hard backstop the batch engine uses
  (:func:`repro.batch._hard_timeout`) catches work wedged outside it,
  surfacing as :class:`JobDeadlineError`; the wedged worker is killed
  and reaped before the pool is rebuilt.

The pool exposes its worker pids so the chaos harness can SIGKILL real
workers mid-run.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import signal
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import TYPE_CHECKING

from repro.batch import VetOutcome, VetTask, _execute_task, _hard_timeout

if TYPE_CHECKING:
    from repro.signatures.spec import SecuritySpec


def _worker_init() -> None:
    """Boot a worker: detach it from the daemon's signal plumbing, then
    load the vetting pipeline before the first job needs it.

    A SIGTERM delivered to a worker (which is exactly what the executor
    sends the survivors when one worker dies) must end the worker, never
    reach the *daemon's* event loop as if the daemon itself had been
    told to shut down; and a terminal's SIGINT is the daemon's to
    handle, not its workers'."""
    try:
        signal.set_wakeup_fd(-1)
    except (ValueError, OSError):
        pass
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    # What _execute_task imports on first use.
    import repro.api  # noqa: F401
    import repro.diffvet.incremental  # noqa: F401
    import repro.lint.surface  # noqa: F401
    import repro.webext.pipeline  # noqa: F401


class WorkerCrashError(RuntimeError):
    """A pool worker died while (or before) running the job."""


class JobDeadlineError(RuntimeError):
    """The job outlived its hard pool-level deadline."""


class SupervisedPool:
    """A self-healing process pool executing vet tasks."""

    def __init__(
        self,
        workers: int = 2,
        *,
        spec: SecuritySpec | None = None,
        timeout: float | None = None,
    ) -> None:
        self.workers = max(1, workers)
        self.spec = spec
        self.timeout = timeout
        self._executor: ProcessPoolExecutor | None = None
        self.rebuilds = 0

    # -- lifecycle -----------------------------------------------------

    def start(self) -> None:
        """Spawn every worker now, so they boot while the daemon comes
        up instead of when the first jobs arrive. A pool torn down
        after a crash or deadline is rebuilt lazily by :meth:`run`."""
        executor = self._ensure_executor()
        # The executor spawns one worker per submit while none is idle.
        # The results are not needed: a pool that breaks while booting
        # surfaces on the next job, as a crash.
        for _ in range(self.workers):
            executor.submit(os.getpid)

    def _ensure_executor(self) -> ProcessPoolExecutor:
        if self._executor is None:
            # Spawn, not fork: forked workers inherit the daemon's open
            # fds — including its *listening socket*, so workers
            # orphaned by a daemon crash would keep the port bound and
            # block the restart. Spawned workers start from a clean
            # process image.
            self._executor = ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=multiprocessing.get_context("spawn"),
                initializer=_worker_init,
            )
        return self._executor

    def _kill_workers(self) -> None:
        """SIGKILL and reap every live worker: ``shutdown`` never stops
        a *running* one."""
        processes = list(self._processes().values())
        for process in processes:
            if process.is_alive():
                process.kill()
        for process in processes:
            process.join()

    def _teardown(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None

    def shutdown(self) -> None:
        self._teardown()

    def _processes(self) -> dict:
        return getattr(self._executor, "_processes", None) or {}

    def worker_pids(self) -> list[int]:
        """The live worker pids (the chaos harness's kill targets).
        Empty before :meth:`start` and after a teardown, until the next
        job rebuilds the pool."""
        return sorted(
            process.pid
            for process in self._processes().values()
            if process.is_alive() and process.pid is not None
        )

    # -- execution -----------------------------------------------------

    def _deadline(self, task: VetTask) -> float | None:
        """The per-job hard backstop (overridable seam for tests; the
        production value is deliberately generous)."""
        return _hard_timeout(task, self.timeout)

    async def run(self, task: VetTask) -> VetOutcome:
        """Vet one task on the pool, off the event loop.

        Raises :class:`WorkerCrashError` when the pool broke under the
        job and :class:`JobDeadlineError` when the hard backstop fired;
        every other fault comes back inside the typed outcome.
        """
        loop = asyncio.get_running_loop()
        executor = self._ensure_executor()
        deadline = self._deadline(task)
        try:
            future = loop.run_in_executor(
                executor, _execute_task, task, self.spec, self.timeout
            )
            if deadline is None:
                return await future
            return await asyncio.wait_for(future, timeout=deadline)
        except BrokenProcessPool as exc:
            self.rebuilds += 1
            self._teardown()
            raise WorkerCrashError(str(exc) or "worker process died") from exc
        except asyncio.TimeoutError as exc:
            # The worker is wedged; only killing it reclaims its core.
            self.rebuilds += 1
            self._kill_workers()
            self._teardown()
            raise JobDeadlineError(
                f"exceeded the {deadline:.1f}s hard deadline"
            ) from exc

    def stats(self) -> dict:
        return {
            "workers": self.workers,
            "worker_pids": self.worker_pids(),
            "rebuilds": self.rebuilds,
            "timeout_s": self.timeout,
        }
