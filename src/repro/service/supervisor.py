"""The supervised worker pool under the vetting daemon.

The daemon's policy over the batch engine's :class:`repro.batch
.WorkerPool`, which owns the executor, the worker boot, the kill and
the rebuild:

- jobs run :func:`repro.batch._execute_task` in a worker, so every
  per-addon fault (parse error, budget trip, salvage) already arrives
  as a typed outcome — the supervisor only has to handle the faults
  the worker *cannot* report: its own death and wedging;
- every worker is a fork of the *template*
  (:func:`repro.batch.start_template`), a forkserver that loaded the
  analyzer once, so the daemon itself never imports it and a worker
  boots in ~30 ms; the pool, and with its first build the template,
  boots when the daemon starts and rebuilds on a thread
  (:meth:`SupervisedPool.boot`), never on the event loop, so the front
  doors answer while the template is still preloading;
- a worker death surfaces as :class:`WorkerCrashError`; the pool is
  discarded and lazily rebuilt, so the next job gets a healthy pool
  (the daemon decides requeue-vs-poison via the durable queue's
  attempt accounting);
- per-job deadlines reuse the :mod:`repro.faults` budget machinery:
  the cooperative ``timeout`` degrades inside the fixpoint, and the
  same generous hard backstop the batch engine uses
  (:func:`repro.batch._hard_timeout`) catches work wedged outside it,
  surfacing as :class:`JobDeadlineError`; the wedged worker is killed
  and reaped before the pool is rebuilt.

The pool exposes its worker pids so the chaos harness can SIGKILL real
workers mid-run. :meth:`SupervisedPool.close` reaps the workers and
then the template, so no process outlives the daemon.
"""

from __future__ import annotations

import asyncio
from concurrent.futures.process import BrokenProcessPool
from typing import TYPE_CHECKING

from repro.batch import (
    VetOutcome,
    VetTask,
    WorkerPool,
    _execute_task,
    _hard_timeout,
    start_template,
    stop_template,
    template_pid,
)

if TYPE_CHECKING:
    from repro.signatures.spec import SecuritySpec


class WorkerCrashError(RuntimeError):
    """A pool worker died while (or before) running the job."""


class JobDeadlineError(RuntimeError):
    """The job outlived its hard pool-level deadline."""


class SupervisedPool(WorkerPool):
    """A self-healing process pool executing vet tasks for the daemon."""

    def __init__(
        self,
        workers: int = 2,
        *,
        spec: SecuritySpec | None = None,
        timeout: float | None = None,
    ) -> None:
        # Forked from the template, not from the daemon: a worker forked
        # from the daemon would inherit its open fds — including its
        # *listening socket*, so workers orphaned by a daemon crash would
        # keep the port bound and block the restart. The template is a
        # fresh interpreter that inherits none of them.
        super().__init__(workers, start_method="forkserver")
        self.spec = spec
        self.timeout = timeout
        self._build: asyncio.Future | None = None

    def start(self) -> None:
        """Build the pool, starting the template first unless it runs."""
        if self._executor is None:
            start_template()
        super().start()

    def boot(self) -> asyncio.Future:
        """Build the pool on a thread, unless a build is under way; the
        returned future is done when that build is. The first worker's
        ``Process.start()`` waits for the template's preload (~0.4 s),
        which must not stall the event loop."""
        if self._build is None:
            self._build = asyncio.ensure_future(asyncio.to_thread(self.start))
            self._build.add_done_callback(self._built)
        return self._build

    def _built(self, build: asyncio.Future) -> None:
        self._build = None

    async def close(self, *, kill: bool = False) -> None:
        """Wait out a build, shut the pool down (SIGKILLing its workers
        first with ``kill``), then stop the template: the template reaps
        the workers, the caller reaps the template."""
        while self._build is not None:
            await asyncio.wait([self._build])
        if kill:
            self.kill_workers()
        self.shutdown(wait=True)
        stop_template()

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
        deadline = self._deadline(task)
        while self._executor is None:  # jobs wait for the pool
            await asyncio.shield(self.boot())
        try:
            future = self.submit(_execute_task, task, self.spec, self.timeout)
            return await asyncio.wait_for(
                asyncio.wrap_future(future), timeout=deadline
            )
        except BrokenProcessPool as exc:
            self.discard()
            raise WorkerCrashError(str(exc) or "worker process died") from exc
        except asyncio.TimeoutError as exc:
            # The worker is wedged; only killing it reclaims its core.
            self.kill_workers()
            self.discard()
            raise JobDeadlineError(
                f"exceeded the {deadline:.1f}s hard deadline"
            ) from exc

    def stats(self) -> dict:
        return {
            "workers": self.workers,
            "worker_pids": self.worker_pids(),
            "template_pid": template_pid(),
            "rebuilds": self.rebuilds,
            "timeout_s": self.timeout,
        }
