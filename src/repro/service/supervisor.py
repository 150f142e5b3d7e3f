"""The worker pool under the vetting daemon.

A :class:`repro.batch.WorkerPool` that the daemon drives through the
batch engine's :class:`repro.batch.Dispatch`, so a worker death or a
wedged job is handled by the same rules in both:

- every worker is a fork of the *template*
  (:func:`repro.batch.start_template`), a forkserver that loaded the
  analyzer once, so the daemon itself never imports it and a worker
  boots in ~30 ms;
- the pool, and with its first build the template, boots when the
  daemon starts and rebuilds on a thread (:meth:`SupervisedPool.boot`),
  never on the event loop, so the front doors answer while the
  template is still preloading.

The pool exposes its worker pids so the chaos harness can SIGKILL real
workers mid-run. :meth:`SupervisedPool.close` reaps the workers and
then the template, so no process outlives the daemon.
"""

from __future__ import annotations

import asyncio

from repro.batch import WorkerPool, start_template, stop_template, template_pid


class SupervisedPool(WorkerPool):
    """The daemon's process pool, built and rebuilt off the event loop."""

    def __init__(self, workers: int = 2) -> None:
        # Forked from the template, not from the daemon: a worker forked
        # from the daemon would inherit its open fds — including its
        # *listening socket*, so workers orphaned by a daemon crash would
        # keep the port bound and block the restart. The template is a
        # fresh interpreter that inherits none of them.
        super().__init__(workers, start_method="forkserver")
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

    def stats(self) -> dict:
        return {
            "workers": self.workers,
            "worker_pids": self.worker_pids(),
            "template_pid": template_pid(),
            "rebuilds": self.rebuilds,
        }
