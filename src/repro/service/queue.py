"""The durable job queue: journaled state, replay-on-restart.

Design, in one paragraph: every job state change is **journaled before
it is acted on** (atomic append to a per-shard
:class:`repro.store.Journal`, fsync'd by default), and results are
**committed before they are acknowledged** (atomic fsync'd write into a
:class:`repro.store.JsonStore` *before* the terminal ``done`` record).
A killed daemon therefore restarts by replaying the journals: submitted
jobs are never lost, jobs that were mid-run are re-queued (execution is
at-least-once), and a job whose result had already been committed is
recognized as ``DONE`` instead of re-run — so the *verdict* is
committed exactly once even though the *work* may run twice.

Poison-job quarantine closes the loop on pathological submissions: the
``start`` record is journaled before each attempt, so attempts survive
restarts, and a job that keeps crashing the machinery (killing its
worker while it runs alone, or the daemon mid-run) exhausts its attempt
budget and is parked in state ``POISONED`` with
:data:`repro.faults.FailureKind.POISON` rather than wedging the queue
forever. A job stranded by another job's worker death reruns on its
original ``start`` record and is charged nothing.

The queue is synchronous and thread-safe (one lock); the asyncio daemon
drives it from the event loop and wakes its scheduler on submits.
"""

from __future__ import annotations

import os
import threading
import zlib
from collections.abc import Iterator
from pathlib import Path

from repro.batch import VetTask
from repro.faults import FailureKind
from repro.service.jobs import (
    Job,
    JobState,
    derive_job_id,
    task_from_json,
    task_to_json,
)
from repro.store import Journal, JsonStore

#: How many times a job may start before a crash quarantines it: one
#: first try plus two retries.
DEFAULT_MAX_ATTEMPTS = 3

#: Journal shards (``journal/shard-NN.log``); a job's shard is the CRC32
#: of its id modulo this, so every state directory depends on it.
JOURNAL_SHARDS = 4


class DurableJobQueue:
    """A crash-safe work queue for vetting jobs.

    ``directory`` holds everything: ``journal/shard-NN.log`` (the
    per-shard state journals) and ``results/`` (the committed-outcome
    store). ``max_attempts`` is the poison threshold — how many times a
    job may *start* before it is quarantined. ``fsync=False`` is for
    tests only.
    """

    def __init__(
        self,
        directory: str | os.PathLike,
        *,
        max_attempts: int | None = None,
        fsync: bool = True,
    ) -> None:
        self.directory = Path(directory)
        self.max_attempts = (
            max_attempts if max_attempts is not None else DEFAULT_MAX_ATTEMPTS
        )
        self._journals = [
            Journal(
                self.directory / "journal" / f"shard-{index:02d}.log",
                fsync=fsync,
            )
            for index in range(JOURNAL_SHARDS)
        ]
        self.results = JsonStore(
            self.directory / "results", shards=16, fsync=fsync
        )
        self._lock = threading.Lock()
        self._jobs: dict[str, Job] = {}
        self._pending: list[str] = []  # job ids, submission order
        self._seq = 0
        self.recovery = self._replay()

    # -- journal plumbing ----------------------------------------------

    def _shard(self, job_id: str) -> int:
        return zlib.crc32(job_id.encode("utf-8")) % JOURNAL_SHARDS

    def _journal_for(self, job_id: str) -> Journal:
        return self._journals[self._shard(job_id)]

    def _log(self, record: dict) -> None:
        self._journal_for(record["job_id"]).append(record)

    def close(self) -> None:
        for journal in self._journals:
            journal.close()

    # -- recovery ------------------------------------------------------

    def _replay(self) -> dict:
        """Rebuild the job table from the journals (torn tails repaired,
        corrupt records skipped), then resolve every non-terminal job:
        committed result → ``DONE``; attempt budget spent → poison;
        otherwise back onto the pending queue. Returns the recovery
        summary the daemon surfaces in its stats."""
        corrupt = 0
        repaired = 0
        records: list[dict] = []
        for journal in self._journals:
            if journal.repair():
                repaired += 1
            replay = journal.replay()
            corrupt += replay.corrupt
            records.extend(replay.records)
        # Per-job records live in one shard, so they arrive in append
        # order; only submissions need the cross-shard sort.
        for record in records:
            self._apply(record)
        requeued = 0
        healed = 0
        poisoned = 0
        for job in self._jobs.values():
            self._seq = max(self._seq, job.seq)
            if job.terminal:
                continue
            if self.results.get(job.id) is not None:
                # Crashed between result commit and the ``done`` record:
                # the verdict exists — heal the journal, never re-run.
                job.state = JobState.DONE
                self._log({"event": "done", "job_id": job.id})
                healed += 1
            elif job.attempts >= self.max_attempts:
                self._poison_locked(
                    job, "crashed the service on every allowed attempt"
                )
                poisoned += 1
            else:
                job.state = JobState.QUEUED
                requeued += 1
        self._pending = [
            job.id
            for job in sorted(self._jobs.values(), key=lambda j: j.seq)
            if job.state is JobState.QUEUED
        ]
        return {
            "jobs_replayed": len(self._jobs),
            "requeued": requeued,
            "healed_commits": healed,
            "poisoned": poisoned,
            "corrupt_records": corrupt,
            "repaired_journals": repaired,
        }

    def _apply(self, record: dict) -> None:
        event = record.get("event")
        job_id = record.get("job_id")
        if not isinstance(job_id, str):
            return
        if event == "submit":
            if job_id not in self._jobs:
                try:
                    task = task_from_json(record["task"])
                except Exception:
                    return  # unreadable task: treat as corrupt record
                self._jobs[job_id] = Job(
                    id=job_id, task=task, seq=int(record.get("seq", 0))
                )
            return
        job = self._jobs.get(job_id)
        if job is None:
            return
        if event == "start":
            job.attempts = max(job.attempts, int(record.get("attempt", 0)))
            job.state = JobState.RUNNING
        elif event == "done":
            job.state = JobState.DONE
        elif event == "failed":
            job.state = JobState.FAILED
            job.failure = record.get("failure")
            job.error = record.get("error")
        elif event == "cancelled":
            job.state = JobState.CANCELLED
        elif event == "poisoned":
            job.state = JobState.POISONED
            job.failure = FailureKind.POISON.value
            job.error = record.get("error")

    # -- submission and claiming ---------------------------------------

    def submit(self, task: VetTask, job_id: str | None = None) -> Job:
        """Durably enqueue one job. Idempotent on ``job_id``: a client
        re-submitting after a lost connection or daemon restart gets
        the existing job back, in whatever state it reached."""
        with self._lock:
            if job_id is None:
                job_id = derive_job_id(task.name, task.source)
            existing = self._jobs.get(job_id)
            if existing is not None:
                return existing
            self._seq += 1
            job = Job(id=job_id, task=task, seq=self._seq)
            # Journal-then-ack: once submit() returns, replay finds it.
            self._log({
                "event": "submit",
                "job_id": job_id,
                "seq": job.seq,
                "task": task_to_json(task),
            })
            self._jobs[job_id] = job
            self._pending.append(job_id)
            return job

    def claim(self) -> Job | None:
        """Take the oldest queued job and mark it running. The attempt
        is journaled *before* the caller runs anything, so a crash
        mid-run still counts it on replay (poison accounting)."""
        with self._lock:
            while self._pending:
                job = self._jobs[self._pending.pop(0)]
                if job.state is not JobState.QUEUED:
                    continue  # cancelled while queued
                job.attempts += 1
                job.state = JobState.RUNNING
                self._log({
                    "event": "start",
                    "job_id": job.id,
                    "attempt": job.attempts,
                })
                return job
            return None

    # -- terminal transitions ------------------------------------------

    def commit_result(self, job_id: str, outcome: dict) -> bool:
        """Commit a job's vetted outcome: result first (atomic,
        fsync'd), ``done`` record second. Idempotent — a job that
        already committed keeps its first verdict and this returns
        ``False`` (the no-duplicate-side-effects guarantee)."""
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None or job.terminal:
                return False
            if self.results.get(job_id) is None:
                self.results.put(job_id, outcome)
            job.state = JobState.DONE
            self._log({"event": "done", "job_id": job_id})
            return True

    def fail(self, job_id: str, failure: FailureKind, error: str = "") -> None:
        """Terminally fail a job with a typed infrastructure failure."""
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None or job.terminal:
                return
            job.state = JobState.FAILED
            job.failure = failure.value
            job.error = error
            self._log({
                "event": "failed",
                "job_id": job_id,
                "failure": failure.value,
                "error": error,
            })

    def crashed(self, job_id: str, error: str = "") -> JobState:
        """The job killed its worker as it ran alone: requeue it while
        attempts remain, quarantine it as poison once they are spent.
        Returns the resulting state."""
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None or job.terminal:
                return JobState.FAILED if job is None else job.state
            job.history.append(error or "worker crash")
            if job.attempts >= self.max_attempts:
                self._poison_locked(job, error)
                return job.state
            job.state = JobState.QUEUED
            self._pending.append(job.id)
            return job.state

    def _poison_locked(self, job: Job, error: str) -> None:
        job.state = JobState.POISONED
        job.failure = FailureKind.POISON.value
        job.error = (
            f"quarantined after {job.attempts} crashed attempts"
            + (f": {error}" if error else "")
        )
        self._log({
            "event": "poisoned",
            "job_id": job.id,
            "error": job.error,
        })

    def cancel(self, job_id: str) -> bool:
        """Cancel a job that has not started; running or finished jobs
        are not cancellable (their attempt may already have effects)."""
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None or job.state is not JobState.QUEUED:
                return False
            job.state = JobState.CANCELLED
            self._log({"event": "cancelled", "job_id": job_id})
            return True

    # -- maintenance ---------------------------------------------------

    def compact(self) -> None:
        """Fold each shard journal down to the records that reproduce
        the current state (one submit, the attempt high-water mark, and
        the terminal event per job). Run on graceful shutdown so
        journals do not grow with history forever. Records are built
        as each journal writes them, one at a time."""
        with self._lock:
            jobs = sorted(self._jobs.values(), key=lambda j: j.seq)
            for index, journal in enumerate(self._journals):
                journal.compact(
                    record
                    for job in jobs
                    if self._shard(job.id) == index
                    for record in _snapshot(job)
                )

    # -- reads ---------------------------------------------------------

    def get(self, job_id: str) -> Job | None:
        with self._lock:
            return self._jobs.get(job_id)

    def result(self, job_id: str) -> dict | None:
        """The committed outcome of a ``DONE`` job (``None`` until the
        commit happened)."""
        return self.results.get(job_id)

    def jobs(self) -> list[Job]:
        with self._lock:
            return sorted(self._jobs.values(), key=lambda job: job.seq)

    def depth(self) -> int:
        with self._lock:
            return sum(
                1
                for job in self._jobs.values()
                if job.state is JobState.QUEUED
            )

    def stats(self) -> dict:
        with self._lock:
            states: dict[str, int] = {}
            for job in self._jobs.values():
                states[job.state.value] = states.get(job.state.value, 0) + 1
            return {
                "jobs": len(self._jobs),
                "states": dict(sorted(states.items())),
                "max_attempts": self.max_attempts,
                "recovery": self.recovery,
            }


def _snapshot(job: Job) -> Iterator[dict]:
    """The journal records that replay to ``job``'s current state."""
    yield {
        "event": "submit",
        "job_id": job.id,
        "seq": job.seq,
        "task": task_to_json(job.task),
    }
    if job.attempts:
        yield {"event": "start", "job_id": job.id, "attempt": job.attempts}
    if job.state is JobState.DONE:
        yield {"event": "done", "job_id": job.id}
    elif job.state is JobState.FAILED:
        yield {
            "event": "failed",
            "job_id": job.id,
            "failure": job.failure,
            "error": job.error,
        }
    elif job.state is JobState.CANCELLED:
        yield {"event": "cancelled", "job_id": job.id}
    elif job.state is JobState.POISONED:
        yield {"event": "poisoned", "job_id": job.id, "error": job.error}
