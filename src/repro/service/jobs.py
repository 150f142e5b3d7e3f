"""The job vocabulary of the vetting service.

A *job* is one requested vet: a :class:`~repro.batch.VetTask` plus the
queue bookkeeping that makes it survive crashes — a stable id, a state,
and an attempt count. Job states form the lifecycle::

    QUEUED ──claim──▶ RUNNING ──commit──▶ DONE
      │                  │ killed its worker alone / daemon death
      │                  ├─ attempts left ──▶ QUEUED   (requeue)
      │                  └─ attempts spent ─▶ POISONED (quarantine)
      │                  └─ hard deadline ──▶ FAILED
      └──cancel──▶ CANCELLED

A job stranded by another job's worker death stays ``RUNNING`` while
it reruns alone: no new attempt, no new journal record.

``DONE`` means the *outcome was committed* — the outcome itself may
record a vetting failure (parse error, budget trip); that is a vetted
result, not a job failure. ``FAILED``/``POISONED`` are infrastructure
verdicts: the service could not produce an outcome for this job, and
says so with a typed :class:`repro.faults.FailureKind`.
"""

from __future__ import annotations

import dataclasses
import enum
from dataclasses import dataclass, field

from repro.batch import VetTask
from repro.lazy import sha256_hex


class JobState(str, enum.Enum):
    """Where a job is in its lifecycle (values are the wire strings)."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"
    POISONED = "poisoned"

    def __str__(self) -> str:
        return self.value


#: States from which a job never moves again.
TERMINAL_STATES = frozenset(
    {JobState.DONE, JobState.FAILED, JobState.CANCELLED, JobState.POISONED}
)


def task_to_json(task: VetTask) -> dict:
    return dataclasses.asdict(task)


def task_from_json(data: dict) -> VetTask:
    known = {f.name for f in dataclasses.fields(VetTask)}
    return VetTask(**{k: v for k, v in data.items() if k in known})


def derive_job_id(name: str, source: str, nonce: str = "") -> str:
    """A deterministic job id from the submission itself, so a client
    that re-submits after a connection loss (or a daemon restart) names
    the *same* job and cannot create a duplicate."""
    digest = sha256_hex(f"{name}\x00{source}\x00{nonce}")
    return f"job-{digest[:20]}"


@dataclass
class Job:
    """One queued vet and its crash-surviving bookkeeping."""

    id: str
    task: VetTask
    state: JobState = JobState.QUEUED
    #: How many times execution *started* (journaled before the run, so
    #: a crash mid-run still counts the attempt on replay).
    attempts: int = 0
    #: Monotonic submission sequence (orders the pending queue).
    seq: int = 0
    #: Typed infrastructure failure (a :class:`FailureKind` value) for
    #: ``FAILED``/``POISONED`` jobs; human detail in ``error``.
    failure: str | None = None
    error: str | None = None
    #: Crash-attribution breadcrumbs (diagnostic only).
    history: list[str] = field(default_factory=list)

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def status_json(self) -> dict:
        """The wire shape of ``status`` responses (no source bytes —
        status polls must stay cheap)."""
        return {
            "id": self.id,
            "name": self.task.name,
            "state": self.state.value,
            "attempts": self.attempts,
            "terminal": self.terminal,
            "failure": self.failure,
            "error": self.error,
        }
