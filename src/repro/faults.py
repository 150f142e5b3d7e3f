"""The fault-tolerance vocabulary shared across the pipeline.

Vetting untrusted, arbitrary addon code at marketplace scale means the
pipeline must *expect* pathological inputs: sources that do not parse,
analyses that do not stabilize within any reasonable budget, worker
processes that die, cache entries that rot on disk. This module gives
every layer a single vocabulary for those events:

- :class:`FailureKind` — the closed taxonomy of ways a vetting attempt
  can fail or degrade. Replacing free-form error strings with typed
  kinds is what lets the batch engine, ``table2``, and ``bench`` report
  per-kind breakdowns instead of an opaque error column.
- :class:`Degradation` — one recorded degradation event (a kind plus a
  human-readable detail). A *degraded* run still produces a sound,
  flagged signature (see DESIGN.md, "Failure modes and degradation
  semantics"); a *failed* run produces a typed failure outcome.
- :class:`Budget` / :class:`BudgetMeter` — cooperative resource limits
  (fixpoint steps, wall-clock deadline, abstract-state count) checked
  *inside* the analysis fixpoint loop, so in-process runs honor
  ``timeout`` exactly like pooled ones, and a blown budget can degrade
  gracefully instead of killing the run from outside.
- :func:`classify_exception` — the mapping from raised exceptions to
  taxonomy kinds, used wherever a failure is converted into an outcome.

The module sits below every pipeline layer (it imports only the frontend
error types), so the frontend, the interpreter, the API, and the batch
engine can all share it without cycles.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass


class FailureKind(enum.Enum):
    """The closed taxonomy of vetting failures and degradations.

    The values are the stable wire strings used in outcome JSON, bench
    reports, and table footers.
    """

    #: The source is not syntactically valid in the supported subset,
    #: or an extension bundle or its manifest is malformed.
    PARSE_ERROR = "parse-error"
    #: The source uses constructs outside the analyzable ES5 subset.
    UNSUPPORTED_SYNTAX = "unsupported-syntax"
    #: The fixpoint did not stabilize within the step budget.
    BUDGET_STEPS = "budget-steps"
    #: The wall-clock deadline expired (cooperative or pool-enforced).
    BUDGET_TIME = "budget-time"
    #: The analysis materialized more abstract states than allowed.
    BUDGET_STATES = "budget-states"
    #: A pool worker process died (or the pool broke) mid-task.
    WORKER_CRASH = "worker-crash"
    #: The same job crashed workers repeatedly and was quarantined so
    #: it cannot wedge a queue (service poison-job semantics).
    POISON = "poison-job"
    #: An on-disk cache entry could not be decoded (quarantined).
    CACHE_CORRUPT = "cache-corrupt"
    #: Any other unexpected exception inside the pipeline.
    INTERNAL = "internal"

    def __str__(self) -> str:
        return self.value


#: Kinds that describe *degradations*: the run still completed and its
#: signature is sound (over-approximate), but flagged. Everything else
#: only ever appears on failed outcomes.
DEGRADABLE_KINDS = frozenset(
    {
        FailureKind.PARSE_ERROR,
        FailureKind.UNSUPPORTED_SYNTAX,
        FailureKind.BUDGET_STEPS,
        FailureKind.BUDGET_TIME,
        FailureKind.BUDGET_STATES,
    }
)


@dataclass(frozen=True)
class Degradation:
    """One degradation event: what tripped, and where/why."""

    kind: FailureKind
    detail: str = ""

    def render(self) -> str:
        return f"{self.kind}: {self.detail}" if self.detail else str(self.kind)

    def to_json(self) -> dict:
        return {"kind": self.kind.value, "detail": self.detail}

    @classmethod
    def from_json(cls, data: dict) -> "Degradation":
        return cls(kind=FailureKind(data["kind"]), detail=data.get("detail", ""))


# ----------------------------------------------------------------------
# Cooperative budgets


@dataclass(frozen=True)
class Budget:
    """Resource limits for one analysis run.

    ``None`` disables the corresponding limit. The defaults reproduce
    the interpreter's historical 400k-step ceiling with no deadline and
    no state cap.
    """

    max_steps: int | None = 400_000
    max_seconds: float | None = None
    max_states: int | None = None

    def start(self) -> "BudgetMeter":
        """Start the clock: returns a meter whose deadline is now +
        ``max_seconds``."""
        deadline = None
        if self.max_seconds is not None:
            deadline = time.monotonic() + self.max_seconds
        return BudgetMeter(budget=self, deadline=deadline)


#: How often (in fixpoint steps) the wall clock is consulted. Steps and
#: state counts are integer compares and checked every step; the clock
#: is syscall-priced, so it is amortized.
_CLOCK_STRIDE = 64


@dataclass
class BudgetMeter:
    """A started budget: cooperative checks against a fixed deadline."""

    budget: Budget
    deadline: float | None = None

    def check(self, steps: int, states: int) -> FailureKind | None:
        """The cooperative check, called once per fixpoint step.

        Returns the kind of the first limit exceeded, or ``None``.
        """
        limits = self.budget
        if limits.max_steps is not None and steps > limits.max_steps:
            return FailureKind.BUDGET_STEPS
        if limits.max_states is not None and states > limits.max_states:
            return FailureKind.BUDGET_STATES
        if self.deadline is not None and steps % _CLOCK_STRIDE == 1:
            if time.monotonic() > self.deadline:
                return FailureKind.BUDGET_TIME
        return None

    def expired(self) -> bool:
        """Has the wall-clock deadline passed? (For call sites outside
        the fixpoint loop, e.g. between timing runs.)"""
        return self.deadline is not None and time.monotonic() > self.deadline

    def describe(self, kind: FailureKind) -> str:
        limits = self.budget
        if kind is FailureKind.BUDGET_STEPS:
            return f"no fixpoint after {limits.max_steps} steps"
        if kind is FailureKind.BUDGET_STATES:
            return f"more than {limits.max_states} abstract states"
        if kind is FailureKind.BUDGET_TIME:
            return f"exceeded {limits.max_seconds}s wall-clock deadline"
        return str(kind)  # pragma: no cover - only budget kinds expected


# ----------------------------------------------------------------------
# Retry policy


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff with jitter — the one retry shape
    every layer that survives worker death uses (the batch engine's
    pool rebuilds, the vetting service's crashed-job requeues).

    ``max_attempts`` counts *executions*: 3 means one first try plus at
    most two retries; whatever still fails after that is failed (or
    quarantined as poison) with a typed :class:`FailureKind` rather
    than retried forever. Delays grow ``base_delay * 2**(attempt-1)``
    up to ``max_delay``; ``jitter`` randomizes the top fraction of each
    delay so a fleet of retriers does not thundering-herd a shared
    resource. Pass a seeded ``random.Random`` for deterministic tests.
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    max_delay: float = 2.0
    jitter: float = 0.5

    def allows(self, attempts: int) -> bool:
        """May a job that has already run ``attempts`` times run again?"""
        return attempts < self.max_attempts

    def delay(self, attempt: int, rng=None) -> float:
        """The backoff before retry number ``attempt`` (1-based)."""
        raw = min(self.max_delay, self.base_delay * (2 ** max(0, attempt - 1)))
        if self.jitter <= 0:
            return raw
        if rng is None:
            import random as rng  # module-level uniform() is fine here
        return raw * (1 - self.jitter) + raw * self.jitter * rng.random()


# ----------------------------------------------------------------------
# Exception classification


def classify_exception(exc: BaseException) -> FailureKind:
    """Map a raised exception to its taxonomy kind.

    Budget exceptions carry their kind directly (``exc.kind``); frontend
    errors and rejected bundles or manifests map by type; pool breakage
    maps to ``worker-crash``; anything else is ``internal``.
    """
    kind = getattr(exc, "kind", None)
    if isinstance(kind, FailureKind):
        return kind

    from concurrent.futures.process import BrokenProcessPool

    from repro.js.errors import FrontendError, UnsupportedSyntaxError
    from repro.webext.manifest import ManifestError

    if isinstance(exc, UnsupportedSyntaxError):
        return FailureKind.UNSUPPORTED_SYNTAX
    if isinstance(exc, (FrontendError, ManifestError)):
        return FailureKind.PARSE_ERROR
    if isinstance(exc, BrokenProcessPool):
        return FailureKind.WORKER_CRASH
    return FailureKind.INTERNAL
