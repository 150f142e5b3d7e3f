"""The vetting service: a crash-safe, long-running vetting daemon.

Everything below this package exists so a store-scale deployment can
treat vetting as *infrastructure*: submissions survive the daemon being
killed, a worker death costs only the job that caused it, and verdicts
are committed exactly once no matter how many times the machinery
around them crashes.

- :mod:`repro.service.jobs` — the job vocabulary: :class:`Job`,
  :class:`JobState`, and the submission payload;
- :mod:`repro.service.queue` — :class:`DurableJobQueue`: every state
  change journaled to per-shard :class:`repro.store.Journal` files
  (atomic append + replay-on-restart), results committed to a fsync'd
  :class:`repro.store.JsonStore` *before* the terminal journal record,
  so execution is at-least-once but result commit is idempotent —
  a replayed job that already committed is recognized, not re-run;
- :mod:`repro.service.supervisor` — :class:`SupervisedPool`: the
  batch engine's :class:`repro.batch.WorkerPool`, its workers forked
  from one template that preloaded the vetting pipeline, built and
  rebuilt off the event loop;
- :mod:`repro.service.server` — :class:`VettingService`, which drives
  the batch engine's :class:`repro.batch.Dispatch` (stranded jobs rerun
  alone, charged nothing; hard deadlines kill the wedged worker), plus
  its two front doors: newline-delimited JSON-RPC on stdin/stdout, or a
  localhost HTTP listener (stdlib-only, asyncio);
- :mod:`repro.service.daemon` — the thin entry module (``addon-sig
  serve``, ``python -m repro.service.daemon``): flags only, importing
  :mod:`repro.service.server` when it serves, because pool workers
  re-import the entry module and must not load asyncio, and keeping
  OpenSSL out of the daemon (``block_openssl``);
- :mod:`repro.service.client` — the blocking HTTP client the load
  generator and tests drive the daemon with;
- :mod:`repro.service.loadgen` — the service-level chaos harness
  (``addon-sig service-bench``): concurrent submitters, injected worker
  kills and a daemon SIGKILL+restart, asserting zero lost jobs, no
  duplicate side effects, and byte-identical verdicts versus a
  fault-free control run; writes ``BENCH_service.json``.
"""

from repro.service.jobs import Job, JobState
from repro.service.queue import DurableJobQueue

__all__ = ["DurableJobQueue", "Job", "JobState"]
