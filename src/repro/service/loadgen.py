"""``addon-sig service-bench``: the service-level chaos harness.

The harness proves the daemon's crash-safety claims end to end, the way
the store-level fault tests prove the write paths: run a realistic
workload twice — once untouched (the *control* run), once while the
harness SIGKILLs live pool workers and the daemon itself mid-run (the
*chaos* run) — and require that chaos changed **nothing observable**:

- **zero lost jobs** — every acknowledged submission reaches exactly
  one terminal state;
- **no duplicate side effects** — every addon's version chain has
  exactly one link per distinct approved source, no matter how many
  times its jobs re-ran;
- **byte-identical verdicts** — the stable verdict fields of every
  outcome (``ok``/``degraded``/``failure``/``signature_text``/
  ``verdict``/``diff_verdict``/``diff_changes``/``diff_witnesses``)
  match the control run byte for byte.

The workload mixes first submissions with diffvet update chains
(versions of one addon submitted in order, so the daemon resolves each
update's baseline from its version store — the marketplace hot path).
Concurrent submitter threads drive the HTTP front door; a chaos thread
watches progress and fires its kills at fixed completion fractions.
``max_attempts`` is sized to ``kills + 2`` so even a job unlucky enough
to be hit by *every* chaos event cannot be poisoned — the exactly-once
check stays deterministic.

The report (``BENCH_service.json``) carries p50/p95/p99 submit→terminal
latency for both runs, per-kill recovery timings (a worker kill's
``recovery_s``, from the kill to the first job finished on the rebuilt
pool; a daemon restart's ``downtime_s`` and ``ready_s``), and the
journal replay summaries of each daemon restart.
"""

from __future__ import annotations

import json
import os
import queue as queue_module
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.batch import VetTask
from repro.evaluation.scaling import synthesize_flat
from repro.service.client import ServiceClient, ServiceUnavailable
from repro.service.jobs import derive_job_id


# ----------------------------------------------------------------------
# Workload


@dataclass(frozen=True)
class Chain:
    """One addon's submission sequence: version 1 first, each later
    version only after its predecessor reached a terminal state."""

    name: str
    sources: tuple[str, ...]

    def job_ids(self) -> list[str]:
        return [derive_job_id(self.name, source) for source in self.sources]


def build_workload(jobs: int, seed: int = 0,
                   update_fraction: float = 0.5) -> list[Chain]:
    """A deterministic mixed workload totalling ``jobs`` submissions:
    single-version addons plus 2–3 version update chains (roughly
    ``update_fraction`` of submissions belong to chains). Versions of a
    chain grow by one feature handler each, so updates take the real
    diff path (changed source, changed signature)."""
    import random

    rng = random.Random(seed)
    chains: list[Chain] = []
    remaining = jobs
    index = 0
    while remaining > 0:
        if remaining >= 2 and rng.random() < update_fraction:
            length = min(remaining, rng.choice((2, 2, 3)))
        else:
            length = 1
        base = rng.randint(1, 4)
        sources = tuple(
            synthesize_flat(base + version) for version in range(length)
        )
        chains.append(Chain(name=f"addon-{index:04d}", sources=sources))
        index += 1
        remaining -= length
    return chains


#: Outcome fields that must be byte-identical between the chaos run and
#: the control run. Timings and hot-path counters are excluded — they
#: measure the machinery, not the verdict.
STABLE_FIELDS = (
    "name", "ok", "degraded", "failure", "signature_text", "verdict",
    "diff_verdict", "diff_changes", "diff_witnesses", "incremental",
    "prefiltered",
)


def stable_verdict(outcome: dict) -> str:
    """The canonical byte string of an outcome's verdict-bearing
    fields."""
    return json.dumps(
        {name: outcome.get(name) for name in STABLE_FIELDS},
        sort_keys=True,
        separators=(",", ":"),
    )


# ----------------------------------------------------------------------
# Daemon under test


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class DaemonHandle:
    """Launch, kill, and restart one daemon subprocess on a fixed port
    (fixed so clients survive restarts without rediscovery)."""

    def __init__(self, directory: Path, *, workers: int, max_attempts: int,
                 fsync: bool = True) -> None:
        self.directory = Path(directory)
        self.workers = workers
        self.max_attempts = max_attempts
        self.fsync = fsync
        self.port = _free_port()
        self.client = ServiceClient(self.port)
        self.process: subprocess.Popen | None = None

    def start(self, *, ready_timeout: float = 30.0) -> float:
        """(Re)launch the daemon; returns seconds until it answered."""
        command = [
            sys.executable, "-m", "repro.service.daemon",
            "--dir", str(self.directory),
            "--http", str(self.port),
            "--workers", str(self.workers),
            "--max-attempts", str(self.max_attempts),
        ]
        if not self.fsync:
            command.append("--no-fsync")
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[2])
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        started = time.monotonic()
        self.directory.mkdir(parents=True, exist_ok=True)
        with open(self.directory / "daemon-err.log", "ab") as err_log:
            # Its own session: :meth:`kill` can then kill the process
            # group, which holds the daemon, its template and workers.
            self.process = subprocess.Popen(
                command, env=env,
                stdout=subprocess.DEVNULL, stderr=err_log,
                start_new_session=True,
            )
        deadline = started + ready_timeout
        while time.monotonic() < deadline:
            if self.client.alive():
                return time.monotonic() - started
            if self.process.poll() is not None:
                raise RuntimeError(
                    f"daemon exited with {self.process.returncode} "
                    "before answering"
                )
            time.sleep(0.02)
        raise TimeoutError("daemon did not answer within the ready timeout")

    def kill(self) -> None:
        """SIGKILL the daemon's process group — the crash the journals
        exist for. The group also holds the template and the workers,
        as a real deployment's supervisor kills a crashed service's
        processes: an orphaned worker would wait forever for work and
        keep the template alive, and a worker forked while the pool
        boots is not yet in ``stats``."""
        if self.process is None:
            return
        try:
            os.killpg(self.process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.process.wait()

    def stop(self, *, timeout: float = 15.0) -> None:
        if self.process is None or self.process.poll() is not None:
            return
        try:
            self.client.shutdown()
        except (ServiceUnavailable, Exception):
            pass
        try:
            self.process.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.kill()

    def recovery_summary(self) -> dict | None:
        """The last restart's journal replay summary (from the daemon's
        discovery file)."""
        try:
            data = json.loads(
                (self.directory / "daemon.json").read_text("utf-8")
            )
            return data.get("recovery")
        except (OSError, ValueError):
            return None


# ----------------------------------------------------------------------
# Submitters


@dataclass
class JobResult:
    job_id: str
    name: str
    state: str
    latency_s: float


def _drive_chain(client: ServiceClient, chain: Chain,
                 results: list[JobResult], lock: threading.Lock,
                 wait_timeout: float) -> None:
    for source, job_id in zip(chain.sources, chain.job_ids()):
        task = VetTask(name=chain.name, source=source)
        started = time.monotonic()
        client.submit_durable(task, job_id=job_id, retry_for=wait_timeout)
        status = client.wait(job_id, timeout=wait_timeout)
        record = JobResult(
            job_id=job_id,
            name=chain.name,
            state=status["state"],
            latency_s=time.monotonic() - started,
        )
        with lock:
            results.append(record)


def _run_submitters(handle: DaemonHandle, chains: list[Chain],
                    submitters: int, wait_timeout: float,
                    errors: list[str]) -> list[JobResult]:
    work: queue_module.Queue[Chain] = queue_module.Queue()
    for chain in chains:
        work.put(chain)
    results: list[JobResult] = []
    lock = threading.Lock()

    def worker() -> None:
        client = ServiceClient(handle.port)
        while True:
            try:
                chain = work.get_nowait()
            except queue_module.Empty:
                return
            try:
                _drive_chain(client, chain, results, lock, wait_timeout)
            except Exception as exc:
                with lock:
                    errors.append(f"{chain.name}: {type(exc).__name__}: {exc}")

    threads = [
        threading.Thread(target=worker, name=f"submit-{i}", daemon=True)
        for i in range(max(1, submitters))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return results


# ----------------------------------------------------------------------
# Chaos controller


@dataclass
class ChaosLog:
    worker_kills: list[dict] = field(default_factory=list)
    daemon_restarts: list[dict] = field(default_factory=list)
    missed: list[str] = field(default_factory=list)


def _terminal(stats: dict) -> int:
    states = stats["queue"]["states"]
    return sum(
        states.get(state, 0)
        for state in ("done", "failed", "cancelled", "poisoned")
    )


def _terminal_count(client: ServiceClient) -> int | None:
    try:
        return _terminal(client.stats())
    except (ServiceUnavailable, Exception):
        return None


def _kill_one_worker(handle: DaemonHandle, log: ChaosLog,
                     fraction: float, done: threading.Event,
                     patience: float = 10.0) -> None:
    deadline = time.monotonic() + patience
    while time.monotonic() < deadline:
        try:
            pool = handle.client.stats()["pool"]
        except (ServiceUnavailable, Exception):
            pool = {"worker_pids": []}
        for pid in pool["worker_pids"]:
            try:
                os.kill(pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                continue
            kill = {"pid": pid, "at_fraction": fraction}
            log.worker_kills.append(kill)
            recovery_s = _recovery_s(handle, pool["rebuilds"], done)
            if recovery_s is None:
                log.missed.append(
                    f"no job finished on the pool rebuilt after the worker "
                    f"kill at {fraction:.0%}"
                )
            else:
                kill["recovery_s"] = round(recovery_s, 3)
            return
        time.sleep(0.05)
    log.missed.append(f"no live worker to kill at {fraction:.0%}")


def _recovery_s(handle: DaemonHandle, rebuilds: int, done: threading.Event,
                patience: float = 60.0) -> float | None:
    """Seconds from a worker kill to the first job that finished on the
    rebuilt pool: the first terminal job after the daemon counted the
    pool's rebuild. ``None`` if none finished (the run ended first)."""
    killed = time.monotonic()
    noticed = None  # terminal jobs when the daemon counted the rebuild
    while True:
        finished = done.is_set()
        try:
            stats = handle.client.stats()
        except (ServiceUnavailable, Exception):
            stats = None
        if stats is not None:
            if noticed is not None and _terminal(stats) > noticed:
                return time.monotonic() - killed
            if noticed is None and stats["pool"]["rebuilds"] > rebuilds:
                noticed = _terminal(stats)
        if finished or time.monotonic() > killed + patience:
            return None
        time.sleep(0.01)


def _restart_daemon(handle: DaemonHandle, log: ChaosLog,
                    fraction: float) -> None:
    killed = time.monotonic()
    handle.kill()
    try:
        ready_s = handle.start()
    except (RuntimeError, TimeoutError) as exc:
        # A failed restart dooms the run; record it loudly and keep the
        # chaos thread alive so the harness reports instead of hanging.
        log.missed.append(f"daemon restart at {fraction:.0%} failed: {exc}")
        return
    log.daemon_restarts.append({
        "at_fraction": fraction,
        "downtime_s": round(time.monotonic() - killed, 3),
        "ready_s": round(ready_s, 3),
        "replay": handle.recovery_summary(),
    })


def _chaos_thread(handle: DaemonHandle, total_jobs: int,
                  worker_kills: int, daemon_kills: int,
                  log: ChaosLog, done: threading.Event) -> None:
    """Fire kills at fixed completion fractions, interleaving worker
    kills and daemon restarts across the run."""
    events: list[tuple[float, str]] = []
    kills = worker_kills + daemon_kills
    for index in range(kills):
        fraction = (index + 1) / (kills + 1)
        # Alternate, daemon restarts in the middle of the sequence.
        kind = (
            "daemon"
            if index % 2 == 1 and sum(1 for _, k in events if k == "daemon")
            < daemon_kills
            else "worker"
        )
        if kind == "worker" and (
            sum(1 for _, k in events if k == "worker") >= worker_kills
        ):
            kind = "daemon"
        events.append((fraction, kind))
    for fraction, kind in events:
        target = max(1, int(total_jobs * fraction))
        while not done.is_set():
            terminal = _terminal_count(handle.client)
            if terminal is not None and terminal >= target:
                break
            time.sleep(0.05)
        if done.is_set():
            log.missed.append(f"{kind} kill at {fraction:.0%}: run finished")
            continue
        if kind == "worker":
            _kill_one_worker(handle, log, fraction, done)
        else:
            _restart_daemon(handle, log, fraction)


# ----------------------------------------------------------------------
# One run (control or chaos)


def _percentiles(latencies: list[float]) -> dict:
    if not latencies:
        return {"p50_ms": None, "p95_ms": None, "p99_ms": None}
    ordered = sorted(latencies)

    def at(q: float) -> float:
        index = min(len(ordered) - 1, int(q * len(ordered)))
        return round(ordered[index] * 1000.0, 3)

    return {"p50_ms": at(0.50), "p95_ms": at(0.95), "p99_ms": at(0.99)}


def run_once(
    directory: Path,
    chains: list[Chain],
    *,
    workers: int,
    submitters: int,
    max_attempts: int,
    worker_kills: int = 0,
    daemon_kills: int = 0,
    fsync: bool = True,
    wait_timeout: float = 300.0,
) -> dict:
    """Run the workload against a fresh daemon in ``directory``; with
    nonzero kill counts the chaos controller runs alongside the
    submitters. Returns the run summary (statuses, outcomes, chains,
    latency, chaos log)."""
    total_jobs = sum(len(chain.sources) for chain in chains)
    handle = DaemonHandle(
        directory, workers=workers, max_attempts=max_attempts, fsync=fsync
    )
    handle.start()
    try:
        log = ChaosLog()
        done = threading.Event()
        chaos = None
        if worker_kills or daemon_kills:
            chaos = threading.Thread(
                target=_chaos_thread,
                args=(handle, total_jobs, worker_kills, daemon_kills, log, done),
                name="chaos",
                daemon=True,
            )
            chaos.start()
        errors: list[str] = []
        started = time.monotonic()
        results = _run_submitters(
            handle, chains, submitters, wait_timeout, errors
        )
        wall_s = time.monotonic() - started
        done.set()
        if chaos is not None:
            chaos.join(timeout=10.0)

        outcomes: dict[str, dict] = {}
        states: dict[str, str] = {}
        client = handle.client
        for chain in chains:
            for job_id in chain.job_ids():
                try:
                    states[job_id] = client.status(job_id)["state"]
                except Exception as exc:
                    states[job_id] = f"unknown ({type(exc).__name__})"
                    continue
                if states[job_id] == "done":
                    outcomes[job_id] = client.result(job_id)["outcome"]
        final_stats = client.stats() if client.alive() else {}
    finally:
        handle.stop()  # its own session: an interrupt does not reach it

    from repro.diffvet.store import VersionStore

    version_chains = {
        chain.name: [
            record.source_sha
            for record in VersionStore(directory).chain(chain.name)
        ]
        for chain in chains
    }
    state_counts: dict[str, int] = {}
    for state in states.values():
        state_counts[state] = state_counts.get(state, 0) + 1
    return {
        "jobs": total_jobs,
        "wall_s": round(wall_s, 3),
        "latency": _percentiles([r.latency_s for r in results]),
        "states": dict(sorted(state_counts.items())),
        "submit_errors": errors,
        "chaos": {
            "worker_kills": log.worker_kills,
            "daemon_restarts": log.daemon_restarts,
            "missed": log.missed,
        },
        "pool_rebuilds": (
            final_stats.get("pool", {}).get("rebuilds") if final_stats else None
        ),
        "_states": states,
        "_outcomes": outcomes,
        "_version_chains": version_chains,
    }


# ----------------------------------------------------------------------
# The benchmark: control run vs chaos run


def _check_runs(chains: list[Chain], control: dict, chaos: dict) -> dict:
    """The three invariants, as counted violations (0 = pass)."""
    lost = []
    duplicates = []
    mismatches = []
    for chain in chains:
        for job_id in chain.job_ids():
            state = chaos["_states"].get(job_id)
            if state not in ("done", "failed", "cancelled", "poisoned"):
                lost.append({"job_id": job_id, "name": chain.name,
                             "state": state})
        expected = len(set(chain.sources))
        recorded = chaos["_version_chains"].get(chain.name, [])
        if len(recorded) != expected or len(set(recorded)) != len(recorded):
            duplicates.append({
                "name": chain.name,
                "expected_versions": expected,
                "recorded": recorded,
            })
        for job_id in chain.job_ids():
            ours = chaos["_outcomes"].get(job_id)
            theirs = control["_outcomes"].get(job_id)
            if ours is None and theirs is None:
                continue
            if ours is None or theirs is None:
                mismatches.append({
                    "job_id": job_id, "name": chain.name,
                    "detail": "done in one run only",
                })
            elif stable_verdict(ours) != stable_verdict(theirs):
                mismatches.append({
                    "job_id": job_id, "name": chain.name,
                    "chaos": stable_verdict(ours),
                    "control": stable_verdict(theirs),
                })
    return {
        "lost_jobs": lost,
        "duplicate_side_effects": duplicates,
        "verdict_mismatches": mismatches,
        "ok": not (lost or duplicates or mismatches),
    }


def run_bench(
    output: str | os.PathLike | None = None,
    *,
    jobs: int = 50,
    workers: int = 2,
    submitters: int = 4,
    worker_kills: int = 2,
    daemon_kills: int = 1,
    seed: int = 0,
    fsync: bool = True,
    wait_timeout: float = 300.0,
    state_dir: str | os.PathLike | None = None,
) -> dict:
    """The full chaos benchmark: control run, chaos run, invariant
    checks, report. ``state_dir`` keeps the two daemon directories for
    inspection (a temp directory otherwise)."""
    import tempfile

    from repro.store import atomic_write_json

    chains = build_workload(jobs, seed=seed)
    # Sized so a job hit by every chaos event still cannot be poisoned:
    # the exactly-once check must be deterministic, not probabilistic.
    max_attempts = worker_kills + daemon_kills + 2

    def both(base: Path) -> dict:
        control = run_once(
            base / "control", chains,
            workers=workers, submitters=submitters,
            max_attempts=max_attempts, fsync=fsync,
            wait_timeout=wait_timeout,
        )
        chaos = run_once(
            base / "chaos", chains,
            workers=workers, submitters=submitters,
            max_attempts=max_attempts, fsync=fsync,
            worker_kills=worker_kills, daemon_kills=daemon_kills,
            wait_timeout=wait_timeout,
        )
        return {"control": control, "chaos": chaos}

    if state_dir is not None:
        runs = both(Path(state_dir))
    else:
        with tempfile.TemporaryDirectory(prefix="addon-sig-service-") as tmp:
            runs = both(Path(tmp))

    checks = _check_runs(chains, runs["control"], runs["chaos"])
    report = {
        "schema": "addon-sig/bench-service/v1",
        "config": {
            "jobs": jobs,
            "chains": len(chains),
            "workers": workers,
            "submitters": submitters,
            "worker_kills": worker_kills,
            "daemon_kills": daemon_kills,
            "max_attempts": max_attempts,
            "seed": seed,
            "fsync": fsync,
        },
        "control": {
            k: v for k, v in runs["control"].items()
            if not k.startswith("_")
        },
        "chaos": {
            k: v for k, v in runs["chaos"].items() if not k.startswith("_")
        },
        "checks": {
            "lost_jobs": len(checks["lost_jobs"]),
            "duplicate_side_effects": len(checks["duplicate_side_effects"]),
            "verdict_mismatches": len(checks["verdict_mismatches"]),
            "ok": checks["ok"],
            "detail": {
                k: v for k, v in checks.items() if k != "ok" and v
            } or None,
        },
    }
    if output is not None:
        atomic_write_json(Path(output), report)
    return report


def render_report(report: dict) -> str:
    lines = []
    config = report["config"]
    lines.append(
        f"service chaos bench: {config['jobs']} jobs "
        f"({config['chains']} addons), {config['workers']} workers, "
        f"{config['submitters']} submitters"
    )
    for label in ("control", "chaos"):
        run = report[label]
        latency = run["latency"]
        lines.append(
            f"  {label:>7}: wall {run['wall_s']:.1f}s  "
            f"p50 {latency['p50_ms']}ms  p95 {latency['p95_ms']}ms  "
            f"p99 {latency['p99_ms']}ms  states {run['states']}"
        )
    chaos = report["chaos"]["chaos"]
    kills, restarts = chaos["worker_kills"], chaos["daemon_restarts"]
    recoveries = [
        f"{kill['recovery_s']:.2f}s" for kill in kills if "recovery_s" in kill
    ] + [f"{restart['downtime_s']:.2f}s" for restart in restarts]
    lines.append(
        f"  injected: {len(kills)} worker kill(s), "
        f"{len(restarts)} daemon restart(s)"
        + ("  recovery " + ", ".join(recoveries) if recoveries else "")
    )
    checks = report["checks"]
    lines.append(
        f"  checks: lost={checks['lost_jobs']} "
        f"duplicates={checks['duplicate_side_effects']} "
        f"mismatches={checks['verdict_mismatches']} "
        f"→ {'OK' if checks['ok'] else 'FAIL'}"
    )
    return "\n".join(lines)
