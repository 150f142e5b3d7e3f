"""The vetting daemon's control plane: the service and its front doors.

The :class:`VettingService` glues the crash-safe layers together:

- submissions go through the :class:`~repro.service.queue
  .DurableJobQueue` (journal-then-ack, so an acknowledged submit
  survives any later crash);
- an asyncio scheduler claims jobs only as a worker slot frees and
  runs them through the batch engine's :class:`~repro.batch.Dispatch`
  on the :class:`~repro.service.supervisor.SupervisedPool`: a worker
  death strands the jobs in flight, and each reruns alone on its
  original ``start`` record, charged nothing. Only a job that breaks
  the pool while it runs alone is charged an attempt: it is requeued,
  or quarantined as poison once ``max_attempts`` are spent. A job that
  outlives its hard deadline fails with ``budget-time``;
- committed clean outcomes extend the service's
  :class:`~repro.diffvet.store.VersionStore` chains (exactly once per
  distinct source, replayed idempotently after a crash), and queued
  updates without an explicit baseline resolve one from those chains —
  the marketplace hot path, where most traffic is updates;
- two front doors expose submit/status/result/cancel/stats/shutdown:
  newline-delimited JSON-RPC on stdin/stdout, and a localhost HTTP
  listener built directly on asyncio streams (stdlib only). Hostile
  input on either door gets a typed 4xx error, never ``internal``.

The entry point is :mod:`repro.service.daemon` (``addon-sig serve``),
which imports this module only when it actually serves: pool workers
re-import the entry module, and must not load asyncio or this control
plane. :meth:`VettingService.start` boots the pool, and with it the
template, on a thread, so the doors answer while the template
preloads; :meth:`VettingService.stop` reaps the workers and then the
template.
"""

from __future__ import annotations

import argparse
import asyncio
import dataclasses
import json
import os
import signal
import sys
import time
from pathlib import Path

from repro.batch import POISON_DETAIL, Dispatch, VetOutcome, VetTask
from repro.diffvet.store import VersionStore
from repro.faults import FailureKind
from repro.lazy import sha256_hex
from repro.perf import peak_rss_mb, vm_hwm_mb
from repro.service.jobs import Job, JobState, task_from_json
from repro.service.queue import DurableJobQueue
from repro.service.supervisor import SupervisedPool


class RpcError(Exception):
    """A structured front-door error (HTTP status + machine code)."""

    def __init__(self, status: int, code: str, detail: str = "") -> None:
        super().__init__(detail or code)
        self.status = status
        self.code = code
        self.detail = detail

    def to_json(self) -> dict:
        return {"error": self.code, "detail": self.detail}


#: The most bytes one request may carry through either front door: a
#: stdio request line, or an HTTP request line, header line or body.
#: Each door reads with this as its stream limit, so memory stays
#: bounded. A JSON-escaped addon source takes at most a few bytes per
#: source byte, so 16 MiB carries sources of several MB, far above the
#: largest addon in the corpus or the fleet. Longer requests get a typed
#: 413 ``request-too-large`` and the door keeps serving.
REQUEST_LIMIT = 16 * 1024 * 1024


async def _read_line(reader: asyncio.StreamReader) -> bytes:
    """One line from ``reader``, newline included; at EOF, whatever is
    left (``b""`` when nothing is). A line over :data:`REQUEST_LIMIT`
    is skipped through its newline and raises a 413."""
    try:
        return await reader.readuntil(b"\n")
    except asyncio.IncompleteReadError as exc:
        return exc.partial
    except asyncio.LimitOverrunError as exc:
        consumed = exc.consumed
    while True:
        # Drop what the reader has scanned (no newline in it), then look
        # for the newline that ends the over-long line.
        await reader.readexactly(consumed)
        try:
            await reader.readuntil(b"\n")
            break
        except asyncio.IncompleteReadError:
            break
        except asyncio.LimitOverrunError as exc:
            consumed = exc.consumed
    raise RpcError(
        413, "request-too-large", f"request line over {REQUEST_LIMIT} bytes"
    )


def _json_object(data: bytes, what: str) -> dict:
    """Decode one JSON object, or raise a 400 ``bad-json``."""
    try:
        value = json.loads(data)
    except ValueError as exc:
        raise RpcError(400, "bad-json", str(exc)) from exc
    if not isinstance(value, dict):
        raise RpcError(400, "bad-json", f"{what} must be a JSON object")
    return value


class VettingService:
    """The daemon's core: durable queue + supervised pool + stores."""

    def __init__(
        self,
        directory: str | os.PathLike,
        *,
        workers: int = 2,
        spec=None,
        timeout: float | None = None,
        max_attempts: int | None = None,
        fsync: bool = True,
        max_chains: int | None = None,
    ) -> None:
        self.directory = Path(directory)
        self.queue = DurableJobQueue(
            self.directory, max_attempts=max_attempts, fsync=fsync
        )
        self.pool = SupervisedPool(workers)
        # A window of one job per worker: no job is claimed, and its
        # attempt journaled, before a worker can take it.
        self.dispatch = Dispatch(
            self.pool, spec, timeout, self.pool.workers, notify=self._notify
        )
        self.versions = VersionStore(self.directory, max_chains=max_chains)
        self._running = False
        self._loop: asyncio.AbstractEventLoop | None = None
        self._scheduler_task: asyncio.Task | None = None
        self._wake = asyncio.Event()
        self._stopped = asyncio.Event()
        self.started_at = time.monotonic()
        # Crash healing: a DONE job whose version record was lost in
        # the commit→record window is re-recorded (idempotently) here.
        for job in self.queue.jobs():
            if job.state is JobState.DONE:
                outcome_data = self.queue.result(job.id)
                if outcome_data is not None:
                    self._record_version(
                        job.task, VetOutcome.from_json(outcome_data)
                    )

    # -- scheduling ----------------------------------------------------

    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        self.pool.boot()  # jobs wait for the pool; requests do not
        self._running = True
        self._scheduler_task = asyncio.create_task(self._scheduler())

    async def stop(self, *, grace: float = 10.0) -> None:
        """Graceful stop: no new claims, brief wait for in-flight jobs
        (abandoned ones are requeued by the next start's replay, their
        workers killed), the pool and its template reaped, then journal
        compaction."""
        self._running = False
        self._wake.set()
        if self._scheduler_task is not None:
            await asyncio.wait([self._scheduler_task], timeout=grace)
            self._scheduler_task.cancel()
            try:
                await self._scheduler_task
            except asyncio.CancelledError:
                pass
        await self.pool.close(kill=bool(self.dispatch.in_flight))
        self.queue.compact()
        self.queue.close()
        self._stopped.set()

    async def wait_stopped(self) -> None:
        await self._stopped.wait()

    def _notify(self, future) -> None:
        """Wake the scheduler as a job's future is done (pool thread)."""
        try:
            self._loop.call_soon_threadsafe(self._wake.set)  # type: ignore[union-attr]
        except RuntimeError:  # the loop closed: nothing waits any more
            pass

    async def _scheduler(self) -> None:
        dispatch = self.dispatch
        while self._running or dispatch.in_flight:
            # Clear before settling and claiming: a job that finishes or
            # a submit that lands after the clear sets the event again.
            self._wake.clear()
            for job, outcome, killed in dispatch.settle():
                self._guarded(self._finish, job, outcome, killed)
            while self._running and dispatch.room:
                job = self.queue.claim()
                if job is None:
                    break
                self._guarded(self._admit, job)
            if self._running and (dispatch.queue or dispatch.suspects):
                if not self.pool.live:
                    await self._boot()
                    continue
                dispatch.fill()
                if not self.pool.live:
                    continue  # it broke before a job reached it
            try:
                await asyncio.wait_for(
                    self._wake.wait(), dispatch.backstop_in()
                )
            except asyncio.TimeoutError:
                pass  # a backstop is due: the next settle fires it

    async def _boot(self) -> None:
        """Wait for the pool's build; if it cannot be built, fail the
        jobs that wait for it rather than wedge them."""
        try:
            await asyncio.shield(self.pool.boot())
        except Exception as exc:
            waiting = [*self.dispatch.queue, *self.dispatch.suspects]
            self.dispatch.queue.clear()
            self.dispatch.suspects.clear()
            for job, _ in waiting:
                self._fail_internal(job, exc)

    def _admit(self, job: Job) -> None:
        self.dispatch.add(job, self._resolve_baseline(job.task))

    def _finish(
        self, job: Job, outcome: VetOutcome | None, killed: bool
    ) -> None:
        """Map one dispatch event onto the durable queue. Only the hard
        backstop fails a job; every outcome of a vet that ran to its
        end, a cooperative budget trip too, is committed."""
        if outcome is None:  # it broke the pool while it ran alone
            self.queue.crashed(job.id, POISON_DETAIL)
        elif killed:
            self.queue.fail(job.id, FailureKind.BUDGET_TIME, outcome.error or "")
        elif self.queue.commit_result(job.id, outcome.to_json()):
            self._record_version(job.task, outcome)

    def _guarded(self, step, job: Job, *args) -> None:
        try:
            step(job, *args)
        except Exception as exc:  # a service bug: fail, never wedge
            self._fail_internal(job, exc)

    def _fail_internal(self, job: Job, exc: Exception) -> None:
        self.queue.fail(
            job.id, FailureKind.INTERNAL, f"{type(exc).__name__}: {exc}"
        )

    def _resolve_baseline(self, task: VetTask) -> VetTask:
        """The service shape of differential vetting: an update with no
        explicit baseline diffs against the addon's recorded head
        version (unless this exact source *is* the head — a
        resubmission)."""
        if task.baseline_source is not None:
            return task
        head = self.versions.baseline(task.name)
        if head is None or head.source_sha == sha256_hex(task.source):
            return task
        return dataclasses.replace(
            task,
            baseline_source=head.source,
            baseline_signature_text=head.signature_text,
        )

    def _record_version(self, task: VetTask, outcome: VetOutcome) -> None:
        """Advance the addon's version chain — exactly once per distinct
        source, so the crash-recovery replay (which re-walks every DONE
        job) cannot manufacture duplicate links."""
        if not outcome.ok or outcome.degraded:
            return
        sha = sha256_hex(task.source)
        if any(
            link.source_sha == sha for link in self.versions.chain(task.name)
        ):
            return
        self.versions.record(
            task.name,
            task.source,
            outcome.signature_text,
            verdict=outcome.verdict,
            diff_verdict=outcome.diff_verdict,
        )

    # -- the RPC surface (shared by both front doors) ------------------

    async def rpc(self, method: str, params: dict) -> dict:
        if method == "submit":
            return self._rpc_submit(params)
        if method == "status":
            return self._require_job(params).status_json()
        if method == "result":
            job = self._require_job(params)
            outcome = self.queue.result(job.id)
            if outcome is None:
                raise RpcError(
                    409, "not-done",
                    f"job {job.id} is {job.state}; no committed result",
                )
            return {"id": job.id, "outcome": outcome}
        if method == "cancel":
            job = self._require_job(params)
            return {"id": job.id, "cancelled": self.queue.cancel(job.id)}
        if method == "stats":
            return self.stats()
        if method == "shutdown":
            asyncio.get_running_loop().call_soon(
                lambda: asyncio.ensure_future(self.stop())
            )
            return {"stopping": True}
        raise RpcError(404, "unknown-method", method)

    def _rpc_submit(self, params: dict) -> dict:
        data = params.get("task")
        if not isinstance(data, dict) or "source" not in data:
            raise RpcError(400, "bad-task", "params.task.source is required")
        data.setdefault("name", "addon")
        try:
            task = task_from_json(data)
        except Exception as exc:
            raise RpcError(400, "bad-task", str(exc)) from exc
        job_id = params.get("job_id")
        if job_id is not None and not isinstance(job_id, str):
            raise RpcError(400, "bad-job-id", "job_id must be a string")
        job = self.queue.submit(task, job_id=job_id)
        self._wake.set()
        return job.status_json()

    def _require_job(self, params: dict) -> Job:
        job_id = params.get("job_id")
        job = self.queue.get(job_id) if isinstance(job_id, str) else None
        if job is None:
            raise RpcError(404, "unknown-job", str(job_id))
        return job

    def stats(self) -> dict:
        pool = {**self.pool.stats(), "timeout_s": self.dispatch.timeout}
        template = pool["template_pid"]
        return {
            "uptime_s": round(time.monotonic() - self.started_at, 3),
            "pid": os.getpid(),
            "queue": self.queue.stats(),
            "pool": pool,
            # High-water RSS: the daemon's own, and each live worker's
            # and the template's (null where /proc is absent).
            "memory": {
                "daemon_maxrss_mb": peak_rss_mb(children=False),
                "worker_hwm_mb": {
                    str(pid): vm_hwm_mb(pid) for pid in pool["worker_pids"]
                },
                "forkserver_hwm_mb": (
                    vm_hwm_mb(template) if template is not None else None
                ),
            },
        }


# ----------------------------------------------------------------------
# Front door: localhost HTTP over asyncio streams


_HTTP_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
                 409: "Conflict", 413: "Content Too Large",
                 500: "Internal Server Error"}

#: path prefix → RPC method for the GET/POST convenience routes.
_HTTP_ROUTES = {
    ("POST", "submit"): "submit",
    ("GET", "status"): "status",
    ("GET", "result"): "result",
    ("POST", "cancel"): "cancel",
    ("GET", "stats"): "stats",
    ("POST", "shutdown"): "shutdown",
}


class HttpFrontDoor:
    """A minimal, dependency-free HTTP/1.1 JSON front door."""

    def __init__(self, service: VettingService, host: str = "127.0.0.1",
                 port: int = 0) -> None:
        self.service = service
        self.host = host
        self.port = port
        self._server: asyncio.AbstractServer | None = None

    async def start(self) -> int:
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port, limit=REQUEST_LIMIT
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self.port

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            status, payload = await self._respond(reader)
        except RpcError as exc:
            status, payload = exc.status, exc.to_json()
        except Exception as exc:  # a broken request must not kill the loop
            status, payload = 500, {"error": "internal", "detail": str(exc)}
        try:
            body = json.dumps(payload).encode("utf-8")
            reason = _HTTP_REASONS.get(status, "OK")
            head = (
                f"HTTP/1.1 {status} {reason}\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"Connection: close\r\n\r\n"
            )
            writer.write(head.encode("ascii") + body)
            await writer.drain()
        except (ConnectionError, BrokenPipeError):
            pass
        finally:
            try:
                writer.close()
            except Exception:
                pass

    async def _respond(self, reader: asyncio.StreamReader) -> tuple[int, dict]:
        request_line = await _read_line(reader)
        parts = request_line.decode("latin-1").split()
        if len(parts) < 2:
            return 400, {"error": "bad-request"}
        verb, path = parts[0].upper(), parts[1]
        headers: dict[str, str] = {}
        while True:
            line = await _read_line(reader)
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = headers.get("content-length", "0") or "0"
        if not (length.isascii() and length.isdigit()):
            raise RpcError(400, "bad-request", f"Content-Length {length!r}")
        if int(length) > REQUEST_LIMIT:
            raise RpcError(
                413, "request-too-large", f"body over {REQUEST_LIMIT} bytes"
            )
        try:
            body = await reader.readexactly(int(length))
        except asyncio.IncompleteReadError as exc:
            raise RpcError(
                400, "bad-request",
                f"body ended after {len(exc.partial)} of {length} bytes",
            ) from exc
        segments = [s for s in path.split("/") if s]
        if not segments:
            return 400, {"error": "bad-request"}
        method = _HTTP_ROUTES.get((verb, segments[0]))
        if method is None:
            return 404, {"error": "unknown-route", "detail": path}
        params = _json_object(body, "body") if body else {}
        if len(segments) > 1:
            params.setdefault("job_id", segments[1])
        return 200, await self.service.rpc(method, params)


# ----------------------------------------------------------------------
# Front door: newline-delimited JSON-RPC on stdin/stdout


async def serve_stdio(service: VettingService) -> None:
    """Speak newline-delimited JSON-RPC on stdin/stdout: each request
    line ``{"id": ..., "method": ..., "params": {...}}`` gets exactly
    one response line; a line over :data:`REQUEST_LIMIT` gets a
    ``request-too-large`` error and is skipped. EOF on stdin stops the
    service."""
    loop = asyncio.get_running_loop()
    reader = asyncio.StreamReader(limit=REQUEST_LIMIT)
    await loop.connect_read_pipe(
        lambda: asyncio.StreamReaderProtocol(reader), sys.stdin
    )

    def respond(payload: dict) -> None:
        sys.stdout.write(json.dumps(payload) + "\n")
        sys.stdout.flush()

    while True:
        request_id = method = None
        try:
            line = await _read_line(reader)
            if not line:
                break
            request = _json_object(line, "a request")
            request_id, method = request.get("id"), request.get("method")
            params = request.get("params") or {}
            if not isinstance(params, dict):
                raise RpcError(400, "bad-json", "params must be a JSON object")
            result = await service.rpc(str(method), params)
            respond({"id": request_id, "result": result})
        except RpcError as exc:
            respond({"id": request_id, "error": exc.to_json()})
        if method == "shutdown":
            break
    await service.stop()


# ----------------------------------------------------------------------
# Serving


async def _amain(arguments: argparse.Namespace) -> int:
    from repro.store import atomic_write_json

    service = VettingService(
        arguments.dir,
        workers=arguments.workers,
        timeout=arguments.timeout,
        max_attempts=max(1, arguments.max_attempts),
        fsync=not arguments.no_fsync,
        max_chains=arguments.max_chains,
    )
    await service.start()

    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(
                signum, lambda: asyncio.ensure_future(service.stop())
            )
        except (NotImplementedError, RuntimeError):
            pass

    recovery = service.queue.recovery
    if arguments.stdio and arguments.http is None:
        print(json.dumps({"ready": True, "recovery": recovery}),
              file=sys.stderr, flush=True)
        await serve_stdio(service)
        return 0

    door = HttpFrontDoor(service, port=arguments.http or 0)
    port = await door.start()
    atomic_write_json(
        Path(arguments.dir) / "daemon.json",
        {"pid": os.getpid(), "port": port, "recovery": recovery},
    )
    print(f"listening on 127.0.0.1:{port}", flush=True)
    await service.wait_stopped()
    await door.close()
    return 0
