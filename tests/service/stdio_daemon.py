"""A ``python -m repro.service.daemon --stdio`` subprocess for tests.

Replies are read on a thread, so a daemon that dies (EOF) or hangs
(timeout) fails the test instead of blocking it.
"""

from __future__ import annotations

import json
import os
import queue
import subprocess
import sys
import threading
import time
from pathlib import Path

import repro


def source_env() -> dict[str, str]:
    """This environment, with the tested ``repro`` first on the path of
    the interpreters it starts."""
    source_root = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [source_root] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


class StdioDaemon:
    """One daemon behind its newline-delimited JSON-RPC door."""

    def __init__(self, directory: Path, *, workers: int = 1) -> None:
        with open(Path(directory) / "daemon-err.log", "wb") as errors:
            self.process = subprocess.Popen(
                [sys.executable, "-m", "repro.service.daemon",
                 "--dir", str(directory), "--stdio",
                 "--workers", str(workers), "--no-fsync"],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=errors,
                env=source_env(),
            )
        self._replies: queue.Queue[bytes] = queue.Queue()
        self._requests = 0
        self._pump_thread = threading.Thread(target=self._pump, daemon=True)
        self._pump_thread.start()

    def _pump(self) -> None:
        for line in self.process.stdout:
            self._replies.put(line)
        self._replies.put(b"")  # EOF: the daemon exited

    def send(self, line: bytes, *, timeout: float = 60.0) -> dict:
        """Write one raw request line and return the reply line."""
        self.process.stdin.write(line + b"\n")
        self.process.stdin.flush()
        reply = self._replies.get(timeout=timeout)
        assert reply, f"daemon exited with {self.process.wait()}, no reply"
        return json.loads(reply)

    def call(self, method: str, **params) -> dict:
        self._requests += 1
        request = {"id": self._requests, "method": method, "params": params}
        reply = self.send(json.dumps(request).encode("utf-8"))
        assert "error" not in reply, reply
        return reply["result"]

    def wait(self, job_ids: list[str], *, timeout: float = 120.0) -> list[dict]:
        """Poll until every job is terminal; their final statuses."""
        deadline = time.monotonic() + timeout
        while True:
            statuses = [self.call("status", job_id=i) for i in job_ids]
            if all(status["terminal"] for status in statuses):
                return statuses
            assert time.monotonic() < deadline, statuses
            time.sleep(0.05)

    def close(self) -> None:
        """Shut the daemon down (killing it if it will not go) and close
        both pipes, also when it had already exited."""
        if self.process.poll() is None:
            try:
                self.call("shutdown")
                self.process.stdin.close()
                self.process.wait(timeout=30)
            except (AssertionError, OSError, queue.Empty,
                    subprocess.TimeoutExpired):
                self.process.kill()
        self.process.wait()
        # The pump reads stdout until EOF, which the exit has sent; close
        # the pipe only once the pump no longer reads it.
        self._pump_thread.join(timeout=30)
        for pipe in (self.process.stdin, self.process.stdout):
            try:
                pipe.close()
            except OSError:  # a broken stdin cannot flush: still closed
                pass

    def __enter__(self) -> StdioDaemon:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
