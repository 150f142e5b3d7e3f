"""The control plane (batch engine, vetting service, version store)
imports no analysis package: the daemon, its clients and the load
generator never load the analyzer; pool workers do, when they boot.

Each service process also loads only what it runs: neither the daemon
nor its spawned workers map OpenSSL, and a client that builds tasks
loads neither OpenSSL, asyncio, the process pool nor the JavaScript
front end."""

import hashlib
import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from tests.service.stdio_daemon import StdioDaemon, source_env

CONTROL_PLANE = (
    "repro.batch",
    "repro.service.client",
    "repro.service.daemon",
    "repro.service.server",
    "repro.service.loadgen",
    "repro.diffvet.store",
)

ANALYSIS_PACKAGES = (
    "js", "ir", "analysis", "domains", "pdg", "signatures", "lint",
    "webext", "browser",
)

#: Module names for OpenSSL's bindings and asyncio on every supported
#: Python (the builtin hash modules were renamed in 3.12, so they are
#: not named here).
HEAVY_STDLIB = ("_hashlib", "_ssl", "asyncio")

#: What a load-generating client runs: generate addons, build their
#: tasks and encode them for the wire.
BUILD_TASKS = (
    "import repro.batch\n"
    "import repro.service.jobs\n"
    "import repro.corpusgen.generator\n"
    "from repro.batch import VetTask\n"
    "from repro.service.jobs import task_to_json\n"
    "addons = repro.corpusgen.generator.generate_corpus(20, 0)\n"
    "for addon in addons:\n"
    "    task_to_json(VetTask(name=addon.name, source=addon.source))\n"
)


def _loaded_modules(code: str) -> list[str]:
    """Run ``code`` in a fresh interpreter and return ``sys.modules``."""
    code += "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=source_env(), check=True,
        timeout=60,
    )
    return json.loads(result.stdout)


def _analysis_modules(loaded: list[str]) -> list[str]:
    return [
        name for name in loaded
        if any(
            name == f"repro.{package}" or name.startswith(f"repro.{package}.")
            for package in ANALYSIS_PACKAGES
        )
    ]


def test_control_plane_imports_no_analysis_package():
    loaded = _loaded_modules(
        "\n".join(f"import {module}" for module in CONTROL_PLANE)
    )
    for module in CONTROL_PLANE:
        assert module in loaded
    leaked = _analysis_modules(loaded)
    assert leaked == [], f"control plane loaded analysis modules: {leaked}"


@pytest.mark.service
def test_building_tasks_loads_no_openssl_asyncio_or_front_end():
    loaded = _loaded_modules(BUILD_TASKS)
    assert "repro.webext.loader" in loaded, "no bundle was generated"
    assert [name for name in HEAVY_STDLIB if name in loaded] == []
    leaked = set(_analysis_modules(loaded)) - {
        "repro.webext", "repro.webext.loader", "repro.webext.manifest",
    }
    assert sorted(leaked) == []


@pytest.mark.service
def test_building_tasks_loads_no_process_pool():
    loaded = _loaded_modules(BUILD_TASKS)
    assert "repro.batch" in loaded
    pool = [
        name for name in loaded
        if name == "multiprocessing" or name.startswith("multiprocessing.")
        or name == "concurrent.futures.process"
    ]
    assert pool == []


@pytest.mark.service
def test_daemon_hashes_without_openssl_and_with_the_same_digests():
    # The megabyte string is built in the child: one argv string must
    # stay under the kernel's 128 KB limit.
    texts = {
        '""': "",
        repr("vérifié ✓ 検査 \U0001f642"): "vérifié ✓ 検査 \U0001f642",
        '"x" * (1 << 20)': "x" * (1 << 20),
    }
    checks = "".join(
        f"assert sha256_hex({code}) == "
        f"{hashlib.sha256(text.encode('utf-8')).hexdigest()!r}\n"
        for code, text in texts.items()
    )
    loaded = _loaded_modules(
        "import sys\n"
        "from repro.service.daemon import block_openssl\n"
        "block_openssl()\n"
        "from repro.lazy import sha256_hex\n" + checks +
        "assert sys.modules['_hashlib'] is None, 'OpenSSL hashed'\n"
    )
    assert "hashlib" in loaded and "_ssl" not in loaded


@pytest.mark.service
@pytest.mark.skipif(
    not Path("/proc/self/maps").exists(), reason="needs /proc/<pid>/maps"
)
def test_stdio_daemon_maps_no_openssl(tmp_path):
    with StdioDaemon(tmp_path, workers=1) as daemon:
        # A submit hashes the job id; a commit hashes the source into
        # the version store.
        ids = [
            daemon.call("submit", task={"name": "a", "source": source})["id"]
            for source in ("var x = 1;", "var x = 2;")
        ]
        assert [s["state"] for s in daemon.wait(ids)] == ["done"] * 2
        maps = Path(f"/proc/{daemon.process.pid}/maps").read_text()
        mapped = [lib for lib in ("libssl", "libcrypto") if lib in maps]
        assert mapped == []


@pytest.mark.service
@pytest.mark.skipif(
    not Path("/proc/self/maps").exists(), reason="needs /proc/<pid>/maps"
)
def test_spawned_workers_map_no_openssl(tmp_path):
    from repro.corpusgen.generator import generate_corpus, generate_updates
    from repro.webext.loader import is_bundle_text

    addons = generate_corpus(20, 0)
    single = next(a for a in addons if not is_bundle_text(a.source))
    bundle = next(a for a in addons if is_bundle_text(a.source))
    pair = generate_updates(1, 0)[0]
    tasks = [
        {"name": single.name, "source": single.source},
        {"name": pair.name, "source": pair.new_source,
         "baseline_source": pair.old_source,
         "baseline_signature_text": pair.old_expected},
        {"name": bundle.name, "source": bundle.source},
    ]
    with StdioDaemon(tmp_path, workers=1) as daemon:
        ids = [daemon.call("submit", task=task)["id"] for task in tasks]
        assert [s["state"] for s in daemon.wait(ids)] == ["done"] * 3
        outcomes = [daemon.call("result", job_id=i)["outcome"] for i in ids]
        assert all(outcome["ok"] for outcome in outcomes), outcomes
        assert outcomes[1]["diff_verdict"] is not None
        pids = daemon.call("stats")["pool"]["worker_pids"]
        assert pids
        for pid in pids:
            maps = Path(f"/proc/{pid}/maps").read_text()
            mapped = [lib for lib in ("libssl", "libcrypto") if lib in maps]
            assert mapped == [], f"worker {pid} maps {mapped}"


@pytest.mark.parametrize(
    "package", ["repro.diffvet", "repro.evaluation", "repro.webext"]
)
def test_lazy_reexports_are_the_defining_modules_objects(package):
    module = importlib.import_module(package)
    for name in module.__all__:
        defining = importlib.import_module(module._EXPORTS[name])
        assert getattr(module, name) is getattr(defining, name), name
        assert name in dir(module)
