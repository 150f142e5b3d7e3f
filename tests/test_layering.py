"""The control plane (batch engine, vetting service, version store)
imports no analysis package: the daemon, its clients and the load
generator never load the analyzer; pool workers do, when they boot."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

CONTROL_PLANE = (
    "repro.batch",
    "repro.service.client",
    "repro.service.daemon",
    "repro.service.loadgen",
    "repro.diffvet.store",
)

ANALYSIS_PACKAGES = (
    "js", "ir", "analysis", "domains", "pdg", "signatures", "lint",
    "webext", "browser",
)


def test_control_plane_imports_no_analysis_package():
    code = "\n".join(
        [f"import {module}" for module in CONTROL_PLANE]
        + [
            "import json, sys",
            "print(json.dumps(sorted(sys.modules)))",
        ]
    )
    source_root = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [source_root] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=env, check=True, timeout=60,
    )
    loaded = json.loads(result.stdout)
    for module in CONTROL_PLANE:
        assert module in loaded
    leaked = [
        name for name in loaded
        if any(
            name == f"repro.{package}" or name.startswith(f"repro.{package}.")
            for package in ANALYSIS_PACKAGES
        )
    ]
    assert leaked == [], f"control plane loaded analysis modules: {leaked}"


@pytest.mark.parametrize("package", ["repro.diffvet", "repro.evaluation"])
def test_lazy_reexports_are_the_defining_modules_objects(package):
    module = importlib.import_module(package)
    for name in module.__all__:
        defining = importlib.import_module(module._EXPORTS[name])
        assert getattr(module, name) is getattr(defining, name), name
        assert name in dir(module)
