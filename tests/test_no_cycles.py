"""A vet frees its own memory: the vet path leaves no cyclic garbage.

Reference counting frees an acyclic working set the moment a vet
returns; anything caught in a reference cycle waits for a full
collection instead, and until then it counts towards the process's
peak. Each case vets once to fill lazily-built caches, then vets again
with the collector off: ``gc.collect()`` must find nothing unreachable.
"""

import gc
import pathlib

import pytest

from repro.api import diff_vet, vet
from repro.batch import VetTask, vet_many
from repro.evaluation.scaling import synthesize_chain, synthesize_flat
from repro.faults import Budget
from repro.signatures import parse_signature
from repro.webext.loader import load_source

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"
VERSIONS = EXAMPLES / "addons" / "versions"


def _pair(name: str) -> tuple[str, str]:
    return tuple((VERSIONS / name / f"v{n}.js").read_text() for n in (1, 2))


def _update_task() -> VetTask:
    old, new = _pair("telemetry_beacon")
    return VetTask(
        "update", new,
        baseline_source=old,
        baseline_signature_text=vet(old).signature.render(),
    )


def _vet_update_task():
    outcome, = vet_many([_update_task()], workers=1, use_cache=False)
    assert outcome.ok and outcome.diff_verdict == "re-review"


def _fast_lane():
    report = diff_vet(*_pair("ui_theme"))
    assert report.fast_lane


def _re_analyzed():
    report = diff_vet(*_pair("telemetry_beacon"))
    assert report.new_report is not None and report.verdict == "re-review"


def _salvaged():
    assert vet(synthesize_chain(4), budget=Budget(max_steps=200)).degraded


def _recovered():
    report = vet("var a = document.cookie;\nvar b = (;\nsend(a);", recover=True)
    assert report.degraded and report.signature.entries


def _prefiltered():
    assert vet("var a = 1; var b = a + 2;", prefilter=True).prefiltered


CASES = {
    "single-file": lambda: vet(synthesize_flat(8)),
    "prefiltered": _prefiltered,
    "bundle": lambda: vet(load_source(EXAMPLES / "extensions" / "cookie_exfil")),
    "update-fast-lane": _fast_lane,
    "update-re-analyzed": _re_analyzed,
    "update-task": _vet_update_task,
    "salvaged-budget-trip": _salvaged,
    "recovered-parse": _recovered,
}


@pytest.mark.parametrize("case", CASES)
def test_vet_leaves_no_cyclic_garbage(case):
    run = CASES[case]
    run()
    gc.collect()
    gc.disable()
    try:
        run()
        unreachable = gc.collect()
    finally:
        gc.enable()
    assert unreachable == 0
