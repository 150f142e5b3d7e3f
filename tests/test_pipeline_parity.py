"""The golden vetting outcome of every program in the repo's corpora.

One pipeline (:func:`repro.api.vet`) serves single files and extension
bundles alike. This file pins what it reports for each program — the
rendered signature, ``degraded``, ``prefiltered``, every degradation
and the sorted counter keys — with the prefilter off and on, so a change
to the shared pipeline or to either front end that shifts any of them
shows up as a diff here.

The programs: the curated corpus, ``examples/addons`` under recovery,
``examples/extensions``, ``generate_corpus(20, seed=13)``, and one
bundle under recovery.

Regenerate after intentional changes with:
``PYTHONPATH=src python -m tests.test_pipeline_parity``
"""

import json
from pathlib import Path

import pytest

from repro.addons import CORPUS
from repro.api import vet
from repro.corpusgen import generate_corpus
from repro.webext.loader import ExtensionBundle, load_source

REPO = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).with_name("golden_pipeline.json")


def _programs() -> dict[str, tuple[str, bool]]:
    """Program id -> ``(source, recover)``."""
    programs = {f"corpus/{spec.name}": (spec.source(), False) for spec in CORPUS}
    for path in sorted((REPO / "examples" / "addons").glob("*.js")):
        programs[f"examples/{path.name}"] = (path.read_text(encoding="utf-8"), True)
    for root in sorted((REPO / "examples" / "extensions").iterdir()):
        if (root / "manifest.json").exists():
            programs[f"extensions/{root.name}"] = (load_source(root), False)
    for addon in generate_corpus(20, seed=13):
        programs[f"generated/{addon.name}"] = (addon.source, False)
    # A bundle whose background file needs recovery: pins the bundle
    # front end's per-file skip detail.
    broken = ExtensionBundle(
        name="broken_bundle",
        manifest_text=json.dumps(
            {"manifest_version": 3, "name": "b", "version": "1",
             "background": {"service_worker": "bg.js"}}
        ),
        files=(("bg.js", "var ok = 1;\nwith (o) { x = 1; }\nfetch(ok);"),),
    )
    programs["extensions/broken_bundle"] = (broken.to_text(), True)
    return programs


PROGRAMS = _programs()


def _outcome(source: str, recover: bool) -> dict:
    arms = {}
    for prefilter in (False, True):
        report = vet(source, recover=recover, prefilter=prefilter)
        arms["prefilter" if prefilter else "full"] = {
            "signature": report.signature.render(),
            "degraded": report.degraded,
            "prefiltered": report.prefiltered,
            "degradations": [d.render() for d in report.degradations],
            "ast_nodes": report.ast_nodes,
            "counters": sorted(report.counters),
        }
    return arms


def _golden() -> dict:
    return {name: _outcome(*program) for name, program in PROGRAMS.items()}


#: Counter keys the golden file still lists that a vet no longer
#: reports, per arm: the call graph left the vet path, and the
#: computed-key resolution counters come only from the prefilter.
_REMOVED_COUNTERS = {
    "full": {"callgraph_edges", "resolved_sites", "residual_dynamic_sites"},
    "prefilter": {"callgraph_edges"},
}


def _strip_removed_counters(outcome: dict) -> dict:
    return {
        arm: {
            **fields,
            "counters": [
                key for key in fields["counters"]
                if key not in _REMOVED_COUNTERS[arm]
            ],
        }
        for arm, fields in outcome.items()
    }


@pytest.fixture(scope="module")
def golden():
    assert GOLDEN.exists(), (
        "golden file missing; regenerate with: PYTHONPATH=src python -m "
        "tests.test_pipeline_parity"
    )
    return {
        name: _strip_removed_counters(outcome)
        for name, outcome in json.loads(
            GOLDEN.read_text(encoding="utf-8")
        ).items()
    }


def test_golden_covers_every_program(golden):
    assert sorted(golden) == sorted(PROGRAMS)


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_outcome_matches_golden(name, golden):
    assert _outcome(*PROGRAMS[name]) == golden[name]


def test_outcomes_do_not_depend_on_vet_order(golden):
    """Nothing an earlier vet leaves behind in the process (memo
    entries, interned values, caches) may change a later vet's outcome:
    the programs vetted in reverse order still match the golden file."""
    for name in reversed(sorted(PROGRAMS)):
        assert _outcome(*PROGRAMS[name]) == golden[name], name


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps(_golden(), indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {GOLDEN}")
