"""Hostile extension bundles end typed through the batch engine.

Every bundle text the loader or the manifest parser rejects raises
:class:`~repro.webext.manifest.ManifestError`, which the batch engine
reports as ``parse-error``. None may end ``internal`` — not even JSON
nested deeper than the interpreter's recursion limit, which makes
``json.loads`` raise ``RecursionError`` instead of a decode error.
"""

import json

import pytest

from repro.batch import VetTask, vet_many
from repro.webext.loader import BUNDLE_MAGIC

pytestmark = [pytest.mark.webext, pytest.mark.faults]

DEEP = 100_000


def _bundle(manifest, files=None) -> str:
    """A bundle text (magic key first, so it is sniffed as a bundle)."""
    return json.dumps({
        BUNDLE_MAGIC: 1,
        "files": {"bg.js": "var a = 1;"} if files is None else files,
        "manifest": manifest if isinstance(manifest, str) else json.dumps(manifest),
    })


_PREFIX = '{"' + BUNDLE_MAGIC + '": 1, '
_BG = {"background": {"service_worker": "bg.js"}}

#: Texts the loader or the manifest parser rejects.
REJECTED = {
    "bundle-not-json": _PREFIX + '"files": {',
    "bundle-deeply-nested": _PREFIX + '"x": ' + "[" * DEEP + "]" * DEEP + "}",
    "files-as-list": _bundle(_BG, files=["bg.js"]),
    "manifest-not-json": _bundle("{not json"),
    "manifest-not-object": _bundle([1, 2]),
    "manifest-deeply-nested": _bundle("[" * DEEP + "]" * DEEP),
    "manifest-version-string": _bundle({"manifest_version": "3", **_BG}),
    "background-scripts-string": _bundle({"background": {"scripts": "bg.js"}}),
    "content-scripts-object": _bundle({"content_scripts": {"js": ["bg.js"]}}),
    "matches-string": _bundle(
        {"content_scripts": [{"matches": "<all_urls>", "js": ["bg.js"]}]}
    ),
}


@pytest.mark.parametrize("prefilter", [True, False], ids=["prefilter", "full"])
def test_rejected_bundles_end_parse_error(prefilter):
    tasks = [
        VetTask(name, text, prefilter=prefilter) for name, text in REJECTED.items()
    ]
    outcomes = vet_many(tasks, workers=1, use_cache=False)
    failures = {outcome.name: outcome.failure for outcome in outcomes}
    assert failures == dict.fromkeys(REJECTED, "parse-error"), [
        (outcome.name, outcome.error) for outcome in outcomes
    ]
    for outcome in outcomes:
        assert outcome.error.startswith("ManifestError: "), outcome.error
