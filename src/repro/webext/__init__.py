"""WebExtensions front end: manifest-driven multi-file extensions.

The legacy corpus is single-file Firefox-style addons; modern Chrome /
WebExtensions are *directories*: a ``manifest.json`` names components
(content scripts, a background script or service worker) that run in
separate JavaScript worlds and talk through ``chrome.runtime``
message-passing. This package assembles such a directory into one
:class:`~repro.ir.nodes.ProgramIR`:

- :mod:`repro.webext.manifest` — the manifest model;
- :mod:`repro.webext.loader` — the extension *bundle* (all files as one
  deterministic text blob, so the batch/diffvet/service paths can carry
  an extension exactly like a single-file source string);
- :mod:`repro.webext.lowering` — one IR function per component plus one
  :class:`~repro.ir.nodes.EventLoopStmt` per component, chained into a
  single cycle so abstract message channels connect the components;
- :mod:`repro.webext.guards` — sender-origin guard detection and the
  paper-style conditional-flow downgrade;
- :mod:`repro.webext.pipeline` — the bundle front end: the program set,
  environment, default spec and sender-guard pass that
  :func:`repro.api.vet` runs its one pipeline with.

The re-exports resolve on first access (:mod:`repro.lazy`), so a
process that only builds or carries bundle text imports
:mod:`repro.webext.loader` (and the manifest model) without loading
the JavaScript front end and IR behind :mod:`repro.webext.lowering`.
"""

from repro.lazy import lazy_exports

_EXPORTS = {
    "ExtensionBundle": "repro.webext.loader",
    "bundle_from_dir": "repro.webext.loader",
    "bundle_from_text": "repro.webext.loader",
    "is_bundle_text": "repro.webext.loader",
    "load_source": "repro.webext.loader",
    "LoweredExtension": "repro.webext.lowering",
    "lower_extension": "repro.webext.lowering",
    "ContentScript": "repro.webext.manifest",
    "ExtensionManifest": "repro.webext.manifest",
    "ManifestError": "repro.webext.manifest",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
