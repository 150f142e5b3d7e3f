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
"""

from repro.webext.loader import (
    ExtensionBundle,
    bundle_from_dir,
    bundle_from_text,
    is_bundle_text,
    load_source,
)
from repro.webext.lowering import LoweredExtension, lower_extension
from repro.webext.manifest import ContentScript, ExtensionManifest, ManifestError

__all__ = [
    "ContentScript",
    "ExtensionBundle",
    "ExtensionManifest",
    "LoweredExtension",
    "ManifestError",
    "bundle_from_dir",
    "bundle_from_text",
    "is_bundle_text",
    "load_source",
    "lower_extension",
]
