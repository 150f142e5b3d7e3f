"""Extension bundles: a directory of files as one deterministic text.

Every downstream production path — the batch engine, the on-disk result
cache, diffvet chains, the service job queue — moves addons around as
*source strings* (hashable, picklable, journal-able). Rather than teach
each of those paths about directories, an extension directory is
serialized into a single canonical JSON text (a *bundle*) carrying the
manifest plus every ``.js`` file. ``api.select_front_end`` sniffs
bundle texts via a magic first key and picks the bundle front end;
everything else treats them as opaque source strings, unchanged.

The magic key ``%webext-bundle`` starts with ``%`` (0x25), which sorts
before every alphanumeric character, so under ``json.dumps(...,
sort_keys=True)`` it is always the first key — detection is a cheap
prefix check, no JSON parse needed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

from repro.webext.manifest import ExtensionManifest, ManifestError

#: Magic key marking a serialized bundle; always first under sort_keys.
BUNDLE_MAGIC = "%webext-bundle"

_BUNDLE_PREFIX = '{"' + BUNDLE_MAGIC + '"'


@dataclass(frozen=True)
class Component:
    """One executable component: a name and its source files in order."""

    name: str
    #: ``(path, source)`` pairs, manifest order.
    files: tuple[tuple[str, str], ...]


@dataclass(frozen=True)
class ExtensionBundle:
    """An extension: manifest text plus all JavaScript files.

    ``files`` holds *every* ``.js`` file found in the extension (sorted
    by path), not only the ones the manifest references — the lint rules
    scan all of them; :meth:`components` picks out the referenced ones.
    """

    name: str
    manifest_text: str
    files: tuple[tuple[str, str], ...]

    @cached_property
    def manifest(self) -> ExtensionManifest:
        return ExtensionManifest.from_text(self.manifest_text)

    @cached_property
    def file_map(self) -> dict[str, str]:
        return dict(self.files)

    def components(self) -> tuple[Component, ...]:
        """The executable components, background first.

        Files the manifest references but the bundle doesn't contain are
        skipped (tolerant loading — the lint layer flags them); a
        component with no present files is dropped entirely.
        """
        manifest = self.manifest
        components: list[Component] = []

        def resolve(paths: tuple[str, ...]) -> tuple[tuple[str, str], ...]:
            return tuple(
                (path, self.file_map[path])
                for path in paths
                if path in self.file_map
            )

        background = resolve(manifest.background_scripts)
        if background:
            components.append(Component("background", background))
        for index, entry in enumerate(manifest.content_scripts):
            files = resolve(entry.js)
            if not files:
                continue
            name = "content" if index == 0 else f"content{index + 1}"
            components.append(Component(name, files))
        return tuple(components)

    def missing_files(self) -> tuple[str, ...]:
        """Manifest-referenced scripts absent from the bundle."""
        return tuple(
            path
            for path in self.manifest.script_files()
            if path not in self.file_map
        )

    def to_text(self) -> str:
        """Canonical single-text serialization (deterministic)."""
        return json.dumps(
            {
                BUNDLE_MAGIC: 1,
                "files": {path: source for path, source in self.files},
                "manifest": self.manifest_text,
                "name": self.name,
            },
            sort_keys=True,
            separators=(",", ":"),
        )


def is_bundle_text(source: str) -> bool:
    """Cheap check: is this source string a serialized extension bundle?"""
    return source.startswith(_BUNDLE_PREFIX)


def bundle_from_text(source: str) -> ExtensionBundle:
    try:
        raw = json.loads(source)
    except (json.JSONDecodeError, RecursionError) as error:  # bad or too deep
        raise ManifestError(f"malformed extension bundle: {error}") from error
    if not isinstance(raw, dict) or BUNDLE_MAGIC not in raw:
        raise ManifestError("not an extension bundle")
    files = raw.get("files", {})
    if not isinstance(files, dict):
        raise ManifestError("bundle 'files' must be an object")
    return ExtensionBundle(
        name=str(raw.get("name", "<extension>")),
        manifest_text=str(raw.get("manifest", "{}")),
        files=tuple(sorted((str(k), str(v)) for k, v in files.items())),
    )


def bundle_from_dir(path: str | Path) -> ExtensionBundle:
    """Load an extension directory (must contain ``manifest.json``).

    Loading from disk is strict where in-memory bundles are tolerant: a
    manifest whose ``content_scripts`` entry lists zero scripts or
    references a JS file absent from the directory is a typed
    :class:`~repro.webext.manifest.ManifestError` refusal at load time.
    On disk there is no later lint pass guaranteed to run before the
    batch/service layers hash and journal the text, so a broken
    reference must not become a silently-empty component downstream.
    """
    root = Path(path)
    manifest_path = root / "manifest.json"
    if not manifest_path.is_file():
        raise ManifestError(f"no manifest.json in {root}")
    manifest_text = manifest_path.read_text(encoding="utf-8")
    files = tuple(
        sorted(
            (file.relative_to(root).as_posix(), file.read_text(encoding="utf-8"))
            for file in root.rglob("*.js")
            if file.is_file()
        )
    )
    bundle = ExtensionBundle(
        name=root.name, manifest_text=manifest_text, files=files
    )
    manifest = bundle.manifest  # a bad manifest fails at load time
    for index, entry in enumerate(manifest.content_scripts):
        if not entry.js:
            raise ManifestError(
                f"{root}: content_scripts[{index}] lists no js files"
            )
    missing = bundle.missing_files()
    if missing:
        raise ManifestError(
            f"{root}: manifest references missing scripts: "
            + ", ".join(sorted(missing))
        )
    return bundle


def load_source(path: str | Path) -> str:
    """Read a vetting input: an extension directory or a single JS file.

    Directories serialize to bundle text; files return their contents.
    This is the single loader every entry point (CLI vet/lint/diff,
    batch, service) routes through, which is what keeps those paths
    free of directory special-casing.
    """
    target = Path(path)
    if target.is_dir():
        return bundle_from_dir(target).to_text()
    return target.read_text(encoding="utf-8")
