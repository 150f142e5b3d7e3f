"""The ``manifest.json`` model.

Only the manifest surface the analysis consumes is modeled: which
scripts form which component, what permissions are declared (for the
over-permission lint), and the match patterns (for the wildcard-exposure
lint). Unknown keys are ignored — real manifests carry plenty of
irrelevant metadata.
"""

from __future__ import annotations

import json
from dataclasses import dataclass


class ManifestError(ValueError):
    """manifest.json is missing, unparseable, or structurally invalid."""


@dataclass(frozen=True)
class ContentScript:
    """One ``content_scripts`` entry: which pages, which files."""

    matches: tuple[str, ...] = ()
    js: tuple[str, ...] = ()


@dataclass(frozen=True)
class ExtensionManifest:
    """The parsed manifest (the analysis-relevant subset)."""

    name: str = "<extension>"
    version: str = "0"
    manifest_version: int = 3
    permissions: tuple[str, ...] = ()
    host_permissions: tuple[str, ...] = ()
    #: Background scripts: MV2 ``background.scripts`` or the MV3
    #: ``background.service_worker`` (a one-element tuple).
    background_scripts: tuple[str, ...] = ()
    content_scripts: tuple[ContentScript, ...] = ()
    #: ``externally_connectable.matches`` — pages allowed to message the
    #: extension directly.
    externally_connectable: tuple[str, ...] = ()

    @classmethod
    def from_text(cls, text: str) -> "ExtensionManifest":
        try:
            raw = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as error:  # bad or too deep
            raise ManifestError(f"manifest.json is not valid JSON: {error}") from error
        if not isinstance(raw, dict):
            raise ManifestError("manifest.json must be a JSON object")

        background = raw.get("background", {})
        background_scripts: tuple[str, ...] = ()
        if isinstance(background, dict):
            worker = background.get("service_worker")
            if isinstance(worker, str):
                background_scripts = (worker,)
            else:
                background_scripts = _str_tuple(
                    background.get("scripts", []), "background.scripts"
                )
        elif background:
            raise ManifestError("manifest 'background' must be an object")

        content_scripts: list[ContentScript] = []
        raw_content = raw.get("content_scripts", [])
        if not isinstance(raw_content, list):
            raise ManifestError("manifest 'content_scripts' must be a list")
        for index, entry in enumerate(raw_content):
            if not isinstance(entry, dict):
                raise ManifestError(f"content_scripts[{index}] must be an object")
            content_scripts.append(
                ContentScript(
                    matches=_str_tuple(
                        entry.get("matches", []), f"content_scripts[{index}].matches"
                    ),
                    js=_str_tuple(
                        entry.get("js", []), f"content_scripts[{index}].js"
                    ),
                )
            )

        connectable = raw.get("externally_connectable", {})
        externally_connectable: tuple[str, ...] = ()
        if isinstance(connectable, dict):
            externally_connectable = _str_tuple(
                connectable.get("matches", []), "externally_connectable.matches"
            )

        manifest_version = raw.get("manifest_version", 3)
        if not isinstance(manifest_version, int):
            raise ManifestError("manifest_version must be an integer")

        return cls(
            name=str(raw.get("name", "<extension>")),
            version=str(raw.get("version", "0")),
            manifest_version=manifest_version,
            permissions=_str_tuple(raw.get("permissions", []), "permissions"),
            host_permissions=_str_tuple(
                raw.get("host_permissions", []), "host_permissions"
            ),
            background_scripts=background_scripts,
            content_scripts=tuple(content_scripts),
            externally_connectable=externally_connectable,
        )

    def script_files(self) -> tuple[str, ...]:
        """Every file any component references, in component order."""
        files: list[str] = list(self.background_scripts)
        for entry in self.content_scripts:
            files.extend(entry.js)
        return tuple(files)


def _str_tuple(raw: object, where: str) -> tuple[str, ...]:
    if not isinstance(raw, list) or not all(isinstance(item, str) for item in raw):
        raise ManifestError(f"manifest '{where}' must be a list of strings")
    return tuple(raw)
