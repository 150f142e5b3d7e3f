"""The version store: per-addon version chains for differential vetting.

The on-disk outcome cache (``repro.batch``) answers "have I vetted
exactly these bytes under exactly this policy?". Differential vetting
needs the *longitudinal* question: "what was the last **approved**
version of this addon, and what signature did it carry?". The
:class:`VersionStore` layers that on the same cache directory
(``<cache_dir>/versions/``): one JSON chain file per addon name, each
link recording the version's source (the fast lane diffs against it),
its canonical signature text (the fast lane serves it), and the vetting
outcome it was recorded with.

Only clean outcomes extend a chain: a failed run has no signature and a
degraded run's ⊤-widened signature would poison every later diff with
spurious widenings — the same reason the batch engine never caches
degraded outcomes. Re-recording the head version (same source bytes) is
a no-op, so replaying a corpus sweep does not grow chains.

Durability is the shared store layer's (:class:`repro.store.JsonStore`):
chain files are published atomically, a chain that fails to decode is
quarantined to ``<name>.corrupt`` rather than masquerading as an empty
history, and ``max_chains`` puts an LRU bound on the catalog so a
100k-addon store does not grow without limit (reads refresh recency).
:meth:`VersionStore.fsck` runs the recovery scan over the directory.
"""

from __future__ import annotations

import dataclasses
import os
import re
from dataclasses import dataclass
from pathlib import Path

from repro.lazy import sha256_hex
from repro.store import FsckReport, JsonStore, fsck_store


@dataclass(frozen=True)
class VersionRecord:
    """One link of an addon's version chain."""

    name: str
    #: 1-based position in the chain (the head has the highest).
    version: int
    source_sha: str
    #: The full source — the diff fast lane needs the approved bytes,
    #: not just their hash.
    source: str
    #: Canonical (sorted) rendering of the approved signature.
    signature_text: str
    #: The pass/fail/leak verdict the version was recorded with, if any.
    verdict: str | None = None
    #: The diff verdict of the *update that produced this version*
    #: (``approve-fast`` / ``approve`` / ``re-review``), if any.
    diff_verdict: str | None = None
    #: Engine version that produced the signature (diagnostic only).
    engine_version: int = 0

    def to_json(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_json(cls, data: dict) -> "VersionRecord":
        known = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in known})


class VersionStore:
    """Per-addon version chains layered on the vetting cache directory."""

    def __init__(
        self,
        cache_dir: str | os.PathLike | None = None,
        *,
        max_chains: int | None = None,
    ) -> None:
        from repro.batch import default_cache_dir

        base = Path(cache_dir) if cache_dir is not None else default_cache_dir()
        self.directory = base / "versions"
        self._store = JsonStore(
            self.directory, shards=1, max_entries=max_chains
        )

    # -- keys ----------------------------------------------------------

    def _key(self, name: str) -> str:
        # Addon names are arbitrary; keep a readable slug but make the
        # hash the identity so distinct names can never collide (or
        # escape the directory).
        slug = re.sub(r"[^A-Za-z0-9._-]+", "_", name)[:48] or "addon"
        return f"{slug}-{sha256_hex(name)[:12]}"

    def _path(self, name: str) -> Path:
        return self._store.path_of(self._key(name))

    # -- reads ---------------------------------------------------------

    def chain(self, name: str) -> list[VersionRecord]:
        """The full recorded history of ``name``, oldest first; empty
        when the addon has never been recorded (or its chain rotted on
        disk, in which case the file is quarantined)."""
        key = self._key(name)
        data, _quarantined = self._store.load(key)
        if data is None:
            return []
        try:
            records = [VersionRecord.from_json(item) for item in data["chain"]]
        except Exception:  # decodes but is not a chain: foreign schema
            self._store.quarantine(key)
            return []
        return records

    def baseline(self, name: str) -> VersionRecord | None:
        """The most recently recorded (head) version of ``name``."""
        chain = self.chain(name)
        return chain[-1] if chain else None

    def names(self) -> list[str]:
        """Every addon name with a recorded chain, sorted."""
        found: list[str] = []
        for key in self._store.keys():
            data = self._store.get(key)
            if data is not None and "name" in data:
                found.append(data["name"])
        return sorted(set(found))

    def fsck(self) -> FsckReport:
        """Run the recovery scan over the chain directory: sweep stale
        tmp files, quarantine undecodable chains, report."""
        return fsck_store(self.directory)

    # -- writes --------------------------------------------------------

    def record(
        self,
        name: str,
        source: str,
        signature_text: str,
        *,
        verdict: str | None = None,
        diff_verdict: str | None = None,
    ) -> VersionRecord:
        """Append a new approved version to ``name``'s chain.

        Idempotent on the head: recording the same source bytes that are
        already at the head returns the head unchanged, so cache replays
        and repeated sweeps do not manufacture history.
        """
        sha = sha256_hex(source)
        chain = self.chain(name)
        if chain and chain[-1].source_sha == sha:
            return chain[-1]
        from repro.batch import ENGINE_VERSION

        record = VersionRecord(
            name=name,
            version=len(chain) + 1,
            source_sha=sha,
            source=source,
            signature_text=signature_text,
            verdict=verdict,
            diff_verdict=diff_verdict,
            engine_version=ENGINE_VERSION,
        )
        chain.append(record)
        self._write(name, chain)
        return record

    def _write(self, name: str, chain: list[VersionRecord]) -> None:
        self._store.put(
            self._key(name),
            {
                "schema": "addon-sig/version-chain/v1",
                "name": name,
                "chain": [record.to_json() for record in chain],
            },
        )
