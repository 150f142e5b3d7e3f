"""``JsonStore``: a crash-consistent key → JSON-document store.

The shape every durable map in the pipeline needs: atomic publishes
(:mod:`repro.store.atomic`), corrupt-entry quarantine (an entry that no
longer decodes is renamed to ``<key>.corrupt`` so it can be inspected
but never masquerades as a hit *or* a miss again), optional sharded
layout (two-hex-char subdirectories keep any one directory small at
100k-entry scale), and an optional LRU size bound (reads refresh an
entry's mtime; overflowing puts evict the stalest entries) so caches
survive store-scale catalogs without growing unbounded.

Failure policy follows the batch cache's precedent: a store that cannot
be written (read-only directory, full disk) degrades to a pass-through
— callers never fail because persistence did. Reads distinguish
*absent* (a plain miss) from *corrupt* (quarantined, reported to the
caller via :meth:`JsonStore.load`'s second return).
"""

from __future__ import annotations

import json
import os
import zlib
from pathlib import Path

from repro.store.atomic import atomic_write_bytes


class JsonStore:
    """A directory of ``<key>.json`` documents with atomic publishes.

    ``shards <= 1`` keeps the historical flat layout (entries directly
    in ``directory`` — the batch cache's on-disk format); larger values
    spread entries over ``shards`` two-hex-char subdirectories.

    ``max_entries`` bounds the store: a put that would overflow evicts
    the least-recently-used entries (by mtime; gets touch it) down to
    the bound. ``None`` = unbounded, and gets leave mtimes alone.

    ``fsync`` trades durability for speed: caches run without it (a
    crash may lose recent entries but can never tear one), stores of
    record (committed service results) run with it.
    """

    def __init__(
        self,
        directory: str | os.PathLike,
        *,
        shards: int = 1,
        max_entries: int | None = None,
        fsync: bool = False,
    ) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be positive or None")
        self.directory = Path(directory)
        self.shards = max(1, shards)
        self.max_entries = max_entries
        self.fsync = fsync
        #: Lazily-initialized entry count (maintained across puts and
        #: evictions once a scan has established it).
        self._count: int | None = None

    # -- layout --------------------------------------------------------

    def path_of(self, key: str) -> Path:
        """Where ``key``'s document lives (keys must be path-safe; the
        callers all use hex digests or pre-slugged names)."""
        if self.shards <= 1:
            return self.directory / f"{key}.json"
        shard = zlib.crc32(key.encode("utf-8")) % self.shards
        return self.directory / format(shard, "02x") / f"{key}.json"

    def _entries(self) -> list[Path]:
        pattern = "*.json" if self.shards <= 1 else "*/*.json"
        try:
            return list(self.directory.glob(pattern))
        except OSError:
            return []

    # -- reads ---------------------------------------------------------

    def load(self, key: str) -> tuple[dict | None, bool]:
        """Load one document: ``(doc, quarantined)``.

        Absent (or unreadable) is ``(None, False)`` — a plain miss. An
        entry that reads but does not decode to a JSON object is
        corrupt: it is renamed to ``<key>.corrupt`` and reported as
        ``(None, True)``.
        """
        path = self.path_of(key)
        try:
            text = path.read_text(encoding="utf-8")
        except OSError:
            return None, False
        try:
            doc = json.loads(text)
            if not isinstance(doc, dict):
                raise ValueError("non-object document")
        except Exception:
            try:
                path.rename(path.with_suffix(".corrupt"))
                if self._count is not None:
                    self._count = max(0, self._count - 1)
            except OSError:
                pass  # a read-only store cannot quarantine; still a miss
            return None, True
        if self.max_entries is not None:
            try:
                os.utime(path)  # refresh LRU recency
            except OSError:
                pass
        return doc, False

    def get(self, key: str) -> dict | None:
        doc, _ = self.load(key)
        return doc

    def keys(self) -> list[str]:
        return sorted(path.name[: -len(".json")] for path in self._entries())

    def __len__(self) -> int:
        if self._count is None:
            self._count = len(self._entries())
        return self._count

    # -- writes --------------------------------------------------------

    def put(self, key: str, doc: dict) -> None:
        """Atomically publish ``doc`` under ``key`` (evicting LRU
        entries first when the bound would overflow). Best-effort: a
        read-only or full store must not fail the caller."""
        path = self.path_of(key)
        fresh = not path.exists()
        try:
            if self.max_entries is not None and fresh:
                self._evict_down_to(self.max_entries - 1)
            payload = json.dumps(doc).encode("utf-8")
            atomic_write_bytes(path, payload, fsync=self.fsync)
            if fresh and self._count is not None:
                self._count += 1
        except OSError:
            self._count = None  # eviction may have partially run

    def quarantine(self, key: str) -> bool:
        """Rename ``key``'s entry to ``<key>.corrupt`` (for callers
        whose schema validation is stricter than is-a-JSON-object)."""
        path = self.path_of(key)
        try:
            path.rename(path.with_suffix(".corrupt"))
        except OSError:
            return False
        if self._count is not None:
            self._count = max(0, self._count - 1)
        return True

    def delete(self, key: str) -> bool:
        try:
            self.path_of(key).unlink()
        except OSError:
            return False
        if self._count is not None:
            self._count = max(0, self._count - 1)
        return True

    def _evict_down_to(self, bound: int) -> None:
        if len(self) <= bound:
            return
        stamped = []
        for path in self._entries():
            try:
                stamped.append((path.stat().st_mtime, path))
            except OSError:
                continue
        stamped.sort(key=lambda pair: (pair[0], pair[1].name))
        excess = len(stamped) - bound
        for _, path in stamped[:excess]:
            try:
                path.unlink()
            except OSError:
                continue
        self._count = None  # rescan on next use
