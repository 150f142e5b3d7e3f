"""The append-only journal: checksum-framed records, torn-tail repair.

A journal is the durable queue's source of truth: every state change is
one appended record, and a restart replays the records to rebuild the
in-memory state. Appends must therefore be crash-safe in a weaker but
subtler sense than whole-file atomic writes — the file is only ever
*extended*, so the failure mode is a **torn tail**: a SIGKILL or power
cut mid-append leaves a final record that is a prefix of what was
intended. The framing makes that detectable and recoverable:

``<crc32 of payload, 8 hex chars> <payload JSON, one line>\\n``

- a record missing its trailing newline is a torn tail: the append
  never completed, so the state change it described never *happened*
  (the caller's contract is append-then-act) — replay drops it and
  :meth:`Journal.repair` truncates it so later appends start clean;
- a complete line whose checksum or JSON does not verify is a corrupt
  record (bit rot, an interleaved writer, a hostile edit): replay
  counts and skips it rather than crashing, and the journal is still
  usable past it.

Appends are a single buffered ``write`` + ``flush`` + optional
``fsync`` of an ``O_APPEND`` file descriptor, so concurrent appenders
in one process never interleave a record.
"""

from __future__ import annotations

import json
import os
import zlib
from collections.abc import Iterable
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO

from repro.store.atomic import atomic_writer


#: How far :meth:`Journal.repair` reads backwards per step while it
#: looks for the last record boundary.
_REPAIR_BLOCK = 64 * 1024


def _frame(payload: bytes) -> bytes:
    return b"%08x %s\n" % (zlib.crc32(payload) & 0xFFFFFFFF, payload)


def _encode(record: dict) -> bytes:
    """One record's framed journal line."""
    return _frame(
        json.dumps(record, separators=(",", ":"), sort_keys=True).encode(
            "utf-8"
        )
    )


def _complete_length(handle: BinaryIO) -> int:
    """The length of ``handle``'s file up to and including its last
    newline: the bytes that hold complete records. Reads backwards in
    blocks, so a torn tail costs one block of memory, not the file."""
    position = handle.seek(0, os.SEEK_END)
    while position > 0:
        start = max(0, position - _REPAIR_BLOCK)
        handle.seek(start)
        newline = handle.read(position - start).rfind(b"\n")
        if newline >= 0:
            return start + newline + 1
        position = start
    return 0


def _unframe(line: bytes) -> dict | None:
    """Decode one complete journal line; ``None`` when it does not
    verify (bad framing, bad checksum, bad JSON, non-object payload)."""
    if len(line) < 10 or line[8:9] != b" ":
        return None
    try:
        expected = int(line[:8], 16)
    except ValueError:
        return None
    payload = line[9:]
    if zlib.crc32(payload) & 0xFFFFFFFF != expected:
        return None
    try:
        record = json.loads(payload)
    except ValueError:
        return None
    return record if isinstance(record, dict) else None


@dataclass
class JournalReplay:
    """What a journal replay found: the verified records in append
    order, plus the damage report."""

    records: list[dict] = field(default_factory=list)
    #: Complete lines that failed checksum/JSON verification (skipped).
    corrupt: int = 0
    #: True when the file ended mid-record (SIGKILL mid-append).
    torn_tail: bool = False


class Journal:
    """One append-only journal file."""

    def __init__(self, path: str | os.PathLike, *, fsync: bool = True) -> None:
        self.path = Path(path)
        self.fsync = fsync
        self._handle = None

    # -- writes --------------------------------------------------------

    def append(self, record: dict) -> None:
        """Durably append one record. When this returns, replay is
        guaranteed to surface the record (under ``fsync=True``)."""
        line = _encode(record)
        if self._handle is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self.repair()
            self._handle = open(self.path, "ab")
        self._handle.write(line)
        self._handle.flush()
        if self.fsync:
            os.fsync(self._handle.fileno())

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    # -- reads ---------------------------------------------------------

    def replay(self) -> JournalReplay:
        """Read every verifiable record, oldest first, tolerating a
        torn tail and skipping (but counting) corrupt records. Reads
        one line at a time: the records are the only copy it keeps."""
        replay = JournalReplay()
        try:
            handle = open(self.path, "rb")
        except OSError:
            return replay
        with handle:
            for line in handle:
                if not line.endswith(b"\n"):
                    replay.torn_tail = True  # only the last line can be
                    break
                record = _unframe(line[:-1])
                if record is None:
                    replay.corrupt += 1
                else:
                    replay.records.append(record)
        return replay

    def repair(self) -> bool:
        """Truncate a torn tail so future appends start on a record
        boundary. Returns True when bytes were dropped. Must not be
        called while an append handle is open."""
        try:
            with open(self.path, "rb") as handle:
                size = handle.seek(0, os.SEEK_END)
                keep = _complete_length(handle)
        except OSError:
            return False
        if keep == size:
            return False
        with open(self.path, "r+b") as handle:
            handle.truncate(keep)
            if self.fsync:
                os.fsync(handle.fileno())
        return True

    def compact(self, records: Iterable[dict]) -> None:
        """Atomically rewrite the journal to exactly ``records`` (used
        after replay folds history into a snapshot). Each record is
        written as it is framed, so compaction holds one record's bytes
        at a time, not the whole journal."""
        self.close()
        with atomic_writer(self.path, fsync=self.fsync) as handle:
            for record in records:
                handle.write(_encode(record))
