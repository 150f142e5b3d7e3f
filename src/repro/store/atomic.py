"""Atomic file publication: tmp-file + fsync + rename.

The contract every caller gets: a concurrent or post-crash reader of
``path`` sees either the complete previous contents or the complete new
contents — never a prefix, never interleaved bytes. The recipe is the
classic one:

1. write the new bytes to a temporary file *in the same directory* (so
   the final rename cannot cross a filesystem boundary);
2. flush and ``fsync`` the file so the bytes are durable before the
   name is;
3. ``os.replace`` onto the destination (atomic on POSIX and Windows);
4. ``fsync`` the directory so the rename itself survives a power cut.

``fsync`` is optional (``fsync=False``) for throwaway artifacts like
perf caches where post-crash loss is acceptable but torn reads are
not — the rename alone already guarantees all-or-nothing visibility to
live readers; the syncs only add power-failure durability.

Temporary files are dot-prefixed and ``.tmp``-suffixed so the fsck scan
(:mod:`repro.store.fsck`) can recognize and sweep strays left by a
crash between steps 1 and 3.
"""

from __future__ import annotations

import json
import os
import tempfile
from collections.abc import Iterator
from contextlib import contextmanager
from pathlib import Path
from typing import BinaryIO

#: The suffix every in-flight temporary file carries; fsck sweeps them.
TMP_SUFFIX = ".tmp"


def fsync_dir(directory: str | os.PathLike) -> None:
    """``fsync`` a directory so a just-renamed entry survives a crash.

    Best-effort: some filesystems (and all of Windows) refuse to open
    directories; those callers still get rename atomicity, just not
    metadata durability, and there is nothing further we can do.
    """
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


@contextmanager
def atomic_writer(
    path: str | os.PathLike, *, fsync: bool = True
) -> Iterator[BinaryIO]:
    """Atomically publish what the ``with`` body writes to the yielded
    binary handle at ``path`` (parents created).

    The body streams its bytes to the temporary file, so publishing
    costs no more memory than the body holds at once. If the body
    raises, the temporary is removed and ``path`` keeps its previous
    contents."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_path = tempfile.mkstemp(
        dir=target.parent, prefix=f".{target.name}.", suffix=TMP_SUFFIX
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            yield handle
            if fsync:
                handle.flush()
                os.fsync(handle.fileno())
        os.replace(tmp_path, target)
    except BaseException:
        # Never leave the unfinished temp behind on the failure path;
        # fsck sweeps the SIGKILL case this cleanup cannot reach.
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
    if fsync:
        fsync_dir(target.parent)


def atomic_write_bytes(
    path: str | os.PathLike, data: bytes, *, fsync: bool = True
) -> None:
    """Atomically publish ``data`` at ``path`` (parents created)."""
    with atomic_writer(path, fsync=fsync) as handle:
        handle.write(data)


def atomic_write_text(
    path: str | os.PathLike,
    text: str,
    *,
    encoding: str = "utf-8",
    fsync: bool = True,
) -> None:
    """Atomically publish ``text`` at ``path``."""
    atomic_write_bytes(path, text.encode(encoding), fsync=fsync)


def atomic_write_json(
    path: str | os.PathLike,
    payload: object,
    *,
    indent: int | None = 2,
    sort_keys: bool = False,
    fsync: bool = True,
) -> None:
    """Atomically publish ``payload`` as JSON at ``path`` (trailing
    newline included, matching the repo's artifact convention)."""
    text = json.dumps(payload, indent=indent, sort_keys=sort_keys)
    atomic_write_bytes(path, (text + "\n").encode("utf-8"), fsync=fsync)


def is_tmp_stray(path: Path) -> bool:
    """Is ``path`` an in-flight temporary left behind by a crash?"""
    return path.name.startswith(".") and path.name.endswith(TMP_SUFFIX)
