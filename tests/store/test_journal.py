"""Journal framing: checksummed appends, torn tails, replay, repair."""

import json
import os
import subprocess
import sys
import textwrap
import tracemalloc
import zlib

import pytest

from repro.store import Journal
from repro.store.journal import _unframe

pytestmark = pytest.mark.service


def test_append_replay_roundtrip(tmp_path):
    journal = Journal(tmp_path / "j.log", fsync=False)
    records = [{"event": "submit", "n": i} for i in range(20)]
    for record in records:
        journal.append(record)
    journal.close()

    replay = Journal(tmp_path / "j.log", fsync=False).replay()
    assert replay.records == records
    assert replay.corrupt == 0
    assert not replay.torn_tail


def test_replay_of_missing_journal_is_empty(tmp_path):
    replay = Journal(tmp_path / "absent.log").replay()
    assert replay.records == []
    assert replay.corrupt == 0


def test_torn_tail_is_detected_and_repaired(tmp_path):
    path = tmp_path / "j.log"
    journal = Journal(path, fsync=False)
    journal.append({"n": 1})
    journal.append({"n": 2})
    journal.close()

    # Tear the last line mid-record: a crash between write and newline.
    data = path.read_bytes()
    path.write_bytes(data[:-7])

    replay = Journal(path, fsync=False).replay()
    assert replay.records == [{"n": 1}]
    assert replay.torn_tail

    repairing = Journal(path, fsync=False)
    assert repairing.repair()
    after = repairing.replay()
    assert after.records == [{"n": 1}]
    assert not after.torn_tail
    # The repaired journal accepts new appends cleanly.
    repairing.append({"n": 3})
    repairing.close()
    assert Journal(path).replay().records == [{"n": 1}, {"n": 3}]


def test_corrupt_record_is_skipped_and_counted(tmp_path):
    path = tmp_path / "j.log"
    journal = Journal(path, fsync=False)
    for n in range(3):
        journal.append({"n": n})
    journal.close()

    lines = path.read_bytes().splitlines(keepends=True)
    # Flip bytes inside the middle record, keeping the line complete:
    # checksum mismatch, not a torn tail.
    lines[1] = lines[1][:12] + b"XXXX" + lines[1][16:]
    path.write_bytes(b"".join(lines))

    replay = Journal(path).replay()
    assert replay.records == [{"n": 0}, {"n": 2}]
    assert replay.corrupt == 1
    assert not replay.torn_tail


def test_compact_rewrites_to_exactly_the_given_records(tmp_path):
    path = tmp_path / "j.log"
    journal = Journal(path, fsync=False)
    for n in range(50):
        journal.append({"n": n})
    journal.compact([{"n": 49}])
    journal.append({"n": 50})
    journal.close()
    assert Journal(path).replay().records == [{"n": 49}, {"n": 50}]


@pytest.mark.faults
def test_replay_after_sigkill_mid_write(tmp_path):
    """SIGKILL a writer mid-append-loop; the journal must replay to an
    exact prefix of what the writer acknowledged — every record either
    fully present or (at most the last) cleanly dropped, never mangled."""
    path = tmp_path / "killed.log"
    script = textwrap.dedent("""
        import sys
        from repro.store import Journal
        journal = Journal(sys.argv[1], fsync=False)
        n = 0
        while True:
            journal.append({"n": n, "pad": "x" * 512})
            print(n, flush=True)
            n += 1
    """)
    process = subprocess.Popen(
        [sys.executable, "-c", script, str(path)],
        stdout=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": "src"},
    )
    acked = -1
    for _ in range(200):  # let it ack a bunch of appends, then kill it
        line = process.stdout.readline()
        if not line:
            break
        acked = int(line)
    process.kill()
    process.wait()
    assert acked >= 100, "writer died before producing enough appends"

    journal = Journal(path)
    journal.repair()
    replay = journal.replay()
    numbers = [record["n"] for record in replay.records]
    assert replay.corrupt == 0
    # Exact prefix: no gaps, no reordering, and nothing acked is lost
    # beyond the single possibly-in-flight append.
    assert numbers == list(range(len(numbers)))
    assert len(numbers) >= acked, (
        "an acknowledged append vanished: "
        f"replayed {len(numbers)}, acked through {acked}"
    )


# ----------------------------------------------------------------------
# Memory: compaction, replay and repair hold about one record at a time


def _big_records(count: int = 400, size: int = 8000) -> list[dict]:
    """``count`` job-shaped records of ~``size`` bytes each, distinct
    and with non-ASCII text so encoding has work to do."""
    return [
        {"event": "submit", "job_id": f"job-{n:04d}", "seq": n,
         "task": {"name": f"addon-{n}",
                  "source": f"/* {n} é✓ */ " + "var x = 1; " * (size // 11)}}
        for n in range(count)
    ]


def _old_encoding(records: list[dict]) -> bytes:
    """The journal bytes as the whole-journal join wrote them."""
    lines = []
    for record in records:
        payload = json.dumps(
            record, separators=(",", ":"), sort_keys=True
        ).encode("utf-8")
        lines.append(b"%08x %s\n" % (zlib.crc32(payload) & 0xFFFFFFFF, payload))
    return b"".join(lines)


def _old_replay(data: bytes) -> tuple[list[dict], int, bool]:
    """Replay as the whole-file read + split did it: (records, corrupt,
    torn_tail)."""
    records, corrupt = [], 0
    complete, _, tail = data.rpartition(b"\n")
    for line in complete.split(b"\n") if complete else []:
        record = _unframe(line)
        if record is None:
            corrupt += 1
        else:
            records.append(record)
    return records, corrupt, bool(tail)


def _traced_peak(action) -> tuple[object, int, int]:
    """Run ``action`` under tracemalloc: (its result, the bytes still
    allocated after it, the peak while it ran)."""
    tracemalloc.start()
    try:
        result = action()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, current, peak


def test_compact_streams_the_old_bytes_in_bounded_memory(tmp_path):
    path = tmp_path / "j.log"
    records = _big_records()
    expected = _old_encoding(records)
    journal = Journal(path, fsync=False)
    journal.append({"event": "noise"})

    _, _, peak = _traced_peak(lambda: journal.compact(records))

    assert path.read_bytes() == expected
    assert peak < len(expected) / 4, (
        f"compaction peaked at {peak} bytes for a {len(expected)}-byte journal"
    )


def test_compact_failure_keeps_the_old_journal_and_no_tmp(tmp_path):
    path = tmp_path / "j.log"
    journal = Journal(path, fsync=False)
    for n in range(5):
        journal.append({"n": n})
    before = path.read_bytes()

    def records():
        yield from _big_records(50)
        raise RuntimeError("injected: the snapshot broke mid-write")

    with pytest.raises(RuntimeError, match="injected"):
        journal.compact(records())
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["j.log"]
    assert Journal(path).replay().records == [{"n": n} for n in range(5)]


def _damaged_journal(path, tail: bytes) -> bytes:
    """Write a journal with a corrupt middle record and ``tail`` (a
    torn record, or nothing) after its last newline; return its bytes."""
    lines = _old_encoding(_big_records(20, 500)).splitlines(keepends=True)
    lines[7] = lines[7][:30] + b"XXXX" + lines[7][34:]
    data = b"".join(lines) + tail
    path.write_bytes(data)
    return data


@pytest.mark.parametrize(
    "tail",
    [b"", b"0badc0de {\"torn\":", b"y" * 200_000, b"\n\n"],
    ids=["intact", "torn", "torn-past-one-block", "blank-lines"],
)
def test_replay_and_repair_match_the_whole_file_reads(tmp_path, tail):
    path = tmp_path / "j.log"
    data = _damaged_journal(path, tail)
    records, corrupt, torn = _old_replay(data)
    assert corrupt >= 1

    replay = Journal(path).replay()
    assert (replay.records, replay.corrupt, replay.torn_tail) == (
        records, corrupt, torn
    )

    assert Journal(path, fsync=False).repair() == torn
    keep = data.rpartition(b"\n")[0] + b"\n" if torn else data
    assert path.read_bytes() == keep


def test_repair_of_a_journal_without_a_newline_empties_it(tmp_path):
    path = tmp_path / "j.log"
    path.write_bytes(b"z" * 150_000)
    replay = Journal(path).replay()
    assert (replay.records, replay.corrupt, replay.torn_tail) == ([], 0, True)
    assert Journal(path, fsync=False).repair()
    assert path.read_bytes() == b""


def test_replay_and_repair_run_in_bounded_memory(tmp_path):
    path = tmp_path / "j.log"
    data = _old_encoding(_big_records()) + b"0badc0de {\"torn\":"
    path.write_bytes(data)
    journal = Journal(path, fsync=False)

    replay, kept, peak = _traced_peak(journal.replay)
    assert len(replay.records) == 400 and replay.torn_tail
    # The records themselves are the result; what replay may not do is
    # hold copies of the file beside them.
    assert peak - kept < len(data) / 4, (
        f"replay peaked {peak - kept} bytes above its result "
        f"for a {len(data)}-byte journal"
    )
    del replay

    repaired, _, peak = _traced_peak(journal.repair)
    assert repaired
    assert peak < len(data) / 4, (
        f"repair peaked at {peak} bytes for a {len(data)}-byte journal"
    )
