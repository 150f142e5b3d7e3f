"""JsonStore: layout, quarantine, LRU bounds."""

import json
import os
import time

import pytest

from repro.store import JsonStore

pytestmark = pytest.mark.service


def test_flat_layout_matches_the_historical_cache(tmp_path):
    store = JsonStore(tmp_path, shards=1)
    store.put("abc123", {"v": 1})
    # The batch cache's on-disk contract: <dir>/<key>.json, flat.
    assert (tmp_path / "abc123.json").is_file()
    assert store.get("abc123") == {"v": 1}


def test_sharded_layout_spreads_keys_into_subdirectories(tmp_path):
    store = JsonStore(tmp_path, shards=16)
    for n in range(32):
        store.put(f"key-{n}", {"n": n})
    assert not any(p.suffix == ".json" for p in tmp_path.iterdir())
    for n in range(32):
        assert store.get(f"key-{n}") == {"n": n}
    assert len(store) == 32
    assert sorted(store.keys()) == sorted(f"key-{n}" for n in range(32))


def test_undecodable_entry_is_quarantined_not_served(tmp_path):
    store = JsonStore(tmp_path, shards=1)
    store.path_of("bad").write_text("{torn", encoding="utf-8")
    doc, quarantined = store.load("bad")
    assert doc is None and quarantined
    assert not store.path_of("bad").exists()
    assert (tmp_path / "bad.corrupt").is_file(), "evidence preserved"


def test_caller_quarantine_for_foreign_schemas(tmp_path):
    store = JsonStore(tmp_path, shards=1)
    store.put("foreign", {"someone": "else's schema"})
    store.quarantine("foreign")
    assert store.get("foreign") is None
    assert (tmp_path / "foreign.corrupt").is_file()


def test_delete_and_missing_reads(tmp_path):
    store = JsonStore(tmp_path, shards=4)
    assert store.get("nope") is None
    store.put("k", {"v": 1})
    store.delete("k")
    assert store.get("k") is None
    store.delete("k")  # idempotent


def test_lru_bound_evicts_oldest(tmp_path):
    store = JsonStore(tmp_path, shards=1, max_entries=3)
    for n in range(3):
        store.put(f"k{n}", {"n": n})
        _age_entries(tmp_path)
    store.put("k3", {"n": 3})  # over the bound: k0 must go
    assert store.get("k0") is None
    assert {k for k in store.keys()} == {"k1", "k2", "k3"}


def test_lru_get_refreshes_recency(tmp_path):
    store = JsonStore(tmp_path, shards=1, max_entries=3)
    for n in range(3):
        store.put(f"k{n}", {"n": n})
        _age_entries(tmp_path)
    assert store.get("k0") == {"n": 0}  # touch: k0 becomes newest
    _age_entries(tmp_path, skip="k0.json")
    store.put("k3", {"n": 3})
    assert store.get("k0") is not None, "recently-read entry survived"
    assert store.get("k1") is None, "least-recently-used entry evicted"


def test_unbounded_get_leaves_recency_alone(tmp_path):
    store = JsonStore(tmp_path, shards=1)
    store.put("k", {"n": 0})
    _age_entries(tmp_path)
    aged = (tmp_path / "k.json").stat().st_mtime
    assert store.get("k") == {"n": 0}
    assert (tmp_path / "k.json").stat().st_mtime == aged


def test_overwrite_does_not_evict(tmp_path):
    store = JsonStore(tmp_path, shards=1, max_entries=2)
    store.put("a", {"v": 1})
    store.put("b", {"v": 1})
    store.put("a", {"v": 2})  # rewrite in place: still 2 entries
    assert store.get("a") == {"v": 2}
    assert store.get("b") == {"v": 1}


def _age_entries(directory, skip=None, by=10.0):
    """Push every entry's mtime into the past so subsequent writes are
    strictly newer (filesystem mtime granularity is too coarse for
    back-to-back puts)."""
    for path in directory.rglob("*.json"):
        if skip is not None and path.name == skip:
            continue
        stat = path.stat()
        os.utime(path, (stat.st_atime - by, stat.st_mtime - by))
