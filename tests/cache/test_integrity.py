"""Integrity behaviour of the store: quarantine, counters, maintenance."""

import os
import pickle

import pytest

from repro.cache import CacheStore
from repro.obs import MetricsRegistry, Tracer, use_metrics, use_tracer

KEY_A = "ab" + "0" * 62
KEY_B = "cd" + "1" * 62
KEY_C = "ef" + "2" * 62


@pytest.fixture
def store(tmp_path):
    return CacheStore(tmp_path / "cache")


def _corrupt(store, key):
    path = store._path_for(key)
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    path.write_bytes(bytes(blob))
    return path


class TestCorruptReads:
    def test_flipped_byte_is_detected_and_quarantined(self, store):
        store.put(KEY_A, {"value": list(range(50))})
        path = _corrupt(store, KEY_A)
        registry = MetricsRegistry()
        tracer = Tracer()
        with use_metrics(registry), use_tracer(tracer):
            assert store.get(KEY_A) is None
        assert not path.exists()
        quarantined = store.directory / "quarantine" / path.name
        assert quarantined.exists()
        counters = registry.snapshot()["counters"]
        assert counters["cache.corrupt"] == 1
        assert "cache.misses" not in counters
        assert "cache.quarantined" in {s.name for s in tracer.spans}

    def test_recompute_after_quarantine(self, store):
        store.put(KEY_A, "original")
        _corrupt(store, KEY_A)
        assert store.get(KEY_A) is None  # quarantined
        store.put(KEY_A, "recomputed")  # caller recomputes
        assert store.get(KEY_A) == "recomputed"

    def test_miss_and_corrupt_counters_are_distinct(self, store):
        store.put(KEY_A, 1)
        _corrupt(store, KEY_A)
        registry = MetricsRegistry()
        with use_metrics(registry):
            store.get(KEY_B)  # absent: a miss
            store.get(KEY_A)  # damaged: corrupt, not a miss
        counters = registry.snapshot()["counters"]
        assert counters["cache.misses"] == 1
        assert counters["cache.corrupt"] == 1

    def test_memory_error_propagates(self, store, monkeypatch):
        store.put(KEY_A, 1)

        def explode(blob):
            raise MemoryError("allocation failed")

        monkeypatch.setattr("repro.cache.store.load_artifact", explode)
        with pytest.raises(MemoryError):
            store.get(KEY_A)
        # and the entry was NOT quarantined: OOM says nothing about it
        assert store.contains(KEY_A)

    def test_legacy_bare_pickle_is_quarantined(self, store):
        path = store._path_for(KEY_A)
        path.parent.mkdir(parents=True)
        path.write_bytes(pickle.dumps({"legacy": True}))
        registry = MetricsRegistry()
        with use_metrics(registry):
            assert store.get(KEY_A) is None   # a miss: recomputed
        assert registry.snapshot()["counters"]["cache.corrupt"] == 1
        assert not path.exists()
        assert store.stats()["quarantined"] == 1

    def test_quarantine_is_never_counted_as_an_entry(self, store):
        store.put(KEY_A, 1)
        store.put(KEY_B, 2)
        _corrupt(store, KEY_A)
        store.get(KEY_A)  # quarantines
        assert store.entry_count() == 1
        assert store.stats()["quarantined"] == 1


class TestVerify:
    def test_reports_and_quarantines_corrupt_entries(self, store):
        store.put(KEY_A, "good")
        store.put(KEY_B, "bad")
        store.put(KEY_C, "also good")
        _corrupt(store, KEY_B)
        registry = MetricsRegistry()
        with use_metrics(registry):
            report = store.verify()
        assert report["checked"] == 3
        assert report["ok"] == 2
        assert report["corrupt"] == [KEY_B]
        assert report["quarantined"] == 1
        assert registry.snapshot()["counters"]["cache.corrupt"] == 1
        assert store.get(KEY_A) == "good"  # untouched

    def test_no_repair_leaves_files_in_place(self, store):
        store.put(KEY_A, "x")
        path = _corrupt(store, KEY_A)
        report = store.verify(repair=False)
        assert report["corrupt"] == [KEY_A]
        assert report["quarantined"] == 0
        assert path.exists()

    def test_legacy_entries_are_quarantined(self, store):
        path = store._path_for(KEY_A)
        path.parent.mkdir(parents=True)
        path.write_bytes(pickle.dumps("legacy"))
        store.put(KEY_B, "framed")
        report = store.verify()
        assert "legacy" not in report
        assert report["ok"] == 1
        assert report["corrupt"] == [KEY_A]
        assert report["quarantined"] == 1
        assert not path.exists()

    def test_clean_store_verifies_clean(self, store):
        store.put(KEY_A, 1)
        report = store.verify()
        assert report["corrupt"] == []
        assert report["ok"] == 1


class TestGc:
    def test_age_pruning_uses_injected_clock(self, store):
        store.put(KEY_A, "old")
        store.put(KEY_B, "new")
        old_path = store._path_for(KEY_A)
        os.utime(old_path, (1_000, 1_000))  # far in the past
        now = os.stat(store._path_for(KEY_B)).st_mtime
        removed = store.gc(max_age_s=3600, now=now)
        assert removed["expired"] == 1
        assert store.get(KEY_B) == "new"
        assert not store.contains(KEY_A)

    def test_size_eviction_drops_oldest_first(self, store):
        store.put(KEY_A, "a" * 100)
        store.put(KEY_B, "b" * 100)
        store.put(KEY_C, "c" * 100)
        os.utime(store._path_for(KEY_A), (1_000, 1_000))  # oldest
        entry_size = store.size_bytes() // 3
        removed = store.gc(max_bytes=entry_size * 2)
        assert removed["evicted"] == 1
        assert not store.contains(KEY_A)
        assert store.contains(KEY_B) and store.contains(KEY_C)

    def test_prunes_stale_tmp_and_quarantine(self, store):
        store.put(KEY_A, 1)
        shard = store._path_for(KEY_A).parent
        stale_tmp = shard / f"{KEY_A}.pkl.tmpXYZ"
        stale_tmp.write_bytes(b"torn write")
        os.utime(stale_tmp, (1_000, 1_000))
        _corrupt(store, KEY_A)
        store.get(KEY_A)  # → quarantine
        quarantined = store.directory / "quarantine"
        for path in quarantined.iterdir():
            os.utime(path, (1_000, 1_000))
        removed = store.gc(max_age_s=3600)
        assert removed["tmp"] == 1
        assert removed["quarantined"] == 1
        assert not stale_tmp.exists()

    def test_fresh_tmp_files_are_left_alone(self, store):
        store.put(KEY_A, 1)
        fresh_tmp = store._path_for(KEY_A).parent / "w.pkl.tmpABC"
        fresh_tmp.write_bytes(b"in-flight write")
        removed = store.gc(max_age_s=10**9)
        assert removed["tmp"] == 0
        assert fresh_tmp.exists()

    def test_noop_gc_reports_zeroes(self, store):
        store.put(KEY_A, 1)
        removed = store.gc(max_age_s=10**9, max_bytes=10**9)
        assert removed == {"expired": 0, "evicted": 0, "tmp": 0,
                           "quarantined": 0, "bytes_freed": 0}


class TestClear:
    def test_accurate_count_and_empty_tree(self, store):
        store.put(KEY_A, 1)
        store.put(KEY_B, 2)
        store.put(KEY_C, 3)
        _corrupt(store, KEY_C)
        store.get(KEY_C)  # one entry into quarantine
        stray = store._path_for(KEY_A).parent / "x.pkl.tmp123"
        stray.write_bytes(b"stray")
        assert store.clear() == 2  # entries only; quarantine not counted
        assert store.entry_count() == 0
        assert list(store.directory.iterdir()) == []  # shards pruned too

    def test_clear_empty_store_is_zero(self, store):
        assert store.clear() == 0

    def test_clear_then_reuse(self, store):
        store.put(KEY_A, "before")
        store.clear()
        store.put(KEY_A, "after")
        assert store.get(KEY_A) == "after"
