"""Unit tests for the content-addressed store."""

import pickle

import pytest

from repro.cache import CacheStore
from repro.obs import MetricsRegistry, use_metrics

KEY_A = "ab" + "0" * 62
KEY_B = "cd" + "1" * 62


@pytest.fixture
def store(tmp_path):
    return CacheStore(tmp_path / "cache")


class TestStore:
    def test_roundtrip(self, store):
        store.put(KEY_A, {"rows": [1, 2, 3]})
        assert store.get(KEY_A) == {"rows": [1, 2, 3]}

    def test_miss_returns_default(self, store):
        assert store.get(KEY_A) is None
        assert store.get(KEY_A, default="fallback") == "fallback"

    def test_sharded_layout(self, store):
        store.put(KEY_A, 1)
        assert (store.directory / KEY_A[:2] / f"{KEY_A}.pkl").is_file()

    def test_non_hex_key_rejected(self, store):
        with pytest.raises(ValueError, match="hex"):
            store.put("not-a-digest!", 1)
        with pytest.raises(ValueError, match="hex"):
            store.get("")

    def test_corrupt_entry_is_a_miss(self, store):
        store.put(KEY_A, {"x": 1})
        path = store.directory / KEY_A[:2] / f"{KEY_A}.pkl"
        path.write_bytes(b"\x80\x05 truncated garbage")
        assert store.get(KEY_A) is None

    def test_overwrite_wins(self, store):
        store.put(KEY_A, "old")
        store.put(KEY_A, "new")
        assert store.get(KEY_A) == "new"

    def test_contains_without_read(self, store):
        assert not store.contains(KEY_A)
        store.put(KEY_A, 1)
        assert store.contains(KEY_A)

    def test_entry_count_size_and_clear(self, store):
        assert store.entry_count() == 0 and store.size_bytes() == 0
        store.put(KEY_A, list(range(100)))
        store.put(KEY_B, "tiny")
        assert store.entry_count() == 2
        assert store.size_bytes() >= len(pickle.dumps("tiny"))
        assert store.clear() == 2
        assert store.entry_count() == 0

    def test_pickles_cheaply(self, store):
        clone = pickle.loads(pickle.dumps(store))
        store.put(KEY_A, "shared")
        assert clone.get(KEY_A) == "shared"


class TestCounters:
    def test_hit_miss_write_counters(self, store):
        registry = MetricsRegistry()
        with use_metrics(registry):
            store.get(KEY_A)
            store.put(KEY_A, b"payload")
            store.get(KEY_A)
        snap = registry.snapshot()["counters"]
        assert snap["cache.misses"] == 1
        assert snap["cache.hits"] == 1
        assert snap["cache.writes"] == 1
        assert snap["cache.bytes_written"] > 0
        assert snap["cache.bytes_read"] > 0
