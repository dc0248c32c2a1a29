"""Tests for the log-structured KV store and disk model."""

import os
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.kvstore import DiskModel, LogStructuredKVStore


@pytest.fixture
def store():
    instance = LogStructuredKVStore(disk_model=DiskModel(0.0))
    yield instance
    instance.close()


class TestBasics:
    def test_put_get_roundtrip(self, store):
        store.put("k", {"a": 1})
        assert store.get("k") == {"a": 1}

    def test_get_missing(self, store):
        assert store.get("nope") is None

    def test_overwrite_returns_latest(self, store):
        store.put("k", 1)
        store.put("k", 2)
        assert store.get("k") == 2

    def test_contains_len_keys(self, store):
        store.put("a", 1)
        store.put("b", 2)
        assert "a" in store and "c" not in store
        assert len(store) == 2
        assert sorted(store.keys()) == ["a", "b"]

    def test_scan(self, store):
        store.put(1, "one")
        store.put(2, "two")
        assert dict(store.scan()) == {1: "one", 2: "two"}

    def test_tuple_keys(self, store):
        store.put(("v", 1), {"x": 1})
        store.put(("e", 1), {"y": 2})
        assert store.get(("v", 1)) == {"x": 1}
        assert store.get(("e", 1)) == {"y": 2}

    def test_disk_usage_grows(self, store):
        before = store.disk_usage_bytes()
        store.put("big", "x" * 10_000)
        store.flush()
        assert store.disk_usage_bytes() > before + 9_000

    def test_stats_counters(self, store):
        store.put("a", 1)
        store.get("a")
        store.get("a")
        assert store.writes == 1
        assert store.reads == 2
        assert store.bytes_written > 0

    def test_file_deleted_on_close(self):
        store = LogStructuredKVStore(disk_model=DiskModel(0.0))
        path = store.path
        store.put("a", 1)
        store.close()
        assert not os.path.exists(path)

    def test_explicit_path_preserved(self, tmp_path):
        path = str(tmp_path / "store.dat")
        store = LogStructuredKVStore(path=path, disk_model=DiskModel(0.0))
        store.put("a", 1)
        store.close(delete=True)  # not owned: file stays
        assert os.path.exists(path)


class TestDiskModel:
    def test_read_latency_charged(self):
        slow = LogStructuredKVStore(disk_model=DiskModel(read_latency_seconds=2e-3))
        try:
            slow.put("k", 1)
            start = time.perf_counter()
            for _ in range(5):
                slow.get("k")
            elapsed = time.perf_counter() - start
            assert elapsed >= 5 * 2e-3
        finally:
            slow.close()

    def test_zero_latency_is_fast(self, store):
        store.put("k", 1)
        start = time.perf_counter()
        for _ in range(100):
            store.get("k")
        assert time.perf_counter() - start < 0.5


@given(st.dictionaries(st.integers(0, 50), st.binary(max_size=64), max_size=40))
@settings(max_examples=20, deadline=None)
def test_property_store_behaves_like_dict(mapping):
    store = LogStructuredKVStore(disk_model=DiskModel(0.0))
    try:
        for key, value in mapping.items():
            store.put(key, value)
        for key, value in mapping.items():
            assert store.get(key) == value
        assert len(store) == len(mapping)
    finally:
        store.close()
