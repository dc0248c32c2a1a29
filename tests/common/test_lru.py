"""Unit tests for the shared LRU cache."""

import threading

import pytest
from hypothesis import given, strategies as st

from repro.common.lru import LruCache


def test_put_get_roundtrip():
    cache = LruCache(capacity=4)
    cache.put("a", 1)
    assert cache.get("a") == 1


def test_get_missing_returns_default():
    cache = LruCache(capacity=4)
    assert cache.get("nope") is None
    assert cache.get("nope", 42) == 42


def test_capacity_eviction_is_lru_order():
    cache = LruCache(capacity=2)
    cache.put("a", 1)
    cache.put("b", 2)
    cache.get("a")  # refresh a
    cache.put("c", 3)  # evicts b
    assert cache.get("b") is None
    assert cache.get("a") == 1
    assert cache.get("c") == 3


def test_unbounded_when_capacity_none():
    cache = LruCache(capacity=None)
    for i in range(10_000):
        cache.put(i, i)
    assert len(cache) == 10_000
    assert cache.evictions == 0


def test_invalid_capacity_rejected():
    with pytest.raises(ValueError):
        LruCache(capacity=0)
    with pytest.raises(ValueError):
        LruCache(capacity=-3)


def test_get_or_load_loads_once():
    cache = LruCache(capacity=4)
    calls = []

    def loader(key):
        calls.append(key)
        return key * 2

    assert cache.get_or_load(3, loader) == 6
    assert cache.get_or_load(3, loader) == 6
    assert calls == [3]


def test_hit_miss_stats():
    cache = LruCache(capacity=4)
    cache.put("a", 1)
    cache.get("a")
    cache.get("b")
    stats = cache.stats()
    assert stats["hits"] == 1
    assert stats["misses"] == 1
    assert 0 < stats["hit_rate"] < 1


def test_eviction_counts():
    cache = LruCache(capacity=1)
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.evictions == 1


def test_invalidate_and_clear():
    cache = LruCache(capacity=4)
    cache.put("a", 1)
    cache.invalidate("a")
    assert cache.get("a") is None
    cache.put("b", 2)
    cache.clear()
    assert len(cache) == 0


def test_contains_and_keys():
    cache = LruCache(capacity=4)
    cache.put("a", 1)
    assert "a" in cache
    assert "b" not in cache
    assert cache.keys() == ["a"]


@pytest.mark.stress
def test_thread_safety_under_contention():
    cache = LruCache(capacity=64)
    errors = []

    def worker(offset):
        try:
            for i in range(500):
                cache.put((offset, i % 100), i)
                cache.get((offset, (i * 7) % 100))
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(t,)) for t in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    assert len(cache) <= 64


@given(st.lists(st.tuples(st.integers(0, 50), st.integers()), max_size=200))
def test_property_never_exceeds_capacity(operations):
    cache = LruCache(capacity=10)
    for key, value in operations:
        cache.put(key, value)
        assert len(cache) <= 10


@given(
    st.lists(st.integers(0, 20), min_size=1, max_size=100),
    st.integers(1, 8),
)
def test_property_last_k_distinct_keys_resident(keys, capacity):
    """After any access sequence, the most recent `capacity` distinct
    keys are exactly the resident set."""
    cache = LruCache(capacity=capacity)
    for key in keys:
        cache.put(key, key)
    expected: list[int] = []
    for key in reversed(keys):
        if key not in expected:
            expected.append(key)
        if len(expected) == capacity:
            break
    assert set(cache.keys()) == set(expected)
