"""A small thread-safe LRU cache with hit/miss statistics.

Used by the relational buffer pool and by the baseline graph stores'
record caches.  Capacity is measured in entries; ``capacity=None``
means unbounded.  Every read updates recency, which — as in real cache
implementations — requires the exclusive cache lock.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Generic, Hashable, Iterator, TypeVar

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")

_MISSING = object()


class LruCache(Generic[K, V]):
    def __init__(self, capacity: int | None = None):
        if capacity is not None and capacity <= 0:
            raise ValueError("capacity must be positive or None")
        self.capacity = capacity
        self._data: OrderedDict[K, V] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: K) -> bool:
        with self._lock:
            return key in self._data

    def get(self, key: K, default: Any = None) -> V | Any:
        with self._lock:
            value = self._data.get(key, _MISSING)
            if value is _MISSING:
                self.misses += 1
                return default
            self._data.move_to_end(key)
            self.hits += 1
            return value

    def get_or_load(self, key: K, loader: Callable[[K], V]) -> V:
        """Return the cached value, loading (and caching) it on a miss.

        The loader runs *inside* the cache lock, deliberately: a record
        cache in front of a disk file serializes misses exactly this
        way.
        """
        with self._lock:
            value = self._data.get(key, _MISSING)
            if value is not _MISSING:
                self._data.move_to_end(key)
                self.hits += 1
                return value
            self.misses += 1
            value = loader(key)
            self._put_locked(key, value)
            return value

    def put(self, key: K, value: V) -> list[K]:
        """Insert/refresh ``key``; returns the keys evicted to make room
        (empty for unbounded caches or in-capacity inserts)."""
        with self._lock:
            return self._put_locked(key, value)

    def invalidate(self, key: K) -> None:
        with self._lock:
            self._data.pop(key, None)

    def clear(self) -> None:
        with self._lock:
            self._data.clear()

    def keys(self) -> list[K]:
        with self._lock:
            return list(self._data.keys())

    def stats(self) -> dict[str, float]:
        total = self.hits + self.misses
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hits / total if total else 0.0,
            "entries": len(self._data),
        }

    def reset_stats(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def _put_locked(self, key: K, value: V) -> list[K]:
        if key in self._data:
            self._data.move_to_end(key)
        self._data[key] = value
        evicted: list[K] = []
        if self.capacity is not None:
            while len(self._data) > self.capacity:
                victim, _value = self._data.popitem(last=False)
                self.evictions += 1
                evicted.append(victim)
        return evicted
