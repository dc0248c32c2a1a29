"""Shared utilities used across the relational engine and the baseline
graph stores (LRU caching, clocks, and size accounting)."""

from .lru import LruCache
from .clock import Clock, SystemClock, ManualClock

__all__ = ["LruCache", "Clock", "SystemClock", "ManualClock"]
