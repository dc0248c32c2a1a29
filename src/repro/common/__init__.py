"""Shared utilities used across the relational engine and the baseline
graph stores (LRU caching, clocks, size accounting, and env knobs)."""

from .lru import LruCache
from .clock import Clock, SystemClock, ManualClock
from .env import env_int

__all__ = ["LruCache", "Clock", "SystemClock", "ManualClock", "env_int"]
