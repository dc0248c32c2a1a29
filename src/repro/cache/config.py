"""Cache configuration and the ``REPRO_CACHE_ENABLED`` soak knob.

``Db2Graph.open(cache=...)`` accepts:

* ``None``  — on when ``REPRO_CACHE_ENABLED`` is truthy (how the CI
  cache leg soaks the whole suite), else off,
* ``False`` — off regardless of environment,
* ``True``  — on with the default capacities,
* a :class:`CacheConfig` — on with exactly these settings.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

ENABLED_ENV = "REPRO_CACHE_ENABLED"

DEFAULT_STATEMENT_CAPACITY = 512
DEFAULT_ROW_CAPACITY = 2048
DEFAULT_STRIPES = 8

_TRUTHY = {"1", "true", "yes", "on"}


@dataclass(frozen=True)
class CacheConfig:
    """Capacities are entry counts per segment; ``stripes`` is the lock
    striping factor (concurrent sessions on different keys rarely
    contend)."""

    statement_capacity: int = DEFAULT_STATEMENT_CAPACITY
    row_capacity: int = DEFAULT_ROW_CAPACITY
    stripes: int = DEFAULT_STRIPES

    def __post_init__(self) -> None:
        if self.statement_capacity <= 0:
            raise ValueError("statement_capacity must be positive")
        if self.row_capacity <= 0:
            raise ValueError("row_capacity must be positive")
        if self.stripes <= 0:
            raise ValueError("stripes must be positive")


def resolve_cache_config(cache: "CacheConfig | bool | None") -> CacheConfig | None:
    """``None`` means "cache off" to the caller; see module docstring."""
    if cache is None:
        cache = os.environ.get(ENABLED_ENV, "").strip().lower() in _TRUTHY
    if cache is False:
        return None
    if cache is True:
        return CacheConfig()
    if isinstance(cache, CacheConfig):
        return cache
    raise TypeError(f"cache must be None, bool, or CacheConfig, got {cache!r}")
