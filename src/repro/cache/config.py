"""Cache configuration and ``REPRO_CACHE_*`` environment knobs.

Mirrors the batching knob's convention (``REPRO_BATCH_SIZE``): an
explicit argument wins, then the environment, then a built-in default.
``Db2Graph.open(cache=...)`` accepts:

* ``None``  — consult ``REPRO_CACHE_ENABLED`` (off unless truthy),
* ``False`` — force off regardless of environment,
* ``True``  — force on with env-derived capacities,
* a :class:`CacheConfig` — force on with exactly these settings.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from ..common.env import env_int

ENABLED_ENV = "REPRO_CACHE_ENABLED"
STATEMENTS_ENV = "REPRO_CACHE_STATEMENTS"
ROWS_ENV = "REPRO_CACHE_ROWS"
STRIPES_ENV = "REPRO_CACHE_STRIPES"

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


def env_enabled() -> bool:
    return os.environ.get(ENABLED_ENV, "").strip().lower() in _TRUTHY


def config_from_env() -> CacheConfig:
    return CacheConfig(
        statement_capacity=max(1, env_int(STATEMENTS_ENV, DEFAULT_STATEMENT_CAPACITY)),
        row_capacity=max(1, env_int(ROWS_ENV, DEFAULT_ROW_CAPACITY)),
        stripes=max(1, env_int(STRIPES_ENV, DEFAULT_STRIPES)),
    )


def resolve_cache_config(cache: "CacheConfig | bool | None") -> CacheConfig | None:
    """``None`` means "cache off" to the caller; see module docstring."""
    if cache is None:
        return config_from_env() if env_enabled() else None
    if cache is False:
        return None
    if cache is True:
        return config_from_env()
    if isinstance(cache, CacheConfig):
        return cache
    raise TypeError(f"cache must be None, bool, or CacheConfig, got {cache!r}")
