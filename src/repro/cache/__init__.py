"""Transactional graph read cache (epoch-invalidated, two levels).

See :mod:`repro.cache.graph_cache` for the design and
:mod:`repro.cache.epochs` for the invalidation protocol.
"""

from .config import (
    ENABLED_ENV,
    CacheConfig,
    resolve_cache_config,
)
from .epochs import EpochRegistry
from .graph_cache import NEGATIVE, CacheTicket, GraphCache

__all__ = [
    "CacheConfig",
    "CacheTicket",
    "EpochRegistry",
    "GraphCache",
    "NEGATIVE",
    "ENABLED_ENV",
    "resolve_cache_config",
]
