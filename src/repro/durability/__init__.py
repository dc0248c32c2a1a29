"""Durability: write-ahead logging, checkpoints, and crash recovery.

The paper's pitch (§1, §7) is that a graph layer retrofitted *inside*
the RDBMS inherits the enterprise guarantees underneath — ACID,
recovery, HA — instead of reimplementing them.  This package supplies
the "recovery" leg for the reproduction's in-memory engine: a
checksummed WAL flushed at commit, atomic-rename checkpoints, and a
recovery path that rebuilds a bit-identical queryable state, so the
graph overlay (which never copies data) survives crashes for free.
"""

from .codec import (
    HEADER_SIZE,
    decode_record,
    decode_value,
    encode_record,
    encode_value,
    intact_prefix_length,
    iter_records,
    iter_records_with_offsets,
)
from .config import (
    WAL_DIR_ENV,
    WAL_FSYNC_ENV,
    DurabilityConfig,
    resolve_durability_config,
)
from .errors import CodecError, DurabilityError, RecoveryError, TornLogError
from .manager import DurabilityManager
from .recovery import RecoveryReport, recover_into
from .sim import SimulatedCrash

__all__ = [
    "HEADER_SIZE",
    "WAL_DIR_ENV",
    "WAL_FSYNC_ENV",
    "CodecError",
    "DurabilityConfig",
    "DurabilityError",
    "DurabilityManager",
    "RecoveryError",
    "RecoveryReport",
    "SimulatedCrash",
    "TornLogError",
    "decode_record",
    "decode_value",
    "encode_record",
    "encode_value",
    "intact_prefix_length",
    "iter_records",
    "iter_records_with_offsets",
    "recover_into",
    "resolve_durability_config",
]
