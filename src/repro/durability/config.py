"""Durability configuration and its two soak knobs.

``Database(durability=...)`` accepts:

* ``None``  — consult ``REPRO_WAL_DIR``; when set, the database logs
  into a fresh unique subdirectory of it (the CI soak leg uses this to
  run the whole suite under durable commits),
* ``False`` — force off regardless of environment,
* a ``str``/``Path`` — shorthand for ``DurabilityConfig(dir=...)``,
* a :class:`DurabilityConfig` — explicit settings.

Knobs:

=========================  ==============================================
``REPRO_WAL_DIR``          parent directory for env-enabled databases
``REPRO_WAL_FSYNC``        ``0`` skips the fsync at the flush boundary
                           (appends still reach the OS page cache; an
                           in-process crash loses nothing, a power cut
                           could)
=========================  ==============================================
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

WAL_DIR_ENV = "REPRO_WAL_DIR"
WAL_FSYNC_ENV = "REPRO_WAL_FSYNC"

_FALSY = {"0", "false", "no", "off"}


def _default_fsync() -> bool:
    return os.environ.get(WAL_FSYNC_ENV, "").strip().lower() not in _FALSY


@dataclass
class DurabilityConfig:
    """Where and how a database logs.

    ``fsync`` is the pluggable flush boundary: ``True`` calls
    ``os.fsync`` after every WAL flush, ``False`` stops at the OS write,
    and a callable receives the file descriptor (tests inject a counter
    or a failure here).  ``checkpoint_every`` triggers an automatic
    checkpoint after that many commits (0 disables automatic
    checkpoints).
    """

    dir: str | Path
    fsync: bool | Callable[[int], None] = field(default_factory=_default_fsync)
    checkpoint_every: int = 0

    def __post_init__(self) -> None:
        self.dir = Path(self.dir)
        if self.checkpoint_every < 0:
            raise ValueError("checkpoint_every must be >= 0")

    def do_fsync(self, fd: int) -> None:
        if self.fsync is True:
            os.fsync(fd)
        elif callable(self.fsync):
            self.fsync(fd)


def resolve_durability_config(
    durability: "DurabilityConfig | str | Path | bool | None", name: str = "db"
) -> DurabilityConfig | None:
    """``None`` return means "run in-memory only"; see module docstring."""
    if durability is None:
        parent = os.environ.get(WAL_DIR_ENV, "").strip()
        if not parent:
            return None
        os.makedirs(parent, exist_ok=True)
        unique = tempfile.mkdtemp(prefix=f"{name}-", dir=parent)
        return DurabilityConfig(dir=unique)
    if durability is False:
        return None
    if durability is True:
        raise TypeError(
            "durability=True is ambiguous — pass a directory, a "
            "DurabilityConfig, or set REPRO_WAL_DIR and pass None"
        )
    if isinstance(durability, (str, Path)):
        return DurabilityConfig(dir=durability)
    if isinstance(durability, DurabilityConfig):
        return durability
    raise TypeError(
        f"durability must be None, False, a path, or DurabilityConfig, got {durability!r}"
    )


def wal_filename(segment: int) -> str:
    return f"wal-{segment:08d}.log"


def checkpoint_filename(segment: int) -> str:
    return f"checkpoint-{segment:08d}.ckpt"


def parse_segment(filename: str) -> int | None:
    """Segment number of a wal/checkpoint file name, else ``None``."""
    stem, _, suffix = filename.partition(".")
    kind, _, number = stem.partition("-")
    if suffix == "log" and kind == "wal" and number.isdigit():
        return int(number)
    if suffix == "ckpt" and kind == "checkpoint" and number.isdigit():
        return int(number)
    return None
