"""Service configuration."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

DEFAULT_MAX_SESSIONS = 64
DEFAULT_QUEUE_DEPTH = 256
DEFAULT_WORKERS = 4


@dataclass
class ServiceConfig:
    """Knobs for one :class:`~repro.service.GraphService`.

    * ``max_sessions`` — concurrently-open logical sessions.
    * ``queue_depth`` — admission-queue bound; a full queue rejects with
      :class:`~repro.service.errors.AdmissionRejectedError`.
    * ``workers`` — dispatch worker threads (the size of the service's
      thread pool).
    * ``clock`` — injectable monotonic clock; queue timestamps and
      deadline shedding read it, so tests advance time manually.
    """

    max_sessions: int = DEFAULT_MAX_SESSIONS
    queue_depth: int = DEFAULT_QUEUE_DEPTH
    workers: int = DEFAULT_WORKERS
    clock: Callable[[], float] = field(default=time.monotonic)

    def __post_init__(self) -> None:
        for name in ("max_sessions", "queue_depth", "workers"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
