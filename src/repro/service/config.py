"""Service configuration and environment knobs.

``REPRO_SERVICE_SESSIONS`` caps concurrently-open logical sessions and
``REPRO_SERVICE_QUEUE`` bounds the admission queue, mirroring the
``REPRO_BATCH_SIZE`` convention of the graph layer: explicit arguments
win, then the environment, then defaults.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

from ..common.env import env_int

SESSIONS_ENV = "REPRO_SERVICE_SESSIONS"
QUEUE_ENV = "REPRO_SERVICE_QUEUE"

DEFAULT_MAX_SESSIONS = 64
DEFAULT_QUEUE_DEPTH = 256
DEFAULT_WORKERS = 4


def resolve_max_sessions(max_sessions: int | None) -> int:
    """Explicit argument, else ``REPRO_SERVICE_SESSIONS``, else 64."""
    if max_sessions is None:
        max_sessions = env_int(SESSIONS_ENV, DEFAULT_MAX_SESSIONS)
    return max(1, int(max_sessions))


def resolve_queue_depth(queue_depth: int | None) -> int:
    """Explicit argument, else ``REPRO_SERVICE_QUEUE``, else 256."""
    if queue_depth is None:
        queue_depth = env_int(QUEUE_ENV, DEFAULT_QUEUE_DEPTH)
    return max(1, int(queue_depth))


@dataclass
class ServiceConfig:
    """Knobs for one :class:`~repro.service.GraphService`.

    * ``max_sessions`` — concurrently-open logical sessions
      (``None`` = ``REPRO_SERVICE_SESSIONS`` or 64).
    * ``queue_depth`` — admission-queue bound (``None`` =
      ``REPRO_SERVICE_QUEUE`` or 256); a full queue rejects with
      :class:`~repro.service.errors.AdmissionRejectedError`.
    * ``workers`` — dispatch worker threads (the size of the service's
      thread pool).
    * ``default_retry_after`` — backpressure hint before any request
      has completed (no service-time average exists yet).
    * ``clock`` — injectable monotonic clock; queue timestamps and
      deadline shedding read it, so tests advance time manually.
    """

    max_sessions: int | None = None
    queue_depth: int | None = None
    workers: int = DEFAULT_WORKERS
    default_retry_after: float = 0.05
    clock: Callable[[], float] = field(default=time.monotonic)

    def resolved_max_sessions(self) -> int:
        return resolve_max_sessions(self.max_sessions)

    def resolved_queue_depth(self) -> int:
        return resolve_queue_depth(self.queue_depth)
