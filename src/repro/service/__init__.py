"""Multi-session graph service layer.

Multiplexes many logical graph sessions — each with its own
connection, transaction scope, budget, and retry policy — over one
shared :class:`~repro.relational.database.Database`, with bounded
admission control, deadline-aware shedding, fair dispatch onto a
shared worker pool, and graceful drain/shutdown.
"""

from .admission import AdmissionQueue, Request
from .config import (
    DEFAULT_MAX_SESSIONS,
    DEFAULT_QUEUE_DEPTH,
    DEFAULT_WORKERS,
    ServiceConfig,
)
from .errors import (
    AdmissionRejectedError,
    RequestShedError,
    ServiceDrainingError,
    ServiceError,
    SessionClosedError,
    SessionLimitError,
)
from .history import (
    HistoryCheckResult,
    HistoryOp,
    HistoryRecorder,
    check_history,
)
from .service import GraphService
from .session import GraphSession

__all__ = [
    "AdmissionQueue",
    "AdmissionRejectedError",
    "DEFAULT_MAX_SESSIONS",
    "DEFAULT_QUEUE_DEPTH",
    "DEFAULT_WORKERS",
    "GraphService",
    "GraphSession",
    "HistoryCheckResult",
    "HistoryOp",
    "HistoryRecorder",
    "Request",
    "RequestShedError",
    "ServiceConfig",
    "ServiceDrainingError",
    "ServiceError",
    "SessionClosedError",
    "SessionLimitError",
    "check_history",
]
