"""Bounded admission queue with per-session fairness.

The queue is the service's single backpressure point.  Every submitted
request lands here first:

* **Bounded** — at most ``capacity`` requests may be queued across all
  sessions.  A full queue rejects immediately with
  :class:`~repro.service.errors.AdmissionRejectedError` carrying a
  ``retry_after`` hint (queued work divided by the workers' drain rate,
  estimated from an exponential moving average of completed requests'
  service times).  Rejecting at admission keeps the worker pool's
  latency bounded instead of letting an unbounded backlog grow.
* **Fair** — internally one FIFO per session, popped round-robin, so a
  session that floods the service cannot starve the others: each
  non-empty session contributes at most one request per scheduling
  round.  Within a session, order is preserved (a session's requests
  execute in submission order relative to each other only if the
  caller waits between them; the pool may overlap two of one session's
  requests — sessions are logical scopes, not serialization domains).
* **Observable** — one ``service.admitted`` / ``service.rejected``
  counter+event pair per decision, and a ``service.queue_depth``
  histogram observation (mirrored by a ``service.queued`` event) per
  admission, reconciled 1:1 in the obs consistency suite.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable

from ..obs import metrics as M
from ..obs import tracing
from ..obs.metrics import MetricsRegistry
from ..obs.tracing import NULL_RECORDER, TraceRecorder
from .errors import AdmissionRejectedError, ServiceDrainingError

#: Backpressure hint before any request has completed (no service-time
#: average exists yet).
DEFAULT_RETRY_AFTER = 0.05


@dataclass
class Request:
    """One admitted unit of work: a callable bound to a session."""

    session_id: int
    fn: Callable[[], Any]
    future: Any
    budget: Any = None
    enqueued_at: float = 0.0
    label: str = ""
    shed_check: Callable[[float], float | None] = field(default=lambda _now: None)
    session: Any = None


class AdmissionQueue:
    """Session-fair bounded FIFO with backpressure accounting."""

    def __init__(
        self,
        capacity: int,
        workers: int,
        registry: MetricsRegistry | None = None,
        trace: TraceRecorder = NULL_RECORDER,
    ):
        self.capacity = max(1, int(capacity))
        self.workers = max(1, int(workers))
        self.registry = registry
        self.trace = trace
        self._cond = threading.Condition()
        self._queues: dict[int, deque[Request]] = {}
        # Round-robin order over sessions with queued work; rotated one
        # position per pop so every session gets a turn.
        self._order: deque[int] = deque()
        self._depth = 0
        self._closed = False
        # EMA of completed requests' service seconds (drain-rate model
        # for the retry_after hint).  None until the first completion.
        self._ema_service_seconds: float | None = None
        self._ema_lock = threading.Lock()

    # -- introspection -------------------------------------------------------

    def depth(self) -> int:
        with self._cond:
            return self._depth

    @property
    def closed(self) -> bool:
        return self._closed

    # -- drain-rate model ----------------------------------------------------

    def note_service_time(self, seconds: float, alpha: float = 0.2) -> None:
        with self._ema_lock:
            if self._ema_service_seconds is None:
                self._ema_service_seconds = seconds
            else:
                self._ema_service_seconds += alpha * (
                    seconds - self._ema_service_seconds
                )

    def retry_after(self, depth: int) -> float:
        """Seconds until a queue slot should free: queued requests
        ahead divided across the workers, at the average service time."""
        ema = self._ema_service_seconds
        if ema is None:
            return DEFAULT_RETRY_AFTER
        return max(1e-4, (depth / self.workers) * ema)

    # -- producer ------------------------------------------------------------

    def push(self, request: Request) -> int:
        """Admit ``request`` or raise; returns the depth after admission."""
        with self._cond:
            if self._closed:
                self._emit_rejected(self._depth, 0.0)
                raise ServiceDrainingError(
                    "service is draining: no new requests admitted"
                )
            if self._depth >= self.capacity:
                hint = self.retry_after(self._depth)
                self._emit_rejected(self._depth, hint)
                raise AdmissionRejectedError(
                    f"admission queue full ({self._depth}/{self.capacity}); "
                    f"retry in {hint:.3f}s",
                    retry_after=hint,
                    depth=self._depth,
                )
            queue = self._queues.get(request.session_id)
            if queue is None:
                queue = self._queues[request.session_id] = deque()
            if not queue:
                self._order.append(request.session_id)
            queue.append(request)
            self._depth += 1
            depth = self._depth
            if self.registry is not None:
                self.registry.counter(M.SERVICE_ADMITTED).increment()
                self.registry.histogram(M.SERVICE_QUEUE_DEPTH).observe(depth)
            self.trace.emit(
                tracing.SERVICE_ADMITTED, session=request.session_id, depth=depth
            )
            self.trace.emit(tracing.SERVICE_QUEUED, depth=depth)
            self._cond.notify()
            return depth

    def _emit_rejected(self, depth: int, retry_after: float) -> None:
        if self.registry is not None:
            self.registry.counter(M.SERVICE_REJECTED).increment()
        self.trace.emit(
            tracing.SERVICE_REJECTED, depth=depth, retry_after=retry_after
        )

    # -- consumer ------------------------------------------------------------

    def pop(self, timeout: float | None = None) -> Request | None:
        """Next request, round-robin across sessions; ``None`` on
        timeout or when the queue is closed and empty."""
        with self._cond:
            while self._depth == 0:
                if self._closed or timeout == 0:
                    return None
                if not self._cond.wait(timeout):
                    return None
            session_id = self._order[0]
            queue = self._queues[session_id]
            request = queue.popleft()
            self._order.popleft()
            if queue:
                self._order.append(session_id)  # back of the rotation
            self._depth -= 1
            if self._depth == 0:
                self._cond.notify_all()  # wake wait_empty()
            return request

    def remove_session(self, session_id: int) -> list[Request]:
        """Pull every queued request of a closing session (the service
        fails their futures — the work will never run)."""
        with self._cond:
            queue = self._queues.pop(session_id, None)
            if not queue:
                return []
            removed = list(queue)
            self._depth -= len(removed)
            try:
                self._order.remove(session_id)
            except ValueError:
                pass
            if self._depth == 0:
                self._cond.notify_all()
            return removed

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Stop admitting; queued requests still drain via pop()."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    def wait_empty(self, timeout: float | None = None) -> bool:
        with self._cond:
            return self._cond.wait_for(lambda: self._depth == 0, timeout)

    def __len__(self) -> int:
        return self.depth()

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return f"AdmissionQueue({self._depth}/{self.capacity}, {state})"
