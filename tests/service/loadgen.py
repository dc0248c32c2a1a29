"""Load generation for the multi-session service layer (driven by
``tests/service/test_service_soak.py``).

Two standard shapes drive a :class:`~repro.service.GraphService`:

* **Closed loop** — each logical session is one client that submits a
  request, waits for its result, thinks for ``think_seconds``, and
  repeats.  Offered load scales with the session count, which is what
  the throughput-vs-sessions scaling benchmark wants.
* **Open loop** — requests arrive at a fixed aggregate rate regardless
  of completions (the arrival process does not slow down when the
  service does), which is what drives a bounded queue into rejection
  and deadline shedding.

Both report completed/failed/rejected/shed counts plus p50/p95/p99
latency and aggregate throughput in a :class:`LoadResult`.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.service.errors import AdmissionRejectedError, RequestShedError


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending-sorted list (q in 0..100)."""
    if not sorted_values:
        return 0.0
    rank = max(1, int(round(q / 100.0 * len(sorted_values) + 0.5)))
    return sorted_values[min(rank, len(sorted_values)) - 1]


def backoff_delay(
    retry_after: float, consecutive: int, max_backoff: float = 0.25
) -> float:
    """Capped exponential backoff seeded by the service's hint.

    The first backpressure response waits the service's ``retry_after``
    estimate (floored at 1ms — a zero hint must still yield); each
    consecutive one doubles the wait, capped at ``max_backoff``.  A
    completed request resets the streak.
    """
    base = max(retry_after, 1e-3)
    return min(max_backoff, base * (2.0 ** max(0, consecutive - 1)))


@dataclass
class LoadResult:
    """Outcome of one load-generation run."""

    mode: str
    sessions: int
    duration_seconds: float
    completed: int = 0
    failed: int = 0
    rejected: int = 0
    shed: int = 0
    backoffs: int = 0
    backoff_seconds: float = 0.0
    latencies_ms: list[float] = field(default_factory=list)

    @property
    def throughput_qps(self) -> float:
        if self.duration_seconds <= 0:
            return 0.0
        return self.completed / self.duration_seconds

    @property
    def p50_ms(self) -> float:
        return percentile(sorted(self.latencies_ms), 50)

    @property
    def p95_ms(self) -> float:
        return percentile(sorted(self.latencies_ms), 95)

    @property
    def p99_ms(self) -> float:
        return percentile(sorted(self.latencies_ms), 99)

    @property
    def mean_ms(self) -> float:
        if not self.latencies_ms:
            return 0.0
        return sum(self.latencies_ms) / len(self.latencies_ms)

    def summary(self) -> dict[str, Any]:
        return {
            "mode": self.mode,
            "sessions": self.sessions,
            "qps": round(self.throughput_qps, 1),
            "completed": self.completed,
            "failed": self.failed,
            "rejected": self.rejected,
            "shed": self.shed,
            "backoffs": self.backoffs,
            "p50_ms": round(self.p50_ms, 3),
            "p95_ms": round(self.p95_ms, 3),
            "p99_ms": round(self.p99_ms, 3),
        }


def run_closed_loop(
    service,
    work: Callable[[Any], Any],
    n_sessions: int,
    duration_seconds: float = 2.0,
    think_seconds: float = 0.0,
    warmup_requests: int = 2,
    max_backoff: float = 0.25,
    sleep: Callable[[float], None] = time.sleep,
) -> LoadResult:
    """Closed-loop clients: one per session, submit → wait → think.

    ``work`` is the request callable (receives the session).  Rejected
    *and shed* submissions honor the service's ``retry_after`` hint
    with capped exponential backoff (:func:`backoff_delay`) before
    resubmitting — an overloaded service is never hammered with
    immediate retries, so overload benchmarks measure honest client
    behavior.  Neither counts as a completion.  Warmup requests per
    session are excluded from the measured window.  ``sleep`` is
    injectable so tests can observe the backoff schedule without real
    waiting.
    """
    sessions = [service.open_session() for _ in range(n_sessions)]
    result = LoadResult("closed", n_sessions, duration_seconds)
    lock = threading.Lock()
    start_gate = threading.Event()

    def client(session):
        for _ in range(warmup_requests):
            try:
                session.run(work, timeout=30)
            except (AdmissionRejectedError, RequestShedError):
                pass
        start_gate.wait()
        deadline = time.monotonic() + duration_seconds
        consecutive = 0  # backpressure streak; resets on completion

        def back_off(retry_after: float) -> None:
            nonlocal consecutive
            consecutive += 1
            delay = backoff_delay(retry_after, consecutive, max_backoff)
            with lock:
                result.backoffs += 1
                result.backoff_seconds += delay
            sleep(delay)

        while time.monotonic() < deadline:
            t0 = time.monotonic()
            try:
                session.run(work, timeout=30)
            except AdmissionRejectedError as exc:
                with lock:
                    result.rejected += 1
                back_off(exc.retry_after)
                continue
            except RequestShedError as exc:
                with lock:
                    result.shed += 1
                back_off(exc.retry_after)
                continue
            except Exception:
                with lock:
                    result.failed += 1
                continue
            consecutive = 0
            latency_ms = (time.monotonic() - t0) * 1000.0
            with lock:
                result.completed += 1
                result.latencies_ms.append(latency_ms)
            if think_seconds > 0:
                time.sleep(think_seconds)

    threads = [
        threading.Thread(target=client, args=(s,), name=f"load-client-{i}")
        for i, s in enumerate(sessions)
    ]
    for t in threads:
        t.start()
    start_gate.set()
    for t in threads:
        t.join()
    for s in sessions:
        s.close(timeout=10)
    return result


def run_open_loop(
    service,
    work: Callable[[Any], Any],
    n_sessions: int,
    arrival_rate_qps: float,
    duration_seconds: float = 2.0,
) -> LoadResult:
    """Open-loop arrivals: requests are submitted round-robin across
    sessions at a fixed aggregate rate, never waiting for completions.
    Backpressure shows up as rejections, not as a slower arrival
    process — exactly the regime admission control exists for."""
    sessions = [service.open_session() for _ in range(n_sessions)]
    result = LoadResult("open", n_sessions, duration_seconds)
    inflight: list[tuple[Any, float, dict]] = []
    interval = 1.0 / arrival_rate_qps if arrival_rate_qps > 0 else 0.0
    start = time.monotonic()
    deadline = start + duration_seconds
    next_arrival = start
    i = 0
    while True:
        now = time.monotonic()
        if now >= deadline:
            break
        if now < next_arrival:
            time.sleep(min(next_arrival - now, 0.005))
            continue
        next_arrival += interval
        session = sessions[i % len(sessions)]
        i += 1
        t0 = time.monotonic()
        # Latency is submit -> completion; stamp completion in a done
        # callback so draining futures in submission order afterwards
        # doesn't inflate the tail.
        done_at: dict = {}
        try:
            future = session.submit(work)
        except AdmissionRejectedError:
            result.rejected += 1
            continue
        future.add_done_callback(
            lambda _f, d=done_at: d.setdefault("t1", time.monotonic())
        )
        inflight.append((future, t0, done_at))
    for future, t0, done_at in inflight:
        try:
            future.result(30)
        except RequestShedError:
            result.shed += 1
        except Exception:
            result.failed += 1
        else:
            result.completed += 1
            t1 = done_at.get("t1", time.monotonic())
            result.latencies_ms.append((t1 - t0) * 1000.0)
    for s in sessions:
        s.close(timeout=10)
    return result
