"""Named counters and histograms — the observability substrate.

The SQL Dialect and Graph Structure modules write named counters in
one shared :class:`MetricsRegistry`, so that

* :meth:`Db2Graph.stats` reads one coherent snapshot,
* trace/stats consistency is testable (every counter increment has a
  matching trace event, see :mod:`repro.obs.tracing`).

A bare ``+= 1`` is a read-modify-write that loses updates when
concurrent sessions share a registry, so each cell increments under
its own lock.  Reads stay lock-free (``value`` is a single attribute
load).
"""

from __future__ import annotations

import threading
from typing import Any, Iterator


class Counter:
    """A named monotonically-increasing integer (resettable).

    Increment is atomic under ``_lock`` so concurrent traversals never
    lose updates; reading ``value`` needs no lock.
    """

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self.value = 0
        self._lock = threading.Lock()

    def increment(self, amount: int = 1) -> None:
        with self._lock:
            self.value += amount

    def reset(self) -> None:
        with self._lock:
            self.value = 0

    def __repr__(self) -> str:
        return f"Counter({self.name}={self.value})"


class Histogram:
    """A named streaming summary: count / total / min / max.

    Enough to report mean phase latency and extremes without keeping
    every observation (benchmarks observe millions of spans).
    """

    __slots__ = ("name", "count", "total", "min", "max", "_lock")

    def __init__(self, name: str):
        self.name = name
        self._lock = threading.Lock()
        self.reset()

    def observe(self, value: float) -> None:
        with self._lock:
            self.count += 1
            self.total += value
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def reset(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def summary(self) -> dict[str, float]:
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
        }

    def __repr__(self) -> str:
        return f"Histogram({self.name}: n={self.count}, mean={self.mean:.6f})"


class MetricsRegistry:
    """Create-on-demand registry of named counters and histograms.

    One registry is shared by the SQL Dialect and Graph Structure
    modules of a :class:`~repro.core.db2graph.Db2Graph` instance; the
    facade's ``stats()`` / ``reset_stats()`` read and reset the same
    cells.
    """

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._histograms: dict[str, Histogram] = {}
        # Guards create-on-demand registration: two threads asking for
        # the same new counter must share one cell.
        self._lock = threading.Lock()

    # -- access ------------------------------------------------------------

    def counter(self, name: str) -> Counter:
        cell = self._counters.get(name)
        if cell is None:
            with self._lock:
                cell = self._counters.get(name)
                if cell is None:
                    cell = self._counters[name] = Counter(name)
        return cell

    def histogram(self, name: str) -> Histogram:
        cell = self._histograms.get(name)
        if cell is None:
            with self._lock:
                cell = self._histograms.get(name)
                if cell is None:
                    cell = self._histograms[name] = Histogram(name)
        return cell

    def counters(self) -> Iterator[Counter]:
        return iter(self._counters.values())

    def histograms(self) -> Iterator[Histogram]:
        return iter(self._histograms.values())

    # -- snapshots ---------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """Flat dict of every counter value and histogram summary."""
        out: dict[str, Any] = {c.name: c.value for c in self._counters.values()}
        for h in self._histograms.values():
            out[h.name] = h.summary()
        return out

    def counter_values(self) -> dict[str, int]:
        return {c.name: c.value for c in self._counters.values()}

    def reset(self) -> None:
        for cell in self._counters.values():
            cell.reset()
        for cell in self._histograms.values():
            cell.reset()

    def __repr__(self) -> str:
        return (
            f"MetricsRegistry(counters={len(self._counters)}, "
            f"histograms={len(self._histograms)})"
        )


# Canonical metric names — keep in sync with DESIGN.md's observability
# section.  Using constants avoids typo'd never-read counters.
SQL_QUERIES = "sql.queries_issued"
SQL_ROWS = "sql.rows_fetched"
SQL_PREPARED_HITS = "sql.prepared_hits"
# Traverser batching.
SQL_BATCHED = "sql.batched"  # statements that coalesced >1 traverser id
BATCH_IDS = "batch.size"  # total ids carried by those batched statements
VERTEX_TABLE_QUERIES = "structure.vertex_table_queries"
EDGE_TABLE_QUERIES = "structure.edge_table_queries"
TABLES_ELIMINATED = "structure.tables_eliminated"
VERTICES_FROM_EDGES = "structure.vertices_from_edges"
LAZY_VERTICES = "structure.lazy_vertices"
# Resilience counters (lock manager / retry / budgets / fault injection).
LOCK_WAITS = "lock.waits"
LOCK_DEADLOCKS = "lock.deadlocks"
SQL_ERRORS = "sql.errors"
RETRY_ATTEMPTS = "retry.attempts"
RETRY_EXHAUSTED = "retry.exhausted"
BUDGET_EXCEEDED = "budget.exceeded"
FAULTS_INJECTED = "fault.injected"
# Graph read cache (repro.cache) — each mirrors a 1:1 trace event.
CACHE_HITS = "cache.hits"
CACHE_MISSES = "cache.misses"
CACHE_EVICTIONS = "cache.evictions"
CACHE_INVALIDATIONS = "cache.invalidations"
CACHE_BYPASS_TXN = "cache.bypass_txn"
# Durability (repro.durability) — each mirrors a 1:1 trace event.
WAL_APPENDS = "wal.appends"
WAL_FLUSHES = "wal.flushes"
CHECKPOINTS_WRITTEN = "checkpoint.written"
RECOVERY_REPLAYED = "recovery.replayed"
RECOVERY_DISCARDED = "recovery.discarded"
# Service layer (repro.service) — each mirrors a 1:1 trace event; the
# queue-depth histogram is sampled once per admission (its count equals
# the number of ``service.queued`` events).
SERVICE_ADMITTED = "service.admitted"
SERVICE_REJECTED = "service.rejected"
SERVICE_SHED = "service.shed"
SERVICE_QUEUE_DEPTH = "service.queue_depth"
SERVICE_SESSIONS_OPENED = "service.session.open"
SERVICE_SESSIONS_CLOSED = "service.session.close"
# Bulk analytics engine (repro.analytics) — the step counter and the
# frontier-size histogram each mirror a 1:1 trace event (the histogram
# follows the service.queue_depth pattern: its observation count equals
# the number of ``frontier.size`` events).
ANALYTICS_STEPS = "analytics.step"
ANALYTICS_CONVERGED = "analytics.converged"
FRONTIER_SIZE = "frontier.size"
# Replication & failover (repro.replication) — each counter mirrors a
# 1:1 trace event; the replication-lag histogram follows the
# service.queue_depth pattern (its observation count equals the number
# of ``repl.lag`` events, one sample per processed ack).
REPL_SHIPPED = "repl.shipped"
REPL_APPLIED = "repl.applied"
REPL_ACKED = "repl.acked"
REPL_FENCED = "repl.fenced"
REPL_RETRANSMITS = "repl.retransmits"
REPL_READ_FALLTHROUGH = "repl.read.fallthrough"
FAILOVER_PROMOTIONS = "failover.promotions"
REPL_LAG = "repl.lag"


def eliminated_counter_name(rule: str) -> str:
    """Per-§6.3-rule elimination counter, e.g.
    ``structure.eliminated.label_values``."""
    return f"structure.eliminated.{rule}"
