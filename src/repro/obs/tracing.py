"""Structured trace events for the whole query path.

A :class:`TraceRecorder` collects :class:`TraceEvent` spans as a query
moves through the stack:

=====================  =====================================================
event name             attributes
=====================  =====================================================
``traversal.parsed``   ``script`` — Gremlin text handed to the parser
``traversal.compiled`` ``original``/``plan`` — step plans before/after the
                       full strategy set
``strategy.applied``   ``strategy``, ``before``, ``after`` — one event per
                       strategy that changed the plan (§6.2)
``table.queried``      ``table``, ``kind`` (``vertex``/``edge``) — a table
                       survived elimination and was queried
``table.eliminated``   ``table``, ``rule`` — which §6.3 rule removed the
                       table (``label_values``, ``property_names``,
                       ``prefixed_ids``, ``implicit_edge_ids``,
                       ``src_dst_tables``)
``sql.issued``         ``sql``, ``params``, ``rows``, ``seconds``,
                       ``statement_id`` — a process-stable id assigned at
                       build time so events interleaved by concurrent
                       traversals still correlate with explain()/profile()
                       output
``sql.batched``        ``statement_id``, ``table``, ``size`` — one
                       statement coalesced ``size`` (>1) traverser ids
                       into a single ``IN (...)`` probe
``vertex.from_edge``   ``table`` — endpoint built from the edge row
                       without SQL (§6.3)
``vertex.lazy``        ``table`` hint — endpoint handed out unmaterialized
``lock.wait``          ``table``, ``owner``, ``exclusive`` — an acquire
                       blocked and registered a wait-for edge
``deadlock.detected``  ``table``, ``victim``, ``cycle`` — a lock wait
                       closed a wait-for cycle; the victim gets
                       :class:`DeadlockError`
``sql.error``          ``error`` (class name), ``statement`` — a statement
                       failed inside the executor
``retry.attempt``      ``error``, ``attempt``, ``delay`` — a transient
                       failure will be retried after backoff
``retry.exhausted``    ``error``, ``attempts`` — retries ran out; the last
                       error propagates
``budget.exceeded``    ``reason``, ``progress`` — a query budget tripped
                       (deadline / statements / rows / traversers)
``fault.injected``     ``kind``, ``table``, ``statement`` — the fault
                       injector fired (chaos tests only)
``cache.hit``          ``segment`` (``statement``/``row``), ``table`` — a
                       graph-cache entry was served (epoch vector matched)
``cache.miss``         ``segment``, ``table`` — no servable entry; the
                       statement ran and may fill on success
``cache.evict``        ``segment``, ``table`` — a fill pushed an entry out
                       of a full segment (capacity pressure, not staleness)
``cache.invalidate``   ``table`` — a DML commit bumped the table's epoch,
                       invalidating every entry that depends on it
``cache.bypass.txn``   ``segment``, ``table`` — a lookup inside an active
                       explicit transaction skipped the cache
                       (read-your-writes / snapshot isolation)
``wal.append``         ``kind`` (record kind), ``table`` — one record
                       buffered for the write-ahead log
``wal.flush``          ``segment``, ``records`` — buffered frames written
                       (and fsynced) to the current WAL segment
``checkpoint.written`` ``segment``, ``bytes`` — a checkpoint was written
                       and atomically renamed into place
``recovery.replayed``  ``kind`` (``txn``/``ddl``) plus ``txn``/``csn`` or
                       ``op`` — one committed WAL unit redone during
                       crash recovery
``recovery.discarded`` ``txn``, ``ops`` — an uncommitted transaction tail
                       (possibly torn) discarded during crash recovery
``service.admitted``   ``session``, ``depth`` — a request passed admission
                       control and joined the dispatch queue at ``depth``
``service.rejected``   ``depth``, ``retry_after`` — the admission queue was
                       full; the caller got backpressure with a retry hint
``service.shed``       ``session``, ``queued_seconds`` — a queued request's
                       budget deadline expired before a worker picked it
                       up; it was dropped without executing
``service.queued``     ``depth`` — queue-depth sample taken at admission
                       (mirrors one ``service.queue_depth`` histogram
                       observation)
``service.session.open``  ``session``, ``user`` — a logical session opened
                       its per-session graph handle on the shared database
``service.session.close`` ``session``, ``rolled_back`` — a session closed;
                       ``rolled_back`` marks an abandoned open transaction
                       the service rolled back on the session's behalf
``analytics.step``     ``algorithm``, ``step``, ``size`` — the bulk
                       analytics engine expanded (or iterated) one whole
                       frontier level
``frontier.size``      ``algorithm``, ``step``, ``size`` — frontier-size
                       sample taken at each analytics step (mirrors one
                       ``frontier.size`` histogram observation)
``analytics.converged`` ``algorithm``, ``steps`` — an algorithm reached
                       natural convergence (frontier drained / fixpoint /
                       tolerance met), as opposed to a depth or iteration
                       cutoff
``repl.ship``          ``frames``, ``from_seq``, ``epoch`` — one batch of
                       durable WAL frames appended to the replication
                       stream by the primary
``repl.apply``         ``replica``, ``kind`` (``txn``/``ddl``), ``csn`` —
                       a replica finished redo-applying one committed
                       group or DDL record
``repl.ack``           ``replica``, ``acked_seq`` — a replica's cumulative
                       ack advanced at the primary (carried by its fetch)
``repl.fenced``        ``where``, ``seen_epoch``, ``local_epoch`` — a
                       stale-epoch frame batch was rejected on append, or
                       a deposed primary's write was refused
``repl.retransmit``    ``replica``, ``from_seq`` — the primary re-served
                       frames it had already sent (loss/tear recovery)
``repl.read.fallthrough`` ``session``, ``needed_csn``, ``applied_csn`` —
                       a replica read could not meet its staleness bound
                       and was rerouted to the primary
``failover.promote``   ``replica``, ``epoch``, ``applied_csn`` — a replica
                       was promoted to primary under a new fencing epoch
``repl.lag``           ``replica``, ``lag`` — replication-lag sample (CSNs
                       behind the primary) taken at each processed ack
                       (mirrors one ``repl.lag`` histogram observation)
=====================  =====================================================

Every event carries a process-wide monotonically increasing
``sequence`` so interleavings are reconstructible.  Recording is *off
by default* — every emission site checks ``recorder.enabled`` before
building the attribute dict, so the disabled cost is one attribute
read and one branch.  Db2Graph exposes ``enable_tracing()``.

Trace events and metrics counters are deliberately emitted at the same
program points: ``stats()["tables_eliminated"]`` must always equal the
number of ``table.eliminated`` events recorded while tracing was on —
a property the test suite enforces so the counters can never silently
drift from reality.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, field
from typing import Any, Iterator

_SEQUENCE = itertools.count()


@dataclass(frozen=True)
class TraceEvent:
    """One structured span event."""

    name: str
    attributes: dict[str, Any] = field(default_factory=dict)
    seconds: float | None = None
    sequence: int = -1

    def get(self, key: str, default: Any = None) -> Any:
        return self.attributes.get(key, default)

    def __repr__(self) -> str:
        parts = ", ".join(f"{k}={v!r}" for k, v in self.attributes.items())
        timing = f", {self.seconds * 1e3:.3f}ms" if self.seconds is not None else ""
        return f"<{self.name} {parts}{timing}>"


class TraceRecorder:
    """Collects trace events in order; bounded to ``max_events``.

    The bound protects long-running benchmarks that forget to disable
    tracing: once full, the recorder counts drops instead of growing.
    """

    def __init__(self, enabled: bool = False, max_events: int = 100_000):
        self.enabled = enabled
        self.max_events = max_events
        self.events: list[TraceEvent] = []
        self.dropped = 0
        # Concurrent sessions emit from several threads; the bound check plus append
        # must be atomic or the buffer overshoots / drop counts race.
        self._lock = threading.Lock()

    # -- recording ---------------------------------------------------------

    def emit(self, name: str, seconds: float | None = None, **attributes: Any) -> None:
        if not self.enabled:
            return
        event = TraceEvent(name, attributes, seconds, next(_SEQUENCE))
        with self._lock:
            if len(self.events) >= self.max_events:
                self.dropped += 1
                return
            self.events.append(event)

    # -- reading -----------------------------------------------------------

    def named(self, name: str) -> list[TraceEvent]:
        return [e for e in self.events if e.name == name]

    def count(self, name: str, **attribute_filter: Any) -> int:
        total = 0
        for event in self.events:
            if event.name != name:
                continue
            if all(event.get(k) == v for k, v in attribute_filter.items()):
                total += 1
        return total

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)

    def clear(self) -> None:
        with self._lock:
            self.events.clear()
            self.dropped = 0

    def __repr__(self) -> str:
        state = "on" if self.enabled else "off"
        return f"TraceRecorder({state}, {len(self.events)} events)"


#: Shared disabled recorder: modules that receive no recorder point at
#: this singleton so the hot path is a plain attribute check, never a
#: ``None`` test plus a check.
NULL_RECORDER = TraceRecorder(enabled=False)


# Event-name constants (mirror the table in the module docstring).
TRAVERSAL_PARSED = "traversal.parsed"
TRAVERSAL_COMPILED = "traversal.compiled"
STRATEGY_APPLIED = "strategy.applied"
TABLE_QUERIED = "table.queried"
TABLE_ELIMINATED = "table.eliminated"
SQL_ISSUED = "sql.issued"
SQL_BATCHED = "sql.batched"
VERTEX_FROM_EDGE = "vertex.from_edge"
VERTEX_LAZY = "vertex.lazy"
LOCK_WAIT = "lock.wait"
DEADLOCK_DETECTED = "deadlock.detected"
SQL_ERROR = "sql.error"
RETRY_ATTEMPT = "retry.attempt"
RETRY_EXHAUSTED = "retry.exhausted"
BUDGET_EXCEEDED = "budget.exceeded"
FAULT_INJECTED = "fault.injected"
CACHE_HIT = "cache.hit"
CACHE_MISS = "cache.miss"
CACHE_EVICT = "cache.evict"
CACHE_INVALIDATE = "cache.invalidate"
CACHE_BYPASS_TXN = "cache.bypass.txn"
WAL_APPEND = "wal.append"
WAL_FLUSH = "wal.flush"
CHECKPOINT_WRITTEN = "checkpoint.written"
RECOVERY_REPLAYED = "recovery.replayed"
RECOVERY_DISCARDED = "recovery.discarded"
SERVICE_ADMITTED = "service.admitted"
SERVICE_REJECTED = "service.rejected"
SERVICE_SHED = "service.shed"
SERVICE_QUEUED = "service.queued"
SERVICE_SESSION_OPEN = "service.session.open"
SERVICE_SESSION_CLOSE = "service.session.close"
ANALYTICS_STEP = "analytics.step"
FRONTIER_SIZE = "frontier.size"
ANALYTICS_CONVERGED = "analytics.converged"
REPL_SHIP = "repl.ship"
REPL_APPLY = "repl.apply"
REPL_ACK = "repl.ack"
REPL_FENCED = "repl.fenced"
REPL_RETRANSMIT = "repl.retransmit"
REPL_READ_FALLTHROUGH = "repl.read.fallthrough"
FAILOVER_PROMOTE = "failover.promote"
REPL_LAG = "repl.lag"
