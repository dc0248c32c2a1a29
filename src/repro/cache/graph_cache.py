"""The transactional graph read cache (two levels, epoch-validated).

Sits between the graph layer and the relational engine:

* **Level 1 — statement cache** (:meth:`GraphCache.lookup_statement`):
  keyed by ``(table, sql, params)`` at the SQL Dialect choke point.
  This subsumes the adjacency/edge-batch shape ``(config, table,
  direction, id-chunk)``: the direction is the src/dst column baked
  into the SQL text, the id-chunk is the ``IN (...)`` parameter tuple,
  and the overlay config is implicit because a cache belongs to one
  ``Db2Graph``.
* **Level 2 — row/materialization cache**
  (:meth:`lookup_group` / :meth:`lookup_vertex`): memoizes endpoint
  materialization — ``bulk_materialize`` groups and ``load_vertex``
  point lookups — including *negative* results, keyed by the exact
  unit of computation (hint scope + id tuple) so a hit replays the
  uncached code path bit-for-bit.

Correctness rules:

* An entry stores the epoch **vector** of its dependency base tables
  (plus the DDL generation as element 0), captured *before* the SQL
  ran; it is served only while the current vector is equal.  See
  :mod:`repro.cache.epochs` for why this can never serve stale rows.
* A connection with an **active explicit transaction** bypasses the
  cache entirely (lookup *and* fill, counted as ``cache.bypass.txn``):
  its own uncommitted writes must be visible (read-your-writes) and
  its snapshot semantics differ from autocommit reads.  Uncommitted
  rows therefore never reach the shared cache.
* Entries are **filled only after a successful statement** — a retried
  or injected failure never installs a partial result.
* Statements against **views** resolve to their base tables through
  the planner; unresolvable relations bypass caching.

Concurrency: each level is striped over independent
:class:`~repro.common.lru.LruCache` segments.  Lookups and fills take
one stripe lock for one dict operation; no SQL or loader ever runs
under a cache lock, so concurrent sessions cannot deadlock through the
cache.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Sequence

from ..common.lru import LruCache
from ..obs import metrics as M
from ..obs import tracing
from ..obs.metrics import MetricsRegistry
from ..obs.tracing import NULL_RECORDER, TraceRecorder
from .config import CacheConfig
from .epochs import EpochRegistry

#: Cached verdict for "this id has no row" — distinguishable from an
#: absent cache entry.
NEGATIVE = "negative"

_ABSENT = object()


@dataclass(frozen=True)
class CacheTicket:
    """A pending fill: the key and the epoch vector captured before the
    SQL ran.  Handed back to :meth:`GraphCache.store` on success."""

    segment: "_Segment"
    key: tuple
    vector: tuple[int, ...]
    table: str


class _Segment:
    """One cache level: striped LRU storage, no accounting of its own
    (hits/misses/evictions are counted by the owning GraphCache)."""

    def __init__(self, name: str, capacity: int, stripes: int):
        self.name = name
        per_stripe = max(1, capacity // stripes)
        self._stripes = [LruCache(per_stripe) for _ in range(stripes)]

    def _stripe(self, key: tuple) -> LruCache:
        return self._stripes[hash(key) % len(self._stripes)]

    def get(self, key: tuple) -> Any:
        return self._stripe(key).get(key, _ABSENT)

    def put(self, key: tuple, entry: tuple) -> list[tuple]:
        return self._stripe(key).put(key, entry)

    def invalidate(self, key: tuple) -> None:
        self._stripe(key).invalidate(key)

    def clear(self) -> None:
        for stripe in self._stripes:
            stripe.clear()

    def __len__(self) -> int:
        return sum(len(stripe) for stripe in self._stripes)


class GraphCache:
    """Per-graph two-level read cache over one :class:`Database`."""

    def __init__(
        self,
        database: Any,
        config: CacheConfig | None = None,
        registry: MetricsRegistry | None = None,
        recorder: TraceRecorder | None = None,
    ):
        self.database = database
        self.config = config or CacheConfig()
        self.epochs: EpochRegistry = database.epochs
        self.registry = registry if registry is not None else MetricsRegistry()
        self.trace = recorder if recorder is not None else NULL_RECORDER
        self._statements = _Segment(
            "statement", self.config.statement_capacity, self.config.stripes
        )
        self._rows = _Segment("row", self.config.row_capacity, self.config.stripes)
        # relation-name tuple -> resolved base tables (or None when any
        # member is unresolvable), memoized per DDL generation.
        self._deps: dict[tuple[str, ...], tuple[str, ...] | None] = {}
        self._deps_generation = -1
        self._deps_lock = threading.Lock()
        self._hits = self.registry.counter(M.CACHE_HITS)
        self._misses = self.registry.counter(M.CACHE_MISSES)
        self._evictions = self.registry.counter(M.CACHE_EVICTIONS)
        self._bypasses = self.registry.counter(M.CACHE_BYPASS_TXN)

    # -- dependency resolution ------------------------------------------------

    def dependencies(self, relations: Sequence[str]) -> tuple[str, ...] | None:
        """Lowercase base tables behind ``relations`` (views resolved
        through the planner), or ``None`` when any is unresolvable."""
        key = tuple(r.lower() for r in relations)
        generation = self.database.ddl_generation
        with self._deps_lock:
            if self._deps_generation != generation:
                self._deps.clear()
                self._deps_generation = generation
            if key in self._deps:
                return self._deps[key]
        resolved = self._resolve_dependencies(key)
        with self._deps_lock:
            if self._deps_generation == generation:
                self._deps[key] = resolved
        return resolved

    def _resolve_dependencies(self, relations: tuple[str, ...]) -> tuple[str, ...] | None:
        catalog = self.database.catalog
        base: list[str] = []
        for name in relations:
            if catalog.has_table(name):
                tables = [name]
            elif catalog.has_view(name):
                try:
                    from ..relational.planner import Planner
                    from ..relational.sql_parser import parse_statement

                    planned = Planner(self.database).plan_select(
                        parse_statement(f"SELECT * FROM {name}")
                    )
                    tables = [t.lower() for t in planned.scanned_tables]
                except Exception:
                    return None
            else:
                return None
            for table in tables:
                key = table.lower()
                if key not in base:
                    base.append(key)
        return tuple(base)

    # -- epoch vectors --------------------------------------------------------

    def current_vector(self, deps: tuple[str, ...]) -> tuple[int, ...]:
        return (self.database.ddl_generation, *self.epochs.vector(deps))

    # -- bypass rule ----------------------------------------------------------

    @staticmethod
    def _in_transaction(connection: Any) -> bool:
        txn = getattr(connection, "current_txn", None)
        return txn is not None and txn.is_active

    # -- generic lookup/fill --------------------------------------------------

    def _lookup(
        self,
        segment: _Segment,
        connection: Any,
        relations: Sequence[str],
        key: tuple,
        table: str,
    ) -> tuple[str, Any]:
        """Returns ``("hit", payload)``, ``("miss", ticket)``, or
        ``("bypass", None)``.  Counters and trace events are emitted
        here, 1:1, so callers never double-count."""
        if self._in_transaction(connection):
            self._bypasses.increment()
            self.trace.emit(
                tracing.CACHE_BYPASS_TXN, segment=segment.name, table=table
            )
            return "bypass", None
        deps = self.dependencies(relations)
        if deps is None:
            # Unknown relation (e.g. dropped mid-flight): silently
            # uncacheable, not a transaction bypass.
            return "bypass", None
        vector = self.current_vector(deps)
        entry = segment.get(key)
        if entry is not _ABSENT:
            if entry[0] == vector:
                self._hits.increment()
                self.trace.emit(tracing.CACHE_HIT, segment=segment.name, table=table)
                return "hit", entry[1]
            # Stale: drop eagerly so the segment doesn't fill with
            # unservable entries (not counted as an eviction — those
            # measure capacity pressure).
            segment.invalidate(key)
        self._misses.increment()
        self.trace.emit(tracing.CACHE_MISS, segment=segment.name, table=table)
        return "miss", CacheTicket(segment, key, vector, table)

    def store(self, ticket: CacheTicket, payload: Any) -> None:
        """Fill a previously-missed entry (call only after the statement
        succeeded — retries and injected faults must never land here)."""
        evicted = ticket.segment.put(ticket.key, (ticket.vector, payload))
        for _victim in evicted:
            self._evictions.increment()
            self.trace.emit(
                tracing.CACHE_EVICT, segment=ticket.segment.name, table=ticket.table
            )

    # -- level 1: statement results ------------------------------------------

    def lookup_statement(
        self, connection: Any, table: str, sql: str, params: tuple
    ) -> tuple[str, Any]:
        """Payload on a hit: ``(column_keys, row_tuples)`` — callers
        rebuild fresh row dicts so cached data is never aliased."""
        key = (table.lower(), sql, params)
        return self._lookup(self._statements, connection, (table,), key, table.lower())

    # -- level 2: materialization results ------------------------------------

    def lookup_group(
        self, connection: Any, relations: Sequence[str], hint: str | None, ids: tuple
    ) -> tuple[str, Any]:
        """One ``bulk_materialize`` hint-group.  The key is the exact
        (hint, id-tuple) unit of work because the uncached path's
        hint-table-then-fallback logic is group-composition dependent;
        caching smaller units would change observable results.  Payload:
        tuple of ``(id, label, property_items, source_table)``.

        ``relations`` must be *all* the overlay's vertex tables (the
        caller passes its current topology's): the fallback path may
        read any of them, and a commit to any must invalidate."""
        if not relations:
            return "bypass", None
        scope = hint.lower() if hint is not None else "*"
        key = ("group", scope, ids)
        return self._lookup(self._rows, connection, relations, key, scope)

    def lookup_vertex(
        self, connection: Any, relations: Sequence[str], scope: str | None, vertex_id: Any
    ) -> tuple[str, Any]:
        """One ``load_vertex`` point lookup.  Payload: ``(label,
        property_items, source_table)`` or :data:`NEGATIVE`."""
        if not relations:
            return "bypass", None
        scope_key = scope.lower() if scope is not None else "*"
        key = ("vertex", scope_key, vertex_id)
        return self._lookup(self._rows, connection, relations, key, scope_key)

    # -- management -----------------------------------------------------------

    def clear(self) -> None:
        self._statements.clear()
        self._rows.clear()

    def entry_counts(self) -> dict[str, int]:
        return {"statement": len(self._statements), "row": len(self._rows)}

    def __repr__(self) -> str:
        counts = self.entry_counts()
        return (
            f"GraphCache(statements={counts['statement']}/"
            f"{self.config.statement_capacity}, rows={counts['row']}/"
            f"{self.config.row_capacity}, stripes={self.config.stripes})"
        )
