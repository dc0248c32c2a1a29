"""The Db2 Graph facade: ``Db2Graph.open(...)`` (paper §6.1).

Opening a graph reads the overlay configuration, resolves it against
the catalog into a Topology, and wires the Graph Structure module, the
SQL Dialect module, and (optionally) the optimized traversal
strategies together.  ``traversal()`` then hands back a ``g`` to
query, exactly as
``g = Db2Graph.open('config.properties').traversal()`` does in the
paper.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any

from ..cache import CacheConfig, GraphCache, resolve_cache_config
from ..graph.gremlin_parser import evaluate_gremlin
from ..graph.strategy import StrategyRegistry
from ..graph.traversal import GraphTraversalSource
from ..obs import metrics as M
from ..obs import tracing
from ..obs.metrics import MetricsRegistry
from ..obs.tracing import TraceRecorder
from ..relational.database import Connection, Database
from .graph_structure import OverlayGraph, RuntimeOptimizations, resolve_batch_size
from .overlay import OverlayConfig
from .sql_dialect import SqlDialect
from .strategies import optimized_strategies
from .topology import Topology


class Db2Graph:
    def __init__(
        self,
        connection: Connection,
        topology: Topology,
        dialect: SqlDialect,
        provider: OverlayGraph,
        optimized: bool,
        auto_refresh: bool = False,
        auto_generated_tables: list[str] | None = None,
    ):
        self.connection = connection
        self.topology = topology
        self.dialect = dialect
        self.provider = provider
        self.optimized = optimized
        # One registry + recorder span the SQL Dialect and Graph
        # Structure modules; stats()/reset_stats()/tracing read them.
        self.registry = dialect.registry
        self.trace = dialect.trace
        # -- catalog integration (the paper's §5.1 future work) --------
        # auto_refresh re-resolves the overlay when DDL changes; if the
        # overlay came from AutoOverlay, it is regenerated wholesale so
        # new tables/columns join the graph automatically.
        self.auto_refresh = auto_refresh
        self._auto_generated_tables = auto_generated_tables
        self._is_auto_generated = auto_generated_tables is not None
        self._resolved_generation = connection.database.ddl_generation
        self.refresh_count = 0
        # Default QueryBudget for traversals (None = unlimited); set by
        # open(budget=...) or per-source via g.with_budget(...).
        self.budget = None
        # Transactional read cache (repro.cache); set by open(cache=...).
        # None = every read goes to the relational engine.
        self.cache: GraphCache | None = None
        # ReplicationCluster (repro.replication); set by open(replication=...).
        # None = single-node operation.
        self.replication = None

    @classmethod
    def open(
        cls,
        database: Database | Connection,
        overlay: OverlayConfig | dict | str | Path,
        *,
        optimized: bool = True,
        runtime_opts: RuntimeOptimizations | None = None,
        auto_refresh: bool = False,
        budget: Any = None,
        retry_policy: Any = None,
        batch_size: int | None = None,
        cache: CacheConfig | bool | GraphCache | None = None,
        replication: Any = None,
        registry: MetricsRegistry | None = None,
        recorder: TraceRecorder | None = None,
    ) -> "Db2Graph":
        """Open a property graph over relational data.

        ``batch_size`` caps how many distinct ids one ``WHERE id IN
        (...)`` statement per table carries (``None`` consults
        ``REPRO_BATCH_SIZE``, else 256).  An ``out()``/``in()`` batch
        ends at ``batch_size`` distinct vertex ids, however many
        traversers share them; results are demultiplexed back to their
        originating traversers, so every ``batch_size`` returns
        identical results.

        ``budget`` (a :class:`~repro.resilience.budget.QueryBudget`)
        bounds every traversal spawned from :meth:`traversal` —
        wall-clock deadline and/or statement/row/traverser ceilings.
        ``retry_policy`` (a
        :class:`~repro.resilience.retry.RetryPolicy`) retries
        transient engine errors (deadlock victim, lock timeout) at the
        per-statement boundary.

        ``overlay`` accepts an :class:`OverlayConfig`, a raw dict, or a
        path to a JSON overlay configuration file.  A
        :class:`~repro.relational.database.Database` is opened as the
        admin user; pass a ``Connection`` to open as someone else.

        ``optimized=False`` disables the compile-time traversal
        strategies (§6.2) while keeping the runtime data-dependent
        optimizations (§6.3) — the exact configuration of the paper's
        Figure 4 "off" bars.  ``runtime_opts`` toggles the latter.

        ``auto_refresh=True`` re-resolves the overlay against the
        catalog whenever DDL changes (the paper's §5.1 future work) —
        e.g. a column added to a table with inferred properties shows
        up as a new graph property without reopening.

        ``cache`` enables the transactional read cache
        (:mod:`repro.cache`): ``None`` consults ``REPRO_CACHE_ENABLED``
        (off by default), ``True``/``False`` force it, and a
        :class:`~repro.cache.CacheConfig` sets explicit capacities.
        Cached entries are invalidated by per-table epoch counters
        bumped on DML commit, so graph reads stay coherent with
        relational writes; lookups inside an explicit transaction
        bypass the cache for read-your-writes.  A prebuilt
        :class:`~repro.cache.GraphCache` instance may also be passed —
        the service layer shares one cache across every session's
        handle so an invalidation from any session covers all of them.

        ``registry``/``recorder`` share an existing metrics registry and
        trace recorder instead of creating fresh ones — the service
        layer passes its own so one observability snapshot spans every
        session multiplexed over the database.

        Durability belongs to the database: ``Database.open(dir)``,
        ``Database(durability=...)`` or ``db.attach_durability(...)``.

        ``replication`` attaches WAL-shipping hot standbys
        (:mod:`repro.replication`) to a durable database (the stream
        *is* the WAL): ``None`` is off, an ``int`` is a replica count, a
        :class:`~repro.replication.ReplicationConfig` sets ack mode and
        the staleness contract, and a prebuilt
        :class:`~repro.replication.ReplicationCluster` is shared as-is
        (a database that already has a cluster attached reuses it).
        The cluster lives on ``graph.replication``.
        """
        batch_size = resolve_batch_size(batch_size)
        if isinstance(database, Connection):
            connection = database
        else:
            connection = database.connect()
        topology = Topology(connection.database, OverlayConfig.load(overlay))
        registry = registry if registry is not None else MetricsRegistry()
        recorder = recorder if recorder is not None else TraceRecorder()
        if isinstance(cache, GraphCache):
            graph_cache: GraphCache | None = cache
        else:
            cache_config = resolve_cache_config(cache)
            graph_cache = (
                GraphCache(
                    connection.database,
                    cache_config,
                    registry=registry,
                    recorder=recorder,
                )
                if cache_config is not None
                else None
            )
        dialect = SqlDialect(
            connection,
            registry=registry,
            recorder=recorder,
            retry_policy=retry_policy,
            cache=graph_cache,
        )
        # One registry/recorder span the graph layer AND the relational
        # engine underneath it (lock waits, deadlocks, sql errors), so
        # stats()/traces reconcile across layers.
        connection.database.bind_observability(registry, recorder)
        cluster = cls._resolve_replication(connection.database, replication)
        provider = OverlayGraph(
            topology,
            dialect,
            runtime_opts,
            batch_size=batch_size,
            cache=graph_cache,
        )
        graph = cls(
            connection, topology, dialect, provider, optimized, auto_refresh=auto_refresh
        )
        graph.budget = budget
        graph.cache = graph_cache
        graph.replication = cluster
        return graph

    @staticmethod
    def _resolve_replication(database: Database, replication: Any):
        """Attach (or reuse) a replication cluster for ``database``;
        a request against a non-durable database raises."""
        durability = database.durability
        shipping = durability is not None and durability.replication is not None
        if not shipping and (replication is None or replication is False or replication == 0):
            return None  # the first open of a process skips the package import
        from ..replication import ReplicationCluster
        from ..replication.config import resolve_replication_config

        if isinstance(replication, ReplicationCluster):
            return replication
        if database.durability is not None and database.durability.replication is not None:
            # The database already ships its WAL — share that cluster.
            return database.durability.replication.cluster
        config = resolve_replication_config(replication)
        if config is None:
            return None
        if database.durability is None:
            from ..replication.errors import ReplicationError

            raise ReplicationError(
                "replication requires a durable database (open it with a "
                "WAL directory or attach_durability() first)"
            )
        return ReplicationCluster(database, config)

    @classmethod
    def open_auto(
        cls,
        database: Database | Connection,
        table_names: list[str] | None = None,
        *,
        optimized: bool = True,
        runtime_opts: RuntimeOptimizations | None = None,
        auto_refresh: bool = True,
    ) -> "Db2Graph":
        """Open a graph whose overlay is generated by AutoOverlay
        (Algorithms 1-2) and, with ``auto_refresh``, regenerated on
        every DDL change — new tables with keys become new vertex/edge
        tables automatically (full §5.1 catalog integration)."""
        from .auto_overlay import generate_overlay

        connection = database if isinstance(database, Connection) else database.connect()
        config = generate_overlay(connection.database, table_names)
        graph = cls.open(
            connection,
            config,
            optimized=optimized,
            runtime_opts=runtime_opts,
            auto_refresh=auto_refresh,
        )
        graph._auto_generated_tables = table_names or []
        graph._is_auto_generated = True
        return graph

    # -- catalog integration ----------------------------------------------------

    def refresh(self) -> None:
        """Re-resolve (or regenerate) the overlay against the catalog."""
        database = self.connection.database
        if self._is_auto_generated:
            from .auto_overlay import generate_overlay

            config = generate_overlay(
                database, self._auto_generated_tables or None
            )
        else:
            config = self.topology.config
        self.topology = Topology(database, config)
        self.provider.topology = self.topology
        self._resolved_generation = database.ddl_generation
        self.refresh_count += 1

    def _maybe_refresh(self) -> None:
        if not self.auto_refresh:
            return
        if self.connection.database.ddl_generation != self._resolved_generation:
            self.refresh()

    # -- querying ------------------------------------------------------------

    def traversal(self) -> GraphTraversalSource:
        self._maybe_refresh()
        strategies = list(optimized_strategies()) if self.optimized else []
        registry = StrategyRegistry(strategies)
        return GraphTraversalSource(
            self.provider, registry, recorder=self.trace, budget=self.budget
        )

    def analytics(self, budget: Any = None) -> "Any":
        """Bulk whole-graph analytics over this handle
        (:mod:`repro.analytics`): ``g.analytics().bfs(source)``,
        ``.sssp(source, weight=...)``, ``.wcc()``, ``.pagerank()``.

        ``budget`` overrides the handle's default
        :class:`~repro.resilience.budget.QueryBudget` for the
        algorithms run through the returned facade."""
        from ..analytics.algorithms import GraphAnalytics

        self._maybe_refresh()
        return GraphAnalytics(
            self.provider, budget=budget if budget is not None else self.budget
        )

    def execute(self, gremlin: str, variables: dict[str, Any] | None = None) -> Any:
        """Run a Gremlin query string (the Gremlin-console interface)."""
        self.trace.emit(tracing.TRAVERSAL_PARSED, script=gremlin)
        return evaluate_gremlin(self.traversal(), gremlin, variables)

    def register_table_function(self, name: str = "graphQuery") -> None:
        """Expose this graph inside SQL via the polymorphic table
        function (paper §4)::

            SELECT ... FROM TABLE(graphQuery('gremlin', '<script>'))
                AS P (col TYPE, ...)
        """
        from .table_function import make_graph_query_function

        self.connection.database.register_table_function(
            name, make_graph_query_function(self)
        )

    # -- operations ---------------------------------------------------------------

    def suggest_indexes(self) -> list[tuple[str, tuple[str, ...]]]:
        return self.dialect.suggest_indexes()

    def create_suggested_indexes(self) -> list[str]:
        return self.dialect.create_suggested_indexes()

    def stats(self) -> dict[str, Any]:
        cache = self.connection.database.statement_cache
        return {
            "sql_queries": self.registry.counter(M.SQL_QUERIES).value,
            "rows_fetched": self.registry.counter(M.SQL_ROWS).value,
            "prepared_hits": self.registry.counter(M.SQL_PREPARED_HITS).value,
            "vertex_table_queries": self.registry.counter(M.VERTEX_TABLE_QUERIES).value,
            "edge_table_queries": self.registry.counter(M.EDGE_TABLE_QUERIES).value,
            "tables_eliminated": self.registry.counter(M.TABLES_ELIMINATED).value,
            "vertices_from_edges": self.registry.counter(M.VERTICES_FROM_EDGES).value,
            "lazy_vertices": self.registry.counter(M.LAZY_VERTICES).value,
            "statement_cache_hits": cache.hits,
            "statement_cache_misses": cache.misses,
            # traverser batching
            "batched_statements": self.registry.counter(M.SQL_BATCHED).value,
            "batched_ids": self.registry.counter(M.BATCH_IDS).value,
            # graph read cache (repro.cache)
            "cache_hits": self.registry.counter(M.CACHE_HITS).value,
            "cache_misses": self.registry.counter(M.CACHE_MISSES).value,
            "cache_evictions": self.registry.counter(M.CACHE_EVICTIONS).value,
            "cache_invalidations": self.registry.counter(M.CACHE_INVALIDATIONS).value,
            "cache_bypass_txn": self.registry.counter(M.CACHE_BYPASS_TXN).value,
            # resilience layer
            "sql_errors": self.registry.counter(M.SQL_ERRORS).value,
            "lock_waits": self.registry.counter(M.LOCK_WAITS).value,
            "deadlocks": self.registry.counter(M.LOCK_DEADLOCKS).value,
            "retry_attempts": self.registry.counter(M.RETRY_ATTEMPTS).value,
            "retry_exhausted": self.registry.counter(M.RETRY_EXHAUSTED).value,
            "budget_exceeded": self.registry.counter(M.BUDGET_EXCEEDED).value,
            "faults_injected": self.registry.counter(M.FAULTS_INJECTED).value,
            # service layer (repro.service) — zero unless this handle's
            # registry is shared with a GraphService
            "service_admitted": self.registry.counter(M.SERVICE_ADMITTED).value,
            "service_rejected": self.registry.counter(M.SERVICE_REJECTED).value,
            "service_shed": self.registry.counter(M.SERVICE_SHED).value,
            "service_sessions_opened": self.registry.counter(M.SERVICE_SESSIONS_OPENED).value,
            "service_sessions_closed": self.registry.counter(M.SERVICE_SESSIONS_CLOSED).value,
            # bulk analytics engine (repro.analytics)
            "analytics_steps": self.registry.counter(M.ANALYTICS_STEPS).value,
            "analytics_converged": self.registry.counter(M.ANALYTICS_CONVERGED).value,
            "frontier_samples": self.registry.histogram(M.FRONTIER_SIZE).count,
            "frontier_max": (
                self.registry.histogram(M.FRONTIER_SIZE).max
                if self.registry.histogram(M.FRONTIER_SIZE).count
                else 0
            ),
            # durability (repro.durability)
            "wal_appends": self.registry.counter(M.WAL_APPENDS).value,
            "wal_flushes": self.registry.counter(M.WAL_FLUSHES).value,
            "checkpoints_written": self.registry.counter(M.CHECKPOINTS_WRITTEN).value,
            "recovery_replayed": self.registry.counter(M.RECOVERY_REPLAYED).value,
            "recovery_discarded": self.registry.counter(M.RECOVERY_DISCARDED).value,
            # replication & failover (repro.replication)
            "repl_shipped": self.registry.counter(M.REPL_SHIPPED).value,
            "repl_applied": self.registry.counter(M.REPL_APPLIED).value,
            "repl_acked": self.registry.counter(M.REPL_ACKED).value,
            "repl_fenced": self.registry.counter(M.REPL_FENCED).value,
            "repl_retransmits": self.registry.counter(M.REPL_RETRANSMITS).value,
            "repl_read_fallthrough": self.registry.counter(M.REPL_READ_FALLTHROUGH).value,
            "failover_promotions": self.registry.counter(M.FAILOVER_PROMOTIONS).value,
            "repl_lag_samples": self.registry.histogram(M.REPL_LAG).count,
            "repl_lag_max": (
                self.registry.histogram(M.REPL_LAG).max
                if self.registry.histogram(M.REPL_LAG).count
                else 0
            ),
            # structured state (dict-or-None, not counters): what crash
            # recovery found at open, and the live replication topology
            "recovery_report": self._recovery_report_dict(),
            "replication": self.replication.status() if self.replication else None,
        }

    def _recovery_report_dict(self) -> dict[str, Any] | None:
        report = self.connection.database.recovery_report
        if report is None:
            return None
        from dataclasses import asdict

        return asdict(report)

    def health(self) -> dict[str, Any]:
        """Liveness/topology summary (mirrored by GraphService.health):
        whether this node is durable and alive, what recovery did at
        open, and — when replicated — epoch, per-replica apply state,
        and failover history."""
        database = self.connection.database
        durability = database.durability
        return {
            "database": database.name,
            "durable": durability is not None,
            "alive": durability is None or not durability.dead,
            "last_logged_csn": durability.last_logged_csn if durability else None,
            "recovery_report": self._recovery_report_dict(),
            "replication": self.replication.status() if self.replication else None,
        }

    def metrics(self) -> dict[str, Any]:
        """Full registry snapshot: every named counter (including the
        per-rule ``structure.eliminated.*`` breakdown) and every
        histogram's summary."""
        return self.registry.snapshot()

    def reset_stats(self) -> None:
        # One registry holds every counter the graph layer writes —
        # reset it wholesale, plus the prepared-statement cache counters
        # and the trace buffer.
        self.registry.reset()
        cache = self.connection.database.statement_cache
        cache.hits = 0
        cache.misses = 0
        self.trace.clear()

    # -- observability ---------------------------------------------------------

    def enable_tracing(self, max_events: int | None = None) -> TraceRecorder:
        """Start recording structured trace events (cleared first)."""
        if max_events is not None:
            self.trace.max_events = max_events
        self.trace.clear()
        self.trace.enabled = True
        return self.trace

    def disable_tracing(self) -> None:
        self.trace.enabled = False

    def close(self) -> None:
        """Release the graph.  A no-op, kept for callers that pair
        ``open`` with ``close``: the graph holds no threads or files,
        and the relational data stays untouched — there never was a
        copy."""

    @property
    def batch_size(self) -> int:
        return self.provider.batch_size

    def __repr__(self) -> str:
        return (
            f"Db2Graph(v_tables={len(self.topology.vertex_tables)}, "
            f"e_tables={len(self.topology.edge_tables)}, "
            f"batch_size={self.batch_size}, "
            f"cache={'on' if self.cache is not None else 'off'}, "
            f"optimized={self.optimized})"
        )
