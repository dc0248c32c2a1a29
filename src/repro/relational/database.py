"""The public database facade: :class:`Database` and :class:`Connection`.

A :class:`Database` owns the catalog, the transaction manager, the
access-control lists, and the statement cache.  Clients open
:class:`Connection` objects (one per user/session) and run SQL through
them — exactly the surface the Db2 Graph layer programs against.
"""

from __future__ import annotations

import os
import threading
from typing import TYPE_CHECKING, Any, Iterable, Sequence

from ..cache.epochs import EpochRegistry
from ..common.clock import Clock, SystemClock

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..durability.config import DurabilityConfig
from ..obs import metrics as obs_metrics
from ..obs import tracing as obs_tracing
from ..obs.metrics import MetricsRegistry
from ..obs.tracing import NULL_RECORDER, TraceRecorder
from .access import AccessControl
from .catalog import Catalog
from .errors import TransactionError
from .executor import Executor, ResultSet
from .planner import ExecContext, TableScanNode
from .prepared import PreparedStatement, StatementCache
from .schema import TableSchema
from .sql_parser import parse_statement
from .sql_ast import TransactionStmt
from .transactions import LockManager, Transaction, TransactionManager


class Database:
    def __init__(
        self,
        name: str = "db",
        clock: Clock | None = None,
        enforce_foreign_keys: bool = True,
        admin_user: str = "admin",
        durability: "DurabilityConfig | str | bool | None" = None,
    ):
        self.name = name
        self.clock = clock or SystemClock()
        self.lock_manager = LockManager()
        self.catalog = Catalog(self.lock_manager)
        self.txn_manager = TransactionManager(self.clock)
        self.access = AccessControl(admin_user)
        self.executor = Executor(self)
        self.statement_cache = StatementCache(self)
        self.enforce_foreign_keys = enforce_foreign_keys
        self.ddl_generation = 0
        self._ddl_lock = threading.Lock()
        self.statements_executed = 0
        self._stmt_count_lock = threading.Lock()
        # Observability: the lock manager / executor emit counters and
        # trace events here; Db2Graph.open rebinds both so one registry
        # spans the relational and graph layers.
        self.obs_registry: MetricsRegistry = self.lock_manager.registry
        self.obs_trace: TraceRecorder = NULL_RECORDER
        # Chaos hook (repro.resilience.faults.FaultInjector) consulted by
        # the executor before running each statement.  None in production.
        self.fault_injector = None
        # Per-table epoch counters for the graph read cache: bumped on
        # every DML commit (never on rollback) via the transaction
        # manager's commit hook, with one cache.invalidate counter +
        # trace event per written table.
        self.epochs = EpochRegistry()
        self.txn_manager.commit_hooks.append(self._note_committed_writes)
        # Durability (WAL + checkpoints).  ``durability=None`` consults
        # REPRO_WAL_DIR (each database gets a unique subdirectory of
        # it), ``False`` forces pure in-memory operation, a
        # path/DurabilityConfig enables logging there.  Use
        # Database.open() to crash-recover an existing directory.
        self.durability = None
        self.recovery_report = None
        if durability is not False:
            # Lazy import: repro.durability depends on this module.
            from ..durability.config import resolve_durability_config

            config = resolve_durability_config(durability, name)
            if config is not None:
                self.attach_durability(config)

    def _note_committed_writes(self, tables: Sequence[str]) -> None:
        for table in self.epochs.bump(tables):
            self.obs_registry.counter(obs_metrics.CACHE_INVALIDATIONS).increment()
            self.obs_trace.emit(obs_tracing.CACHE_INVALIDATE, table=table)

    def bind_observability(self, registry: MetricsRegistry, trace: TraceRecorder) -> None:
        """Point all engine-side emission sites at shared sinks."""
        self.obs_registry = registry
        self.obs_trace = trace
        self.lock_manager.registry = registry
        self.lock_manager.trace = trace

    # -- durability ----------------------------------------------------------

    @classmethod
    def open(
        cls,
        durability: "DurabilityConfig | str",
        *,
        name: str = "db",
        clock: Clock | None = None,
        enforce_foreign_keys: bool = True,
        admin_user: str = "admin",
        registry: MetricsRegistry | None = None,
        trace: TraceRecorder | None = None,
    ) -> "Database":
        """Open a durable database, crash-recovering any prior state.

        Loads the newest valid checkpoint from the directory, redoes the
        committed WAL suffix, discards uncommitted tails, then starts a
        fresh segment (checkpoint + empty WAL) for this incarnation.
        ``registry``/``trace`` bind *before* recovery so the
        ``recovery.replayed`` / ``recovery.discarded`` emissions land in
        the caller's sinks.  The report is left on
        ``db.recovery_report``.
        """
        from ..durability.config import resolve_durability_config
        from ..durability.errors import DurabilityError
        from ..durability.recovery import recover_into

        config = resolve_durability_config(durability, name)
        if config is None:
            raise DurabilityError("Database.open requires a durability directory")
        database = cls(
            name=name,
            clock=clock,
            enforce_foreign_keys=enforce_foreign_keys,
            admin_user=admin_user,
            durability=False,
        )
        if registry is not None or trace is not None:
            database.bind_observability(
                registry if registry is not None else database.obs_registry,
                trace if trace is not None else database.obs_trace,
            )
        report = recover_into(database, config)
        database.attach_durability(config, start_segment=report.next_segment)
        database.recovery_report = report
        return database

    def attach_durability(
        self, config: DurabilityConfig, start_segment: int = 0
    ) -> None:
        """Start WAL logging into ``config.dir`` (retrofittable: any
        state already in the database is captured by the initial
        checkpoint)."""
        from ..durability.errors import DurabilityError
        from ..durability.manager import DurabilityManager

        if self.durability is not None:
            raise DurabilityError("durability is already attached")
        os.makedirs(config.dir, exist_ok=True)
        manager = DurabilityManager(self, config)
        manager.start(start_segment)
        self.durability = manager
        self.txn_manager.durability = manager

    def checkpoint(self) -> int:
        """Write a checkpoint now; returns the new WAL segment number."""
        if self.durability is None:
            from ..durability.errors import DurabilityError

            raise DurabilityError("database has no durability attached")
        return self.durability.checkpoint()

    def close(self) -> None:
        """Flush any buffered WAL frames.  Safe to call repeatedly and
        on non-durable databases."""
        if self.durability is not None and not self.durability.dead:
            self.durability.close()

    # -- connections -------------------------------------------------------

    def connect(self, user: str = "admin") -> "Connection":
        return Connection(self, user)

    # -- convenience admin API ----------------------------------------------

    def execute(self, sql: str, params: Sequence[Any] = ()) -> ResultSet:
        """Run one statement as the admin user (autocommit)."""
        return self.connect().execute(sql, params)

    def create_table(self, schema: TableSchema, owner: str = "admin") -> None:
        self.catalog.create_table(schema, owner)
        self.bump_ddl_generation()
        if self.durability is not None:
            from ..durability.checkpoint import serialize_schema

            self.durability.log_ddl(
                {"op": "create_table", "schema": serialize_schema(schema), "owner": owner}
            )

    def register_table_function(self, name: str, func) -> None:
        """Register a polymorphic table function, callable in SQL via
        ``TABLE(name(args)) AS alias (col type, ...)``."""
        self.catalog.register_function(name, func)

    def bump_ddl_generation(self) -> None:
        with self._ddl_lock:
            self.ddl_generation += 1

    # -- introspection -------------------------------------------------------

    def table_row_count(self, table_name: str) -> int:
        table = self.catalog.get_table(table_name)
        ctx = ExecContext(self, None, (), self.txn_manager.current_csn())
        return len(TableScanNode(table, table.name, [], None).rows(ctx))

    def now(self) -> float:
        return self.clock.now()


class Connection:
    """A session: a user identity plus optional explicit transaction."""

    def __init__(self, database: Database, user: str):
        self.database = database
        self.user = user
        self.current_txn: Transaction | None = None
        # Session-scoped chaos hook; overrides the database-level one.
        self.fault_injector = None

    # -- SQL entry points ---------------------------------------------------

    def execute(self, sql: str, params: Sequence[Any] = ()) -> ResultSet:
        return self.execute_parsed(parse_statement(sql), params)

    def execute_parsed(self, stmt: Any, params: Sequence[Any]) -> ResultSet:
        with self.database._stmt_count_lock:
            self.database.statements_executed += 1
        if isinstance(stmt, TransactionStmt):
            return self._transaction_statement(stmt)
        if self.current_txn is not None:
            # READ COMMITTED between statements of the same transaction.
            self.current_txn.refresh_snapshot()
        return self.database.executor.execute(stmt, self, params)

    def prepare(self, sql: str) -> PreparedStatement:
        """Prepare via the shared statement cache (parse/plan once)."""
        return self.database.statement_cache.get(sql)

    def query(self, sql: str, params: Sequence[Any] = ()) -> list[tuple]:
        return self.execute(sql, params).rows

    # -- transactions -------------------------------------------------------

    def begin(self, isolation: str = Transaction.READ_COMMITTED) -> Transaction:
        """Open an explicit transaction.  ``isolation`` is
        :data:`Transaction.READ_COMMITTED` (default: the snapshot
        advances at every statement) or :data:`Transaction.SNAPSHOT`
        (the BEGIN-time snapshot holds until COMMIT/ROLLBACK — true
        snapshot isolation, since writes already use
        first-committer-wins conflict detection)."""
        if self.current_txn is not None and self.current_txn.is_active:
            raise TransactionError("transaction already open on this connection")
        self.current_txn = self.database.txn_manager.begin(isolation)
        return self.current_txn

    def commit(self) -> int:
        """Commit the open transaction; returns its commit CSN (used by
        the isolation-history recorder to order commits)."""
        if self.current_txn is None or not self.current_txn.is_active:
            raise TransactionError("no open transaction")
        csn = self.current_txn.commit()
        self.current_txn = None
        return csn

    def rollback(self) -> None:
        if self.current_txn is None or not self.current_txn.is_active:
            raise TransactionError("no open transaction")
        self.current_txn.rollback()
        self.current_txn = None

    def _transaction_statement(self, stmt: TransactionStmt) -> ResultSet:
        if stmt.action == "BEGIN":
            self.begin()
        elif stmt.action == "COMMIT":
            self.commit()
        else:
            self.rollback()
        return ResultSet.from_count(0)

    # -- executor support -----------------------------------------------------

    def exec_context(self, params: Sequence[Any], txn: Transaction | None = None) -> ExecContext:
        active = txn or self.current_txn
        if active is not None and active.is_active:
            snapshot = active.snapshot_csn
            txn_id: int | None = active.txn_id
        else:
            snapshot = self.database.txn_manager.current_csn()
            txn_id = None
        return ExecContext(
            database=self.database,
            session=self,
            params=list(params),
            snapshot_csn=snapshot,
            txn_id=txn_id,
        )

    def write_transaction(self, table_name: str) -> tuple[Transaction, bool]:
        """A transaction holding the write lock on ``table_name``.

        Returns ``(txn, own)`` — ``own`` is True when the transaction was
        created for this statement (autocommit) and the caller must
        commit/rollback it.  Explicit transactions keep write locks
        until COMMIT/ROLLBACK (released by the transaction manager).

        Under READ COMMITTED the snapshot advances once the lock is
        held: a writer that committed while this statement waited must
        be visible to it, or its writes would trip the storage layer's
        first-committer-wins check on rows the lock already serialized.
        """
        key = table_name.lower()
        if self.current_txn is not None and self.current_txn.is_active:
            txn = self.current_txn
            if key not in txn.write_locks:
                lock = self.database.catalog.get_table(table_name).lock
                # A timed-out/deadlocked acquire propagates; locks already
                # held stay with the txn, which remains rollback-able.
                lock.acquire_write(owner=txn.txn_id)
                txn.write_locks[key] = lock
                txn.refresh_snapshot()
            return txn, False
        txn = self.database.txn_manager.begin()
        lock = self.database.catalog.get_table(table_name).lock
        try:
            lock.acquire_write(owner=txn.txn_id)
        except TransactionError:
            # Don't leak an ACTIVE autocommit transaction when the lock
            # can't be acquired — roll it back before propagating.
            txn.rollback()
            raise
        txn.write_locks[key] = lock
        txn.refresh_snapshot()
        return txn, True

    # -- bulk loading ----------------------------------------------------------

    def insert_rows(self, table_name: str, rows: Iterable[Sequence[Any]]) -> int:
        """Bulk insert through the normal constraint path."""
        return self.database.executor.insert_rows(table_name, list(rows), self)
