"""The SQL Dialect module (paper §6, Figure 3).

Generates every SQL statement the Graph Structure module needs,
parameterized so that repeated query *shapes* hit the relational
engine's prepared-statement cache ("pre-compiled SQL templates for
these frequent patterns", §6.1).  It also tracks which (table,
predicate-columns) patterns occur frequently and suggests — or creates
— indexes for them, playing the role of the paper's hints to the Db2
index advisor.
"""

from __future__ import annotations

import itertools
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Iterable, Iterator, Sequence

from ..graph.predicates import P
from ..obs import metrics as M
from ..obs import tracing
from ..obs.metrics import MetricsRegistry
from ..obs.tracing import NULL_RECORDER, TraceRecorder
from ..relational.database import Connection
from ..relational.errors import CatalogError
from ..resilience.budget import BudgetTracker
from ..resilience.retry import RetryPolicy


@dataclass(frozen=True)
class SqlPredicate:
    """One WHERE conjunct: ``column op values``.

    ``batch=True`` marks an id conjunct that coalesces multiple
    traversers into one ``IN (...)`` probe — the dialect uses it to
    account batched statements (``sql.batched`` / ``batch.size``)
    without guessing from the SQL text.
    """

    column: str
    op: str  # '=', '<>', '<', '<=', '>', '>=', 'IN', 'NOT IN', 'IS NULL', 'IS NOT NULL'
    values: tuple[Any, ...] = ()
    batch: bool = False

    def render(self) -> tuple[str, list[Any]]:
        if self.op in ("IS NULL", "IS NOT NULL"):
            return f"{self.column} {self.op}", []
        if self.op in ("IN", "NOT IN"):
            holes = ", ".join("?" for _ in self.values)
            return f"{self.column} {self.op} ({holes})", list(self.values)
        return f"{self.column} {self.op} ?", [self.values[0]]

    def shape(self) -> str:
        """Value-free fingerprint for pattern tracking."""
        if self.op in ("IN", "NOT IN"):
            return f"{self.column.lower()} {self.op}[{len(self.values)}]"
        return f"{self.column.lower()} {self.op}"


def predicate_to_sql(column: str, predicate: P) -> list[SqlPredicate] | None:
    """Translate a Gremlin predicate to SQL conjuncts; ``None`` when the
    predicate has no clean SQL form (caller falls back to in-memory)."""
    from ..graph.predicates import TextP

    if isinstance(predicate, TextP):
        return _text_predicate_to_sql(column, predicate)
    op = predicate.op
    if op == "eq":
        if predicate.value is None:
            return [SqlPredicate(column, "IS NULL")]
        return [SqlPredicate(column, "=", (predicate.value,))]
    if op == "neq":
        if predicate.value is None:
            return [SqlPredicate(column, "IS NOT NULL")]
        return [SqlPredicate(column, "<>", (predicate.value,))]
    if op == "gt":
        return [SqlPredicate(column, ">", (predicate.value,))]
    if op == "gte":
        return [SqlPredicate(column, ">=", (predicate.value,))]
    if op == "lt":
        return [SqlPredicate(column, "<", (predicate.value,))]
    if op == "lte":
        return [SqlPredicate(column, "<=", (predicate.value,))]
    if op == "within":
        if not predicate.value:
            return None
        return [SqlPredicate(column, "IN", tuple(predicate.value))]
    if op == "without":
        if not predicate.value:
            return None
        return [SqlPredicate(column, "NOT IN", tuple(predicate.value))]
    if op == "between":
        return [
            SqlPredicate(column, ">=", (predicate.value,)),
            SqlPredicate(column, "<", (predicate.other,)),
        ]
    if op == "inside":
        return [
            SqlPredicate(column, ">", (predicate.value,)),
            SqlPredicate(column, "<", (predicate.other,)),
        ]
    return None  # 'outside' needs OR — evaluated in memory


def _text_predicate_to_sql(column: str, predicate: "P") -> list[SqlPredicate] | None:
    """TextP -> LIKE.  Operands containing LIKE wildcards fall back to
    in-memory evaluation (our LIKE has no ESCAPE clause)."""
    operand = predicate.value
    if not isinstance(operand, str) or "%" in operand or "_" in operand:
        return None
    patterns = {
        "startingWith": (f"{operand}%", "LIKE"),
        "endingWith": (f"%{operand}", "LIKE"),
        "containing": (f"%{operand}%", "LIKE"),
        "notStartingWith": (f"{operand}%", "NOT LIKE"),
        "notEndingWith": (f"%{operand}", "NOT LIKE"),
        "notContaining": (f"%{operand}%", "NOT LIKE"),
    }
    entry = patterns.get(predicate.op)
    if entry is None:
        return None
    pattern, op = entry
    return [SqlPredicate(column, op, (pattern,))]


class FrequentPatternTracker:
    """Counts query shapes; shapes above a threshold are *frequent*
    (paper §6.1) and drive index suggestions."""

    def __init__(self, threshold: int = 16):
        self.threshold = threshold
        self._counts: dict[tuple[str, tuple[str, ...]], int] = {}
        self._lock = threading.Lock()

    def record(self, table: str, predicates: Sequence[SqlPredicate]) -> None:
        equality_columns = tuple(
            sorted(p.column.lower() for p in predicates if p.op in ("=", "IN"))
        )
        if not equality_columns:
            return
        key = (table.lower(), equality_columns)
        with self._lock:
            self._counts[key] = self._counts.get(key, 0) + 1

    def frequent_patterns(self) -> list[tuple[str, tuple[str, ...], int]]:
        with self._lock:
            return sorted(
                (
                    (table, columns, count)
                    for (table, columns), count in self._counts.items()
                    if count >= self.threshold
                ),
                key=lambda item: -item[2],
            )

    def clear(self) -> None:
        with self._lock:
            self._counts.clear()


class SqlDialect:
    def __init__(
        self,
        connection: Connection,
        pattern_threshold: int = 16,
        use_prepared: bool = True,
        registry: MetricsRegistry | None = None,
        recorder: TraceRecorder | None = None,
        retry_policy: RetryPolicy | None = None,
        cache: Any = None,
    ):
        self.connection = connection
        # Optional GraphCache (repro.cache): consulted by select() before
        # issuing SQL, filled only after a successful statement.
        self.cache = cache
        self.registry = registry if registry is not None else MetricsRegistry()
        self.trace = recorder if recorder is not None else NULL_RECORDER
        # Pre-bound counter cells: one locked increment per event, no
        # registry lookup on the hot path.
        self._queries_counter = self.registry.counter(M.SQL_QUERIES)
        self._rows_counter = self.registry.counter(M.SQL_ROWS)
        self._prepared_counter = self.registry.counter(M.SQL_PREPARED_HITS)
        self._batched_counter = self.registry.counter(M.SQL_BATCHED)
        self._batch_ids_counter = self.registry.counter(M.BATCH_IDS)
        # Stable per-dialect statement ids: concurrent traversals on one
        # graph interleave trace events, so every sql.* event carries the
        # id assigned at build time (itertools.count is atomic under the
        # GIL).
        self._statement_ids = itertools.count(1)
        self.tracker = FrequentPatternTracker(pattern_threshold)
        self.log: list[str] | None = None  # set to [] to capture generated SQL
        # use_prepared=False re-parses/re-plans every statement — the
        # ablation of the paper's pre-compiled SQL templates (§6.1)
        self.use_prepared = use_prepared
        # Per-statement retry of transient engine errors (None = fail fast).
        self.retry_policy = retry_policy
        # Budget checkpoints: the active BudgetTracker is thread-local
        # because one dialect serves every concurrent traversal on this
        # graph, each with its own budget (activated around execution).
        self._budget = threading.local()

    # -- budgets -----------------------------------------------------------------

    @contextmanager
    def budget_scope(self, tracker: BudgetTracker | None) -> Iterator[None]:
        """Make ``tracker`` the budget for SQL issued on this thread."""
        previous = getattr(self._budget, "tracker", None)
        self._budget.tracker = tracker
        try:
            yield
        finally:
            self._budget.tracker = previous

    @property
    def active_budget(self) -> BudgetTracker | None:
        return getattr(self._budget, "tracker", None)

    # -- statement building ------------------------------------------------------

    @staticmethod
    def build_select(
        table: str,
        columns: Sequence[str] | None,
        predicates: Sequence[SqlPredicate] = (),
        aggregate: tuple[str, str | None] | None = None,
    ) -> tuple[str, list[Any]]:
        """Return (sql, params) for one table query.

        ``aggregate`` is ``(kind, column)`` with kinds ``count``,
        ``sum``, ``min``, ``max``, or ``sum_count`` (for distributed
        means across tables).
        """
        if aggregate is not None:
            kind, agg_column = aggregate
            if kind == "count":
                select_list = "COUNT(*)"
            elif kind == "sum_count":
                select_list = f"SUM({agg_column}), COUNT({agg_column})"
            elif kind in ("sum", "min", "max"):
                select_list = f"{kind.upper()}({agg_column})"
            else:
                raise CatalogError(f"unknown aggregate kind {kind!r}")
        elif columns:
            select_list = ", ".join(columns)
        else:
            select_list = "*"
        sql = f"SELECT {select_list} FROM {table}"
        params: list[Any] = []
        if predicates:
            fragments = []
            for predicate in predicates:
                fragment, values = predicate.render()
                fragments.append(fragment)
                params.extend(values)
            sql += " WHERE " + " AND ".join(fragments)
        return sql, params

    # -- execution -----------------------------------------------------------------

    def select(
        self,
        table: str,
        columns: Sequence[str] | None,
        predicates: Sequence[SqlPredicate] = (),
        aggregate: tuple[str, str | None] | None = None,
    ) -> tuple[Sequence[str], Sequence[tuple]]:
        """Run a generated query: ``(keys, row_tuples)``, the lowercase
        column names and one value tuple per row in that column order.
        Callers build what they need from the tuples (dicts, elements,
        bare endpoint ids)."""
        sql, params = self.build_select(table, columns, predicates, aggregate)
        ticket = None
        if self.cache is not None:
            status, payload = self.cache.lookup_statement(
                self.connection, table, sql, tuple(params)
            )
            if status == "hit":
                keys, row_tuples = payload
                budget = self.active_budget
                if budget is not None:
                    # A hit skips the statement checkpoint (no SQL was
                    # issued) but still counts rows and honors the
                    # deadline — materialized data is materialized data.
                    budget.note_rows(len(row_tuples))
                    budget.check_deadline()
                # Cached rows are tuples: handing them out cannot alias
                # mutable traversal state.
                return keys, row_tuples
            if status == "miss":
                ticket = payload
        statement_id = next(self._statement_ids)
        if self.log is not None:
            self.log.append(sql)
        if aggregate is None:
            self.tracker.record(table, predicates)
        # Traverser batching: an id conjunct carrying >1 coalesced ids
        # means this one statement does the work of `size` per-traverser
        # probes — count it and record how many ids it carried.
        batch_size = max(
            (len(p.values) for p in predicates if p.batch and p.op == "IN"),
            default=0,
        )
        if batch_size > 1:
            self._batched_counter.increment()
            self._batch_ids_counter.increment(batch_size)
            self.trace.emit(
                tracing.SQL_BATCHED,
                statement_id=statement_id,
                table=table,
                size=batch_size,
            )
        budget = self.active_budget
        if budget is not None:
            budget.note_sql()  # cancellation checkpoint at every SQL issue
        traced = self.trace.enabled
        executed = perf_counter() if traced else 0.0
        result = self._run_statement(sql, params)
        elapsed = perf_counter() - executed if traced else None
        self._queries_counter.increment()
        self._rows_counter.increment(len(result.rows))
        if budget is not None:
            budget.note_rows(len(result.rows))
        if traced:
            self.trace.emit(
                tracing.SQL_ISSUED,
                seconds=elapsed,
                sql=sql,
                params=list(params),
                rows=len(result.rows),
                kind="select",
                statement_id=statement_id,
            )
        keys = [c.lower() for c in result.columns]
        if ticket is not None:
            # Fill only after the statement (and any retries) succeeded:
            # injected faults and exhausted retries never poison an entry.
            self.cache.store(
                ticket,
                (tuple(keys), tuple(tuple(row) for row in result.rows)),
            )
        return keys, result.rows

    def _run_statement(self, sql: str, params: Sequence[Any], count_hits: bool = True):
        """Execute one statement, retrying transient engine errors under
        the configured policy.  Prepared-cache hits are recorded only on
        the successful attempt so retries don't inflate the counter."""

        def attempt():
            if self.use_prepared:
                prepared = self.connection.prepare(sql)
                # nth is claimed atomically with the execution: exactly
                # one concurrent caller sees 0 (the compile), everyone
                # else is a genuine cache hit.
                result, nth = prepared.execute_counted(self.connection, params)
                return result, nth >= 1
            return self.connection.execute(sql, params), False

        policy = self.retry_policy
        if policy is None:
            result, hit = attempt()
        else:
            result, hit = policy.run(attempt, registry=self.registry, trace=self.trace)
        if count_hits and hit:
            self._prepared_counter.increment()
        return result

    def aggregate_value(
        self,
        table: str,
        kind: str,
        column: str | None,
        predicates: Sequence[SqlPredicate] = (),
    ) -> Any:
        _keys, rows = self.select(table, None, predicates, aggregate=(kind, column))
        return rows[0][0] if rows else None

    def sum_and_count(
        self, table: str, column: str, predicates: Sequence[SqlPredicate] = ()
    ) -> tuple[float, int]:
        _keys, rows = self.select(table, None, predicates, aggregate=("sum_count", column))
        total, count = rows[0][:2]
        return (total or 0, count or 0)

    def insert(self, table: str, columns: Sequence[str], values: Sequence[Any]) -> None:
        """Parameterized INSERT (used by graph mutation steps: addV/addE
        translate straight to SQL, so they ride the same transaction as
        any other statement on the connection)."""
        column_list = ", ".join(columns)
        holes = ", ".join("?" for _ in columns)
        sql = f"INSERT INTO {table} ({column_list}) VALUES ({holes})"
        statement_id = next(self._statement_ids)
        if self.log is not None:
            self.log.append(sql)
        timed = self.trace.enabled
        budget = self.active_budget
        if budget is not None:
            budget.note_sql()
        started = perf_counter() if timed else 0.0
        self._run_statement(sql, list(values), count_hits=False)
        self._queries_counter.increment()
        if timed:
            self.trace.emit(
                tracing.SQL_ISSUED,
                seconds=perf_counter() - started,
                sql=sql,
                params=list(values),
                rows=0,
                kind="insert",
                statement_id=statement_id,
            )

    # -- index advisor -----------------------------------------------------------------

    def suggest_indexes(self) -> list[tuple[str, tuple[str, ...]]]:
        """Frequent patterns whose equality columns have no index yet."""
        suggestions: list[tuple[str, tuple[str, ...]]] = []
        catalog = self.connection.database.catalog
        for table, columns, _count in self.tracker.frequent_patterns():
            if not catalog.has_table(table):
                continue  # views cannot be indexed
            storage = catalog.get_table(table).storage
            if storage.index_on(columns) is None:
                suggestions.append((table, columns))
        return suggestions

    def create_suggested_indexes(self) -> list[str]:
        """Act on the advisor's suggestions; returns created index names."""
        created: list[str] = []
        for table, columns in self.suggest_indexes():
            name = f"advisor_{table}_{'_'.join(columns)}".lower()
            if self.connection.database.catalog.has_index(name):
                continue
            column_list = ", ".join(columns)
            self.connection.execute(f"CREATE INDEX {name} ON {table} ({column_list})")
            created.append(name)
        return created
