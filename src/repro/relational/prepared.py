"""Prepared statements and the statement cache.

Preparing parses (and for SELECT, plans) once; execution then only
binds parameters.  The paper's SQL Dialect module leans on this: it
"creates a set of pre-compiled SQL templates for these frequent
patterns and issues the corresponding prepare statements in Db2 to
avoid the SQL compilation overhead at runtime" (§6.1).

Cached plans are invalidated when DDL changes (e.g. the index advisor
creates an index), via the database's DDL generation counter.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Sequence

from . import sql_ast as A
from .executor import ResultSet
from .planner import PlannedSelect, Planner
from .sql_parser import parse_statement


class PreparedStatement:
    def __init__(self, database: Any, sql: str):
        self.database = database
        self.sql = sql
        self.statement = parse_statement(sql)
        self._plan: PlannedSelect | None = None
        self._plan_generation = -1
        self._lock = threading.Lock()
        self.executions = 0

    def execute(self, session: Any, params: Sequence[Any] = ()) -> ResultSet:
        return self.execute_counted(session, params)[0]

    def execute_counted(self, session: Any, params: Sequence[Any] = ()) -> tuple[ResultSet, int]:
        """``execute()`` plus the 0-based index of this execution.

        The index is claimed atomically with the increment, so under
        concurrent execution exactly one caller observes index 0 — the
        race-free way to count prepared-statement reuse (a post-hoc
        ``executions >= 1`` check can see another thread's increment
        and double-count the compile)."""
        with self._lock:
            nth = self.executions
            self.executions += 1
        if isinstance(self.statement, (A.SelectStmt, A.UnionStmt)):
            plan = self._current_plan()
            return self.database.executor.run_select(plan, session, params), nth
        return self.database.executor.execute(self.statement, session, params), nth

    def _current_plan(self) -> PlannedSelect:
        generation = self.database.ddl_generation
        with self._lock:
            if self._plan is None or self._plan_generation != generation:
                self._plan = Planner(self.database).plan_select(self.statement)
                self._plan_generation = generation
            return self._plan


class StatementCache:
    """SQL-text-keyed cache of prepared statements with LRU eviction.

    The cache lock is the only lock the relational read path takes per
    statement.  Parsing and planning a miss happen outside it.
    """

    def __init__(self, database: Any, capacity: int = 512):
        self.database = database
        self.capacity = capacity
        self._statements: OrderedDict[str, PreparedStatement] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def get(self, sql: str) -> PreparedStatement:
        with self._lock:
            prepared = self._statements.get(sql)
            if prepared is not None:
                self.hits += 1
                self._statements.move_to_end(sql)
                return prepared
            self.misses += 1
        prepared = PreparedStatement(self.database, sql)
        with self._lock:
            if sql not in self._statements:
                self._statements[sql] = prepared
                while len(self._statements) > self.capacity:
                    self._statements.popitem(last=False)
            return self._statements[sql]

    def __len__(self) -> int:
        return len(self._statements)

    def clear(self) -> None:
        with self._lock:
            self._statements.clear()
