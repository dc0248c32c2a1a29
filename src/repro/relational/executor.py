"""Statement execution: DML, DDL, grants, and SELECT orchestration.

The executor sits between the public :class:`~repro.relational.database.Database`
API and the planner.  It is responsible for privilege checks, table
locking (readers-writer, acquired in sorted name order to avoid
deadlocks), constraint enforcement that spans tables (foreign keys),
and producing :class:`ResultSet` objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator, Sequence

from ..obs import metrics as obs_metrics
from ..obs import tracing
from . import sql_ast as A
from .catalog import View
from .errors import (
    CatalogError,
    ConstraintViolationError,
    ExecutionError,
    SqlSyntaxError,
)
from .expressions import Scope, split_conjuncts
from .planner import ExecContext, PlannedSelect, Planner, TableScanNode
from .schema import Column, ForeignKey, TableSchema


@dataclass
class ResultSet:
    """The outcome of a statement: column names + row tuples, or a
    row-count for DML/DDL."""

    columns: list[str]
    rows: list[tuple]
    rowcount: int = -1

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def scalar(self) -> Any:
        """First column of the first row (for COUNT(*)-style queries)."""
        if not self.rows:
            return None
        return self.rows[0][0]

    @staticmethod
    def from_count(count: int) -> "ResultSet":
        return ResultSet(columns=[], rows=[], rowcount=count)


class Executor:
    def __init__(self, database: Any):
        self.database = database

    # -- dispatch ----------------------------------------------------------

    def execute(self, stmt: A.Statement, session: Any, params: Sequence[Any]) -> ResultSet:
        if isinstance(stmt, (A.SelectStmt, A.UnionStmt)):
            planned = Planner(self.database).plan_select(stmt)
            return self.run_select(planned, session, params)
        kind = type(stmt).__name__.removesuffix("Stmt").lower()
        tables = [t for t in (getattr(stmt, "table", None),) if t]
        try:
            self._before_statement(kind, tables, session)
            return self._dispatch_dml(stmt, session, params)
        except Exception as exc:
            self._note_error(exc, kind)
            raise

    def _dispatch_dml(self, stmt: A.Statement, session: Any, params: Sequence[Any]) -> ResultSet:
        if isinstance(stmt, A.InsertStmt):
            return self._insert(stmt, session, params)
        if isinstance(stmt, A.UpdateStmt):
            return self._update(stmt, session, params)
        if isinstance(stmt, A.DeleteStmt):
            return self._delete(stmt, session, params)
        if isinstance(stmt, A.CreateTableStmt):
            return self._create_table(stmt, session)
        if isinstance(stmt, A.CreateViewStmt):
            return self._create_view(stmt, session)
        if isinstance(stmt, A.CreateIndexStmt):
            return self._create_index(stmt, session)
        if isinstance(stmt, A.AlterTableAddColumnStmt):
            return self._alter_add_column(stmt, session)
        if isinstance(stmt, A.DropStmt):
            return self._drop(stmt, session)
        if isinstance(stmt, A.GrantStmt):
            self.database.access.grant(stmt.privileges, stmt.table, stmt.user)
            self._log_ddl(
                {
                    "op": "grant",
                    "privs": list(stmt.privileges),
                    "tb": stmt.table,
                    "user": stmt.user,
                }
            )
            return ResultSet.from_count(0)
        if isinstance(stmt, A.RevokeStmt):
            self.database.access.revoke(stmt.privileges, stmt.table, stmt.user)
            self._log_ddl(
                {
                    "op": "revoke",
                    "privs": list(stmt.privileges),
                    "tb": stmt.table,
                    "user": stmt.user,
                }
            )
            return ResultSet.from_count(0)
        raise SqlSyntaxError(f"unsupported statement type {type(stmt).__name__}")

    # -- SELECT -----------------------------------------------------------

    def run_select(
        self, planned: PlannedSelect, session: Any, params: Sequence[Any]
    ) -> ResultSet:
        # Readers take no table locks: MVCC snapshots give them a
        # consistent view without blocking on writers — the property
        # behind Db2's concurrent-query strength the paper leans on.
        try:
            self._check_access(planned.accessed, session)
            self._before_statement(
                "select", [name for name, _priv in planned.accessed], session
            )
            ctx = session.exec_context(params)
            rows = list(planned.root.rows(ctx))
        except Exception as exc:
            self._note_error(exc, "select")
            raise
        return ResultSet(columns=list(planned.output_names), rows=rows, rowcount=len(rows))

    # -- resilience hooks ---------------------------------------------------

    def _before_statement(self, kind: str, tables: Sequence[str], session: Any) -> None:
        """Chaos hook: give an installed fault injector the chance to
        fail or delay this statement (session-level wins over database)."""
        injector = getattr(session, "fault_injector", None)
        if injector is None:
            injector = self.database.fault_injector
        if injector is not None:
            injector.on_statement(
                kind,
                tables,
                registry=self.database.obs_registry,
                trace=self.database.obs_trace,
            )

    def _note_error(self, exc: Exception, kind: str) -> None:
        """Count/trace a statement failure exactly once per exception —
        nested statements (INSERT .. SELECT) re-raise the same instance."""
        if getattr(exc, "_obs_noted", False):
            return
        try:
            exc._obs_noted = True  # type: ignore[attr-defined]
        except AttributeError:
            pass
        self.database.obs_registry.counter(obs_metrics.SQL_ERRORS).increment()
        self.database.obs_trace.emit(
            tracing.SQL_ERROR, error=type(exc).__name__, statement=kind
        )

    def _check_access(self, accessed: list[tuple[str, str]], session: Any) -> None:
        for name, privilege in accessed:
            owner = self._owner_of(name)
            self.database.access.check(session.user, privilege, name, owner)

    def _owner_of(self, name: str) -> str | None:
        catalog = self.database.catalog
        if catalog.has_table(name):
            return catalog.get_table(name).owner
        if catalog.has_view(name):
            return catalog.get_view(name).owner
        return None

    # -- INSERT -----------------------------------------------------------

    def _insert(self, stmt: A.InsertStmt, session: Any, params: Sequence[Any]) -> ResultSet:
        table = self.database.catalog.get_table(stmt.table)
        self.database.access.check(session.user, "INSERT", table.name, table.owner)
        schema = table.schema

        if stmt.columns is not None:
            for col in stmt.columns:
                schema.require_column(col)
            positions = [schema.column_position(c) for c in stmt.columns]
        else:
            positions = list(range(len(schema.columns)))

        rows_to_insert: list[tuple] = []
        if stmt.rows is not None:
            scope = Scope([])
            ctx = session.exec_context(params)
            for value_row in stmt.rows:
                if len(value_row) != len(positions):
                    raise ConstraintViolationError(
                        f"INSERT expects {len(positions)} values, got {len(value_row)}"
                    )
                values = [expr.compile(scope)((), ctx) for expr in value_row]
                rows_to_insert.append(self._widen(values, positions, schema))
        elif stmt.select is not None:
            planned = Planner(self.database).plan_select(stmt.select)
            result = self.run_select(planned, session, params)
            for row in result.rows:
                if len(row) != len(positions):
                    raise ConstraintViolationError(
                        f"INSERT expects {len(positions)} values, got {len(row)}"
                    )
                rows_to_insert.append(self._widen(list(row), positions, schema))
        else:
            raise SqlSyntaxError("INSERT requires VALUES or SELECT")

        return self._insert_rows(table, rows_to_insert, session)

    def insert_rows(self, table_name: str, rows: list[Sequence[Any]], session: Any) -> int:
        """Bulk API used by loaders — same constraint path as SQL INSERT."""
        table = self.database.catalog.get_table(table_name)
        self.database.access.check(session.user, "INSERT", table.name, table.owner)
        return self._insert_rows(table, [tuple(r) for r in rows], session).rowcount

    def _insert_rows(self, table: Any, rows: list[tuple], session: Any) -> ResultSet:
        txn, own = session.write_transaction(table.name)
        try:
            for values in rows:
                coerced = table.schema.coerce_row(values)
                self._check_foreign_keys(table.schema, coerced, session, txn)
                table.storage.insert(coerced, txn)
            if own:
                txn.commit()
        except Exception:
            if own:
                txn.rollback()
            raise
        return ResultSet.from_count(len(rows))

    @staticmethod
    def _widen(values: list[Any], positions: list[int], schema: TableSchema) -> tuple:
        full: list[Any] = [None] * len(schema.columns)
        for pos, value in zip(positions, values):
            full[pos] = value
        return tuple(full)

    # -- UPDATE -----------------------------------------------------------

    def _update(self, stmt: A.UpdateStmt, session: Any, params: Sequence[Any]) -> ResultSet:
        table = self.database.catalog.get_table(stmt.table)
        self.database.access.check(session.user, "UPDATE", table.name, table.owner)
        schema = table.schema
        assign_positions = [schema.column_position(c) for c, _e in stmt.assignments]

        txn, own = session.write_transaction(table.name)
        try:
            # Planned under the write lock, so the index it probes cannot
            # be dropped before it runs.
            scan = TableScanNode(table, stmt.table, split_conjuncts(stmt.where), None)
            scope = scan.scope()
            assign_fns = [expr.compile(scope) for _c, expr in stmt.assignments]
            ctx = session.exec_context(params, txn)
            matches = scan.matches(ctx)

            for rowid, values in matches:
                new_values = list(values)
                for pos, fn in zip(assign_positions, assign_fns):
                    new_values[pos] = fn(values, ctx)
                coerced = schema.coerce_row(new_values)
                self._check_foreign_keys(schema, coerced, session, txn)
                self._check_not_referenced(
                    table, values, session, txn, changing_to=coerced
                )
                table.storage.update(rowid, coerced, txn)
            if own:
                txn.commit()
        except Exception:
            if own:
                txn.rollback()
            raise
        return ResultSet.from_count(len(matches))

    # -- DELETE -----------------------------------------------------------

    def _delete(self, stmt: A.DeleteStmt, session: Any, params: Sequence[Any]) -> ResultSet:
        table = self.database.catalog.get_table(stmt.table)
        self.database.access.check(session.user, "DELETE", table.name, table.owner)

        txn, own = session.write_transaction(table.name)
        try:
            scan = TableScanNode(table, stmt.table, split_conjuncts(stmt.where), None)
            matches = scan.matches(session.exec_context(params, txn))

            for rowid, values in matches:
                self._check_not_referenced(table, values, session, txn, changing_to=None)
                table.storage.delete(rowid, txn)
            if own:
                txn.commit()
        except Exception:
            if own:
                txn.rollback()
            raise
        return ResultSet.from_count(len(matches))

    # -- foreign keys -------------------------------------------------------

    def _check_foreign_keys(
        self, schema: TableSchema, row: tuple, session: Any, txn: Any
    ) -> None:
        if not self.database.enforce_foreign_keys:
            return
        for fk in schema.foreign_keys:
            key = schema.key_of(row, fk.columns)
            if any(part is None for part in key):
                continue
            ref_table = self.database.catalog.get_table(fk.ref_table)
            if not self._key_exists(ref_table, fk.ref_columns, key, txn):
                raise ConstraintViolationError(
                    f"foreign key violation: {schema.name}{tuple(fk.columns)} = "
                    f"{key!r} not found in {fk.ref_table}{tuple(fk.ref_columns)}"
                )

    def _check_not_referenced(
        self, table: Any, row: tuple, session: Any, txn: Any, changing_to: tuple | None
    ) -> None:
        """RESTRICT semantics: block delete/key-change of a referenced row."""
        if not self.database.enforce_foreign_keys:
            return
        schema = table.schema
        if not schema.has_primary_key:
            return
        old_key = schema.key_of(row, schema.primary_key)
        if changing_to is not None:
            new_key = schema.key_of(changing_to, schema.primary_key)
            if new_key == old_key:
                return  # key unchanged; no dangling references possible
        for other in self.database.catalog.tables():
            for fk in other.schema.foreign_keys:
                if fk.ref_table.lower() != schema.name.lower():
                    continue
                if tuple(c.lower() for c in fk.ref_columns) != tuple(
                    c.lower() for c in schema.primary_key
                ):
                    continue
                if self._key_exists(other, fk.columns, old_key, txn):
                    raise ConstraintViolationError(
                        f"row {old_key!r} of {schema.name!r} is referenced by "
                        f"{other.schema.name!r}"
                    )

    @staticmethod
    def _key_exists(table: Any, columns: Sequence[str], key: tuple, txn: Any) -> bool:
        # The batch pass directly, not a planned TableScanNode: one runs
        # per inserted row with a foreign key, and planning would
        # dominate a bulk load.
        storage = table.storage
        index = storage.index_on(columns)
        rowids = None if index is None else list(index.lookup(key))
        _rowids, rows = storage.visible_rows(txn.snapshot_csn, txn.txn_id, rowids=rowids)
        return any(table.schema.key_of(values, columns) == key for values in rows)

    # -- DDL --------------------------------------------------------------

    def _log_ddl(self, record: dict) -> None:
        """WAL a successful DDL statement (no-op without durability).

        DDL autocommits, so each record flushes immediately; recovery
        replays them in log order interleaved with the DML groups.
        """
        durability = self.database.durability
        if durability is not None:
            durability.log_ddl(record)

    def _create_table(self, stmt: A.CreateTableStmt, session: Any) -> ResultSet:
        columns = [Column(c.name, c.sql_type, c.nullable) for c in stmt.columns]
        fks = [
            ForeignKey(tuple(fk.columns), fk.ref_table, tuple(fk.ref_columns))
            for fk in stmt.foreign_keys
        ]
        schema = TableSchema(
            stmt.name, columns, stmt.primary_key, fks, [tuple(u) for u in stmt.unique]
        )
        self.database.catalog.create_table(schema, owner=session.user)
        self.database.bump_ddl_generation()
        if self.database.durability is not None:
            from ..durability.checkpoint import serialize_schema

            self._log_ddl(
                {
                    "op": "create_table",
                    "schema": serialize_schema(schema),
                    "owner": session.user,
                }
            )
        return ResultSet.from_count(0)

    def _create_view(self, stmt: A.CreateViewStmt, session: Any) -> ResultSet:
        # Validate the view body by planning it once.
        planned = Planner(self.database).plan_select(stmt.select)
        view = View(
            stmt.name,
            stmt.select,
            owner=session.user,
            sql_text=getattr(stmt, "source_sql", "") or "",
        )
        view.columns = planned.output_names
        self.database.catalog.create_view(view, or_replace=stmt.or_replace)
        self.database.bump_ddl_generation()
        if view.sql_text:
            # Views replay from their original statement text; a view
            # built from a hand-constructed AST has none and is simply
            # not durable.
            self._log_ddl(
                {
                    "op": "create_view",
                    "name": stmt.name,
                    "sql": view.sql_text,
                    "owner": session.user,
                }
            )
        return ResultSet.from_count(0)

    def _create_index(self, stmt: A.CreateIndexStmt, session: Any) -> ResultSet:
        table = self.database.catalog.get_table(stmt.table)
        table.lock.acquire_write()
        try:
            self.database.catalog.create_index(
                stmt.name, stmt.table, stmt.columns, stmt.kind, stmt.unique
            )
        finally:
            table.lock.release_write()
        self.database.bump_ddl_generation()
        self._log_ddl(
            {
                "op": "create_index",
                "name": stmt.name,
                "table": stmt.table,
                "columns": list(stmt.columns),
                "kind": stmt.kind,
                "unique": stmt.unique,
            }
        )
        return ResultSet.from_count(0)

    def _alter_add_column(self, stmt: A.AlterTableAddColumnStmt, session: Any) -> ResultSet:
        table = self.database.catalog.get_table(stmt.table)
        column = Column(stmt.column.name, stmt.column.sql_type, nullable=True)
        table.lock.acquire_write()
        try:
            table.storage.add_column(column)
            table.schema = table.storage.schema
        finally:
            table.lock.release_write()
        self.database.bump_ddl_generation()
        if self.database.durability is not None:
            from ..durability.checkpoint import serialize_type

            self._log_ddl(
                {
                    "op": "add_column",
                    "tb": stmt.table,
                    "column": [column.name, *serialize_type(column.sql_type), True],
                }
            )
        return ResultSet.from_count(0)

    def _drop(self, stmt: A.DropStmt, session: Any) -> ResultSet:
        if stmt.kind == "TABLE":
            self.database.catalog.drop_table(stmt.name, stmt.if_exists)
        elif stmt.kind == "VIEW":
            self.database.catalog.drop_view(stmt.name, stmt.if_exists)
        elif stmt.kind == "INDEX":
            self.database.catalog.drop_index(stmt.name, stmt.if_exists)
        else:
            raise SqlSyntaxError(f"unsupported DROP {stmt.kind}")
        self.database.bump_ddl_generation()
        self._log_ddl({"op": "drop", "kind": stmt.kind, "name": stmt.name})
        return ResultSet.from_count(0)
