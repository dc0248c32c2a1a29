"""The system catalog: tables, views, indexes, table functions.

The catalog is the metadata backbone of the whole reproduction: the
graph overlay validates its configuration against it (paper §5) and the
AutoOverlay toolkit reads primary/foreign keys from it to generate
overlays (paper §5.1, "AutoOverlay first queries Db2 catalog to get all
the metadata information").
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Iterable

from .errors import CatalogError
from .index import Index, make_index
from .schema import TableSchema
from .sql_ast import SelectStmt
from .storage import TableStorage
from .transactions import LockManager, RWLock


class Table:
    """A catalog entry pairing a schema, storage, and a table lock."""

    def __init__(self, schema: TableSchema, owner: str, lock_manager: LockManager | None = None):
        self.schema = schema
        self.storage = TableStorage(schema)
        self.lock = RWLock(schema.name, manager=lock_manager)
        self.owner = owner

    @property
    def name(self) -> str:
        return self.schema.name


class View:
    """A non-materialized view: a stored SELECT statement.

    The paper leans on views for overlay flexibility — e.g. deriving new
    edge types by joining two existing edge tables (§5, "A Surprising
    Benefit") — so views are first-class overlay citizens here.
    """

    def __init__(self, name: str, select: SelectStmt, owner: str, sql_text: str = ""):
        self.name = name
        self.select = select
        self.owner = owner
        self.sql_text = sql_text
        # Filled in lazily by the planner on first use: column metadata.
        self.columns: list[str] | None = None


class Catalog:
    def __init__(self, lock_manager: LockManager | None = None) -> None:
        # One shared LockManager per database gives its table locks a
        # consistent wait-for graph for deadlock detection; a standalone
        # Catalog still works (each lock gets a private manager).
        self.lock_manager = lock_manager
        self._tables: dict[str, Table] = {}
        self._views: dict[str, View] = {}
        self._indexes: dict[str, str] = {}  # index name -> table name
        self._functions: dict[str, Callable[..., Iterable[tuple]]] = {}
        self._lock = threading.Lock()

    # -- tables -----------------------------------------------------------

    def create_table(self, schema: TableSchema, owner: str = "admin") -> Table:
        key = schema.name.lower()
        with self._lock:
            if key in self._tables or key in self._views:
                raise CatalogError(f"relation {schema.name!r} already exists")
            for fk in schema.foreign_keys:
                ref = self._tables.get(fk.ref_table.lower())
                if ref is None:
                    raise CatalogError(
                        f"foreign key references unknown table {fk.ref_table!r}"
                    )
                for col in fk.ref_columns:
                    ref.schema.require_column(col)
            table = Table(schema, owner, self.lock_manager)
            self._tables[key] = table
            if schema.has_primary_key:
                self._indexes[f"pk_{schema.name}".lower()] = key
            return table

    def drop_table(self, name: str, if_exists: bool = False) -> None:
        key = name.lower()
        with self._lock:
            if key not in self._tables:
                if if_exists:
                    return
                raise CatalogError(f"unknown table {name!r}")
            referencing = [
                t.name
                for t in self._tables.values()
                if t.name.lower() != key
                and any(fk.ref_table.lower() == key for fk in t.schema.foreign_keys)
            ]
            if referencing:
                raise CatalogError(
                    f"table {name!r} is referenced by foreign keys from {referencing}"
                )
            table = self._tables.pop(key)
            for index_name in list(table.storage.indexes):
                self._indexes.pop(index_name, None)

    def get_table(self, name: str) -> Table:
        table = self._tables.get(name.lower())
        if table is None:
            raise CatalogError(f"unknown table {name!r}")
        return table

    def has_table(self, name: str) -> bool:
        return name.lower() in self._tables

    def table_names(self) -> list[str]:
        return sorted(t.name for t in self._tables.values())

    def tables(self) -> list[Table]:
        return [self._tables[k] for k in sorted(self._tables)]

    def tables_in_creation_order(self) -> list[Table]:
        """Tables in the order they were created.

        Creation order is foreign-key-consistent by construction (a
        table can only reference tables that already exist), which is
        exactly what checkpoint capture/restore needs.
        """
        return list(self._tables.values())

    def views_in_creation_order(self) -> list[View]:
        return list(self._views.values())

    # -- views ------------------------------------------------------------

    def create_view(self, view: View, or_replace: bool = False) -> None:
        key = view.name.lower()
        with self._lock:
            if key in self._tables:
                raise CatalogError(f"relation {view.name!r} already exists as a table")
            if key in self._views and not or_replace:
                raise CatalogError(f"view {view.name!r} already exists")
            self._views[key] = view

    def drop_view(self, name: str, if_exists: bool = False) -> None:
        key = name.lower()
        with self._lock:
            if key not in self._views:
                if if_exists:
                    return
                raise CatalogError(f"unknown view {name!r}")
            del self._views[key]

    def get_view(self, name: str) -> View:
        view = self._views.get(name.lower())
        if view is None:
            raise CatalogError(f"unknown view {name!r}")
        return view

    def has_view(self, name: str) -> bool:
        return name.lower() in self._views

    def view_names(self) -> list[str]:
        return sorted(v.name for v in self._views.values())

    # -- indexes ----------------------------------------------------------

    def create_index(
        self,
        name: str,
        table_name: str,
        columns: list[str],
        kind: str = "hash",
        unique: bool = False,
    ) -> Index:
        key = name.lower()
        table = self.get_table(table_name)
        with self._lock:
            if key in self._indexes:
                raise CatalogError(f"index {name!r} already exists")
            for col in columns:
                table.schema.require_column(col)
            index = make_index(kind, key, table.name, columns, unique)
            table.storage.add_index(index)
            self._indexes[key] = table_name.lower()
            return index

    def drop_index(self, name: str, if_exists: bool = False) -> None:
        key = name.lower()
        with self._lock:
            table_key = self._indexes.get(key)
            if table_key is None:
                if if_exists:
                    return
                raise CatalogError(f"unknown index {name!r}")
            table = self._tables.get(table_key)
            if table is not None:
                table.storage.drop_index(key)
            del self._indexes[key]

    def has_index(self, name: str) -> bool:
        return name.lower() in self._indexes

    # -- table functions ----------------------------------------------------

    def register_function(self, name: str, func: Callable[..., Iterable[tuple]]) -> None:
        """Register a polymorphic table function (paper §4: graphQuery).

        ``func`` is called as ``func(session, *args)`` and must return an
        iterable of row tuples.
        """
        self._functions[name.lower()] = func

    def get_function(self, name: str) -> Callable[..., Iterable[tuple]]:
        func = self._functions.get(name.lower())
        if func is None:
            raise CatalogError(f"unknown table function {name!r}")
        return func
