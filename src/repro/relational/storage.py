"""Multi-version row storage for one table.

Each logical row (identified by a ``rowid``) owns a chain of
:class:`RowVersion` objects.  A version records:

* ``begin_csn`` / ``end_csn`` — commit sequence numbers bounding its
  MVCC visibility (``None`` begin = created by a still-open transaction;
  ``None`` end = current version).
* ``begin_time`` / ``end_time`` — wallclock stamps written at commit,
  powering system-time temporal (``AS OF``) scans.
* ``begin_txn`` / ``end_txn`` — the transactions that created / are
  deleting the version, for own-writes visibility and rollback.

Storage also maintains the table's secondary indexes and enforces
primary-key / unique / NOT NULL constraints.  Foreign key enforcement
needs cross-table access and therefore lives in the executor.
"""

from __future__ import annotations

import threading
from typing import Any, Iterable, Sequence

from .errors import ConstraintViolationError
from .index import HashIndex, Index
from .schema import TableSchema
from .transactions import Transaction


class RowVersion:
    __slots__ = (
        "values",
        "begin_csn",
        "end_csn",
        "begin_time",
        "end_time",
        "begin_txn",
        "end_txn",
    )

    def __init__(self, values: tuple[Any, ...], begin_txn: int):
        self.values = values
        self.begin_csn: int | None = None
        self.end_csn: int | None = None
        self.begin_time: float | None = None
        self.end_time: float | None = None
        self.begin_txn: int = begin_txn
        self.end_txn: int | None = None

    # -- commit/rollback transitions (called by TransactionManager) ------

    def commit_begin(self, csn: int, now: float) -> None:
        self.begin_csn = csn
        self.begin_time = now

    def commit_end(self, csn: int, now: float) -> None:
        self.end_csn = csn
        self.end_time = now

    def clear_end(self) -> None:
        self.end_csn = None
        self.end_time = None
        self.end_txn = None

    # -- visibility -------------------------------------------------------

    def visible_to(self, snapshot_csn: int, txn_id: int | None) -> bool:
        """MVCC visibility under ``snapshot_csn`` for ``txn_id``."""
        if self.begin_csn is not None:
            if self.begin_csn > snapshot_csn:
                return False
        elif self.begin_txn != txn_id:
            return False  # uncommitted write of another transaction
        if self.end_csn is not None:
            return self.end_csn > snapshot_csn
        if self.end_txn is not None:
            return self.end_txn != txn_id  # we deleted it ourselves
        return True

    def visible_as_of(self, timestamp: float) -> bool:
        """System-time temporal visibility at wallclock ``timestamp``.

        Only committed versions participate in temporal history.
        """
        if self.begin_time is None or self.begin_time > timestamp:
            return False
        return self.end_time is None or self.end_time > timestamp


class TableStorage:
    """Versioned storage plus index maintenance for a single table."""

    def __init__(self, schema: TableSchema):
        self.schema = schema
        self._rows: dict[int, list[RowVersion]] = {}
        self._next_rowid = 1
        self._mutate_lock = threading.Lock()
        self.indexes: dict[str, Index] = {}
        if schema.has_primary_key:
            self.add_index(
                HashIndex(
                    f"pk_{schema.name}".lower(),
                    schema.name,
                    schema.primary_key,
                    unique=True,
                )
            )
        for pos, cols in enumerate(schema.unique):
            self.add_index(
                HashIndex(f"uq_{schema.name}_{pos}".lower(), schema.name, cols, unique=True)
            )

    # -- schema evolution ---------------------------------------------------

    def add_column(self, column: "Column") -> None:
        """ALTER TABLE ADD COLUMN: widen the schema and pad every
        existing version with NULL.  Index key positions are unaffected
        (the new column is appended)."""
        from .schema import TableSchema

        if self.schema.has_column(column.name):
            from .errors import CatalogError

            raise CatalogError(
                f"table {self.schema.name!r} already has column {column.name!r}"
            )
        with self._mutate_lock:
            self.schema = TableSchema(
                self.schema.name,
                [*self.schema.columns, column],
                self.schema.primary_key,
                self.schema.foreign_keys,
                self.schema.unique,
            )
            for chain in self._rows.values():
                for version in chain:
                    version.values = version.values + (None,)

    # -- index plumbing ---------------------------------------------------

    def add_index(self, index: Index) -> None:
        positions = [self.schema.column_position(c) for c in index.columns]
        with self._mutate_lock:
            self.indexes[index.name] = index
            for rowid, versions in self._rows.items():
                for version in versions:
                    index.add(tuple(version.values[p] for p in positions), rowid)

    def drop_index(self, name: str) -> None:
        self.indexes.pop(name, None)

    def index_on(self, columns: Sequence[str]) -> Index | None:
        """An index whose leading columns exactly equal ``columns``."""
        wanted = tuple(c.lower() for c in columns)
        for index in self.indexes.values():
            if tuple(c.lower() for c in index.columns) == wanted:
                return index
        return None

    def _index_key(self, index: Index, values: tuple[Any, ...]) -> tuple[Any, ...]:
        return tuple(values[self.schema.column_position(c)] for c in index.columns)

    def _index_version(self, rowid: int, version: RowVersion) -> None:
        for index in self.indexes.values():
            index.add(self._index_key(index, version.values), rowid)

    # -- mutation ---------------------------------------------------------

    def insert(self, values: Sequence[Any], txn: Transaction) -> int:
        row = self.schema.coerce_row(values)
        with self._mutate_lock:
            self._check_unique(row, txn)
            rowid = self._next_rowid
            self._next_rowid += 1
            version = RowVersion(row, txn.txn_id)
            self._rows[rowid] = [version]
            txn.record_create(self, rowid, version)
            txn.note_write("insert", self, rowid, row)
            self._index_version(rowid, version)
        return rowid

    def update(
        self, rowid: int, new_values: Sequence[Any], txn: Transaction
    ) -> None:
        row = self.schema.coerce_row(new_values)
        with self._mutate_lock:
            current = self._current_version(rowid, txn)
            if current is None:
                raise ConstraintViolationError(f"row {rowid} is not visible for update")
            if self.schema.has_primary_key:
                old_key = self.schema.key_of(current.values, self.schema.primary_key)
                new_key = self.schema.key_of(row, self.schema.primary_key)
                if old_key != new_key:
                    self._check_unique(row, txn)
            current.end_txn = txn.txn_id
            txn.record_end(current)
            version = RowVersion(row, txn.txn_id)
            self._rows[rowid].append(version)
            txn.record_create(self, rowid, version)
            txn.note_write("update", self, rowid, row)
            self._index_version(rowid, version)

    def delete(self, rowid: int, txn: Transaction) -> None:
        with self._mutate_lock:
            current = self._current_version(rowid, txn)
            if current is None:
                raise ConstraintViolationError(f"row {rowid} is not visible for delete")
            current.end_txn = txn.txn_id
            txn.record_end(current)
            txn.note_write("delete", self, rowid)

    def discard_version(self, rowid: int, version: RowVersion) -> None:
        """Remove an uncommitted version (rollback path)."""
        with self._mutate_lock:
            chain = self._rows.get(rowid)
            if chain is None:
                return
            try:
                chain.remove(version)
            except ValueError:
                return
            for index in self.indexes.values():
                key = self._index_key(index, version.values)
                # another version of this row may share the key (e.g. an
                # UPDATE that didn't change it) — keep the entry then
                if any(self._index_key(index, v.values) == key for v in chain):
                    continue
                index.discard(key, rowid)
            if not chain:
                del self._rows[rowid]

    # -- durability (checkpoint restore / WAL replay) ----------------------
    #
    # These paths bypass constraints and transactions on purpose: they
    # re-apply effects the live engine already validated before they
    # were logged.  Indexes are maintained as versions are applied,
    # exactly as live insert/update do (delete touches no index), so a
    # redo costs O(rows written) and needs no rebuild pass.

    def restore_version(
        self,
        rowid: int,
        values: Sequence[Any],
        begin_csn: int,
        begin_time: float | None,
        end_csn: int | None,
        end_time: float | None,
    ) -> None:
        """Re-materialize one committed version from a checkpoint.

        Chains are restored in their original order (oldest first), so
        the newest-last invariant the read paths rely on holds.
        """
        version = RowVersion(tuple(values), begin_txn=0)
        version.begin_csn = begin_csn
        version.begin_time = begin_time
        version.end_csn = end_csn
        version.end_time = end_time
        with self._mutate_lock:
            self._rows.setdefault(rowid, []).append(version)
            self._index_version(rowid, version)
            if rowid >= self._next_rowid:
                self._next_rowid = rowid + 1

    def set_next_rowid(self, next_rowid: int) -> None:
        with self._mutate_lock:
            self._next_rowid = max(self._next_rowid, next_rowid)

    def replay_insert(
        self, rowid: int, values: Sequence[Any], csn: int, now: float
    ) -> None:
        version = RowVersion(tuple(values), begin_txn=0)
        version.begin_csn = csn
        version.begin_time = now
        with self._mutate_lock:
            self._rows.setdefault(rowid, []).append(version)
            self._index_version(rowid, version)
            if rowid >= self._next_rowid:
                self._next_rowid = rowid + 1

    def replay_update(
        self, rowid: int, values: Sequence[Any], csn: int, now: float
    ) -> None:
        version = RowVersion(tuple(values), begin_txn=0)
        version.begin_csn = csn
        version.begin_time = now
        with self._mutate_lock:
            chain = self._rows.setdefault(rowid, [])
            if chain:
                current = chain[-1]
                if current.end_csn is None:
                    current.end_csn = csn
                    current.end_time = now
            chain.append(version)
            self._index_version(rowid, version)
            if rowid >= self._next_rowid:
                self._next_rowid = rowid + 1

    def replay_delete(self, rowid: int, csn: int, now: float) -> None:
        with self._mutate_lock:
            chain = self._rows.get(rowid)
            if not chain:
                return
            current = chain[-1]
            if current.end_csn is None:
                current.end_csn = csn
                current.end_time = now

    # -- reads ------------------------------------------------------------

    def visible_rows(
        self,
        snapshot_csn: int,
        txn_id: int | None = None,
        as_of: float | None = None,
        rowids: Iterable[int] | None = None,
    ) -> tuple[list[int], list[tuple[Any, ...]]]:
        """The visible version of every row (or of each of ``rowids``),
        as parallel ``(rowids, values)`` lists in input order.

        The one read path of the engine: scans, index probes and DML all
        come through here.  It returns exactly what :meth:`fetch` returns
        per rowid, but inlines the common case — the chain's newest
        version committed at or before the snapshot and carrying no end
        mark — and falls back to the per-version checks otherwise.
        """
        get = self._rows.get
        if rowids is None:
            rowids = list(self._rows)  # safe against concurrent inserts
        out_ids: list[int] = []
        out_rows: list[tuple[Any, ...]] = []
        for rowid in rowids:
            chain = get(rowid)
            if not chain:
                continue  # unknown rowid, or a rolled-back insert mid-removal
            last = chain[-1]
            begin = last.begin_csn
            if (
                as_of is None
                and begin is not None
                and begin <= snapshot_csn
                and last.end_csn is None
                and last.end_txn is None
            ):
                values = last.values
            else:
                values = self._fetch_chain(chain, snapshot_csn, txn_id, as_of)
                if values is None:
                    continue
            out_ids.append(rowid)
            out_rows.append(values)
        return out_ids, out_rows

    def fetch(
        self,
        rowid: int,
        snapshot_csn: int,
        txn_id: int | None = None,
        as_of: float | None = None,
    ) -> tuple[Any, ...] | None:
        chain = self._rows.get(rowid)
        if not chain:
            return None
        return self._fetch_chain(chain, snapshot_csn, txn_id, as_of)

    @staticmethod
    def _fetch_chain(
        chain: list[RowVersion],
        snapshot_csn: int,
        txn_id: int | None,
        as_of: float | None,
    ) -> tuple[Any, ...] | None:
        if as_of is not None:
            for version in reversed(chain):
                if version.visible_as_of(as_of):
                    return version.values
            return None
        for version in reversed(chain):
            if version.visible_to(snapshot_csn, txn_id):
                return version.values
        return None

    def version_count(self) -> int:
        return sum(len(chain) for chain in self._rows.values())

    # -- constraints ------------------------------------------------------

    def _current_version(self, rowid: int, txn: Transaction) -> RowVersion | None:
        chain = self._rows.get(rowid)
        if not chain:
            return None
        for version in reversed(chain):
            if version.visible_to(txn.snapshot_csn, txn.txn_id):
                # Guard against lost updates: someone else already
                # superseded/deleted this version after our snapshot.
                if version.end_txn is not None and version.end_txn != txn.txn_id:
                    raise ConstraintViolationError(
                        f"write-write conflict on row {rowid} of {self.schema.name!r}"
                    )
                if version.end_csn is not None:
                    raise ConstraintViolationError(
                        f"row {rowid} of {self.schema.name!r} was concurrently modified"
                    )
                return version
        return None

    def _check_unique(self, row: tuple[Any, ...], txn: Transaction) -> None:
        for index in self.indexes.values():
            if not index.unique:
                continue
            key = self._index_key(index, row)
            if any(part is None for part in key):
                if index.columns == self.schema.primary_key:
                    raise ConstraintViolationError(
                        f"primary key of {self.schema.name!r} cannot contain NULL"
                    )
                continue
            for rowid in index.lookup(key):
                existing = self.fetch(rowid, txn.snapshot_csn, txn.txn_id)
                if existing is not None and self._index_key(index, existing) == key:
                    raise ConstraintViolationError(
                        f"duplicate key {key!r} for {index.name!r} on {self.schema.name!r}"
                    )
