"""Checkpoint serialization: a consistent MVCC snapshot plus catalog.

A checkpoint is a sequence of framed records (same framing as the WAL):

======================  ==================================================
record                  content
======================  ==================================================
``meta``                checkpoint CSN, next txn id, ddl generation, and
                        the commit-time history (for ``AS OF``) up to the
                        checkpoint CSN
``table`` (per table)   serialized schema + owner, ``next_rowid``, and
                        every *committed* row version with
                        ``begin_csn <= checkpoint CSN`` (end stamps only
                        when also ``<= checkpoint CSN``)
``view`` (per view)     the original ``CREATE VIEW`` statement text
``index`` (per index)   name/table/columns/kind/unique for secondary
                        indexes (PK/UNIQUE indexes are rebuilt from the
                        schema)
``grants``              the access-control grant table
``end``                 terminator — a checkpoint without it is torn and
                        is never loaded
======================  ==================================================

The writer streams to a ``*.tmp`` file and atomically renames on
success, so a crash mid-write (the ``checkpoint.mid_write`` crash
point) leaves the previous checkpoint authoritative.  In-flight
transactions at checkpoint time are excluded entirely; if they commit
later their WAL group lands in the *next* segment and is replayed on
recovery, so no committed write can be either lost or applied twice.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from itertools import islice
from typing import TYPE_CHECKING, Any

from ..relational.schema import Column, ForeignKey, TableSchema
from ..relational.types import VarcharType, type_from_name
from .codec import encode_into, encode_record, encode_record_with_list, iter_records
from .errors import RecoveryError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..relational.database import Database
    from ..relational.storage import RowVersion, TableStorage


# -- schema (de)serialization ----------------------------------------------


def serialize_type(sql_type: Any) -> list[Any]:
    if isinstance(sql_type, VarcharType):
        return ["VARCHAR", sql_type.length]
    return [sql_type.name, None]


def serialize_schema(schema: TableSchema) -> dict[str, Any]:
    return {
        "name": schema.name,
        "columns": [
            [c.name, *serialize_type(c.sql_type), c.nullable] for c in schema.columns
        ],
        "pk": list(schema.primary_key),
        "fks": [
            [list(fk.columns), fk.ref_table, list(fk.ref_columns)]
            for fk in schema.foreign_keys
        ],
        "unique": [list(u) for u in schema.unique],
    }


def deserialize_schema(data: dict[str, Any]) -> TableSchema:
    columns = [
        Column(name, type_from_name(type_name, length), nullable)
        for name, type_name, length, nullable in data["columns"]
    ]
    fks = [
        ForeignKey(tuple(cols), ref_table, tuple(ref_cols))
        for cols, ref_table, ref_cols in data["fks"]
    ]
    return TableSchema(data["name"], columns, data["pk"], fks, data["unique"])


# -- capture ---------------------------------------------------------------

# A page is the 8 consecutive rowids sharing ``rowid >> PAGE_SHIFT``: the
# unit in which the durability manager caches encoded version chains.
PAGE_SHIFT = 3
PAGE_ROWS = 1 << PAGE_SHIFT

# One cached page: its encoded checkpoint versions, how many there are,
# and the highest CSN stamped in it.
Page = tuple[bytes, int, int]
# Table name (lowercase, as WAL records spell it) -> (the schema the
# pages were encoded under, page number -> Page).
PageCache = dict[str, tuple[TableSchema, dict[int, Page]]]


def capture_checkpoint(
    database: "Database", checkpoint_csn: int, pages: PageCache | None = None
) -> list[bytes]:
    """Encode the whole durable state as framed records.

    The caller (the durability manager) serializes this against commits;
    each table is additionally captured under its storage mutation lock
    so a concurrent DDL widen can never tear a row.

    ``pages`` is the manager's page cache.  With it, a table's frame
    reuses the bytes of every cached page and re-encodes only the rest;
    without it (or for a table whose rows are not in ascending rowid
    order) every table is encoded cold.  The bytes are the same either
    way.
    """
    manager = database.txn_manager
    frames: list[bytes] = []
    history = manager.commit_history(up_to_csn=checkpoint_csn)
    frames.append(
        encode_record(
            {
                "k": "meta",
                "csn": checkpoint_csn,
                "txn": manager.peek_next_txn_id(),
                "gen": database.ddl_generation,
                "times": [time for time, _csn in history],
                "csns": [csn for _time, csn in history],
            }
        )
    )
    for table in database.catalog.tables_in_creation_order():
        storage = table.storage
        with storage._mutate_lock:
            head = {
                "k": "table",
                "schema": serialize_schema(storage.schema),
                "owner": table.owner,
                "next_rowid": storage._next_rowid,
            }
            frames.append(_table_frame(storage, head, checkpoint_csn, pages))
            for index in storage.indexes.values():
                if index.name.startswith(("pk_", "uq_")):
                    continue  # rebuilt from the schema on restore
                frames.append(
                    encode_record(
                        {
                            "k": "index",
                            "name": index.name,
                            "table": index.table_name,
                            "columns": list(index.columns),
                            "kind": index.kind,
                            "unique": index.unique,
                        }
                    )
                )
    for view in database.catalog.views_in_creation_order():
        if not view.sql_text:
            continue  # programmatic view without source text — not durable
        frames.append(
            encode_record(
                {"k": "view", "name": view.name, "sql": view.sql_text, "owner": view.owner}
            )
        )
    frames.append(encode_record({"k": "grants", "g": database.access.dump_grants()}))
    frames.append(encode_record({"k": "end"}))
    return frames


def _table_frame(
    storage: "TableStorage",
    head: dict[str, Any],
    checkpoint_csn: int,
    pages: PageCache | None,
) -> bytes:
    """The ``table`` record: ``head`` plus every version the checkpoint
    holds, in ``_rows`` order.

    Cached pages are reused while their highest stamped CSN is at or
    below ``checkpoint_csn``; a page is re-encoded otherwise and stored
    only if it is settled, so versions of open transactions never enter
    the cache.  Joining pages keeps ``_rows`` order only when rowids
    ascend, which redo of concurrent inserts can break: such a table is
    encoded cold.
    """
    rows = storage._rows
    rowids = list(rows)
    if pages is None or not all(map(operator.lt, rowids, islice(rowids, 1, None))):
        versions: list[list[Any]] = []
        for rowid, chain in rows.items():
            versions.extend(_chain_versions(rowid, chain, checkpoint_csn))
        return encode_record({**head, "versions": versions})
    name = storage.schema.name.lower()
    cached = pages.get(name)
    if cached is None or cached[0] is not storage.schema:
        # First capture, or the table was widened or recreated since.
        cached = pages[name] = (storage.schema, {})
    table_pages = cached[1]
    count = 0
    items: list[bytes] = []
    for page_no in {rowid >> PAGE_SHIFT: None for rowid in rowids}:
        page = table_pages.get(page_no)
        if page is None or page[2] > checkpoint_csn:
            page, settled = _encode_page(rows, page_no, checkpoint_csn)
            if settled:
                table_pages[page_no] = page
        items.append(page[0])
        count += page[1]
    return encode_record_with_list(head, "versions", count, items)


def _encode_page(
    rows: dict[int, list["RowVersion"]], page_no: int, checkpoint_csn: int
) -> tuple[Page, bool]:
    """Encode one page's checkpoint versions; also say whether it is
    settled: every version stamped at or below ``checkpoint_csn`` and
    no end pending."""
    out: list[bytes] = []
    count = top = 0
    settled = True
    first = page_no << PAGE_SHIFT
    for rowid in range(first, first + PAGE_ROWS):
        chain = rows.get(rowid)
        if chain is None:
            continue
        for version in _chain_versions(rowid, chain, checkpoint_csn):
            encode_into(version, out)
            count += 1
        chain_top = _settled_top(chain, checkpoint_csn)
        if chain_top is None:
            settled = False
        else:
            top = max(top, chain_top)
    return (b"".join(out), count, top), settled


def _chain_versions(
    rowid: int, chain: list["RowVersion"], checkpoint_csn: int
) -> list[list[Any]]:
    """The checkpoint rows of one version chain: every committed version
    with ``begin_csn <= checkpoint_csn``, end stamps only when also at or
    below it."""
    versions = []
    for version in chain:
        if version.begin_csn is None or version.begin_csn > checkpoint_csn:
            continue
        ended = version.end_csn is not None and version.end_csn <= checkpoint_csn
        versions.append(
            [
                rowid,
                tuple(version.values),
                version.begin_csn,
                version.begin_time,
                version.end_csn if ended else None,
                version.end_time if ended else None,
            ]
        )
    return versions


def _settled_top(chain: list["RowVersion"], checkpoint_csn: int) -> int | None:
    """The highest CSN stamped in ``chain``, or ``None`` if a version is
    unstamped, stamped above ``checkpoint_csn``, or has an end pending."""
    top = 0
    for version in chain:
        begin, end = version.begin_csn, version.end_csn
        if begin is None or begin > checkpoint_csn:
            return None
        if end is None:
            if version.end_txn is not None:
                return None  # an open transaction is deleting it
        elif end > checkpoint_csn:
            return None
        else:
            begin = end
        top = max(top, begin)
    return top


# -- load ------------------------------------------------------------------


@dataclass
class CheckpointState:
    """A decoded, validated checkpoint."""

    csn: int
    next_txn_id: int
    ddl_generation: int
    commit_history: list[tuple[float, int]]
    tables: list[dict[str, Any]] = field(default_factory=list)
    views: list[dict[str, Any]] = field(default_factory=list)
    indexes: list[dict[str, Any]] = field(default_factory=list)
    grants: list[list[Any]] = field(default_factory=list)


def load_checkpoint(data: bytes) -> CheckpointState:
    """Decode checkpoint bytes; raises :class:`RecoveryError` unless the
    stream starts with ``meta`` and terminates with ``end``."""
    records = list(iter_records(data))
    if not records or records[0].get("k") != "meta":
        raise RecoveryError("checkpoint has no meta record")
    if records[-1].get("k") != "end":
        raise RecoveryError("checkpoint is torn (missing end record)")
    meta = records[0]
    state = CheckpointState(
        csn=meta["csn"],
        next_txn_id=meta["txn"],
        ddl_generation=meta["gen"],
        commit_history=list(zip(meta["times"], meta["csns"])),
    )
    for record in records[1:-1]:
        kind = record.get("k")
        if kind == "table":
            state.tables.append(record)
        elif kind == "view":
            state.views.append(record)
        elif kind == "index":
            state.indexes.append(record)
        elif kind == "grants":
            state.grants = record["g"]
        else:
            raise RecoveryError(f"unknown checkpoint record kind {kind!r}")
    return state
