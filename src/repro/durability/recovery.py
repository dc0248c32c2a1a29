"""Crash recovery: load the latest valid checkpoint, redo the WAL.

``recover_into`` populates a *fresh* :class:`Database` from a log
directory:

1. Scan the directory for ``checkpoint-*.ckpt`` / ``wal-*.log`` pairs
   and pick the highest segment whose checkpoint validates (``meta`` …
   ``end``).  A torn checkpoint (crash during ``checkpoint.mid_write``
   leaves only a ``.tmp``) simply falls back to the previous segment.
2. Restore the checkpoint: tables in creation order (so foreign keys
   validate), committed row versions with their original CSN/wallclock
   stamps (``AS OF`` history survives crashes), secondary indexes,
   views (by replaying their ``CREATE VIEW`` text), and grants.
3. Replay the segment's WAL in order.  Only complete
   ``begin … commit`` groups are applied (counted in
   ``recovery.replayed``); groups ending in ``rollback`` are skipped
   silently; a group with no terminator — the uncommitted tail of a
   crashed transaction, possibly ending in a torn frame — is discarded
   and counted in ``recovery.discarded``.  DDL records replay
   immediately (they were flushed before the crash by construction).
4. Restore the CSN / transaction-id counters and the commit-time
   history (checkpoint history + replayed commits, CSN-ordered so the
   ``AS OF`` bisect invariant holds), and poison the cache coherence
   state: ``ddl_generation`` is bumped strictly past any value the
   pre-crash process could have exposed and every table epoch is
   bumped, so no cache entry captured before the crash can ever
   validate against the recovered database.  No index pass is needed:
   steps 2 and 3 maintain every index as each version is applied.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any

from ..obs import metrics as obs_metrics
from ..obs import tracing as obs_tracing
from .checkpoint import CheckpointState, deserialize_schema, load_checkpoint
from .codec import intact_prefix_length, iter_records
from .config import DurabilityConfig
from .errors import RecoveryError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..relational.database import Database


@dataclass
class RecoveryReport:
    """What recovery found and did (``Database.recovery_report``)."""

    fresh: bool
    segment: int
    next_segment: int
    checkpoint_csn: int
    replayed_txns: int
    replayed_ddl: int
    discarded_txns: int
    torn_bytes: int


def scan_log_dir(path: Path) -> tuple[dict[int, Path], dict[int, Path]]:
    """``(checkpoints, wals)`` keyed by segment number."""
    checkpoints: dict[int, Path] = {}
    wals: dict[int, Path] = {}
    if not path.is_dir():
        return checkpoints, wals
    for entry in os.listdir(path):
        if entry.endswith(".tmp"):
            continue
        from .config import parse_segment

        segment = parse_segment(entry)
        if segment is None:
            continue
        if entry.endswith(".ckpt"):
            checkpoints[segment] = path / entry
        elif entry.endswith(".log"):
            wals[segment] = path / entry
    return checkpoints, wals


def recover_into(database: "Database", config: DurabilityConfig) -> RecoveryReport:
    """Rebuild ``database`` (which must be empty) from ``config.dir``."""
    if database.catalog.table_names():
        raise RecoveryError("recover_into requires an empty database")
    dirpath = Path(config.dir)
    checkpoints, wals = scan_log_dir(dirpath)
    all_segments = set(checkpoints) | set(wals)
    state: CheckpointState | None = None
    segment: int | None = None
    for candidate in sorted(checkpoints, reverse=True):
        try:
            state = load_checkpoint(checkpoints[candidate].read_bytes())
        except (RecoveryError, OSError):
            continue
        segment = candidate
        break
    if state is None and wals:
        # No usable checkpoint but WAL segments exist: only segment 0
        # can be replayed from genesis (its DDL records rebuild the
        # catalog); anything later lost its base state.
        if 0 not in wals:
            raise RecoveryError(
                f"no valid checkpoint in {dirpath} and no genesis WAL to replay"
            )
        segment = 0
    if segment is None:
        return RecoveryReport(
            fresh=True,
            segment=0,
            next_segment=(max(all_segments) + 1) if all_segments else 0,
            checkpoint_csn=0,
            replayed_txns=0,
            replayed_ddl=0,
            discarded_txns=0,
            torn_bytes=0,
        )

    if state is not None:
        _restore_checkpoint(database, state)
    report = _replay_wal(database, wals.get(segment), state, segment)
    report.next_segment = max(all_segments) + 1
    _finalize(database, state, report)
    return report


# -- checkpoint restore ----------------------------------------------------


def _restore_checkpoint(database: "Database", state: CheckpointState) -> None:
    for record in state.tables:
        schema = deserialize_schema(record["schema"])
        table = database.catalog.create_table(schema, record["owner"])
        storage = table.storage
        for rowid, values, b_csn, b_time, e_csn, e_time in record["versions"]:
            storage.restore_version(rowid, values, b_csn, b_time, e_csn, e_time)
        storage.set_next_rowid(record["next_rowid"])
    for record in state.indexes:
        database.catalog.create_index(
            record["name"],
            record["table"],
            list(record["columns"]),
            record["kind"],
            record["unique"],
        )
    for record in state.views:
        database.execute(record["sql"])
        database.catalog.get_view(record["name"]).owner = record["owner"]
    for user, table, privileges in state.grants:
        database.access.grant(sorted(privileges), table, user)


# -- WAL replay ------------------------------------------------------------


def _replay_wal(
    database: "Database",
    wal_path: Path | None,
    state: CheckpointState | None,
    segment: int,
) -> RecoveryReport:
    report = RecoveryReport(
        fresh=False,
        segment=segment,
        next_segment=segment + 1,
        checkpoint_csn=state.csn if state else 0,
        replayed_txns=0,
        replayed_ddl=0,
        discarded_txns=0,
        torn_bytes=0,
    )
    replayed_commits: list[tuple[float, int]] = []
    max_csn = report.checkpoint_csn
    max_txn = (state.next_txn_id - 1) if state else 0
    if wal_path is not None and wal_path.exists():
        data = wal_path.read_bytes()
        report.torn_bytes = len(data) - intact_prefix_length(data)
        current: tuple[int, list[dict[str, Any]]] | None = None
        for record in iter_records(data):
            kind = record["k"]
            if kind == "begin":
                current = (record["t"], [])
            elif kind in ("insert", "update", "delete"):
                if current is not None:
                    current[1].append(record)
            elif kind == "commit":
                if current is not None and current[0] == record["t"]:
                    _apply_group(database, current[1], record["c"], record["w"])
                    replayed_commits.append((record["w"], record["c"]))
                    max_csn = max(max_csn, record["c"])
                    max_txn = max(max_txn, record["t"])
                    report.replayed_txns += 1
                    _emit(
                        database,
                        obs_metrics.RECOVERY_REPLAYED,
                        obs_tracing.RECOVERY_REPLAYED,
                        kind="txn",
                        txn=record["t"],
                        csn=record["c"],
                    )
                current = None
            elif kind == "rollback":
                # A cleanly rolled-back group: never had effects to
                # discard, so it is not counted as recovery.discarded.
                current = None
            elif kind == "ddl":
                _apply_ddl(database, record)
                report.replayed_ddl += 1
                _emit(
                    database,
                    obs_metrics.RECOVERY_REPLAYED,
                    obs_tracing.RECOVERY_REPLAYED,
                    kind="ddl",
                    op=record.get("op"),
                )
        if current is not None:
            report.discarded_txns += 1
            _emit(
                database,
                obs_metrics.RECOVERY_DISCARDED,
                obs_tracing.RECOVERY_DISCARDED,
                txn=current[0],
                ops=len(current[1]),
            )
    report._replayed_commits = replayed_commits  # type: ignore[attr-defined]
    report._max_csn = max_csn  # type: ignore[attr-defined]
    report._max_txn = max_txn  # type: ignore[attr-defined]
    return report


def _apply_group(
    database: "Database", ops: list[dict[str, Any]], csn: int, now: float
) -> None:
    for record in ops:
        storage = database.catalog.get_table(record["tb"]).storage
        kind = record["k"]
        if kind == "insert":
            storage.replay_insert(record["r"], record["v"], csn, now)
        elif kind == "update":
            storage.replay_update(record["r"], record["v"], csn, now)
        else:
            storage.replay_delete(record["r"], csn, now)


def _apply_ddl(database: "Database", record: dict[str, Any]) -> None:
    from ..relational.schema import Column
    from ..relational.types import type_from_name

    op = record["op"]
    if op == "create_table":
        schema = deserialize_schema(record["schema"])
        database.catalog.create_table(schema, record["owner"])
    elif op == "create_view":
        database.execute(record["sql"])
        database.catalog.get_view(record["name"]).owner = record["owner"]
    elif op == "create_index":
        database.catalog.create_index(
            record["name"],
            record["table"],
            list(record["columns"]),
            record["kind"],
            record["unique"],
        )
    elif op == "add_column":
        name, type_name, length, nullable = record["column"]
        table = database.catalog.get_table(record["tb"])
        table.storage.add_column(Column(name, type_from_name(type_name, length), nullable))
        table.schema = table.storage.schema
    elif op == "drop":
        kind = record["kind"]
        if kind == "TABLE":
            database.catalog.drop_table(record["name"], if_exists=True)
        elif kind == "VIEW":
            database.catalog.drop_view(record["name"], if_exists=True)
        else:
            database.catalog.drop_index(record["name"], if_exists=True)
    elif op == "grant":
        database.access.grant(list(record["privs"]), record["tb"], record["user"])
    elif op == "revoke":
        database.access.revoke(list(record["privs"]), record["tb"], record["user"])
    else:
        raise RecoveryError(f"unknown DDL record op {op!r}")


# -- finalize --------------------------------------------------------------


def _finalize(
    database: "Database", state: CheckpointState | None, report: RecoveryReport
) -> None:
    replayed_commits = report._replayed_commits  # type: ignore[attr-defined]
    history = list(state.commit_history) if state else []
    # Replayed commits all have CSNs above the checkpoint CSN; sorting
    # them by CSN before appending keeps both parallel arrays sorted,
    # which the AS OF bisect requires.
    history.extend(sorted(replayed_commits, key=lambda pair: pair[1]))
    database.txn_manager.restore_state(
        csn=report._max_csn,  # type: ignore[attr-defined]
        next_txn_id=max(
            state.next_txn_id if state else 1,
            report._max_txn + 1,  # type: ignore[attr-defined]
        ),
        history=history,
    )
    # Cache poisoning: the recovered generation must exceed anything the
    # pre-crash process could have stamped into a cache entry.  The
    # checkpoint generation plus one per replayed DDL reconstructs the
    # committed pre-crash value; +1 moves strictly past it, and bumping
    # every table epoch breaks the exact-match validation vector too.
    base_generation = state.ddl_generation if state else 0
    database.ddl_generation = base_generation + report.replayed_ddl + 1
    database.epochs.bump([t.name.lower() for t in database.catalog.tables()])


def _emit(database: "Database", counter: str, event: str, **attrs: Any) -> None:
    database.obs_registry.counter(counter).increment()
    database.obs_trace.emit(event, **attrs)
