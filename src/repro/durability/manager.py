"""The durability manager: WAL buffering, flush-at-commit, checkpoints.

One :class:`DurabilityManager` attaches to one :class:`Database` and
owns one log directory.  The directory holds at most one *current*
generation of files::

    checkpoint-00000003.ckpt    state as of segment 3's creation
    wal-00000003.log            commits since that checkpoint

Ordering guarantees (the heart of the subsystem):

* **Group commit atomicity** — a transaction's ops are buffered
  per-transaction in memory (``note_dml``) and written as one
  contiguous ``begin … commit`` group at commit time.  A group never
  spans segments and never interleaves with another group.
* **Durable before visible** — ``commit_transaction`` appends and
  flushes the group *before* stamping the row versions with their CSN,
  all under the durability lock.  A reader can therefore never observe
  a committed row that a crash could still lose.
* **CSN order** — the transaction manager calls ``commit_transaction``
  under its commit lock, which also covers CSN allocation, so groups
  reach the log in CSN order and ``last_logged_csn`` only grows.
* **Checkpoint consistency** — ``checkpoint()`` takes the same lock, so
  it always sees a state where every stamped version is also logged;
  the checkpoint CSN is simply the last logged CSN.
* **Checkpoints cost what changed** — encoded version chains are cached
  per page of 8 rowids (:func:`~repro.durability.checkpoint.capture_checkpoint`).
  A commit drops the pages its WAL group wrote; DDL and ``start()``
  drop every page.  The checkpoint file is byte-identical to a cold
  encode of the same state.
* **Rollbacks are lazy** — a rolled-back transaction's group (ops +
  ``rollback``) is appended to the buffer but not flushed; it rides
  along with the next flush purely for forensics.  Recovery ignores it.
* **DDL is eager** — DDL records flush+fsync immediately (DDL
  autocommits, so there is no commit record to piggyback on).

Crash points (``wal.before_flush``, ``wal.mid_record``,
``wal.after_flush``, ``checkpoint.mid_write``) are consulted through
the database's :class:`~repro.resilience.faults.FaultInjector`; a fired
point leaves the on-disk state exactly as a real crash at that instant
would (including a torn half-written final frame for ``mid_record``)
and raises :class:`~repro.resilience.faults.SimulatedCrashError`.
"""

from __future__ import annotations

import os
import threading
from pathlib import Path
from typing import TYPE_CHECKING, Any

from ..obs import metrics as obs_metrics
from ..obs import tracing as obs_tracing
from .checkpoint import PAGE_SHIFT, PageCache, capture_checkpoint
from .codec import encode_record
from .config import DurabilityConfig, checkpoint_filename, parse_segment, wal_filename
from .errors import DurabilityError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..relational.database import Database
    from ..relational.transactions import Transaction


class DurabilityManager:
    def __init__(self, database: "Database", config: DurabilityConfig):
        self.database = database
        self.config = config
        self.dir = Path(config.dir)
        self.segment = 0
        # Serializes commits, DDL logging, and checkpoints against each
        # other.  RLock: an auto-checkpoint fires from inside a commit.
        self._lock = threading.RLock()
        # Leaf lock for the per-transaction op buffers: note_dml is
        # called while a TableStorage mutation lock is held, so it must
        # never wait on the durability lock.
        self._buffers_lock = threading.Lock()
        self._txn_ops: dict[int, list[dict[str, Any]]] = {}
        # Encoded frames appended but not yet written to the segment.
        self._pending: list[bytes] = []
        self.last_logged_csn = database.txn_manager.current_csn()
        # Encoded checkpoint pages, reused by the next capture unless a
        # commit or DDL drops them (guarded by self._lock).
        self._pages: PageCache = {}
        self.commits_since_checkpoint = 0
        self.dead = False
        # Lifetime stats (tests and benchmarks read these directly).
        self.wal_records = 0
        self.wal_bytes = 0
        self.wal_flush_count = 0
        self.checkpoints_written = 0
        # Replication node handle (repro.replication) or None.  Set by
        # the cluster on the current primary: every durable flush ships
        # its frames into the replication stream, and writes are fenced
        # once the node is deposed.
        self.replication = None

    # -- paths ---------------------------------------------------------------

    def wal_path(self) -> Path:
        return self.dir / wal_filename(self.segment)

    def checkpoint_path(self) -> Path:
        return self.dir / checkpoint_filename(self.segment)

    # -- lifecycle -----------------------------------------------------------

    def start(self, segment: int = 0) -> None:
        """Begin logging at ``segment``: write its checkpoint (capturing
        whatever state the database already holds — this is what makes
        durability *retrofittable* onto a populated in-memory database)
        and prune every older generation."""
        with self._lock:
            self.segment = segment
            self._pages.clear()
            self._write_checkpoint_locked(segment)

    def close(self) -> None:
        """Flush any lazily-buffered frames (rollback groups)."""
        with self._lock:
            if not self.dead:
                self._flush_locked()

    def _ensure_alive(self) -> None:
        if self.dead:
            raise DurabilityError("durability manager is dead (crashed database)")

    # -- transaction-side hooks ---------------------------------------------

    def note_dml(self, txn_id: int, record: dict[str, Any]) -> None:
        """Buffer one redo record for an open transaction.

        Leaf path: called under the table's mutation lock; must not
        touch the durability lock or do I/O.
        """
        if self.dead:
            return
        with self._buffers_lock:
            self._txn_ops.setdefault(txn_id, []).append(record)

    def commit_transaction(
        self, txn: "Transaction", csn: int, now: float, stamp: Any
    ) -> None:
        """Make ``txn`` durable, then visible.

        ``stamp`` is the transaction manager's version-stamping closure;
        running it here, after the flush and under the durability lock,
        gives both orderings at once: durable-before-visible, and
        stamped-implies-logged (which checkpoints rely on).
        """
        with self._lock:
            self._ensure_alive()
            if self.replication is not None:
                self.replication.ensure_primary()
            with self._buffers_lock:
                ops = self._txn_ops.pop(txn.txn_id, [])
            if ops:
                self._append_records(
                    [
                        {"k": "begin", "t": txn.txn_id},
                        *ops,
                        {"k": "commit", "t": txn.txn_id, "c": csn, "w": now},
                    ]
                )
                self._flush_locked()
                assert csn > self.last_logged_csn, "commits must reach the WAL in CSN order"
                self.last_logged_csn = csn
                for op in ops:
                    cached = self._pages.get(op["tb"])
                    if cached is not None:
                        cached[1].pop(op["r"] >> PAGE_SHIFT, None)
            stamp()
            if ops:
                self.commits_since_checkpoint += 1
                if (
                    self.config.checkpoint_every
                    and self.commits_since_checkpoint >= self.config.checkpoint_every
                ):
                    self.checkpoint()

    def rollback_transaction(self, txn: "Transaction") -> None:
        with self._buffers_lock:
            ops = self._txn_ops.pop(txn.txn_id, None)
        if not ops:
            return
        with self._lock:
            if self.dead:
                return
            self._append_records(
                [
                    {"k": "begin", "t": txn.txn_id},
                    *ops,
                    {"k": "rollback", "t": txn.txn_id},
                ]
            )
            # No flush: a rollback group is dead weight for recovery and
            # only reaches disk if a later flush carries it.

    def log_ddl(self, record: dict[str, Any]) -> None:
        """Append one DDL record and flush immediately."""
        with self._lock:
            self._ensure_alive()
            if self.replication is not None:
                self.replication.ensure_primary()
            self._append_records([{"k": "ddl", **record}])
            self._flush_locked()
            self._pages.clear()  # ADD COLUMN widens every version
        if self.replication is not None:
            # DDL has no commit record to piggyback the ack wait on;
            # sync-ack replication waits here instead (outside the
            # durability lock — the pump applies onto replica databases
            # and must not serialize behind this one's WAL).
            self.replication.on_ddl_durable()

    # -- WAL internals -------------------------------------------------------

    def _append_records(self, records: list[dict[str, Any]]) -> None:
        for record in records:
            frame = encode_record(record)
            self._pending.append(frame)
            self.wal_records += 1
            self._emit(
                obs_metrics.WAL_APPENDS,
                obs_tracing.WAL_APPEND,
                kind=record["k"],
                table=record.get("tb"),
            )

    def _flush_locked(self) -> None:
        if not self._pending:
            return
        if self._crash_point("wal.before_flush"):
            self._die("wal.before_flush")
        frames = self._pending
        torn = self._crash_point("wal.mid_record")
        with open(self.wal_path(), "ab") as f:
            if torn:
                # A real crash mid-append leaves a prefix of the last
                # frame on disk; reproduce that torn tail exactly.
                f.write(b"".join(frames[:-1]))
                f.write(frames[-1][: max(1, len(frames[-1]) // 2)])
                f.flush()
            else:
                data = b"".join(frames)
                f.write(data)
                f.flush()
                self.config.do_fsync(f.fileno())
        if torn:
            self._die("wal.mid_record")
        self._pending = []
        self.wal_bytes += sum(len(frame) for frame in frames)
        self.wal_flush_count += 1
        self._emit(
            obs_metrics.WAL_FLUSHES,
            obs_tracing.WAL_FLUSH,
            segment=self.segment,
            records=len(frames),
        )
        if self._crash_point("wal.after_flush"):
            # The flush completed: whatever it carried IS durable and
            # must survive recovery even though the process dies before
            # acknowledging the commit.
            self._die("wal.after_flush")
        if self.replication is not None:
            # Ship strictly *after* the crash points: a primary that
            # dies at wal.after_flush is durable locally but never
            # shipped these frames, so they were never acked and a
            # promoted replica lawfully lacks them.  Conversely every
            # shipped frame is already durable here, so the stream can
            # never run ahead of the primary's own log.
            self.replication.ship(frames)

    # -- checkpoints ---------------------------------------------------------

    def checkpoint(self) -> int:
        """Write a new checkpoint and rotate to the next segment.

        Returns the new segment number.
        """
        with self._lock:
            self._ensure_alive()
            self._flush_locked()
            target = self.segment + 1
            self._write_checkpoint_locked(target)
            self.segment = target
            self.commits_since_checkpoint = 0
            return target

    def capture(self) -> list[bytes]:
        """The frames of a checkpoint at the last logged CSN, reusing
        every cached page no commit has written since."""
        with self._lock:
            return capture_checkpoint(self.database, self.last_logged_csn, self._pages)

    def _write_checkpoint_locked(self, target: int) -> None:
        frames = self.capture()
        data = b"".join(frames)
        final = self.dir / checkpoint_filename(target)
        tmp = self.dir / (checkpoint_filename(target) + ".tmp")
        torn = self._crash_point("checkpoint.mid_write")
        with open(tmp, "wb") as f:
            if torn:
                f.write(data[: len(data) // 2])
                f.flush()
            else:
                f.write(data)
                f.flush()
                self.config.do_fsync(f.fileno())
        if torn:
            self._die("checkpoint.mid_write")
        os.replace(tmp, final)
        self._prune(target)
        self.checkpoints_written += 1
        self._emit(
            obs_metrics.CHECKPOINTS_WRITTEN,
            obs_tracing.CHECKPOINT_WRITTEN,
            segment=target,
            bytes=len(data),
        )

    def _prune(self, keep: int) -> None:
        """Drop every generation older than ``keep``, plus stale temp
        files from torn checkpoint attempts."""
        for entry in os.listdir(self.dir):
            path = self.dir / entry
            if entry.endswith(".tmp"):
                path.unlink(missing_ok=True)
                continue
            segment = parse_segment(entry)
            if segment is not None and segment < keep:
                path.unlink(missing_ok=True)

    # -- crash plumbing ------------------------------------------------------

    def _crash_point(self, point: str) -> bool:
        injector = self.database.fault_injector
        if injector is None or not hasattr(injector, "on_point"):
            return False
        return injector.on_point(
            point, registry=self.database.obs_registry, trace=self.database.obs_trace
        )

    def _die(self, point: str) -> None:
        from ..resilience.faults import SimulatedCrashError

        self.dead = True
        self._pending = []
        with self._buffers_lock:
            self._txn_ops.clear()
        raise SimulatedCrashError(f"simulated crash at {point!r}")

    # -- observability -------------------------------------------------------

    def _emit(self, counter: str, event: str, **attrs: Any) -> None:
        database = self.database
        database.obs_registry.counter(counter).increment()
        database.obs_trace.emit(event, **attrs)

    def __repr__(self) -> str:
        return (
            f"DurabilityManager(dir={str(self.dir)!r}, segment={self.segment}, "
            f"records={self.wal_records}, dead={self.dead})"
        )
