"""Transactions, snapshots, table locks, and deadlock detection.

The engine uses multi-version concurrency control: every row version
carries a *begin* and *end* commit-sequence-number (CSN).  A statement
reads under a snapshot CSN and sees exactly the versions committed at
or before it, plus its own transaction's uncommitted writes.  Commits
additionally stamp versions with wallclock times, which is what powers
``FOR SYSTEM_TIME AS OF`` temporal queries (paper §1/§4: Db2's
bi-temporal support "comes for free" for the overlaid graph).

Write conflicts are prevented with per-table reader-writer locks held
until transaction end for writers and statement end for readers.  The
locks record their shared/exclusive hold times, which the benchmark
harness uses to derive each engine's serial fraction for the Fig. 6
throughput model.

Every lock of one database shares a :class:`LockManager`: one condition
variable guards all lock state, which makes three properties cheap to
provide the way a production engine does (paper §1: graph queries
free-ride Db2's concurrency control rather than reimplement it):

* **Deadlock detection** — a blocked acquire registers a wait edge and
  walks the wait-for graph; a cycle raises :class:`DeadlockError` on
  the *youngest* participant (largest transaction id) instead of
  letting both sides burn their full lock timeout.
* **Writer preference** — new readers queue behind waiting writers, so
  a steady reader stream cannot starve a writer.
* **Observability** — every wait and every detected deadlock emits a
  ``lock.wait`` / ``deadlock.detected`` trace event and counter through
  the shared :mod:`repro.obs` registry.
"""

from __future__ import annotations

import bisect
import threading
import time
from typing import TYPE_CHECKING, Any, Callable, Iterator

from ..common.clock import Clock, SystemClock
from ..obs import metrics as obs_metrics
from ..obs import tracing
from ..obs.metrics import MetricsRegistry
from ..obs.tracing import NULL_RECORDER, TraceRecorder
from .errors import DeadlockError, LockTimeoutError, TransactionError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .storage import RowVersion, TableStorage


def _thread_owner() -> int:
    """Fallback lock owner for acquires outside a transaction (DDL).

    Negative so it can never win victim selection against a real
    transaction id (victim = the *largest* owner in the cycle).
    """
    return -threading.get_ident()


class LockManager:
    """Shared coordination point for every table lock of one database.

    A single condition variable guards all lock state.  That makes the
    wait-for graph trivially consistent (no lock-ordering problems
    inside the deadlock detector itself) and lets a detected victim be
    woken with one ``notify_all``.  Table-level locking is coarse
    enough that the shared condition is not a throughput concern.
    """

    def __init__(self, clock: Callable[[], float] = time.monotonic):
        self.clock = clock
        self._cond = threading.Condition()
        # owner -> (lock, exclusive) while the owner is blocked
        self._waits: dict[Any, tuple["RWLock", bool]] = {}
        # owners chosen as deadlock victims, with the error to deliver
        self._victims: dict[Any, DeadlockError] = {}
        self.deadlocks_detected = 0
        # Rebound by Database.bind_observability (Db2Graph.open installs
        # its own registry/recorder here so one snapshot spans layers).
        self.registry: MetricsRegistry = MetricsRegistry()
        self.trace: TraceRecorder = NULL_RECORDER

    # -- introspection (tests assert the lock table is clean) ---------------

    def waiting_owners(self) -> list[Any]:
        with self._cond:
            return list(self._waits)

    def is_clean(self) -> bool:
        """No pending waits and no undelivered victim markers."""
        with self._cond:
            return not self._waits and not self._victims

    # -- wait bookkeeping (callers hold self._cond) -------------------------

    def _begin_wait(self, owner: Any, lock: "RWLock", exclusive: bool) -> None:
        self._waits[owner] = (lock, exclusive)
        if exclusive:
            lock._waiting_writers += 1
        self.registry.counter(obs_metrics.LOCK_WAITS).increment()
        self.trace.emit(
            tracing.LOCK_WAIT, table=lock.name, owner=owner, exclusive=exclusive
        )
        try:
            self._check_deadlock(owner)
        except DeadlockError:
            self._end_wait(owner, lock, exclusive)
            raise

    def _end_wait(self, owner: Any, lock: "RWLock", exclusive: bool) -> None:
        self._waits.pop(owner, None)
        self._victims.pop(owner, None)
        if exclusive:
            lock._waiting_writers -= 1
            # a writer giving up may unblock readers queued behind it
            self._cond.notify_all()

    # -- wait-for graph ------------------------------------------------------

    def _blockers(self, owner: Any, lock: "RWLock", exclusive: bool) -> set[Any]:
        """Owners that currently prevent ``owner`` from acquiring."""
        blockers: set[Any] = set()
        if lock._writer_owner is not None and lock._writer_owner != owner:
            blockers.add(lock._writer_owner)
        if exclusive:
            blockers.update(r for r in lock._reader_count if r != owner)
        else:
            # writer preference: a reader queues behind waiting writers
            blockers.update(
                w
                for w, (waited, ex) in self._waits.items()
                if ex and waited is lock and w != owner
            )
        return blockers

    def _check_deadlock(self, start: Any) -> None:
        cycle = self._find_cycle(start)
        if cycle is None:
            return
        victim = max(cycle)  # youngest transaction = largest txn id
        self.deadlocks_detected += 1
        lock, _exclusive = self._waits[victim]
        self.registry.counter(obs_metrics.LOCK_DEADLOCKS).increment()
        self.trace.emit(
            tracing.DEADLOCK_DETECTED, table=lock.name, victim=victim, cycle=tuple(cycle)
        )
        error = DeadlockError(
            f"deadlock detected on {lock.name!r}: cycle {tuple(cycle)!r}, "
            f"victim txn {victim}",
            victim=victim,
            cycle=tuple(cycle),
        )
        if victim == start:
            raise error
        self._victims[victim] = error
        self._cond.notify_all()

    def _find_cycle(self, start: Any) -> list[Any] | None:
        """DFS from ``start`` over wait-for edges; the cycle through
        ``start`` (a new wait can only close cycles through itself)."""
        path: list[Any] = [start]
        visited: set[Any] = set()

        def walk(node: Any) -> bool:
            entry = self._waits.get(node)
            if entry is None:
                return False
            lock, exclusive = entry
            for blocker in self._blockers(node, lock, exclusive):
                if blocker == start:
                    return True
                if blocker in visited:
                    continue
                visited.add(blocker)
                path.append(blocker)
                if walk(blocker):
                    return True
                path.pop()
            return False

        return path if walk(start) else None


class RWLock:
    """A reader-writer lock with deadlock detection and writer preference.

    Re-entrant per transaction is not needed: the executor acquires each
    table lock at most once per statement/transaction.  ``owner`` is a
    transaction id where available; lock-table DDL acquires fall back to
    a per-thread owner token.
    """

    def __init__(self, name: str = "", timeout: float = 10.0, manager: LockManager | None = None):
        self.name = name
        self.timeout = timeout
        self.manager = manager if manager is not None else LockManager()
        self._reader_count: dict[Any, int] = {}
        self._writer_owner: Any | None = None
        self._waiting_writers = 0

    # -- introspection -------------------------------------------------------

    @property
    def writer_owner(self) -> Any | None:
        return self._writer_owner

    @property
    def reader_owners(self) -> list[Any]:
        return list(self._reader_count)

    @property
    def waiting_writers(self) -> int:
        return self._waiting_writers

    @property
    def is_idle(self) -> bool:
        """Nobody holds or waits on this lock (for leak regression tests)."""
        with self.manager._cond:
            return (
                self._writer_owner is None
                and not self._reader_count
                and self._waiting_writers == 0
            )

    # -- predicates (callers hold manager._cond) -----------------------------

    def _read_blocked(self, owner: Any) -> bool:
        if self._writer_owner is not None and self._writer_owner != owner:
            return True
        # writer preference: new readers queue behind waiting writers;
        # owners already reading may "re-enter" without queueing.
        if self._waiting_writers > 0 and owner not in self._reader_count:
            return True
        return False

    def _write_blocked(self, owner: Any) -> bool:
        if self._writer_owner is not None and self._writer_owner != owner:
            return True
        return any(reader != owner for reader in self._reader_count)

    # -- acquire/release -----------------------------------------------------

    def acquire_read(self, owner: Any = None, timeout: float | None = None) -> None:
        self._acquire(owner, exclusive=False, timeout=timeout)

    def acquire_write(self, owner: Any = None, timeout: float | None = None) -> None:
        self._acquire(owner, exclusive=True, timeout=timeout)

    def _acquire(self, owner: Any, exclusive: bool, timeout: float | None) -> None:
        if owner is None:
            owner = _thread_owner()
        manager = self.manager
        blocked = self._write_blocked if exclusive else self._read_blocked
        with manager._cond:
            if not blocked(owner):
                self._grant(owner, exclusive)
                return
            limit = self.timeout if timeout is None else timeout
            deadline = manager.clock() + limit
            manager._begin_wait(owner, self, exclusive)
            try:
                while True:
                    error = manager._victims.pop(owner, None)
                    if error is not None:
                        raise error
                    # Re-check the predicate on *every* wakeup — a timed-out
                    # wait() where the lock just became free must acquire,
                    # not raise.
                    if not blocked(owner):
                        self._grant(owner, exclusive)
                        return
                    remaining = deadline - manager.clock()
                    if remaining <= 0:
                        kind = "write" if exclusive else "read"
                        raise LockTimeoutError(
                            f"{kind} lock timeout on {self.name!r} (owner {owner!r})"
                        )
                    manager._cond.wait(remaining)
            finally:
                manager._end_wait(owner, self, exclusive)

    def _grant(self, owner: Any, exclusive: bool) -> None:
        if exclusive:
            self._writer_owner = owner
        else:
            self._reader_count[owner] = self._reader_count.get(owner, 0) + 1

    def release_read(self, owner: Any = None) -> None:
        if owner is None:
            owner = _thread_owner()
        with self.manager._cond:
            count = self._reader_count.get(owner)
            if not count:
                raise TransactionError(
                    f"read lock on {self.name!r} not held by {owner!r}"
                )
            if count == 1:
                del self._reader_count[owner]
            else:
                self._reader_count[owner] = count - 1
            self.manager._cond.notify_all()

    def release_write(self, owner: Any = None) -> None:
        with self.manager._cond:
            if self._writer_owner is None:
                raise TransactionError(f"write lock on {self.name!r} not held")
            if owner is not None and self._writer_owner != owner:
                raise TransactionError(
                    f"write lock on {self.name!r} held by {self._writer_owner!r}, "
                    f"not {owner!r}"
                )
            self._writer_owner = None
            self.manager._cond.notify_all()


class Transaction:
    """An open transaction: snapshot, undo information, and locks.

    ``isolation`` picks the read rule between statements:

    * :data:`READ_COMMITTED` (default, the engine's historical
      behavior) — :meth:`refresh_snapshot` advances the snapshot at
      every statement boundary, so later statements see concurrent
      commits immediately.
    * :data:`SNAPSHOT` — the snapshot taken at BEGIN is kept for the
      whole transaction; every statement reads the same committed
      state (plus own writes).  Combined with the storage layer's
      first-committer-wins write-write conflict check this is snapshot
      isolation: no read skew is observable within one transaction.
    """

    ACTIVE = "active"
    COMMITTED = "committed"
    ROLLED_BACK = "rolled_back"

    READ_COMMITTED = "read_committed"
    SNAPSHOT = "snapshot"

    def __init__(
        self,
        txn_id: int,
        snapshot_csn: int,
        manager: "TransactionManager",
        isolation: str = READ_COMMITTED,
    ):
        if isolation not in (Transaction.READ_COMMITTED, Transaction.SNAPSHOT):
            raise TransactionError(f"unknown isolation level {isolation!r}")
        self.txn_id = txn_id
        self.snapshot_csn = snapshot_csn
        self.isolation = isolation
        self.status = Transaction.ACTIVE
        self._manager = manager
        # Versions this transaction created / logically deleted, paired
        # with the storage that owns them (for rollback cleanup).
        self.created: list[tuple[TableStorage, int, RowVersion]] = []
        self.ended: list[RowVersion] = []
        self.write_locks: dict[str, RWLock] = {}
        self.read_locks: dict[str, RWLock] = {}

    # -- bookkeeping used by TableStorage ---------------------------------

    def record_create(self, storage: "TableStorage", rowid: int, version: "RowVersion") -> None:
        self.created.append((storage, rowid, version))

    def record_end(self, version: "RowVersion") -> None:
        self.ended.append(version)

    def note_write(
        self,
        kind: str,
        storage: "TableStorage",
        rowid: int,
        values: tuple | None = None,
    ) -> None:
        """Buffer a logical redo record for the WAL (no-op when the
        database is not durable).

        Called by :class:`TableStorage` while its mutation lock is held;
        the durability manager's buffer lock is a leaf, so this can
        never deadlock against a concurrent checkpoint.
        """
        durability = self._manager.durability
        if durability is None:
            return
        record: dict = {
            "k": kind,
            "t": self.txn_id,
            "tb": storage.schema.name.lower(),
            "r": rowid,
        }
        if values is not None:
            record["v"] = tuple(values)
        durability.note_dml(self.txn_id, record)

    def refresh_snapshot(self) -> None:
        """Advance the snapshot to the latest committed CSN.

        Called between statements for READ COMMITTED-style visibility,
        which matches what the graph layer needs: "any update to the
        relational tables from the transactional side is immediately
        available to the graph queries".  Under :data:`SNAPSHOT`
        isolation this is a no-op — the BEGIN-time snapshot holds for
        the transaction's lifetime.
        """
        if self.isolation == Transaction.SNAPSHOT:
            return
        self.snapshot_csn = self._manager.current_csn()

    def commit(self) -> int:
        return self._manager.commit(self)

    def rollback(self) -> None:
        self._manager.rollback(self)

    @property
    def is_active(self) -> bool:
        return self.status == Transaction.ACTIVE


class TransactionManager:
    """Allocates transactions and CSNs, and maps CSNs to wallclock time."""

    def __init__(self, clock: Clock | None = None):
        self.clock = clock or SystemClock()
        # Guards the counters and the AS OF history; readers take only
        # this one.
        self._lock = threading.Lock()
        # Serializes commits from CSN allocation to publishing ``_csn``,
        # so versions are logged, stamped and become visible in CSN
        # order.  The durability lock nests inside it.
        self._commit_lock = threading.Lock()
        self._next_txn_id = 1
        self._csn = 0
        # Parallel arrays: commit wallclock times and the CSN committed
        # at that time, used to translate AS OF timestamps to CSNs.
        self._commit_times: list[float] = []
        self._commit_csns: list[int] = []
        # Called with the written (lowercase) table names of every DML
        # commit, after version stamping and before lock release; the
        # database registers the cache epoch bump here.  Rollback never
        # fires these.
        self.commit_hooks: list = []
        # Durability manager (repro.durability) or None for a purely
        # in-memory database.  When set, commit routes version stamping
        # through it so the WAL group is flushed *before* the versions
        # become visible (durable-before-visible).
        self.durability = None
        # Replication node handle (repro.replication) or None.  When
        # set, commit is fenced (a deposed primary's writes are rejected
        # before any local effect) and, after the commit completes
        # locally, the handle may wait for replica acks (sync-ack mode).
        self.replication = None

    def begin(self, isolation: str = Transaction.READ_COMMITTED) -> Transaction:
        with self._lock:
            txn = Transaction(self._next_txn_id, self._csn, self, isolation)
            self._next_txn_id += 1
            return txn

    def current_csn(self) -> int:
        with self._lock:
            return self._csn

    def commit(self, txn: Transaction) -> int:
        if not txn.is_active:
            raise TransactionError(f"transaction {txn.txn_id} is not active")
        if self.replication is not None:
            # Fencing: a deposed primary must reject the write before
            # any local effect (no CSN allocated, nothing logged).
            self.replication.ensure_primary()
        # Only ops-bearing commits enter the AS OF history: a no-op
        # commit (e.g. a DELETE matching zero rows) stamps no versions
        # and writes no WAL group, so recording it would make the
        # in-memory history strictly richer than anything recovery or a
        # replica can rebuild — and it cannot change what any AS OF
        # snapshot sees.
        writes = bool(txn.created or txn.ended)
        with self._commit_lock:
            # Under the commit lock: every lower CSN is stamped and
            # published before this one is allocated, and commit times
            # stay sorted for csn_as_of.
            now = self.clock.now()
            csn = self._csn + 1

            def stamp() -> None:
                for _storage, _rowid, version in txn.created:
                    version.commit_begin(csn, now)
                for version in txn.ended:
                    version.commit_end(csn, now)
                with self._lock:
                    if writes:
                        self._commit_times.append(now)
                        self._commit_csns.append(csn)
                    self._csn = csn

            if self.durability is None:
                stamp()
            else:
                # Flush-before-commit: the WAL group reaches disk before
                # any version is stamped visible (and before the
                # epoch-bump hooks below).  A crash inside leaves the
                # transaction either fully durable or fully absent.
                self.durability.commit_transaction(txn, csn, now, stamp)
        txn.status = Transaction.COMMITTED
        # Epoch bumps must land after the versions above are stamped
        # (committed data visible before its epoch moves — the cache's
        # capture-before-SQL rule depends on this order) and before the
        # write locks release.
        if self.commit_hooks:
            written = list(txn.write_locks)
            if written:
                for hook in self.commit_hooks:
                    hook(written)
        self._release_locks(txn)
        if self.replication is not None:
            # Sync-ack mode pumps the replication transport until every
            # live replica has redo-applied this commit's frames (or
            # raises ReplicationAckTimeout — the commit stays durable
            # and visible locally, but is *uncertain* on the replicated
            # timeline).  Async mode pumps once, opportunistically.
            self.replication.on_commit(csn)
        return csn

    def rollback(self, txn: Transaction) -> None:
        if not txn.is_active:
            raise TransactionError(f"transaction {txn.txn_id} is not active")
        for storage, rowid, version in txn.created:
            storage.discard_version(rowid, version)
        for version in txn.ended:
            version.clear_end()
        if self.durability is not None:
            self.durability.rollback_transaction(txn)
        txn.status = Transaction.ROLLED_BACK
        self._release_locks(txn)

    # -- durability support --------------------------------------------------

    def peek_next_txn_id(self) -> int:
        with self._lock:
            return self._next_txn_id

    def commit_history(self, up_to_csn: int | None = None) -> list[tuple[float, int]]:
        """``(wallclock, csn)`` pairs of every commit, optionally capped
        at ``up_to_csn`` (checkpoints cap at the last *logged* CSN so an
        allocated-but-unflushed commit is never captured twice)."""
        with self._lock:
            pairs = list(zip(self._commit_times, self._commit_csns))
        if up_to_csn is None:
            return pairs
        return [(time, csn) for time, csn in pairs if csn <= up_to_csn]

    def note_replicated_commit(self, csn: int, now: float, txn_id: int = 0) -> None:
        """Advance the CSN clock and AS OF history for one redo-applied
        commit (replica apply path — the commit keeps the *primary's*
        CSN and wallclock stamps, so temporal queries agree across
        nodes).  Also tracks the highest replayed transaction id so a
        promoted replica allocates fresh ids.  Takes the commit lock, so
        a local commit on the standby cannot publish over it."""
        with self._commit_lock, self._lock:
            if csn > self._csn:
                self._csn = csn
                self._commit_times.append(now)
                self._commit_csns.append(csn)
            if txn_id >= self._next_txn_id:
                self._next_txn_id = txn_id + 1

    def restore_state(
        self, csn: int, next_txn_id: int, history: list[tuple[float, int]]
    ) -> None:
        """Reset counters and AS OF history after crash recovery."""
        with self._lock:
            self._csn = csn
            self._next_txn_id = max(next_txn_id, 1)
            self._commit_times = [time for time, _csn in history]
            self._commit_csns = [c for _time, c in history]

    def csn_as_of(self, timestamp: float) -> int:
        """The CSN visible at wallclock ``timestamp`` (for AS OF)."""
        with self._lock:
            pos = bisect.bisect_right(self._commit_times, timestamp)
            return self._commit_csns[pos - 1] if pos else 0

    def _release_locks(self, txn: Transaction) -> None:
        for lock in txn.write_locks.values():
            lock.release_write(txn.txn_id)
        txn.write_locks.clear()
        for lock in txn.read_locks.values():
            lock.release_read(txn.txn_id)
        txn.read_locks.clear()
