"""Deadlock detection, victim selection, writer preference, and the
lock-leak / deadline-loop regressions.

The opposite-order-writers scenario is the acceptance test from the
issue: before the wait-for-graph detector this blocked for the full
10 s lock timeout; now one transaction (the youngest) is chosen as the
victim and fails in well under a second while the other proceeds.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.relational import Database, DeadlockError, LockTimeoutError
from repro.relational.transactions import LockManager, RWLock


def _wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.001)
    return False


@pytest.fixture
def two_tables():
    db = Database()
    db.execute("CREATE TABLE a (id INT)")
    db.execute("CREATE TABLE b (id INT)")
    return db


class TestDeadlockDetection:
    def test_opposite_order_writers_raise_deadlock_fast(self, two_tables):
        db = two_tables
        c1, c2 = db.connect(), db.connect()
        c1.execute("BEGIN")
        c2.execute("BEGIN")
        c1.execute("INSERT INTO a VALUES (1)")  # txn1 holds a
        c2.execute("INSERT INTO b VALUES (1)")  # txn2 holds b
        txn1_id = c1.current_txn.txn_id
        txn2_id = c2.current_txn.txn_id
        assert txn2_id > txn1_id  # c2 began later: the younger txn

        survivor_error: list[Exception] = []

        def cross():  # txn1 now wants b — blocks behind txn2
            try:
                c1.execute("INSERT INTO b VALUES (2)")
            except Exception as error:  # pragma: no cover - failure path
                survivor_error.append(error)

        thread = threading.Thread(target=cross)
        started = time.monotonic()
        thread.start()
        assert _wait_until(lambda: txn1_id in db.lock_manager.waiting_owners())

        # txn2 wants a — closes the cycle; txn2 is youngest, so it is
        # the victim and fails immediately (no 10 s timeout).
        with pytest.raises(DeadlockError) as info:
            c2.execute("INSERT INTO a VALUES (2)")
        elapsed = time.monotonic() - started
        assert elapsed < 1.0, f"deadlock took {elapsed:.2f}s to detect"
        assert info.value.victim == txn2_id
        assert set(info.value.cycle) == {txn1_id, txn2_id}

        # the victim's transaction is still rollback-able; rolling it
        # back releases b and unblocks the survivor
        c2.rollback()
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert not survivor_error
        c1.commit()
        assert db.lock_manager.is_clean()
        assert db.execute("SELECT COUNT(*) FROM b").scalar() == 1

    def test_victim_waiting_in_wait_loop_is_woken(self, two_tables):
        """When the cycle-closing request comes from the *older* txn,
        the younger one — already blocked in its wait loop — must be
        woken and receive the DeadlockError."""
        db = two_tables
        c1, c2 = db.connect(), db.connect()
        c1.execute("BEGIN")
        c2.execute("BEGIN")
        c2.execute("INSERT INTO b VALUES (1)")  # younger txn holds b first
        c1.execute("INSERT INTO a VALUES (1)")
        txn1_id = c1.current_txn.txn_id
        txn2_id = c2.current_txn.txn_id

        victim_error: list[Exception] = []

        def younger_waits():  # txn2 wants a — blocks behind txn1
            try:
                c2.execute("INSERT INTO a VALUES (2)")
            except Exception as error:
                victim_error.append(error)
                c2.rollback()  # victim client responds by rolling back

        thread = threading.Thread(target=younger_waits)
        thread.start()
        assert _wait_until(lambda: txn2_id in db.lock_manager.waiting_owners())

        # txn1 wants b: cycle closes, but txn2 (younger) is the victim —
        # this statement *succeeds* once the victim rolls back.
        c1.execute("INSERT INTO b VALUES (2)")
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert len(victim_error) == 1
        assert isinstance(victim_error[0], DeadlockError)
        assert victim_error[0].victim == txn2_id

        c1.commit()
        assert db.lock_manager.is_clean()

    def test_deadlock_counter_and_trace_emitted(self, two_tables):
        from repro.obs import metrics as M
        from repro.obs import tracing
        from repro.obs.tracing import TraceRecorder

        db = two_tables
        trace = TraceRecorder(enabled=True)
        db.bind_observability(db.obs_registry, trace)
        c1, c2 = db.connect(), db.connect()
        c1.execute("BEGIN")
        c2.execute("BEGIN")
        c1.execute("INSERT INTO a VALUES (1)")
        c2.execute("INSERT INTO b VALUES (1)")

        thread = threading.Thread(target=lambda: c1.execute("INSERT INTO b VALUES (2)"))
        thread.start()
        assert _wait_until(
            lambda: c1.current_txn.txn_id in db.lock_manager.waiting_owners()
        )
        with pytest.raises(DeadlockError):
            c2.execute("INSERT INTO a VALUES (2)")
        c2.rollback()
        thread.join(timeout=5.0)
        c1.commit()

        assert db.obs_registry.counter(M.LOCK_DEADLOCKS).value == 1
        assert trace.count(tracing.DEADLOCK_DETECTED) == 1
        assert db.obs_registry.counter(M.LOCK_WAITS).value == trace.count(
            tracing.LOCK_WAIT
        )
        assert trace.count(tracing.LOCK_WAIT) >= 2  # both blocked acquires


class TestWriterPreference:
    def test_new_readers_queue_behind_waiting_writer(self):
        lock = RWLock("t", timeout=5.0)
        lock.acquire_read(owner=1)
        blocked = threading.Thread(target=lambda: lock.acquire_write(owner=2))
        blocked.start()
        assert _wait_until(lambda: lock.waiting_writers == 1)

        # a steady stream of new readers must NOT starve the writer:
        # they queue behind it and time out instead of sneaking in
        with pytest.raises(LockTimeoutError):
            lock.acquire_read(owner=3, timeout=0.05)

        lock.release_read(owner=1)  # writer's turn now
        blocked.join(timeout=5.0)
        assert lock.writer_owner == 2
        lock.release_write(owner=2)
        # with the writer gone, readers acquire freely again
        lock.acquire_read(owner=3, timeout=0.05)
        lock.release_read(owner=3)
        assert lock.is_idle

    def test_existing_reader_may_reenter_despite_waiting_writer(self):
        lock = RWLock("t", timeout=5.0)
        lock.acquire_read(owner=1)
        blocked = threading.Thread(target=lambda: lock.acquire_write(owner=2))
        blocked.start()
        assert _wait_until(lambda: lock.waiting_writers == 1)
        # re-entrant read by the holder must not deadlock against itself
        lock.acquire_read(owner=1, timeout=0.05)
        lock.release_read(owner=1)
        lock.release_read(owner=1)
        blocked.join(timeout=5.0)
        lock.release_write(owner=2)
        assert lock.is_idle


class TestDeadlineLoopRegression:
    def test_wakeup_after_timeout_with_free_lock_acquires(self, monkeypatch):
        """The old loop raised whenever ``wait()`` returned False, even
        when the lock had just been freed — the predicate must be
        re-checked after every wakeup."""
        lock = RWLock("t")
        lock.acquire_write(owner=1)

        def timed_out_but_freed(timeout=None):
            # simulate: wait() times out, but the writer released while
            # we were blocked
            lock._writer_owner = None
            return False

        monkeypatch.setattr(lock.manager._cond, "wait", timed_out_but_freed)
        lock.acquire_read(owner=2, timeout=0.05)  # must acquire, not raise
        assert lock.reader_owners == [2]
        lock.release_read(owner=2)

    def test_timeout_recomputed_across_spurious_wakeups(self):
        """Spurious wakeups must not each restart the full timeout: total
        wait stays near the requested deadline."""
        lock = RWLock("t")
        lock.acquire_write(owner=1)
        waker_stop = threading.Event()

        def waker():  # storm of notifies = spurious wakeups for the reader
            while not waker_stop.is_set():
                with lock.manager._cond:
                    lock.manager._cond.notify_all()
                time.sleep(0.002)

        thread = threading.Thread(target=waker)
        thread.start()
        started = time.monotonic()
        try:
            with pytest.raises(LockTimeoutError):
                lock.acquire_read(owner=2, timeout=0.1)
            elapsed = time.monotonic() - started
            assert elapsed < 2.0, f"timeout ballooned to {elapsed:.2f}s"
        finally:
            waker_stop.set()
            thread.join(timeout=5.0)
        lock.release_write(owner=1)


class TestLockLeakRegression:
    def test_txn_usable_after_lock_timeout_rollback_then_retry(self, two_tables):
        db = two_tables
        table = db.catalog.get_table("a")
        table.lock.timeout = 0.05
        c1, c2 = db.connect(), db.connect()

        c1.execute("BEGIN")
        c1.execute("INSERT INTO a VALUES (1)")  # c1 holds a's write lock

        c2.execute("BEGIN")
        c2.execute("INSERT INTO b VALUES (1)")
        with pytest.raises(LockTimeoutError):
            c2.execute("INSERT INTO a VALUES (2)")  # times out on a

        # no stale wait entries or reader/writer counts
        assert db.lock_manager.is_clean()
        assert table.lock.writer_owner == c1.current_txn.txn_id

        # the failed statement left c2's transaction rollback-able
        c2.rollback()
        c1.commit()
        assert table.lock.is_idle

        # ...and retry succeeds
        c2.execute("INSERT INTO a VALUES (2)")
        assert db.execute("SELECT COUNT(*) FROM a").scalar() == 2
        # b's insert was rolled back with c2's transaction
        assert db.execute("SELECT COUNT(*) FROM b").scalar() == 0

    def test_autocommit_lock_timeout_leaves_no_active_txn(self, two_tables):
        db = two_tables
        db.catalog.get_table("a").lock.timeout = 0.05
        c1, c2 = db.connect(), db.connect()
        c1.execute("BEGIN")
        c1.execute("INSERT INTO a VALUES (1)")

        with pytest.raises(LockTimeoutError):
            c2.execute("INSERT INTO a VALUES (2)")  # autocommit statement
        assert c2.current_txn is None  # no leaked ACTIVE transaction
        assert db.lock_manager.is_clean()

        c1.commit()
        c2.execute("INSERT INTO a VALUES (3)")  # connection still usable
        assert db.execute("SELECT COUNT(*) FROM a").scalar() == 2


class TestStandaloneLock:
    def test_standalone_rwlock_keeps_private_manager(self):
        a, b = RWLock("a"), RWLock("b")
        assert a.manager is not b.manager  # no accidental shared state
        a.acquire_write(owner=1)
        b.acquire_write(owner=1)
        a.release_write(owner=1)
        b.release_write(owner=1)
        assert a.is_idle and b.is_idle

    def test_database_tables_share_one_manager(self, two_tables):
        db = two_tables
        lock_a = db.catalog.get_table("a").lock
        lock_b = db.catalog.get_table("b").lock
        assert lock_a.manager is lock_b.manager is db.lock_manager

    def test_thread_owner_never_beats_txn_in_victim_selection(self):
        manager = LockManager()
        lock_a = RWLock("a", manager=manager)
        lock_b = RWLock("b", manager=manager)
        # txn 5 holds a; this thread (DDL-style, negative owner) holds b
        lock_a.acquire_write(owner=5)
        lock_b.acquire_write()  # thread-owner fallback

        waiter_error: list[Exception] = []

        def txn_waits():  # txn 5 wants b
            try:
                lock_b.acquire_write(owner=5, timeout=5.0)
            except DeadlockError as error:
                waiter_error.append(error)
                lock_a.release_write(owner=5)  # the victim "rolls back"

        thread = threading.Thread(target=txn_waits)
        thread.start()
        assert _wait_until(lambda: 5 in manager.waiting_owners())
        # this thread wants a: cycle {5, -thread}; the positive txn id
        # is always the max — the txn is the victim, never the thread,
        # so this acquire succeeds once the victim releases.
        lock_a.acquire_write(timeout=5.0)
        thread.join(timeout=5.0)
        assert len(waiter_error) == 1
        assert waiter_error[0].victim == 5
        lock_a.release_write()
        lock_b.release_write()
        assert manager.is_clean()
