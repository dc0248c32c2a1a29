"""Commits reach the WAL, get stamped and become visible in CSN order.

The lost-write recipe: writer A takes CSN n and stalls on its way into
the durability manager while writer B commits to another table.  If B
could take CSN n+1 and log first, A's late group would set
``last_logged_csn`` back to n; when A's commit then crosses
``checkpoint_every``, the checkpoint is capped below B's commit and the
segment holding B's WAL group is pruned — B's acknowledged row is gone
after a crash.  One commit lock around CSN allocation through
publishing makes B wait for A instead.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.durability import SimulatedCrash

pytestmark = pytest.mark.crash


@pytest.mark.parametrize("every", [2, 3, 4])
def test_stalled_commit_cannot_lose_a_later_commit(tmp_path, every):
    sim = SimulatedCrash(dir=str(tmp_path / "log"), checkpoint_every=every)
    db = sim.open()
    db.execute("CREATE TABLE a (id INT PRIMARY KEY)")
    db.execute("CREATE TABLE b (id INT PRIMARY KEY)")
    # Leave A's commit as the one that reaches checkpoint_every.
    for key in range(every - 2):
        db.execute(f"INSERT INTO a VALUES ({100 + key})")

    manager = db.durability
    commit_transaction = manager.commit_transaction
    stalled, release = threading.Event(), threading.Event()
    errors = []

    def stall_a(txn, csn, now, stamp):
        if threading.current_thread().name == "writer-a":
            stalled.set()
            release.wait(10)
        return commit_transaction(txn, csn, now, stamp)

    manager.commit_transaction = stall_a

    def run(sql):
        try:
            db.execute(sql)
        except Exception as exc:  # pragma: no cover - surfaced below
            errors.append(exc)

    writer_a = threading.Thread(target=run, args=("INSERT INTO a VALUES (1)",), name="writer-a")
    writer_b = threading.Thread(target=run, args=("INSERT INTO b VALUES (2)",), name="writer-b")
    writer_a.start()
    assert stalled.wait(10)
    writer_b.start()
    writer_b.join(0.3)
    # B waits for A: no CSN after A's may be logged or published first.
    assert writer_b.is_alive()
    release.set()
    writer_a.join(10)
    writer_b.join(10)
    assert not writer_a.is_alive() and not writer_b.is_alive()
    assert errors == []
    assert manager.last_logged_csn == db.txn_manager.current_csn()

    recovered = sim.reopen()
    assert recovered.execute("SELECT id FROM a WHERE id = 1").rows == [(1,)]
    assert recovered.execute("SELECT id FROM b").rows == [(2,)]


def test_snapshots_see_every_lower_csn_under_concurrent_commits(tmp_path):
    """Writers on separate tables commit one row per CSN while a reader
    takes snapshots: a snapshot at CSN s must see exactly the rows of
    CSNs up to s — never s without a lower one still unstamped."""
    sim = SimulatedCrash(dir=str(tmp_path / "log"), checkpoint_every=5)
    db = sim.open()
    tables = [f"t{i}" for i in range(4)]
    for name in tables:
        db.execute(f"CREATE TABLE {name} (id INT PRIMARY KEY)")
    manager = db.txn_manager
    base = manager.current_csn()
    storages = [db.catalog.get_table(name).storage for name in tables]
    per_writer = 60
    done = threading.Event()
    torn = []

    def write(name):
        for key in range(per_writer):
            db.execute(f"INSERT INTO {name} VALUES ({key})")

    def read():
        while not done.is_set():
            snapshot = manager.current_csn()
            visible = sum(len(s.visible_rows(snapshot)[0]) for s in storages)
            if visible != snapshot - base:
                torn.append((snapshot, visible))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        reader = threading.Thread(target=read)
        writers = [threading.Thread(target=write, args=(name,)) for name in tables]
        reader.start()
        for writer in writers:
            writer.start()
        for writer in writers:
            writer.join(60)
        done.set()
        reader.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not reader.is_alive() and not any(w.is_alive() for w in writers)
    assert torn == []
    assert manager.current_csn() == base + len(tables) * per_writer
    assert db.durability.last_logged_csn == manager.current_csn()
    history = manager.commit_history()
    assert [csn for _time, csn in history] == sorted(csn for _time, csn in history)
    assert [time for time, _csn in history] == sorted(time for time, _csn in history)

    recovered = sim.reopen()
    for name in tables:
        assert len(recovered.execute(f"SELECT id FROM {name}").rows) == per_writer
