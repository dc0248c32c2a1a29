"""Seeded differential: the batch visibility pass against per-rowid fetch.

``TableStorage.visible_rows`` is the engine's only read path and inlines
the common MVCC case.  ``fetch`` keeps the plain per-version rules, so it
is the reference: for every snapshot, transaction and ``AS OF`` time of a
random history, both must return the same rows in the same order.
"""

import random

import pytest

from repro.common.clock import ManualClock
from repro.relational import Column, ConstraintViolationError, INTEGER, TableSchema, VARCHAR
from repro.relational.storage import TableStorage
from repro.relational.transactions import TransactionManager

SEEDS = range(40)


def make_storage():
    schema = TableSchema(
        "t",
        [Column("id", INTEGER, nullable=False), Column("v", VARCHAR)],
        primary_key=["id"],
    )
    clock = ManualClock(1000.0)
    return TableStorage(schema), TransactionManager(clock), clock


def random_history(seed):
    """Interleaved transactions that insert, update (sometimes changing
    the key), delete, commit and roll back; some stay open at the end."""
    rng = random.Random(seed)
    storage, manager, clock = make_storage()
    txns, open_txns, rowids, times = [], [], [], [clock.now()]
    next_key = 1
    for step in range(rng.randint(25, 70)):
        clock.advance(rng.choice((0.5, 1.0, 2.5)))
        if not open_txns or rng.random() < 0.2:
            txn = manager.begin()
            txns.append(txn)
            open_txns.append(txn)
        txn = rng.choice(open_txns)
        action = rng.choice(("insert", "insert", "update", "update", "delete", "commit", "rollback"))
        try:
            if action == "insert" or not rowids:
                rowids.append(storage.insert((next_key, f"v{step}"), txn))
                next_key += 1
            elif action == "update":
                rowid = rng.choice(rowids)
                current = storage.fetch(rowid, txn.snapshot_csn, txn.txn_id)
                if current is not None:
                    key = current[0]
                    if rng.random() < 0.3:
                        key, next_key = next_key, next_key + 1
                    storage.update(rowid, (key, f"u{step}"), txn)
            elif action == "delete":
                storage.delete(rowid=rng.choice(rowids), txn=txn)
            elif action == "commit":
                txn.commit()
                open_txns.remove(txn)
                times.append(clock.now())
            else:
                txn.rollback()
                open_txns.remove(txn)
        except ConstraintViolationError:
            pass  # not visible to this txn, or a write-write conflict
    return storage, manager, txns, rowids, times


def reference(storage, rowids, snapshot_csn, txn_id, as_of=None):
    out = []
    for rowid in rowids:
        values = storage.fetch(rowid, snapshot_csn, txn_id, as_of)
        if values is not None:
            out.append((rowid, values))
    return out


def batch(storage, snapshot_csn, txn_id, as_of=None, rowids=None):
    ids, rows = storage.visible_rows(snapshot_csn, txn_id, as_of, rowids)
    assert len(ids) == len(rows)
    return list(zip(ids, rows))


@pytest.mark.parametrize("seed", SEEDS)
def test_visible_rows_matches_fetch(seed):
    storage, manager, txns, rowids, times = random_history(seed)
    rng = random.Random(seed + 1000)
    every = sorted(set(rowids))
    readers = [None] + [txn.txn_id for txn in txns]
    for snapshot_csn in range(manager.current_csn() + 1):
        for txn_id in readers:
            assert batch(storage, snapshot_csn, txn_id) == reference(
                storage, every, snapshot_csn, txn_id
            )
            # index candidates: a sorted subset plus rowids that never existed
            candidates = sorted(rng.sample(every, len(every) // 2) + [0, 10_000])
            assert batch(storage, snapshot_csn, txn_id, rowids=candidates) == reference(
                storage, candidates, snapshot_csn, txn_id
            )
    for stamp in times:
        for as_of in (stamp - 0.25, stamp, stamp + 0.25):
            assert batch(storage, 0, None, as_of) == reference(storage, every, 0, None, as_of)


def test_each_mvcc_case_matches_fetch():
    """One deterministic history holding every case the fast path must
    hand to the per-version rules."""
    storage, manager, clock = make_storage()
    setup = manager.begin()
    rows = [storage.insert((key, "a"), setup) for key in range(1, 8)]
    setup.commit()
    before_writes = manager.current_csn()
    clock.advance(10)

    superseded = manager.begin()  # committed chain of three versions
    storage.update(rows[0], (1, "b"), superseded)
    superseded.commit()
    again = manager.begin()
    storage.update(rows[0], (1, "c"), again)
    again.commit()
    committed_delete = manager.begin()
    storage.delete(rows[1], committed_delete)
    committed_delete.commit()
    after_commits = manager.current_csn()
    clock.advance(10)

    mine = manager.begin()
    own_insert = storage.insert((20, "mine"), mine)
    storage.update(rows[2], (3, "mine"), mine)
    storage.delete(rows[3], mine)
    storage.update(rows[4], (50, "mine"), mine)  # key-changing
    theirs = manager.begin()
    storage.insert((30, "theirs"), theirs)
    storage.update(rows[5], (6, "theirs"), theirs)
    storage.delete(rows[6], theirs)

    every = rows + [own_insert, own_insert + 1]
    for snapshot_csn in (0, before_writes, after_commits, manager.current_csn()):
        for txn_id in (None, mine.txn_id, theirs.txn_id):
            assert batch(storage, snapshot_csn, txn_id) == reference(
                storage, every, snapshot_csn, txn_id
            )
    now = manager.current_csn()
    assert dict(batch(storage, now, mine.txn_id))[rows[2]] == (3, "mine")
    assert rows[3] not in dict(batch(storage, now, mine.txn_id))
    assert dict(batch(storage, now, theirs.txn_id))[rows[3]] == (4, "a")
    assert dict(batch(storage, now, None))[rows[0]] == (1, "c")
    assert dict(batch(storage, before_writes, None))[rows[0]] == (1, "a")
    assert rows[1] not in dict(batch(storage, now, None))
    for as_of in (1000.0, 1005.0, 1015.0, clock.now()):
        assert batch(storage, 0, None, as_of) == reference(storage, every, 0, None, as_of)
