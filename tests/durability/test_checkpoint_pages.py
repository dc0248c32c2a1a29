"""The checkpoint page cache: cached captures are byte-identical to cold
ones, and a checkpoint re-encodes only the pages that changed.

The durability manager keeps the encoded version chains of every page
of 8 rowids and reuses them until a commit writes the page.  The
property here is the strongest one available: after every commit of a
seeded DML history, the page-cached capture equals a cold
``capture_checkpoint`` byte for byte — and so does every checkpoint
file written along the way.
"""

from __future__ import annotations

import random

import pytest

from repro.durability import DurabilityConfig, SimulatedCrash
from repro.durability import checkpoint as ckpt
from repro.durability.checkpoint import PAGE_ROWS, capture_checkpoint
from repro.durability.codec import encode_record
from repro.relational import ConstraintViolationError, Database

TABLES = ("a", "b", "c")


def _cold(db, csn=None):
    if csn is None:
        csn = db.durability.last_logged_csn
    return capture_checkpoint(db, csn)


def _assert_identical(db):
    assert db.durability.capture() == _cold(db)


class _History:
    """A seeded DML history over three tables, with a commit-by-commit
    byte-identity check."""

    def __init__(self, db, rng):
        self.db = db
        self.rng = rng
        self.conn = db.connect()
        self.next_id = {name: 1 for name in TABLES}
        self.widened = set()
        self.seen_checkpoints = db.durability.checkpoints_written

    def check(self):
        db = self.db
        manager = db.durability
        if manager.checkpoints_written != self.seen_checkpoints:
            # A checkpoint was written since the last check: its file
            # holds exactly the state a cold capture sees now.
            self.seen_checkpoints = manager.checkpoints_written
            assert manager.checkpoint_path().read_bytes() == b"".join(_cold(db))
        _assert_identical(db)

    def ids(self, table):
        return [row[0] for row in self.conn.query(f"SELECT id FROM {table}")]

    def write(self, conn, table):
        """One random INSERT / UPDATE / DELETE on ``table``."""
        rng = self.rng
        existing = self.ids(table)
        kind = rng.choice(["insert", "insert", "update", "delete"]) if existing else "insert"
        if kind == "insert":
            count = rng.randint(1, 12)
            rows = []
            for _ in range(count):
                rows.append((self.next_id[table], rng.randint(0, 99), f"v{rng.random():.6f}"))
                self.next_id[table] += 1
            values = ", ".join(f"({i}, {n}, '{s}')" for i, n, s in rows)
            conn.execute(f"INSERT INTO {table} (id, n, s) VALUES {values}")
        elif kind == "update":
            key = rng.choice(existing)
            conn.execute(f"UPDATE {table} SET n = n + 1 WHERE id = {key}")
        else:
            key = rng.choice(existing)
            conn.execute(f"DELETE FROM {table} WHERE id = {key}")

    def step(self):
        rng = self.rng
        roll = rng.random()
        table = rng.choice(TABLES)
        if roll < 0.6:
            self.write(self.conn, table)
            self.check()
        elif roll < 0.7:
            # Rolled back: its versions come and go without a commit.
            conn = self.db.connect()
            conn.begin()
            self.write(conn, table)
            self.write(conn, table)
            conn.rollback()
            self.check()
        elif roll < 0.8:
            # Open across a checkpoint and a lowered-cap capture, then
            # committed or rolled back.
            conn = self.db.connect()
            conn.begin()
            self.write(conn, table)
            self.check()
            self.db.checkpoint()
            self.check()
            self.lowered_cap()
            try:
                self.write(conn, table)
            except ConstraintViolationError:
                pass  # the row it picked is gone from its snapshot
            if rng.random() < 0.5:
                conn.commit()
            else:
                conn.rollback()
            self.check()
        elif roll < 0.9:
            self.lowered_cap()
            self.check()
        elif roll < 0.95 and table not in self.widened:
            self.widened.add(table)
            self.conn.execute(f"ALTER TABLE {table} ADD COLUMN extra_{table} INT")
            self.check()
        else:
            self.db.checkpoint()
            self.check()

    def lowered_cap(self):
        manager = self.db.durability
        low = self.rng.randint(0, manager.last_logged_csn)
        assert capture_checkpoint(self.db, low, manager._pages) == _cold(self.db, low)


def _open(tmp_path, checkpoint_every=0):
    return Database(
        durability=DurabilityConfig(
            dir=str(tmp_path / "log"), fsync=False, checkpoint_every=checkpoint_every
        )
    )


def _create_tables(db):
    for name in TABLES:
        db.execute(f"CREATE TABLE {name} (id INT PRIMARY KEY, n INT, s VARCHAR)")


@pytest.mark.parametrize("seed", range(8))
def test_cached_capture_is_byte_identical_after_every_commit(tmp_path, seed):
    rng = random.Random(seed)
    db = _open(tmp_path, checkpoint_every=rng.choice([0, 3, 7]))
    _create_tables(db)
    history = _History(db, rng)
    for _ in range(120):
        history.step()
    # The state the cache helped write is the state recovery rebuilds.
    expected = {name: sorted(db.execute(f"SELECT * FROM {name}").rows) for name in TABLES}
    db.checkpoint()
    db.close()
    recovered = Database.open(DurabilityConfig(dir=str(tmp_path / "log"), fsync=False))
    for name in TABLES:
        assert sorted(recovered.execute(f"SELECT * FROM {name}").rows) == expected[name]


def test_recovered_out_of_order_rowids_stay_byte_identical(tmp_path):
    """Redo can leave a table's rows out of rowid order; such a table is
    encoded cold, and the cache keeps serving the others."""
    sim = SimulatedCrash(dir=str(tmp_path / "log"))
    db = sim.open()
    _create_tables(db)
    for name in TABLES:
        db.execute(f"INSERT INTO {name} VALUES (1, 1, 'x'), (2, 2, 'y')")
    manager = db.durability
    csn = manager.last_logged_csn
    now = db.now()
    # Two committed groups whose inserts land in descending rowid order.
    frames = []
    for offset, (rowid, key) in enumerate([(12, 30), (11, 20)]):
        txn = 900 + offset
        frames += [
            encode_record({"k": "begin", "t": txn}),
            encode_record(
                {"k": "insert", "t": txn, "tb": "a", "r": rowid, "v": (key, key, "z")}
            ),
            encode_record({"k": "commit", "t": txn, "c": csn + 1 + offset, "w": now}),
        ]
    with open(manager.wal_path(), "ab") as f:
        f.write(b"".join(frames))

    recovered = sim.reopen()
    assert list(recovered.catalog.get_table("a").storage._rows)[-2:] == [12, 11]
    assert sorted(r[0] for r in recovered.execute("SELECT id FROM a").rows) == [1, 2, 20, 30]
    history = _History(recovered, random.Random(99))
    history.next_id = {name: 100 for name in TABLES}
    _assert_identical(recovered)
    for _ in range(60):
        history.step()


@pytest.mark.parametrize("k", [1, 4, 16])
def test_checkpoint_encodes_rows_of_at_most_k_pages(tmp_path, monkeypatch, k):
    db = _open(tmp_path)
    db.execute("CREATE TABLE big (id INT PRIMARY KEY, n INT)")
    db.connect().insert_rows("big", [(i, 0) for i in range(10_000)])
    db.checkpoint()  # fills the page cache
    rng = random.Random(k)
    for key in rng.sample(range(10_000), k):
        db.execute(f"UPDATE big SET n = n + 1 WHERE id = {key}")

    calls = []
    encode_chain = ckpt._chain_versions

    def counting(rowid, chain, checkpoint_csn):
        calls.append(rowid)
        return encode_chain(rowid, chain, checkpoint_csn)

    monkeypatch.setattr(ckpt, "_chain_versions", counting)
    db.checkpoint()
    assert 0 < len(calls) <= k * PAGE_ROWS
    monkeypatch.undo()
    assert db.durability.checkpoint_path().read_bytes() == b"".join(_cold(db))
