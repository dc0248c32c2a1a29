"""Unit tests for the versioned storage layer and MVCC visibility."""

import pytest

from repro.relational import Column, ConstraintViolationError, INTEGER, TableSchema, VARCHAR
from repro.relational.storage import RowVersion, TableStorage
from repro.relational.transactions import TransactionManager
from repro.common.clock import ManualClock


@pytest.fixture
def setup():
    schema = TableSchema(
        "t",
        [Column("id", INTEGER, nullable=False), Column("v", VARCHAR)],
        primary_key=["id"],
    )
    clock = ManualClock(100.0)
    manager = TransactionManager(clock)
    return TableStorage(schema), manager, clock


def visible_count(storage, snapshot_csn, txn_id=None):
    return len(storage.visible_rows(snapshot_csn, txn_id)[0])


def committed_insert(storage, manager, values):
    txn = manager.begin()
    rowid = storage.insert(values, txn)
    txn.commit()
    return rowid


class TestVisibility:
    def test_uncommitted_insert_invisible_to_snapshot(self, setup):
        storage, manager, _clock = setup
        txn = manager.begin()
        storage.insert((1, "a"), txn)
        assert visible_count(storage, manager.current_csn()) == 0
        assert visible_count(storage, txn.snapshot_csn, txn.txn_id) == 1

    def test_committed_insert_visible(self, setup):
        storage, manager, _clock = setup
        committed_insert(storage, manager, (1, "a"))
        assert visible_count(storage, manager.current_csn()) == 1

    def test_old_snapshot_does_not_see_later_commit(self, setup):
        storage, manager, _clock = setup
        old_csn = manager.current_csn()
        committed_insert(storage, manager, (1, "a"))
        assert visible_count(storage, old_csn) == 0

    def test_update_creates_version_chain(self, setup):
        storage, manager, _clock = setup
        rowid = committed_insert(storage, manager, (1, "a"))
        txn = manager.begin()
        storage.update(rowid, (1, "b"), txn)
        txn.commit()
        assert storage.version_count() == 2
        assert storage.fetch(rowid, manager.current_csn()) == (1, "b")

    def test_delete_hides_row_after_commit(self, setup):
        storage, manager, _clock = setup
        rowid = committed_insert(storage, manager, (1, "a"))
        txn = manager.begin()
        storage.delete(rowid, txn)
        # deleter still... doesn't see its own deleted row
        assert storage.fetch(rowid, txn.snapshot_csn, txn.txn_id) is None
        # others still see it until commit
        assert storage.fetch(rowid, manager.current_csn()) == (1, "a")
        txn.commit()
        assert storage.fetch(rowid, manager.current_csn()) is None

    def test_rollback_restores_previous_version(self, setup):
        storage, manager, _clock = setup
        rowid = committed_insert(storage, manager, (1, "a"))
        txn = manager.begin()
        storage.update(rowid, (1, "b"), txn)
        txn.rollback()
        assert storage.fetch(rowid, manager.current_csn()) == (1, "a")
        assert storage.version_count() == 1

    def test_write_write_conflict_detected(self, setup):
        storage, manager, _clock = setup
        rowid = committed_insert(storage, manager, (1, "a"))
        first = manager.begin()
        second = manager.begin()
        storage.update(rowid, (1, "b"), first)
        with pytest.raises(ConstraintViolationError):
            storage.update(rowid, (1, "c"), second)

    def test_stale_snapshot_update_rejected(self, setup):
        storage, manager, _clock = setup
        rowid = committed_insert(storage, manager, (1, "a"))
        stale = manager.begin()  # snapshot before the next update
        winner = manager.begin()
        storage.update(rowid, (1, "b"), winner)
        winner.commit()
        with pytest.raises(ConstraintViolationError):
            storage.update(rowid, (1, "c"), stale)


class TestTemporalStamps:
    def test_versions_carry_commit_times(self, setup):
        storage, manager, clock = setup
        rowid = committed_insert(storage, manager, (1, "a"))
        clock.advance(50)
        txn = manager.begin()
        storage.update(rowid, (1, "b"), txn)
        txn.commit()
        assert storage.fetch(rowid, 0, as_of=120.0) == (1, "a")
        assert storage.fetch(rowid, 0, as_of=160.0) == (1, "b")
        assert storage.fetch(rowid, 0, as_of=50.0) is None

    def test_visible_as_of_ignores_uncommitted(self, setup):
        storage, manager, clock = setup
        txn = manager.begin()
        storage.insert((1, "a"), txn)
        assert storage.fetch(1, 0, as_of=clock.now()) is None


class TestRowVersion:
    def test_own_uncommitted_visible(self):
        version = RowVersion((1,), begin_txn=7)
        assert version.visible_to(0, 7) is True
        assert version.visible_to(0, 8) is False
        assert version.visible_to(0, None) is False

    def test_own_delete_invisible(self):
        version = RowVersion((1,), begin_txn=7)
        version.commit_begin(1, 100.0)
        version.end_txn = 9
        assert version.visible_to(5, 9) is False
        assert version.visible_to(5, 7) is True  # delete not committed


class TestIndexesUnderMvcc:
    def test_index_probe_post_verification(self, setup):
        storage, manager, _clock = setup
        rowid = committed_insert(storage, manager, (1, "a"))
        txn = manager.begin()
        storage.update(rowid, (1, "b"), txn)
        txn.commit()
        index = storage.index_on(["id"])
        assert index is not None
        # the index may return the rowid for either version's key; the
        # visible version decides
        assert list(index.lookup((1,))) == [rowid]
        assert storage.fetch(rowid, manager.current_csn()) == (1, "b")

    def test_index_on_lookup_by_columns(self, setup):
        storage, _manager, _clock = setup
        assert storage.index_on(["id"]) is not None
        assert storage.index_on(["v"]) is None
        assert storage.index_on(["ID"]) is not None  # case-insensitive
