"""Batch filters and DML on the one table access path.

Residual WHERE conjuncts run as compiled batch filters; ``IN`` over a
column with row-independent items is a hash-set probe, which must keep
exactly the rows the row predicate keeps.  UPDATE and DELETE find their
rows through ``TableScanNode``, so a primary-key predicate visits only
the index candidates while MVCC post-verification and write-write
conflict detection still hold.
"""

import pytest

from repro.relational import ConstraintViolationError, Database
from repro.relational.expressions import ColumnRef, InList, Literal, Param, Scope
from repro.relational.planner import ExecContext
from repro.relational.storage import TableStorage
from repro.relational.transactions import Transaction

NULL = Literal(None)


def in_list(*items, negated=False):
    return InList(ColumnRef(None, "x"), tuple(items), negated)


def filtered(expr, rows, params=()):
    """The batch filter's output, asserted equal to the row predicate's."""
    scope = Scope([("t", "x")])
    row_fn = expr.compile(scope)
    ctx = ExecContext(None, None, list(params))
    expected = [row for row in rows if row_fn(row, ctx) is True]
    got = expr.compile_filter(scope)(list(rows), ExecContext(None, None, list(params)))
    assert got == expected
    return got


class TestInListBatchFilter:
    def test_null_column_never_matches(self):
        rows = [(None,), (1,), (2,), (3,)]
        assert filtered(in_list(Literal(1), Literal(3)), rows) == [(1,), (3,)]

    def test_null_item_only_makes_misses_unknown(self):
        rows = [(None,), (1,), (2,)]
        assert filtered(in_list(Literal(1), NULL), rows) == [(1,)]
        assert filtered(in_list(NULL), rows) == []

    def test_int_matches_float_item(self):
        rows = [(1,), (1.0,), (2,), (1.5,)]
        assert filtered(in_list(Literal(1.0)), rows) == [(1,), (1.0,)]
        assert filtered(in_list(Literal(1)), rows) == [(1,), (1.0,)]

    def test_true_and_one_compare_like_the_row_path(self):
        rows = [(True,), (False,), (1,), (0,)]
        assert filtered(in_list(Literal(1)), rows) == [(True,), (1,)]
        assert filtered(in_list(Literal(True)), rows) == [(True,), (1,)]

    def test_unhashable_item_falls_back_to_the_row_path(self):
        rows = [([1],), (2,), (3,)]
        assert filtered(in_list(Param(0), Literal(2)), rows, params=[[1]]) == [([1],), (2,)]

    def test_unhashable_column_value_falls_back_to_the_row_path(self):
        rows = [([2],), (2,), (None,)]
        assert filtered(in_list(Literal(2)), rows) == [(2,)]

    def test_parameters_bind_per_execution(self):
        expr = in_list(Param(0), Param(1))
        rows = [(1,), (2,), (3,)]
        assert filtered(expr, rows, params=[1, 3]) == [(1,), (3,)]
        assert filtered(expr, rows, params=[2, None]) == [(2,)]

    def test_empty_batch_evaluates_no_item(self):
        # like the row path, nothing is evaluated when no row reaches it
        expr = in_list(Param(0))
        assert expr.compile_filter(Scope([("t", "x")]))([], ExecContext(None, None, [])) == []

    def test_not_in_keeps_three_valued_semantics(self):
        rows = [(None,), (1,), (2,), (3,)]
        assert filtered(in_list(Literal(1), negated=True), rows) == [(2,), (3,)]
        assert filtered(in_list(Literal(1), NULL, negated=True), rows) == []

    def test_sql_in_on_unindexed_column(self, db):
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, x DOUBLE, b BOOLEAN)")
        db.execute(
            "INSERT INTO t VALUES (1, 1.0, TRUE), (2, NULL, FALSE), "
            "(3, 2.5, NULL), (4, 7.0, TRUE)"
        )
        query = "SELECT id FROM t WHERE {} ORDER BY id"
        assert db.execute(query.format("x IN (1, 7, NULL)")).rows == [(1,), (4,)]
        assert db.execute(query.format("x IN (?, ?)"), [2.5, None]).rows == [(3,)]
        assert db.execute(query.format("b IN (TRUE)")).rows == [(1,), (4,)]
        assert db.execute(query.format("x NOT IN (1, 7)")).rows == [(3,)]
        assert db.execute(query.format("x NOT IN (1, NULL)")).rows == []


@pytest.fixture
def keyed_db(db):
    db.execute("CREATE TABLE t (id INT PRIMARY KEY, v VARCHAR)")
    db.connect().insert_rows("t", [(key, f"v{key}") for key in range(1, 31)])
    return db


@pytest.fixture
def visits(monkeypatch):
    """Record the ``rowids`` argument of every batch visibility pass."""
    calls = []
    original = TableStorage.visible_rows

    def spy(self, snapshot_csn, txn_id=None, as_of=None, rowids=None):
        calls.append(None if rowids is None else list(rowids))
        return original(self, snapshot_csn, txn_id, as_of, rowids)

    monkeypatch.setattr(TableStorage, "visible_rows", spy)
    return calls


def rowid_of(db, key):
    index = db.catalog.get_table("t").storage.index_on(["id"])
    return sorted(index.lookup((key,)))


class TestDmlAccessPath:
    def test_pk_update_visits_only_the_index_candidate(self, keyed_db, visits):
        expected = rowid_of(keyed_db, 7)
        assert keyed_db.execute("UPDATE t SET v = 'x' WHERE id = ?", [7]).rowcount == 1
        assert visits == [expected]
        assert keyed_db.execute("SELECT v FROM t WHERE id = 7").rows == [("x",)]

    def test_pk_in_delete_visits_only_the_index_candidates(self, keyed_db, visits):
        expected = sorted(r for key in (2, 4, 6) for r in rowid_of(keyed_db, key))
        assert keyed_db.execute("DELETE FROM t WHERE id IN (2, 4, 6, 99)").rowcount == 3
        assert visits == [expected]
        assert keyed_db.table_row_count("t") == 27

    def test_unindexed_update_scans_the_table(self, keyed_db, visits):
        assert keyed_db.execute("UPDATE t SET v = 'y' WHERE v LIKE 'v1%'").rowcount == 11
        assert visits == [None]

    def test_key_changing_update_finds_its_row_through_the_stale_entry(self, keyed_db):
        reader = keyed_db.connect()
        reader.begin(Transaction.SNAPSHOT)
        assert keyed_db.execute("UPDATE t SET id = 100 WHERE id = 1").rowcount == 1
        # index entries outlive the key: a probe for 1 still finds the
        # row, and post-verification against the visible version drops it
        assert keyed_db.execute("SELECT v FROM t WHERE id = 1").rows == []
        assert keyed_db.execute("UPDATE t SET v = 'gone' WHERE id = 1").rowcount == 0
        # a snapshot that still sees key 1 reaches the row only that way
        assert reader.query("SELECT v FROM t WHERE id = 1") == [("v1",)]
        reader.rollback()
        # changing the key back makes the old entry live again
        assert keyed_db.execute("UPDATE t SET id = 1, v = 'back' WHERE id = 100").rowcount == 1
        assert keyed_db.execute("UPDATE t SET v = 'again' WHERE id = 1").rowcount == 1
        assert keyed_db.execute("SELECT id, v FROM t WHERE id IN (1, 100)").rows == [
            (1, "again")
        ]

    @pytest.mark.parametrize(
        "statement",
        ["UPDATE t SET v = 'late' WHERE id = 1", "DELETE FROM t WHERE id IN (1, 2)"],
    )
    def test_write_write_conflict_is_still_raised(self, keyed_db, statement):
        stale = keyed_db.connect()
        stale.begin(Transaction.SNAPSHOT)
        keyed_db.execute("UPDATE t SET v = 'first' WHERE id = 1")
        with pytest.raises(ConstraintViolationError):
            stale.execute(statement)
        stale.rollback()
        assert keyed_db.execute("SELECT v FROM t WHERE id = 1").rows == [("first",)]

    def test_row_count_sees_only_committed_rows(self, keyed_db):
        writer = keyed_db.connect()
        writer.begin()
        writer.execute("INSERT INTO t VALUES (50, 'pending')")
        writer.execute("DELETE FROM t WHERE id = 3")
        assert keyed_db.table_row_count("t") == 30
        writer.commit()
        assert keyed_db.table_row_count("t") == 30

    def test_foreign_key_checks_probe_the_index(self, people_db, visits):
        people_db.execute("INSERT INTO knows VALUES (5, 1, 2000)")
        assert visits and all(rowids is not None for rowids in visits)
        with pytest.raises(ConstraintViolationError):
            people_db.execute("INSERT INTO knows VALUES (5, 42, 2000)")
        with pytest.raises(ConstraintViolationError):
            people_db.execute("DELETE FROM person WHERE id = 5")
