"""Tests for the SQL Dialect module: statement generation, predicate
translation, frequent-pattern tracking, and the index advisor."""

import pytest

from repro.core.sql_dialect import (
    FrequentPatternTracker,
    SqlDialect,
    SqlPredicate,
    predicate_to_sql,
)
from repro.graph import P
from repro.obs import metrics as M


class TestPredicateTranslation:
    def test_eq(self):
        assert predicate_to_sql("c", P.eq(1)) == [SqlPredicate("c", "=", (1,))]

    def test_eq_null_becomes_is_null(self):
        assert predicate_to_sql("c", P.eq(None)) == [SqlPredicate("c", "IS NULL")]

    def test_neq_null_becomes_is_not_null(self):
        assert predicate_to_sql("c", P.neq(None)) == [SqlPredicate("c", "IS NOT NULL")]

    def test_orderings(self):
        assert predicate_to_sql("c", P.gt(1))[0].op == ">"
        assert predicate_to_sql("c", P.gte(1))[0].op == ">="
        assert predicate_to_sql("c", P.lt(1))[0].op == "<"
        assert predicate_to_sql("c", P.lte(1))[0].op == "<="

    def test_within_becomes_in(self):
        predicate = predicate_to_sql("c", P.within(1, 2))[0]
        assert predicate.op == "IN" and predicate.values == (1, 2)

    def test_empty_within_unconvertible(self):
        assert predicate_to_sql("c", P.within()) is None

    def test_between_becomes_two_conjuncts(self):
        result = predicate_to_sql("c", P.between(1, 5))
        assert result == [
            SqlPredicate("c", ">=", (1,)),
            SqlPredicate("c", "<", (5,)),
        ]

    def test_outside_unconvertible(self):
        assert predicate_to_sql("c", P.outside(1, 5)) is None


class TestStatementBuilding:
    def test_select_star(self):
        sql, params = SqlDialect.build_select("t", None)
        assert sql == "SELECT * FROM t"
        assert params == []

    def test_select_columns_and_predicates(self):
        sql, params = SqlDialect.build_select(
            "t", ["a", "b"], [SqlPredicate("a", "=", (1,)), SqlPredicate("b", "IN", (2, 3))]
        )
        assert sql == "SELECT a, b FROM t WHERE a = ? AND b IN (?, ?)"
        assert params == [1, 2, 3]

    def test_is_null_has_no_params(self):
        sql, params = SqlDialect.build_select("t", None, [SqlPredicate("a", "IS NULL")])
        assert sql.endswith("WHERE a IS NULL")
        assert params == []

    def test_count_aggregate(self):
        sql, _ = SqlDialect.build_select("t", None, aggregate=("count", None))
        assert sql.startswith("SELECT COUNT(*)")

    def test_sum_count_aggregate(self):
        sql, _ = SqlDialect.build_select("t", None, aggregate=("sum_count", "x"))
        assert "SUM(x), COUNT(x)" in sql

    def test_shape_fingerprint(self):
        assert SqlPredicate("A", "=", (1,)).shape() == "a ="
        assert SqlPredicate("a", "IN", (1, 2)).shape() == "a IN[2]"


class TestExecution:
    def test_select_returns_lowercase_keys_and_row_tuples(self, people_db):
        dialect = SqlDialect(people_db.connect())
        keys, rows = dialect.select(
            "person", ["ID", "Name"], [SqlPredicate("id", "=", (1,))]
        )
        assert list(keys) == ["id", "name"]
        assert [tuple(row) for row in rows] == [(1, "ada")]

    def test_prepared_statements_reused(self, people_db):
        dialect = SqlDialect(people_db.connect())
        for i in (1, 2, 3):
            dialect.select("person", ["name"], [SqlPredicate("id", "=", (i,))])
        # second and third reuse
        assert dialect.registry.counter(M.SQL_PREPARED_HITS).value == 2

    def test_use_prepared_false_bypasses_cache(self, people_db):
        dialect = SqlDialect(people_db.connect(), use_prepared=False)
        before = len(people_db.statement_cache)
        dialect.select("person", ["name"], [SqlPredicate("id", "=", (1,))])
        assert len(people_db.statement_cache) == before

    def test_aggregate_value(self, people_db):
        dialect = SqlDialect(people_db.connect())
        assert dialect.aggregate_value("person", "count", None) == 5
        assert dialect.aggregate_value("person", "max", "age") == 85

    def test_sum_and_count(self, people_db):
        dialect = SqlDialect(people_db.connect())
        total, count = dialect.sum_and_count("person", "age")
        assert (total, count) == (234, 4)

    def test_log_captures_sql(self, people_db):
        dialect = SqlDialect(people_db.connect())
        dialect.log = []
        dialect.select("person", None, [])
        assert dialect.log == ["SELECT * FROM person"]


class TestPatternTracker:
    def test_below_threshold_not_frequent(self):
        tracker = FrequentPatternTracker(threshold=3)
        tracker.record("t", [SqlPredicate("a", "=", (1,))])
        assert tracker.frequent_patterns() == []

    def test_frequent_pattern_surfaces(self):
        tracker = FrequentPatternTracker(threshold=3)
        for _ in range(3):
            tracker.record("t", [SqlPredicate("a", "=", (1,))])
        patterns = tracker.frequent_patterns()
        assert patterns == [("t", ("a",), 3)]

    def test_values_do_not_matter_for_shape(self):
        tracker = FrequentPatternTracker(threshold=2)
        tracker.record("t", [SqlPredicate("a", "=", (1,))])
        tracker.record("t", [SqlPredicate("a", "=", (999,))])
        assert tracker.frequent_patterns()

    def test_range_only_patterns_ignored(self):
        tracker = FrequentPatternTracker(threshold=1)
        tracker.record("t", [SqlPredicate("a", ">", (1,))])
        assert tracker.frequent_patterns() == []


class TestIndexAdvisor:
    def test_suggests_missing_index(self, people_db):
        dialect = SqlDialect(people_db.connect(), pattern_threshold=2)
        for _ in range(3):
            dialect.select("person", None, [SqlPredicate("city", "=", ("london",))])
        assert ("person", ("city",)) in dialect.suggest_indexes()

    def test_no_suggestion_when_index_exists(self, people_db):
        people_db.execute("CREATE INDEX idx_city ON person (city)")
        dialect = SqlDialect(people_db.connect(), pattern_threshold=2)
        for _ in range(3):
            dialect.select("person", None, [SqlPredicate("city", "=", ("london",))])
        assert dialect.suggest_indexes() == []

    def test_create_suggested_indexes(self, people_db):
        dialect = SqlDialect(people_db.connect(), pattern_threshold=2)
        for _ in range(3):
            dialect.select("person", None, [SqlPredicate("city", "=", ("london",))])
        created = dialect.create_suggested_indexes()
        assert created == ["advisor_person_city"]
        assert people_db.catalog.has_index("advisor_person_city")
        # second run is a no-op
        assert dialect.create_suggested_indexes() == []
