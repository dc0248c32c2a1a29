"""Unit tests for aggregate reducers and table schemas."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.relational import Column, ForeignKey, INTEGER, TableSchema, VARCHAR
from repro.relational.aggregates import reducer, step
from repro.relational.errors import CatalogError, ConstraintViolationError, ExecutionError


class TestAccumulators:
    """The reducers AggregateNode calls once per group and aggregate."""

    def test_count_star_counts_rows(self):
        assert reducer("COUNT", star=True)([1, None, "x"]) == 3

    def test_count_column_skips_null(self):
        assert reducer("count")([1, None, 2]) == 2

    def test_sum_avg(self):
        values = [1, None, 2, 3]
        assert reducer("SUM")(values) == 6
        assert reducer("AVG")(values) == 2.0

    def test_min_max(self):
        values = [5, None, 1, 9]
        assert reducer("MIN")(values) == 1
        assert reducer("MAX")(values) == 9

    def test_empty_results(self):
        assert reducer("COUNT")([]) == 0
        for name in ("SUM", "AVG", "MIN", "MAX"):
            assert reducer(name)([]) is None

    def test_sum_rejects_strings(self):
        with pytest.raises(ExecutionError):
            step("SUM", None, "text")

    def test_min_max_on_strings(self):
        assert reducer("MIN")(["banana", "apple"]) == "apple"

    def test_unknown_aggregate(self):
        with pytest.raises(ExecutionError):
            reducer("MEDIAN")

    @given(st.lists(st.one_of(st.none(), st.integers(-100, 100)), max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_property_matches_python(self, values):
        non_null = [v for v in values if v is not None]
        result = {name: reducer(name)(values) for name in ("SUM", "AVG", "MIN", "MAX", "COUNT")}
        assert result["COUNT"] == len(non_null)
        assert result["SUM"] == (sum(non_null) if non_null else None)
        assert result["MIN"] == (min(non_null) if non_null else None)
        assert result["MAX"] == (max(non_null) if non_null else None)
        if non_null:
            assert result["AVG"] == pytest.approx(sum(non_null) / len(non_null))


class TestTableSchema:
    def make(self):
        return TableSchema(
            "t",
            [Column("id", INTEGER, nullable=False), Column("name", VARCHAR)],
            primary_key=["id"],
        )

    def test_column_lookup_case_insensitive(self):
        schema = self.make()
        assert schema.column_position("ID") == 0
        assert schema.column("NAME").name == "name"
        assert schema.has_column("Id")
        assert not schema.has_column("nope")

    def test_unknown_column_raises(self):
        with pytest.raises(CatalogError):
            self.make().column_position("ghost")

    def test_duplicate_columns_rejected(self):
        with pytest.raises(CatalogError):
            TableSchema("t", [Column("a", INTEGER), Column("A", VARCHAR)])

    def test_pk_must_exist(self):
        with pytest.raises(CatalogError):
            TableSchema("t", [Column("a", INTEGER)], primary_key=["missing"])

    def test_fk_arity_checked(self):
        with pytest.raises(CatalogError):
            ForeignKey(("a", "b"), "ref", ("x",))

    def test_coerce_row(self):
        schema = self.make()
        assert schema.coerce_row(("5", 42)) == (5, "42")

    def test_coerce_row_arity(self):
        with pytest.raises(ConstraintViolationError):
            self.make().coerce_row((1,))

    def test_not_null_enforced_in_coerce(self):
        with pytest.raises(ConstraintViolationError):
            self.make().coerce_row((None, "x"))

    def test_row_dict_and_key_of(self):
        schema = self.make()
        row = (7, "ada")
        assert schema.row_dict(row) == {"id": 7, "name": "ada"}
        assert schema.key_of(row, ["name", "id"]) == ("ada", 7)
