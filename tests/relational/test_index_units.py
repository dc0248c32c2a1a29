"""Unit tests for the index structures themselves."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.relational.errors import CatalogError
from repro.relational.index import HashIndex, SortedIndex, make_index


class TestHashIndex:
    def test_add_lookup(self):
        index = HashIndex("i", "t", ["a"])
        index.add((1,), 10)
        index.add((1,), 11)
        index.add((2,), 12)
        assert sorted(index.lookup((1,))) == [10, 11]
        assert list(index.lookup((3,))) == []

    def test_discard(self):
        index = HashIndex("i", "t", ["a"])
        index.add((1,), 10)
        index.discard((1,), 10)
        assert list(index.lookup((1,))) == []
        index.discard((1,), 99)  # idempotent

    def test_len_and_probes(self):
        index = HashIndex("i", "t", ["a"])
        index.add((1,), 10)
        index.add((2,), 11)
        assert len(index) == 2
        list(index.lookup((1,)))
        assert index.probes == 1

    def test_composite_keys(self):
        index = HashIndex("i", "t", ["a", "b"])
        index.add((1, "x"), 10)
        assert list(index.lookup((1, "x"))) == [10]
        assert list(index.lookup((1, "y"))) == []

    def test_no_range_support(self):
        assert not HashIndex("i", "t", ["a"]).supports_range()


class TestSortedIndex:
    def build(self):
        index = SortedIndex("s", "t", ["a"])
        for value, rowid in [(5, 1), (1, 2), (3, 3), (3, 4), (9, 5)]:
            index.add((value,), rowid)
        return index

    def test_point_lookup(self):
        index = self.build()
        assert sorted(index.lookup((3,))) == [3, 4]

    def test_range_inclusive(self):
        index = self.build()
        assert sorted(index.range((1,), (5,))) == [1, 2, 3, 4]

    def test_range_exclusive_bounds(self):
        index = self.build()
        assert sorted(index.range((1,), (5,), low_inclusive=False, high_inclusive=False)) == [3, 4]

    def test_open_ranges(self):
        index = self.build()
        assert sorted(index.range(low=(5,))) == [1, 5]
        assert sorted(index.range(high=(3,))) == [2, 3, 4]
        assert sorted(index.range()) == [1, 2, 3, 4, 5]

    def test_null_keys_not_indexed(self):
        index = SortedIndex("s", "t", ["a"])
        index.add((None,), 1)
        assert len(index) == 0

    def test_discard_removes_key_when_empty(self):
        index = self.build()
        index.discard((9,), 5)
        assert sorted(index.range(low=(6,))) == []

    @given(st.lists(st.tuples(st.integers(-50, 50), st.integers(0, 100)), max_size=60),
           st.integers(-50, 50), st.integers(-50, 50))
    @settings(max_examples=40, deadline=None)
    def test_property_range_matches_filter(self, entries, low, high):
        index = SortedIndex("s", "t", ["a"])
        for value, rowid in entries:
            index.add((value,), rowid)
        expected = {rowid for value, rowid in entries if low <= value <= high}
        assert set(index.range((low,), (high,))) == expected


class TestAddDiscardSequences:
    """Lifecycle properties: after an arbitrary interleaving of adds and
    discards, every index answers exactly for the live (key, rowid) set
    — recovery and replica redo lean on this when they add each replayed
    version to the indexes as it is applied."""

    @given(
        st.lists(
            st.tuples(st.booleans(), st.integers(-10, 10), st.integers(0, 20)),
            max_size=80,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_sorted_range_equals_live_set(self, ops):
        index = SortedIndex("s", "t", ["a"])
        live: set[tuple[int, int]] = set()
        for is_add, value, rowid in ops:
            if is_add:
                index.add((value,), rowid)
                live.add((value, rowid))
            else:
                index.discard((value,), rowid)
                live.discard((value, rowid))
        assert sorted(index.range()) == sorted(r for _v, r in live)
        for value in {v for v, _r in live}:
            assert set(index.lookup((value,))) == {r for v, r in live if v == value}

    @given(
        st.lists(
            st.tuples(st.booleans(), st.integers(-10, 10), st.integers(0, 20)),
            max_size=80,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_hash_and_sorted_point_lookups_agree(self, ops):
        hashed = HashIndex("h", "t", ["a"])
        sorted_ = SortedIndex("s", "t", ["a"])
        for is_add, value, rowid in ops:
            for index in (hashed, sorted_):
                if is_add:
                    index.add((value,), rowid)
                else:
                    index.discard((value,), rowid)
        assert len(hashed) == len(sorted_)
        for value in range(-10, 11):
            assert sorted(hashed.lookup((value,))) == sorted(sorted_.lookup((value,)))


class TestCompositeRanges:
    def build(self):
        index = SortedIndex("s", "t", ["a", "b"])
        for key, rowid in [
            ((1, "a"), 1),
            ((1, "b"), 2),
            ((2, "a"), 3),
            ((2, "c"), 4),
            ((3, "a"), 5),
        ]:
            index.add(key, rowid)
        return index

    def test_composite_range_is_lexicographic(self):
        index = self.build()
        assert sorted(index.range((1, "b"), (2, "c"))) == [2, 3, 4]

    def test_composite_point_lookup(self):
        index = self.build()
        assert list(index.lookup((2, "a"))) == [3]
        assert list(index.lookup((2, "b"))) == []

    def test_composite_null_component_not_indexed(self):
        index = SortedIndex("s", "t", ["a", "b"])
        index.add((1, None), 1)
        assert len(index) == 0

    def test_range_probes_counted(self):
        index = self.build()
        before = index.probes
        list(index.range((1, "a"), (3, "a")))
        assert index.probes == before + 1


class TestFactory:
    def test_make_index_kinds(self):
        assert make_index("hash", "i", "t", ["a"]).kind == "hash"
        assert make_index("sorted", "i", "t", ["a"]).kind == "sorted"
        assert make_index("btree", "i", "t", ["a"]).kind == "sorted"

    def test_unknown_kind(self):
        with pytest.raises(CatalogError):
            make_index("bitmap", "i", "t", ["a"])

    def test_empty_columns_rejected(self):
        with pytest.raises(CatalogError):
            HashIndex("i", "t", [])

    def test_unique_flag_propagates(self):
        assert make_index("hash", "i", "t", ["a"], unique=True).unique is True
        assert make_index("btree", "i", "t", ["a"], unique=True).unique is True
        assert make_index("sorted", "i", "t", ["a"]).unique is False
