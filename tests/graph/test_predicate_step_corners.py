"""Backfilled corner-case units for ``graph/predicates.py`` and
``graph/steps.py`` (ISSUE 9 satellite 2): within/without over mixed
value types, ``has`` on a missing property, ``limit(0)``, plus the
regressions the analytics work flushed out — frontier dedup counting
and edge-weight coercion of bool/None values.
"""

from __future__ import annotations

import pytest

from repro.analytics import AnalyticsError, coerce_weight
from repro.analytics.frontier import FrontierExecutor
from repro.graph import Direction, InMemoryGraph, P
from repro.graph.steps import HasNotStep, HasStep, LimitStep
from repro.graph.traversal import GraphTraversalSource


@pytest.fixture
def mem():
    g = InMemoryGraph()
    g.add_vertex(1, "item", {"name": "a", "size": 5})
    g.add_vertex(2, "item", {"name": "b", "size": "5"})
    g.add_vertex(3, "item", {"name": None})
    g.add_vertex(4, "other", {})
    g.add_edge("link", 1, 2)
    g.add_edge("link", 2, 3)
    g.add_edge("link", 1, 3)
    return g


def g(mem):
    return GraphTraversalSource(mem)


class TestWithinWithoutMixedTypes:
    def test_within_does_not_cross_numeric_string_boundary(self):
        # within() uses equality per candidate: int 5 matches 5 but
        # never the string "5", and vice versa
        assert P.within(5, 6).test(5)
        assert not P.within(5, 6).test("5")
        assert P.within("5").test("5")
        assert not P.within("5").test(5)

    def test_within_accepts_bool_as_int_like_python_eq(self):
        # pinned: Python's True == 1 leaks through within(), exactly
        # like P.eq(1).test(True) does — predicates never add their own
        # type coercion on top of ==
        assert P.within(1, 2).test(True)
        assert P.eq(1).test(True)

    def test_without_with_mixed_tuple(self):
        assert P.without(5, "a").test("b")
        assert not P.without(5, "a").test(5)
        assert P.without(5, "a").test("5")

    def test_none_fails_both_within_and_without(self):
        # pinned: a missing/NULL value fails every non-eq predicate,
        # without() included (SQL's NULL NOT IN semantics, not Python's)
        assert not P.within(None, 1).test(None)
        assert not P.without(1).test(None)
        assert P.eq(None).test(None)
        assert P.neq(1).test(None)

    def test_incomparable_types_fail_closed(self):
        assert not P.gt(5).test("abc")
        assert not P.between(1, 9).test("abc")

    def test_within_traversal_end_to_end(self, mem):
        ids = g(mem).V().has("size", P.within(5)).id_().toList()
        assert ids == [1]  # vertex 2 stores the *string* "5"
        ids = g(mem).V().has("size", P.within("5")).id_().toList()
        assert ids == [2]


class TestHasOnMissingProperty:
    def test_has_missing_key_filters_out(self, mem):
        assert g(mem).V().has("color", "red").toList() == []

    def test_stored_none_counts_as_absent(self, mem):
        # name=None is stored but has() treats NULL as absent (SQL
        # semantics): even eq(None) cannot match it, hasNot() can
        assert g(mem).V().has("name", P.eq(None)).toList() == []
        assert 3 in {v.id for v in g(mem).V().hasNot("name").toList()}

    def test_hasnot_complements_has(self, mem):
        with_name = {v.id for v in g(mem).V().has("name").toList()}
        without_name = {v.id for v in g(mem).V().hasNot("name").toList()}
        assert with_name | without_name == {1, 2, 3, 4}
        assert with_name & without_name == set()

    def test_has_step_matches_unit(self):
        step = HasStep([("size", P.gt(3))])
        vertex = InMemoryGraph().add_vertex(1, "x", {"size": 4})
        assert step.matches(vertex)
        bare = InMemoryGraph().add_vertex(1, "x", {})
        assert not step.matches(bare)

    def test_hasnot_step_key_attribute(self):
        assert HasNotStep("color").key == "color"


class TestLimitZero:
    def test_limit_zero_yields_nothing(self, mem):
        assert g(mem).V().limit(0).toList() == []

    def test_limit_zero_after_expansion(self, mem):
        assert g(mem).V().out("link").limit(0).toList() == []

    def test_limit_zero_count(self, mem):
        assert g(mem).V().limit(0).count().next() == 0

    def test_limit_step_high_zero_consumes_no_input(self):
        consumed = []

        def source():
            for i in range(5):
                consumed.append(i)
                yield i

        step = LimitStep(0, 0)
        assert list(step.process(source(), None)) == []
        # the generator was never advanced past the cutoff check
        assert len(consumed) <= 1


class TestAnalyticsRegressions:
    def test_frontier_dedups_duplicate_ids(self, mem):
        # regression: a frontier with repeated ids must expand each
        # unique vertex once — the step event records the deduped size
        # and adjacency carries one entry (of neighbour ids) per unique
        # vertex
        executor = FrontierExecutor(mem)
        ordered, adjacency = executor.expand(
            [1, 1, 2, 1], Direction.OUT, (), algorithm="bfs"
        )
        assert ordered == [1, 2]
        assert sorted(adjacency[1]) == [2, 3]
        assert adjacency[2] == [3]

    def test_bool_weight_takes_default_not_one(self):
        # regression: bool subclasses int — a verified=True edge flag
        # must not silently become a distance of 1.0 vs the default
        assert coerce_weight(True, 7.5) == 7.5
        assert coerce_weight(False, 7.5) == 7.5
        assert coerce_weight(1, 7.5) == 1.0

    def test_negative_weight_rejected_even_as_float(self):
        with pytest.raises(AnalyticsError):
            coerce_weight(-0.5, 1.0)
