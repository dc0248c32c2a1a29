"""Tests for the four compile-time traversal strategies (paper §6.2),
verified both on plan shape and on the SQL they cause."""

import pytest

from repro.core.strategies import (
    AggregatePushdown,
    GraphStepVertexStepMutation,
    PredicatePushdown,
    ProjectionPushdown,
    optimized_strategies,
)
from repro.graph import Direction, P, __
from repro.graph.steps import CountStep, GraphStep, HasStep, VertexStep
from repro.graph.traversal import Traversal


def plan(traversal_builder):
    """Build an unbound traversal, apply the strategies, return steps."""
    traversal = traversal_builder
    traversal._merge_pending_repeats()
    for strategy in optimized_strategies():
        strategy.apply(traversal)
    return traversal.steps


class TestPredicatePushdown:
    def test_has_folds_into_graph_step(self):
        steps = plan(__.V().has("name", "Alice"))
        assert len(steps) == 1
        assert isinstance(steps[0], GraphStep)
        assert ("name", P.eq("Alice")) in steps[0].pushdown.predicates

    def test_multiple_has_steps_fold(self):
        steps = plan(__.V().hasLabel("person").has("age", P.gt(30)).has("name", "x"))
        assert len(steps) == 1
        assert len(steps[0].pushdown.predicates) == 3

    def test_has_after_edge_gsa_folds(self):
        steps = plan(__.V(1).outE("knows").has("weight", P.gt(0.5)))
        assert not any(isinstance(s, HasStep) for s in steps)
        assert ("weight", P.gt(0.5)) in steps[0].pushdown.predicates

    def test_has_after_mutated_out_folds(self):
        # the mutated g.V(ids).out() is one GSA step: the filter folds
        # into it as into a VertexStep
        steps = plan(__.V(1).out("knows").has("age", 29))
        assert len(steps) == 1
        assert ("age", P.eq(29)) in steps[0].pushdown.predicates

    def test_has_after_edge_vertex_step_stays(self):
        # EdgeVertexStep is not a GSA step, so the filter cannot fold
        steps = plan(__.V(1).outE("knows").inV().has("age", 29))
        assert isinstance(steps[-1], HasStep)

    def test_endpoint_filter_becomes_predicate(self):
        steps = plan(__.V(1).outE("knows").filter_(__.inV().id_().is_(P.eq(2))))
        graph_step = steps[0]
        assert isinstance(graph_step, GraphStep)
        assert ("~dst_v", P.eq(2)) in graph_step.pushdown.predicates

    def test_outv_endpoint_filter(self):
        steps = plan(__.E().filter_(__.outV().id_().is_(P.eq(1))))
        assert ("~src_v", P.eq(1)) in steps[0].pushdown.predicates

    def test_negated_filter_not_folded(self):
        steps = plan(__.E().not_(__.inV().id_().is_(P.eq(1))))
        assert len(steps) == 2  # stays a filter step

    def test_non_matching_filter_untouched(self):
        steps = plan(__.V(1).outE().filter_(__.inV().has("name", "x")))
        assert len(steps) == 2


class TestProjectionPushdown:
    def test_values_sets_projection(self):
        steps = plan(__.V().values("name", "age"))
        assert steps[0].pushdown.projection == ("name", "age")
        assert len(steps) == 2  # the Properties step remains

    def test_valuetuple_sets_projection(self):
        steps = plan(__.V().valueTuple("a", "b"))
        assert steps[0].pushdown.projection == ("a", "b")

    def test_bare_values_not_projected(self):
        steps = plan(__.V().values())
        assert steps[0].pushdown.projection is None

    def test_projection_after_filters_folded(self):
        steps = plan(__.V().has("age", 1).values("name"))
        assert steps[0].pushdown.projection == ("name",)


class TestAggregatePushdown:
    def test_count_folds_into_graph_step(self):
        steps = plan(__.V().count())
        assert len(steps) == 1
        assert steps[0].pushdown.aggregate == "count"

    def test_sum_with_values_folds(self):
        steps = plan(__.V().values("age").sum_())
        assert len(steps) == 1
        assert steps[0].pushdown.aggregate == "sum"
        assert steps[0].pushdown.aggregate_key == "age"

    def test_mean_min_max(self):
        for method, kind in (("mean", "mean"), ("min_", "min"), ("max_", "max")):
            traversal = __.V().values("age")
            traversal = getattr(traversal, method)()
            steps = plan(traversal)
            assert steps[0].pushdown.aggregate == kind

    def test_count_after_vertex_step_not_folded(self):
        # VertexStep groups per input vertex; a scalar can't flow back
        steps = plan(__.out("knows").count())
        assert isinstance(steps[-1], CountStep)

    def test_multi_key_values_not_folded(self):
        steps = plan(__.V().values("a", "b").sum_())
        assert steps[0].pushdown.aggregate is None


class TestMutation:
    def test_v_ids_oute_mutates(self):
        steps = plan(__.V(1, 2).outE("knows"))
        assert len(steps) == 1
        graph_step = steps[0]
        assert isinstance(graph_step, GraphStep)
        assert graph_step.return_type == "edge"
        # the step's labels travel in the endpoint filter
        assert graph_step.endpoint_filter == (Direction.OUT, ("knows",), (1, 2))
        assert graph_step.pushdown.labels is None

    def test_v_ids_out_mutates_to_one_vertex_step(self):
        steps = plan(__.V(1).out("knows"))
        assert len(steps) == 1
        assert steps[0].return_type == "vertex"
        assert steps[0].endpoint_filter == (Direction.OUT, ("knows",), (1,))
        assert steps[0].pushdown.labels is None

    def test_v_ids_in_mutates_to_out_endpoint(self):
        steps = plan(__.V(1).in_("knows"))
        assert len(steps) == 1
        assert steps[0].endpoint_filter == (Direction.IN, ("knows",), (1,))

    def test_count_after_mutated_out_not_folded(self):
        # neighbours are lazy: a scalar over them would fetch every one
        steps = plan(__.V(1, 2).out("knows").count())
        assert steps[0].pushdown.aggregate is None
        assert isinstance(steps[1], CountStep)

    def test_both_vertices_not_mutated(self):
        steps = plan(__.V(1).both("knows"))
        assert isinstance(steps[0], GraphStep)
        assert isinstance(steps[1], VertexStep)

    def test_both_edges_mutated(self):
        steps = plan(__.V(1).bothE("knows"))
        assert len(steps) == 1
        assert steps[0].endpoint_filter[0] is Direction.BOTH

    def test_v_without_ids_not_mutated(self):
        steps = plan(__.V().outE())
        assert isinstance(steps[1], VertexStep)

    def test_has_between_blocks_mutation(self):
        steps = plan(__.V(1).has("age", 29).outE())
        # predicate folds into GraphStep(vertex) but mutation must not
        # fire (the filter needs vertex properties)
        assert isinstance(steps[0], GraphStep)
        assert steps[0].return_type == "vertex"

    def test_paper_composed_example(self):
        """g.V(ids).outE().has('metIn','US').count() ->
        single GraphStep with endpoint filter, predicate, and count."""
        steps = plan(__.V(7).outE().has("metIn", "US").count())
        assert len(steps) == 1
        graph_step = steps[0]
        assert graph_step.endpoint_filter == (Direction.OUT, None, (7,))
        assert ("metIn", P.eq("US")) in graph_step.pushdown.predicates
        assert graph_step.pushdown.aggregate == "count"


class TestSqlEffects:
    """The strategies must actually change the generated SQL."""

    def test_optimized_vs_not_sql_counts(self, paper_graph):
        from repro.core import Db2Graph

        # cache=False on both: this asserts exact statement counts, and
        # read-cache hits (REPRO_CACHE_ENABLED=1 CI leg) skip statements.
        optimized = Db2Graph.open(
            paper_graph.connection, paper_graph.topology.config, cache=False
        )
        unoptimized = Db2Graph.open(
            paper_graph.connection,
            paper_graph.topology.config,
            optimized=False,
            cache=False,
        )
        for build in (
            lambda g: g.V("patient::1").outE("hasDisease").count(),
            lambda g: g.V("patient::1").outE("hasDisease"),
        ):
            optimized.reset_stats()
            unoptimized.reset_stats()
            a = build(optimized.traversal()).toList()
            b = build(unoptimized.traversal()).toList()
            assert a == b
            assert (
                optimized.stats()["sql_queries"]
                < unoptimized.stats()["sql_queries"]
            )

    def test_aggregate_pushdown_transfers_one_row(self, paper_graph):
        paper_graph.reset_stats()
        count = paper_graph.traversal().V().hasLabel("patient").count().next()
        assert count == 3
        assert paper_graph.stats()["rows_fetched"] == 1  # just COUNT(*)

    def test_projection_pushdown_narrows_select(self, paper_graph):
        paper_graph.dialect.log = []
        paper_graph.traversal().V().hasLabel("patient").values("name").toList()
        sql = [s for s in paper_graph.dialect.log if "Patient" in s][0]
        assert "address" not in sql
        paper_graph.dialect.log = None

    def test_predicate_pushdown_appears_in_where(self, paper_graph):
        paper_graph.dialect.log = []
        paper_graph.traversal().V().hasLabel("patient").has("name", "Alice").toList()
        sql = [s for s in paper_graph.dialect.log if "Patient" in s][0]
        assert "WHERE" in sql and "name" in sql
        paper_graph.dialect.log = None
