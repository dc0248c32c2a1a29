"""API tests for the bulk analytics engine: the ``g.analytics()``
facade, ``repeat()``'s per-level batching, the ``graphQuery('analytics',
...)`` table-function bridge, the session/service path, budget
partial-progress semantics, and the analytics observability surface.
"""

from __future__ import annotations

import pytest

from repro.analytics import (
    AnalyticsError,
    BfsResult,
    GraphAnalytics,
    WccResult,
    coerce_weight,
)
from repro.analytics.frontier import FrontierExecutor
from repro.core import Db2Graph
from repro.graph import __
from repro.graph.model import Direction
from repro.obs import metrics as M
from repro.obs import tracing
from repro.relational import Database
from repro.resilience import BudgetExceededError, QueryBudget
from repro.service import GraphService, ServiceConfig

OVERLAY = {
    "v_tables": [
        {"table_name": "item", "id": "id", "fix_label": True,
         "label": "'item'", "properties": ["id", "name"]},
    ],
    "e_tables": [
        {"table_name": "link", "src_v_table": "item", "src_v": "src",
         "dst_v_table": "item", "dst_v": "dst",
         "implicit_edge_id": True, "fix_label": True, "label": "'link'",
         "properties": ["w"]},
    ],
}


def make_db() -> Database:
    """Two weakly-connected components::

        1 -(2.0)-> 2 -(1.0)-> 3 -(4.0)-> 4      1 -(10.0)-> 3
        5 -> 6   (w NULL: takes default_weight)
    """
    db = Database()
    db.execute("CREATE TABLE item (id INT PRIMARY KEY, name VARCHAR)")
    db.execute("CREATE TABLE link (src INT, dst INT, w DOUBLE)")
    db.execute(
        "INSERT INTO item VALUES (1, 'a'), (2, 'b'), (3, 'c'), "
        "(4, 'd'), (5, 'e'), (6, 'f')"
    )
    db.execute(
        "INSERT INTO link VALUES (1, 2, 2.0), (2, 3, 1.0), "
        "(3, 4, 4.0), (1, 3, 10.0), (5, 6, NULL)"
    )
    return db


@pytest.fixture
def graph():
    g = Db2Graph.open(make_db(), OVERLAY)
    yield g
    g.close()


class TestBfs:
    def test_depths_and_parents(self, graph):
        got = graph.analytics().bfs(1)
        assert got.depth == {1: 0, 2: 1, 3: 1, 4: 2}
        # 3 is discovered at depth 1 directly from 1, not through 2
        assert got.parent == {1: None, 2: 1, 3: 1, 4: 3}
        assert got.converged
        assert got.frontier_sizes == [1, 2, 1]

    def test_direction_in_and_both(self, graph):
        assert graph.analytics().bfs(4, direction="in").depth == {
            4: 0, 3: 1, 1: 2, 2: 2
        }
        both = graph.analytics().bfs(4, direction="both")
        assert set(both.depth) == {1, 2, 3, 4}

    def test_max_depth_cutoff_is_not_convergence(self, graph):
        got = graph.analytics().bfs(1, max_depth=1)
        assert got.depth == {1: 0, 2: 1, 3: 1}
        assert not got.converged
        assert graph.stats()["analytics_converged"] == 0

    def test_missing_source_raises(self, graph):
        with pytest.raises(AnalyticsError):
            graph.analytics().bfs(99)

    def test_rows_are_sorted(self, graph):
        rows = graph.analytics().bfs(1).rows()
        assert rows == [(1, 0, None), (2, 1, 1), (3, 1, 1), (4, 2, 3)]


class TestSssp:
    def test_weighted_distances(self, graph):
        got = graph.analytics().sssp(1, weight="w")
        # 1->2->3 (3.0) beats the direct 1->3 (10.0)
        assert got.distance == {1: 0.0, 2: 2.0, 3: 3.0, 4: 7.0}
        assert got.parent == {1: None, 2: 1, 3: 2, 4: 3}
        assert got.converged

    def test_null_weight_takes_default(self, graph):
        got = graph.analytics().sssp(5, weight="w", default_weight=2.5)
        assert got.distance == {5: 0.0, 6: 2.5}

    def test_negative_weight_raises(self):
        db = make_db()
        db.execute("INSERT INTO link VALUES (4, 1, -1.0)")
        g = Db2Graph.open(db, OVERLAY)
        with pytest.raises(AnalyticsError):
            g.analytics().sssp(1, weight="w")

    def test_coerce_weight_rule(self):
        assert coerce_weight(3, 1.0) == 3.0
        assert coerce_weight(0.5, 1.0) == 0.5
        # bool subclasses int but is not a distance
        assert coerce_weight(True, 1.0) == 1.0
        assert coerce_weight(None, 1.0) == 1.0
        assert coerce_weight("7", 1.0) == 1.0
        with pytest.raises(AnalyticsError):
            coerce_weight(-2, 1.0)


class TestWcc:
    def test_components(self, graph):
        got = graph.analytics().wcc()
        assert got.component == {1: 1, 2: 1, 3: 1, 4: 1, 5: 5, 6: 5}
        assert got.component_count() == 2
        assert got.converged


class TestPageRank:
    def test_ranks_form_a_distribution(self, graph):
        got = graph.analytics().pagerank(max_iterations=25)
        assert got.iterations == 25
        assert not got.converged  # cutoff, not convergence
        assert sum(got.rank.values()) == pytest.approx(1.0, abs=1e-9)
        # 4 collects from the whole 1->...->4 chain; 1 and 5 only get
        # base + dangling mass
        assert got.rank[4] > got.rank[1]

    def test_tolerance_convergence(self, graph):
        got = graph.analytics().pagerank(max_iterations=200, tolerance=1e-12)
        assert got.converged
        assert got.iterations < 200
        assert got.delta < 1e-12
        assert graph.stats()["analytics_converged"] == 1

    def test_damping_validated(self, graph):
        with pytest.raises(AnalyticsError):
            graph.analytics().pagerank(damping=1.5)
        with pytest.raises(AnalyticsError):
            graph.analytics().pagerank(max_iterations=0)


class TestBudgets:
    def test_partial_progress_on_statement_budget(self):
        g = Db2Graph.open(make_db(), OVERLAY, cache=False)
        an = g.analytics(budget=QueryBudget(max_sql_statements=1))
        with pytest.raises(BudgetExceededError) as info:
            an.wcc()
        partial = info.value.partial
        assert isinstance(partial, WccResult)
        assert not partial.converged
        assert partial.component  # the vertex read completed before the trip

    def test_partial_progress_on_bfs(self):
        g = Db2Graph.open(make_db(), OVERLAY, cache=False)
        an = g.analytics(budget=QueryBudget(max_sql_statements=2))
        with pytest.raises(BudgetExceededError) as info:
            an.bfs(1)
        assert isinstance(info.value.partial, BfsResult)

    def test_statement_budget_trips_mid_step_at_a_pinned_statement(self):
        # the vertex read runs; the second statement (the link read)
        # trips, so no union has run and every vertex is its own component
        g = Db2Graph.open(make_db(), OVERLAY, cache=False)
        g.enable_tracing()
        an = g.analytics(budget=QueryBudget(max_sql_statements=1))
        with pytest.raises(BudgetExceededError) as info:
            an.wcc()
        assert g.trace.count(tracing.SQL_ISSUED) == 1
        partial = info.value.partial
        assert (partial.steps, partial.frontier_sizes) == (0, [])
        assert partial.component == {v: v for v in range(1, 7)}

    def test_graph_level_budget_is_inherited(self):
        g = Db2Graph.open(
            make_db(), OVERLAY, cache=False,
            budget=QueryBudget(max_sql_statements=1),
        )
        with pytest.raises(BudgetExceededError):
            g.analytics().wcc()


class TestReadCache:
    def test_repeat_wcc_is_served_from_cache_until_an_insert(self):
        g = Db2Graph.open(make_db(), OVERLAY, cache=True)
        first = g.analytics().wcc()
        issued = g.stats()["sql_queries"]
        assert g.analytics().wcc().component == first.component
        assert g.stats()["sql_queries"] == issued  # every statement hit
        g.connection.execute("INSERT INTO link VALUES (4, 5, 1.0)")
        merged = g.analytics().wcc()
        # the vertex read still hits; the one link read is re-issued
        assert g.stats()["sql_queries"] == issued + 1
        assert merged.component == {v: 1 for v in range(1, 7)}


class TestObservability:
    def test_counters_and_stats(self, graph):
        graph.analytics().bfs(1)
        stats = graph.stats()
        assert stats["analytics_steps"] == 3  # frontier sizes [1, 2, 1]
        assert stats["analytics_converged"] == 1
        assert stats["frontier_samples"] == 3
        assert stats["frontier_max"] == 2
        graph.reset_stats()
        stats = graph.stats()
        assert stats["analytics_steps"] == 0
        assert stats["frontier_samples"] == 0
        assert stats["frontier_max"] == 0

    def test_histogram_mirrors_step_counter(self, graph):
        graph.analytics().wcc()
        stats = graph.stats()
        assert stats["frontier_samples"] == stats["analytics_steps"]


class TestRepeat:
    """``repeat()`` has one path; these pin its results and batching."""

    def test_chain_results(self):
        g = Db2Graph.open(make_db(), OVERLAY).traversal
        assert g().V().repeat(__.out()).times(2).id_().toList() == [3, 4, 4]
        assert g().V().repeat(__.both()).times(2).id_().toList() == [
            3, 1, 4, 2, 1, 4, 2, 1, 2, 3, 3, 3, 1, 2, 3, 4, 2, 1, 5, 6,
        ]
        assert g().V().repeat(__.out()).times(2).emit().id_().toList() == [
            2, 3, 3, 4, 6, 3, 4, 4,
        ]
        assert g().V(1).repeat(__.out()).until(__.has("id", 4)).id_().toList() == [4, 4]

    def test_out_batches_by_distinct_vertex(self):
        # A triangle beside three isolated items: level 0 holds six
        # distinct ids, levels 1 and 2 hold three each but 6 and 12
        # traversers.  A batch ends at batch_size distinct ids, so each
        # level costs ceil(distinct / 4) batches, each one statement per
        # direction of the one edge table.
        edges = [(1, 2), (2, 3), (3, 1)]
        db = Database()
        db.execute("CREATE TABLE item (id INT PRIMARY KEY, name VARCHAR)")
        db.execute("CREATE TABLE link (src INT, dst INT, w DOUBLE)")
        db.execute(
            "INSERT INTO item VALUES "
            + ", ".join(f"({i}, 'i{i}')" for i in range(1, 7))
        )
        db.execute(
            "INSERT INTO link VALUES "
            + ", ".join(f"({s}, {d}, 1.0)" for s, d in edges)
        )
        graph = Db2Graph.open(db, OVERLAY, batch_size=4, cache=False)

        def both(v):
            return [d for s, d in edges if s == v] + [s for s, d in edges if d == v]

        level, batches = list(range(1, 7)), 0
        for _ in range(3):
            batches += -(-len(set(level)) // 4)
            level = [w for v in level for w in both(v)]

        recorder = graph.enable_tracing()
        result = graph.traversal().V().repeat(__.both()).times(3).id_().toList()
        link_statements = [
            e for e in recorder.named(tracing.SQL_ISSUED) if "FROM link" in e.get("sql")
        ]
        assert len(link_statements) == 2 * batches == 8
        assert result == level


def stride_db() -> Database:
    """40 items and 37 links ``i -> i + 3``: a level over all 40 ids is
    more than ``batch_size=8``."""
    db = Database()
    db.execute("CREATE TABLE item (id INT PRIMARY KEY, name VARCHAR)")
    db.execute("CREATE TABLE link (src INT, dst INT, w DOUBLE)")
    db.execute(
        "INSERT INTO item VALUES " + ", ".join(f"({i}, 'i{i}')" for i in range(1, 41))
    )
    db.execute(
        "INSERT INTO link VALUES " + ", ".join(f"({i}, {i + 3}, 1.0)" for i in range(1, 38))
    )
    return db


class TestScanOrProbe:
    """A frontier level on an unindexed ``link`` costs one scan for both
    directions; an index or a view-backed edge table keeps per-batch
    probes (DESIGN.md §9).  The choice reads the live catalog.  The
    level is every id under BOTH, as WCC's first level was when it
    propagated labels."""

    PROBES = 2 * -(-40 // 8)  # per batch, per direction

    @staticmethod
    def traced_level(graph):
        recorder = graph.enable_tracing()
        recorder.clear()
        executor = FrontierExecutor(graph.provider)
        ordered, adjacency = executor.expand(graph.provider.vertex_ids(), Direction.BOTH)
        assert ordered == sorted(range(1, 41), key=str)
        return adjacency, [e.get("sql") for e in recorder.named(tracing.SQL_ISSUED)]

    def test_one_edge_statement_per_level_until_an_index_exists(self):
        db = stride_db()
        graph = Db2Graph.open(db, OVERLAY, batch_size=8, cache=False)
        scanned, statements = self.traced_level(graph)
        assert scanned[1] == [4] and scanned[20] == [23, 17]
        assert statements == ["SELECT id FROM item", "SELECT src, dst FROM link"]
        db.execute("CREATE INDEX link_src ON link (src)")
        db.execute("CREATE INDEX link_dst ON link (dst)")
        probed, statements = self.traced_level(graph)
        assert probed == scanned
        assert len(statements) == 1 + self.PROBES == 11
        assert all(" IN (" in sql for sql in statements[1:])
        graph.close()

    def test_composite_index_on_an_endpoint_keeps_probing(self):
        # an index holding the endpoint beside another column may serve
        # the probes (batch_size=1 equality lookups), so no scan
        db = stride_db()
        graph = Db2Graph.open(db, OVERLAY, batch_size=8, cache=False)
        scanned, _statements = self.traced_level(graph)
        db.execute("CREATE INDEX link_src_w ON link (src, w)")
        db.execute("CREATE INDEX link_dst_w ON link (dst, w)")
        probed, statements = self.traced_level(graph)
        assert probed == scanned
        assert len(statements) == 1 + self.PROBES
        graph.close()

    def test_edge_and_aggregate_paths_keep_probing(self):
        # only the neighbour path scans: outE() would build an edge per
        # table row, and a scan's count() would no longer run in SQL
        graph = Db2Graph.open(stride_db(), OVERLAY, batch_size=8, cache=False)
        recorder = graph.enable_tracing()
        g = graph.traversal()
        ids = range(1, 41)
        probe = " FROM link WHERE {} IN (?, ?, ?, ?, ?, ?, ?, ?)"
        for traversal, count, statements in (
            (g.V(*ids).outE().count(), 37, ["SELECT COUNT(*)" + probe.format("src")] * 5),
            (g.V(*ids).bothE().count(), 74, [
                "SELECT COUNT(*)" + probe.format(column) for column in ("src", "dst")
                for _batch in range(5)
            ]),
        ):
            recorder.clear()
            assert traversal.next() == count
            assert [e.get("sql") for e in recorder.named(tracing.SQL_ISSUED)] == statements
        recorder.clear()
        assert len(g.V(*ids).outE().toList()) == 37
        issued = [e.get("sql") for e in recorder.named(tracing.SQL_ISSUED)]
        assert issued == ["SELECT src, dst, w" + probe.format("src")] * 5
        graph.close()

    def test_view_backed_edge_table_keeps_probing(self):
        db = stride_db()
        base = Db2Graph.open(db, OVERLAY, batch_size=8, cache=False)
        scanned, _statements = self.traced_level(base)
        base.close()
        db.execute("CREATE VIEW link_v AS SELECT src, dst, w FROM link")
        overlay = {
            "v_tables": OVERLAY["v_tables"],
            "e_tables": [{**OVERLAY["e_tables"][0], "table_name": "link_v"}],
        }
        graph = Db2Graph.open(db, overlay, batch_size=8, cache=False)
        result, statements = self.traced_level(graph)
        assert result == scanned
        assert len(statements) == 1 + self.PROBES
        graph.close()

    def test_budget_tripping_on_a_scan_level_carries_partial_progress(self):
        # the vertex read and the first level's scan run; the next
        # level's scan trips
        graph = Db2Graph.open(stride_db(), OVERLAY, batch_size=8, cache=False)
        graph.enable_tracing()
        an = graph.analytics(budget=QueryBudget(max_sql_statements=2))
        with pytest.raises(BudgetExceededError), an._execution() as executor:
            ordered, adjacency = executor.expand(graph.provider.vertex_ids(), Direction.BOTH)
            executor.expand(range(4, 39), Direction.BOTH)
        assert graph.trace.count(tracing.SQL_ISSUED) == 2
        assert executor.steps_taken == 2
        assert len(ordered) == len(adjacency) == 40
        graph.close()


class TestTableFunction:
    def test_wcc_rows(self, graph):
        graph.register_table_function()
        db = graph.connection.database
        rows = db.execute(
            "SELECT v, c FROM TABLE(graphQuery('analytics', 'wcc')) "
            "AS t (v BIGINT, c BIGINT) ORDER BY v"
        ).rows
        assert rows == [(1, 1), (2, 1), (3, 1), (4, 1), (5, 5), (6, 5)]

    def test_bfs_rows_join_back(self, graph):
        graph.register_table_function()
        db = graph.connection.database
        rows = db.execute(
            "SELECT i.name, t.d FROM item AS i, "
            "TABLE(graphQuery('analytics', 'bfs source=1')) "
            "AS t (v BIGINT, d INT, p BIGINT) "
            "WHERE i.id = t.v ORDER BY t.d, i.name"
        ).rows
        assert rows == [("a", 0), ("b", 1), ("c", 1), ("d", 2)]

    def test_sssp_and_pagerank_specs(self, graph):
        graph.register_table_function()
        db = graph.connection.database
        rows = db.execute(
            "SELECT v, d FROM TABLE(graphQuery('analytics', "
            "'sssp source=1 weight=w')) AS t (v BIGINT, d DOUBLE, p BIGINT) "
            "ORDER BY v"
        ).rows
        assert rows == [(1, 0.0), (2, 2.0), (3, 3.0), (4, 7.0)]
        rows = db.execute(
            "SELECT v FROM TABLE(graphQuery('analytics', "
            "'pagerank max_iterations=5')) AS t (v BIGINT, r DOUBLE)"
        ).rows
        assert len(rows) == 6

    def test_unknown_algorithm_rejected(self, graph):
        graph.register_table_function()
        db = graph.connection.database
        with pytest.raises(AnalyticsError):
            db.execute(
                "SELECT v FROM TABLE(graphQuery('analytics', 'dijkstra')) "
                "AS t (v BIGINT)"
            )

    def test_missing_required_argument_rejected(self, graph):
        graph.register_table_function()
        db = graph.connection.database
        with pytest.raises(AnalyticsError):
            db.execute(
                "SELECT v FROM TABLE(graphQuery('analytics', 'bfs')) "
                "AS t (v BIGINT)"
            )


class TestServiceIntegration:
    def test_analytics_through_a_session(self):
        svc = GraphService(make_db(), OVERLAY, ServiceConfig(workers=2))
        try:
            with svc.open_session() as session:
                result = session.run(lambda s: s.analytics().wcc())
                assert result.component_count() == 2
                depths = session.run(lambda s: s.analytics().bfs(1).depth)
                assert depths == {1: 0, 2: 1, 3: 1, 4: 2}
        finally:
            svc.shutdown(timeout=10)

    def test_in_memory_provider_also_works(self):
        from repro.graph import InMemoryGraph

        mem = InMemoryGraph()
        for v in (1, 2, 3):
            mem.add_vertex(v, "item")
        mem.add_edge("link", 1, 2)
        mem.add_edge("link", 2, 3)
        got = GraphAnalytics(mem).bfs(1)
        assert got.depth == {1: 0, 2: 1, 3: 2}
