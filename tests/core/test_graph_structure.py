"""Tests for the Graph Structure module: overlay-backed traversal
semantics and each §6.3 data-dependent runtime optimization, verified
through both results and SQL/table-access counters."""

import pytest

from repro.core import Db2Graph, RuntimeOptimizations
from repro.graph import P, __
from tests.conftest import HEALTHCARE_TINY_OVERLAY


@pytest.fixture
def graph(paper_graph):
    return paper_graph


class TestBasicSemantics:
    def test_vertex_counts_by_label(self, graph):
        g = graph.traversal()
        assert g.V().count().next() == 7
        assert g.V().hasLabel("patient").count().next() == 3
        assert g.V().hasLabel("disease").count().next() == 4

    def test_edge_counts(self, graph):
        g = graph.traversal()
        assert g.E().count().next() == 6
        assert g.E().hasLabel("hasDisease").count().next() == 3
        assert g.E().hasLabel("isa").count().next() == 3

    def test_vertex_ids(self, graph):
        g = graph.traversal()
        assert g.V("patient::1").next().value("name") == "Alice"
        assert g.V(10).next().value("conceptName") == "diabetes"

    def test_edge_by_implicit_id(self, graph):
        g = graph.traversal()
        edge = g.E("patient::1::hasDisease::11").next()
        assert edge.value("description") == "dx 2019"

    def test_edge_by_prefixed_id(self, graph):
        g = graph.traversal()
        edge = g.E("ontology::11::10").next()
        assert edge.label == "isa"

    def test_out_in_traversal(self, graph):
        g = graph.traversal()
        assert g.V("patient::1").out("hasDisease").values("conceptName").toList() == [
            "type 2 diabetes"
        ]
        assert sorted(
            v.value("patientID") for v in g.V(10).in_("hasDisease")
        ) == [2]

    def test_multi_hop_ontology(self, graph):
        g = graph.traversal()
        roots = g.V("patient::1").out("hasDisease").out("isa").out("isa").toList()
        assert [v.value("conceptName") for v in roots] == ["metabolic disease"]

    def test_both_direction(self, graph):
        g = graph.traversal()
        neighbors = g.V(10).both().toList()
        # in: 11 isa 10, 13 isa 10, patient2 hasDisease 10; out: 10 isa 12
        assert len(neighbors) == 4

    def test_edge_endpoints(self, graph):
        g = graph.traversal()
        assert g.V("patient::1").outE("hasDisease").inV().next().id == 11
        assert g.V("patient::1").outE("hasDisease").outV().next().id == "patient::1"

    def test_property_predicates(self, graph):
        g = graph.traversal()
        assert g.V().has("conceptName", P.within("diabetes", "nope")).count().next() == 1

    def test_column_label_edges(self, graph):
        g = graph.traversal()
        labels = {e.label for e in g.E().toList()}
        assert labels == {"hasDisease", "isa"}

    def test_updates_visible_immediately(self, graph):
        g = graph.traversal()
        graph.connection.database.execute(
            "INSERT INTO HasDisease VALUES (1, 13, 'new dx')"
        )
        assert g.V("patient::1").out("hasDisease").count().next() == 2

    def test_results_identical_with_all_optimizations_off(self, paper_db):
        fast = Db2Graph.open(paper_db, HEALTHCARE_TINY_OVERLAY)
        slow = Db2Graph.open(
            paper_db,
            HEALTHCARE_TINY_OVERLAY,
            optimized=False,
            runtime_opts=RuntimeOptimizations.all_off(),
        )
        probes = [
            lambda g: sorted(g.V().values("name").toList()),
            lambda g: g.V().count().next(),
            lambda g: g.E().count().next(),
            lambda g: sorted(v.id for v in g.V("patient::1").out("hasDisease")),
            lambda g: sorted(e.id for e in g.V(10).inE()),
            lambda g: g.V(11).out("isa").out("isa").values("conceptName").toList(),
            lambda g: g.V().hasLabel("patient").has("name", "Bob").count().next(),
        ]
        for probe in probes:
            assert probe(fast.traversal()) == probe(slow.traversal())


class TestLabelElimination:
    def test_fixed_label_narrows_tables(self, graph):
        graph.reset_stats()
        graph.traversal().V().hasLabel("patient").toList()
        assert graph.stats()["vertex_table_queries"] == 1

    def test_without_opt_queries_all_tables(self, paper_db):
        opts = RuntimeOptimizations.all_off()
        slow = Db2Graph.open(paper_db, HEALTHCARE_TINY_OVERLAY, runtime_opts=opts)
        slow.reset_stats()
        slow.traversal().V().hasLabel("patient").toList()
        assert slow.stats()["vertex_table_queries"] == 2

    def test_column_label_table_still_searched(self, graph):
        graph.reset_stats()
        edges = graph.traversal().E().hasLabel("isa").toList()
        assert len(edges) == 3
        # DiseaseOntology has no fixed label: must be searched; the
        # fixed-label HasDisease table is eliminated
        assert graph.stats()["edge_table_queries"] == 1


class TestPropertyNameElimination:
    def test_predicate_on_missing_property_eliminates_table(self, graph):
        graph.reset_stats()
        graph.traversal().V().has("conceptCode", "D10").toList()
        assert graph.stats()["vertex_table_queries"] == 1

    def test_projection_eliminates_tables_lacking_all_keys(self, graph):
        graph.reset_stats()
        names = graph.traversal().V().values("conceptName").toList()
        assert len(names) == 4
        assert graph.stats()["vertex_table_queries"] == 1


class TestPrefixedIdPinning:
    def test_prefixed_id_queries_one_table(self, graph):
        graph.reset_stats()
        graph.traversal().V("patient::1").toList()
        assert graph.stats()["vertex_table_queries"] == 1

    def test_unprefixed_id_skips_prefixed_tables(self, graph):
        graph.reset_stats()
        graph.traversal().V(10).toList()
        # Disease id is a bare column; Patient is prefixed and can't match
        assert graph.stats()["vertex_table_queries"] == 1

    def test_composite_id_decomposed_into_conjuncts(self, graph):
        graph.dialect.log = []
        graph.traversal().E("ontology::11::10").toList()
        ontology_sql = [s for s in graph.dialect.log if "DiseaseOntology" in s]
        assert any("sourceID = ?" in s and "targetID = ?" in s for s in ontology_sql)
        graph.dialect.log = None

    def test_ids_decoding_to_one_row_are_probed_once(self, graph):
        # '011' coerces to the same BIGINT as '11': one lookup, so the
        # count agrees with the one edge the same ids return
        ids = ("ontology::11::10", "ontology::011::10")
        assert len(graph.traversal().E(*ids).toList()) == 1
        graph.reset_stats()
        assert graph.traversal().E(*ids).count().next() == 1
        assert graph.stats()["edge_table_queries"] == 1


class TestImplicitEdgeIds:
    def test_label_in_id_narrows_edge_tables(self, graph):
        graph.reset_stats()
        graph.traversal().E("patient::1::hasDisease::11").toList()
        assert graph.stats()["edge_table_queries"] == 1

    def test_wrong_label_in_id_finds_nothing(self, graph):
        assert graph.traversal().E("patient::1::wrongLabel::11").toList() == []


class TestSrcDstTables:
    def test_adjacency_skips_mismatched_edge_tables(self, graph):
        graph.reset_stats()
        graph.traversal().V("patient::1").outE().toList()
        # patient vertices can only source HasDisease (src_v_table), and
        # the prefixed id cannot decode under DiseaseOntology's src spec
        assert graph.stats()["edge_table_queries"] == 1

    def test_lazy_endpoint_vertices_carry_table_hint(self, graph):
        edge = graph.traversal().V("patient::1").outE("hasDisease").next()
        assert edge.in_v_table == "Disease"
        assert edge.out_v_table == "Patient"

    def test_endpoint_loads_via_hint(self, graph):
        graph.reset_stats()
        vertex = graph.traversal().V("patient::1").outE("hasDisease").inV().next()
        assert vertex.value("conceptName") == "type 2 diabetes"
        # materializing the lazy vertex queried exactly one table
        assert graph.stats()["vertex_table_queries"] == 1


class TestVertexFromEdge:
    @pytest.fixture
    def fact_graph(self, db):
        db.execute(
            "CREATE TABLE orders (orderID BIGINT PRIMARY KEY, customerID BIGINT, note VARCHAR)"
        )
        db.execute("CREATE TABLE customer (customerID BIGINT PRIMARY KEY, name VARCHAR)")
        db.execute("INSERT INTO customer VALUES (1, 'c1'), (2, 'c2')")
        db.execute("INSERT INTO orders VALUES (100, 1, 'first'), (101, 2, 'second')")
        overlay = {
            "v_tables": [
                {"table_name": "orders", "prefixed_id": True, "id": "'o'::orderID",
                 "fix_label": True, "label": "'order'", "properties": ["note"]},
                {"table_name": "customer", "prefixed_id": True, "id": "'c'::customerID",
                 "fix_label": True, "label": "'customer'"},
            ],
            "e_tables": [
                {"table_name": "orders", "src_v_table": "orders", "src_v": "'o'::orderID",
                 "dst_v_table": "customer", "dst_v": "'c'::customerID",
                 "implicit_edge_id": True, "fix_label": True, "label": "'placedBy'"},
            ],
        }
        return Db2Graph.open(db, overlay)

    def test_vertex_built_from_edge_row_without_sql(self, fact_graph):
        g = fact_graph.traversal()
        edges = g.E().hasLabel("placedBy").toList()
        fact_graph.reset_stats()
        for edge in edges:
            vertex = next(fact_graph.provider.edge_vertex(edge, __import__("repro.graph.model", fromlist=["Direction"]).Direction.OUT))
            assert vertex.label == "order"
            assert vertex.is_materialized
        assert fact_graph.stats()["sql_queries"] == 0
        assert fact_graph.stats()["vertices_from_edges"] == len(edges)

    def test_disabled_falls_back_to_lazy(self, fact_graph, db):
        slow = Db2Graph.open(
            db,
            fact_graph.topology.config,
            runtime_opts=RuntimeOptimizations(use_vertex_from_edge=False),
        )
        g = slow.traversal()
        result = g.E().hasLabel("placedBy").outV().values("note").toList()
        assert sorted(result) == ["first", "second"]
        assert slow.stats()["vertices_from_edges"] == 0


class TestAggregatesAcrossTables:
    @pytest.fixture
    def two_table_graph(self, db):
        db.execute("CREATE TABLE ta (id INT PRIMARY KEY, score INT)")
        db.execute("CREATE TABLE tb (id INT PRIMARY KEY, score INT)")
        db.execute("INSERT INTO ta VALUES (1, 10), (2, 20)")
        db.execute("INSERT INTO tb VALUES (10, 30), (11, NULL)")
        overlay = {
            "v_tables": [
                {"table_name": "ta", "prefixed_id": True, "id": "'a'::id",
                 "fix_label": True, "label": "'a'", "properties": ["score"]},
                {"table_name": "tb", "prefixed_id": True, "id": "'b'::id",
                 "fix_label": True, "label": "'b'", "properties": ["score"]},
            ],
            "e_tables": [],
        }
        overlay["e_tables"] = []
        from repro.core import OverlayConfig

        config = OverlayConfig.from_dict(overlay)
        return Db2Graph.open(db, config)

    def test_count_sums_over_tables(self, two_table_graph):
        assert two_table_graph.traversal().V().count().next() == 4

    def test_sum_over_tables(self, two_table_graph):
        assert two_table_graph.traversal().V().values("score").sum_().next() == 60

    def test_mean_over_tables_weighted_correctly(self, two_table_graph):
        # (10+20+30) / 3 non-null values, NOT the mean of per-table means
        assert two_table_graph.traversal().V().values("score").mean().next() == pytest.approx(20.0)

    def test_min_max_over_tables(self, two_table_graph):
        assert two_table_graph.traversal().V().values("score").min_().next() == 10
        assert two_table_graph.traversal().V().values("score").max_().next() == 30
