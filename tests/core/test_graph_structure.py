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

    @pytest.mark.parametrize(
        "build, expected",
        [
            (lambda g: g.V(1).out("knows").has("name", "grace"), [2]),
            (lambda g: g.V(1).out("knows").as_("a").has("name", "grace"), [2]),
            (lambda g: g.V(1).out("knows").values("name"), ["grace", "alan"]),
            (lambda g: g.V(1).out("knows").in_("knows").has("name", "ada"), [1, 1]),
        ],
    )
    def test_folded_fill_reads_the_hint_table_only(self, build, expected):
        """A ``has()`` or projection folded into ``out()`` fetches the
        neighbours from their declared vertex table, as ``load_vertex``
        and ``bulk_materialize`` do, never from every vertex table."""
        from repro.relational import Database

        db = Database()
        for table in ("Person", "Company"):
            db.execute(f"CREATE TABLE {table} (id BIGINT PRIMARY KEY, name VARCHAR)")
        db.execute("CREATE TABLE Knows (src BIGINT, dst BIGINT)")
        for row in ("Person VALUES (1, 'ada')", "Person VALUES (2, 'grace')",
                    "Person VALUES (3, 'alan')", "Company VALUES (10, 'ibm')",
                    "Company VALUES (11, 'acme')", "Knows VALUES (1, 2)",
                    "Knows VALUES (1, 3)"):
            db.execute(f"INSERT INTO {row}")
        vertex = {"id": "id", "fix_label": True, "properties": ["name"]}
        overlay = {
            "v_tables": [
                {**vertex, "table_name": "Person", "label": "'person'"},
                {**vertex, "table_name": "Company", "label": "'company'"},
            ],
            "e_tables": [{
                "table_name": "Knows", "src_v_table": "Person", "dst_v_table": "Person",
                "src_v": "src", "dst_v": "dst", "implicit_edge_id": True,
                "fix_label": True, "label": "'knows'",
            }],
        }
        graph = Db2Graph.open(db, overlay, cache=False)
        graph.dialect.log = []
        got = [getattr(x, "id", x) for x in build(graph.traversal()).toList()]
        assert got == expected
        fills = [sql for sql in graph.dialect.log if "FROM Knows" not in sql]
        assert fills and all("FROM Person" in sql for sql in fills)


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

    @pytest.mark.parametrize(
        "build, statements, from_edges",
        [
            (lambda g: g.V("c::1").in_("placedBy").values("note"), 1, 1),
            # the vertex lookup of as() runs first; the order still comes
            # from its edge row, not from a second orders lookup
            (lambda g: g.V("c::1").as_("c").in_("placedBy").values("note"), 2, 1),
            (lambda g: g.V("c::1", "c::2").in_("placedBy").count(), 1, 2),
            (lambda g: g.V("c::1", "c::2").in_("placedBy").has("note", "first"), 1, 2),
        ],
        ids=["values", "as_values", "count", "has"],
    )
    def test_in_builds_the_order_from_its_edge_row(self, fact_graph, db, build, statements, from_edges):
        """in('placedBy') reaches orders, whose vertex table is the edge
        table: one SELECT of orders fetches the edge and the order, on
        both spellings of the step and under a folded has()."""
        graph = Db2Graph.open(db, fact_graph.topology.config, cache=False)
        want = build(Db2Graph.open(
            db, graph.topology.config, runtime_opts=RuntimeOptimizations.all_off(), cache=False
        ).traversal()).toList()
        graph.reset_stats()
        got = build(graph.traversal()).toList()
        assert [getattr(x, "id", x) for x in got] == [getattr(x, "id", x) for x in want]
        assert graph.stats()["sql_queries"] == statements
        assert graph.stats()["vertices_from_edges"] == from_edges
        assert graph.stats()["lazy_vertices"] == 0

    @pytest.mark.parametrize("opts", [None, RuntimeOptimizations.all_off()], ids=["on", "off"])
    def test_self_reference_builds_the_endpoint_not_the_row(self, opts):
        """A table referencing itself: the row (5, 6) is vertex 'v1::5'
        and an edge to 'v1::6'.  The dst endpoint's vertex table is the
        edge table, but the row's vertex is not the dst endpoint, so it
        must not be built from the row."""
        from repro.relational import Database

        db = Database(enforce_foreign_keys=False)
        db.execute("CREATE TABLE v1 (pk INT PRIMARY KEY, ref_pk INT)")
        db.execute("INSERT INTO v1 VALUES (5, 6), (6, 6)")
        overlay = {
            "v_tables": [
                {"table_name": "v1", "prefixed_id": True, "id": "'v1'::pk",
                 "fix_label": True, "label": "'v1'", "properties": []},
            ],
            "e_tables": [
                {"table_name": "v1", "src_v_table": "v1", "src_v": "'v1'::pk",
                 "dst_v_table": "v1", "dst_v": "'v1'::ref_pk", "implicit_edge_id": True,
                 "fix_label": True, "label": "'e'", "properties": []},
            ],
        }
        graph = Db2Graph.open(db, overlay, runtime_opts=opts, cache=False)
        g = graph.traversal()
        assert [v.id for v in g.E().inV().toList()] == ["v1::6", "v1::6"]
        assert [v.id for v in g.V("v1::5").out().toList()] == ["v1::6"]
        assert [v.id for v in g.V("v1::5").as_("a").out().toList()] == ["v1::6"]
        src = graph.topology.edge_tables[0]
        assert graph.topology.vertex_subsumed_by_edge(src, "src") is not None
        assert graph.topology.vertex_subsumed_by_edge(src, "dst") is None


class TestNullEndpoints:
    """A row with a NULL endpoint column is no edge: rows (NULL, 2),
    (NULL, 5) and (1, 2) over vertices 1, 2 and 5 hold one edge, 1 -> 2,
    on every path that reads edge rows, with plain and prefixed ids."""

    @staticmethod
    def open_graph(prefix, batch_size=256):
        from repro.relational import Database

        db = Database(enforce_foreign_keys=False)
        db.execute("CREATE TABLE node (id INT PRIMARY KEY)")
        db.execute("CREATE TABLE link (src INT, dst INT)")
        db.execute("INSERT INTO node VALUES (1), (2), (5)")
        db.execute("INSERT INTO link VALUES (NULL, 2), (NULL, 5), (1, 2)")
        spec = (lambda column: f"'n'::{column}") if prefix else (lambda column: column)
        overlay = {
            "v_tables": [
                {"table_name": "node", "prefixed_id": prefix, "id": spec("id"),
                 "fix_label": True, "label": "'node'", "properties": []},
            ],
            "e_tables": [
                {"table_name": "link", "src_v_table": "node", "src_v": spec("src"),
                 "dst_v_table": "node", "dst_v": spec("dst"), "implicit_edge_id": True,
                 "fix_label": True, "label": "'link'", "properties": []},
            ],
        }
        return Db2Graph.open(db, overlay, batch_size=batch_size, cache=False)

    @pytest.mark.parametrize("prefix", [False, True], ids=["plain", "prefixed"])
    def test_traversals_skip_null_rows(self, prefix):
        from repro.graph.model import Direction

        name = (lambda i: f"n::{i}") if prefix else (lambda i: i)
        graph = self.open_graph(prefix)
        g = graph.traversal()
        assert [v.id for v in g.V(name(2)).both().toList()] == [name(1)]
        assert [v.id for v in g.V(name(2)).in_().toList()] == [name(1)]
        assert [v.id for v in g.V(name(2)).as_("a").in_().toList()] == [name(1)]
        ends = [(e.out_v_id, e.in_v_id) for e in g.V(name(2)).bothE().toList()]
        assert ends == [(name(1), name(2))]
        assert [(e.out_v_id, e.in_v_id) for e in g.E().toList()] == [(name(1), name(2))]
        neighbours = graph.provider.adjacent_ids([name(2)], Direction.BOTH, None)
        assert neighbours == {name(2): [name(1)]}
        components = graph.analytics().wcc().component
        assert components == {name(1): name(1), name(2): name(1), name(5): name(5)}

    @pytest.mark.parametrize("batch_size", [1, 256])
    def test_bfs_agrees_across_scan_and_probe(self, batch_size):
        from repro.graph.model import Direction

        graph = self.open_graph(False, batch_size)
        depth = graph.analytics().bfs(2, direction=Direction.BOTH).depth
        assert depth == {2: 0, 1: 1}

    def test_pushed_down_count_still_counts_null_rows(self):
        # COUNT(*) runs in SQL, where the NULL rows match the probe on
        # dst; the statement is left unchanged (DESIGN.md §9)
        graph = self.open_graph(False)
        assert graph.traversal().V(2).inE().count().next() == 2
        assert [e.out_v_id for e in graph.traversal().V(2).inE().toList()] == [1]


class TestFoldedIdSpelling:
    """``g.V("1")`` finds ``v[1]`` on a BIGINT id column, so the §6.2
    fold of ``g.V("1").out()``/``outE()`` must return what the unfolded
    run returns: the rows render the near id ``1``, and the input id
    ``"1"`` receives them."""

    QUERIES = {
        "V": lambda g: g.V("1"),
        "out": lambda g: g.V("1").out(),
        "outE": lambda g: g.V("1").outE(),
        "out.count": lambda g: g.V("1").out().count(),
        "V(\"1\", 1).out": lambda g: g.V("1", 1).out(),
        "outE.has.count": lambda g: g.V("1").outE().has("w", P.outside(0, 6)).count(),
        "outE.has": lambda g: g.V("1").outE().has("w", P.outside(0, 6)),
        "outE.count": lambda g: g.V("1", 1).outE().count(),
    }

    @staticmethod
    def run(optimized):
        from repro.relational import Database

        db = Database()
        db.execute("CREATE TABLE node (id BIGINT PRIMARY KEY, name VARCHAR)")
        db.execute("CREATE TABLE link (src BIGINT, dst BIGINT, w INT)")
        db.execute("INSERT INTO node VALUES (1, 'a'), (2, 'b'), (3, 'c')")
        db.execute("INSERT INTO link VALUES (1, 2, 5), (1, 3, 7)")
        overlay = {
            "v_tables": [{"table_name": "node", "id": "id", "fix_label": True,
                          "label": "'node'"}],
            "e_tables": [{"table_name": "link", "src_v": "src", "dst_v": "dst",
                          "implicit_edge_id": True, "fix_label": True, "label": "'link'"}],
        }
        graph = Db2Graph.open(db, overlay, cache=False, optimized=optimized)
        g = graph.traversal()
        got = {name: [getattr(x, "id", x) for x in query(g).toList()]
               for name, query in TestFoldedIdSpelling.QUERIES.items()}
        graph.close()
        return got

    def test_folded_and_unfolded_runs_agree(self):
        unfolded = self.run(optimized=False)
        assert unfolded["out"] == [2, 3]
        assert unfolded["V(\"1\", 1).out"] == [2, 3, 2, 3]
        assert unfolded["outE.count"] == [4]
        assert self.run(optimized=True) == unfolded


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
