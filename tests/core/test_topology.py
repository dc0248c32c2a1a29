"""Tests for the Topology module: overlay resolution against the
catalog, and the §6.3 lookup questions."""

import pytest

from repro.core import Db2Graph
from repro.core.overlay import OverlayConfig, OverlayError
from repro.core.topology import RelationInfo, Topology
from repro.graph import P
from repro.graph.model import Direction, Pushdown, Vertex
from tests.conftest import HEALTHCARE_TINY_OVERLAY


@pytest.fixture
def topology(paper_db):
    return Topology(paper_db, OverlayConfig.from_dict(HEALTHCARE_TINY_OVERLAY))


@pytest.fixture
def provider(paper_db):
    return Db2Graph.open(paper_db, HEALTHCARE_TINY_OVERLAY, cache=False).provider


def surviving(provider, kind, pushdown, edge_labels=None):
    """The §6.3 label/property eliminations as the runtime applies them."""
    tables, _ = provider.planner.candidate_tables(kind, pushdown, edge_labels)
    return [t.table_name for t in tables]


def having(*names):
    return Pushdown(predicates=[(name, P.eq("x")) for name in names])


class TestResolution:
    def test_tables_resolved(self, topology):
        assert [v.table_name for v in topology.vertex_tables] == ["Patient", "Disease"]
        assert [e.name for e in topology.edge_tables] == ["DiseaseOntology", "HasDisease"]

    def test_unknown_table_rejected(self, paper_db):
        config = OverlayConfig.from_dict(HEALTHCARE_TINY_OVERLAY)
        config.v_tables[0].table_name = "Missing"
        with pytest.raises(OverlayError):
            Topology(paper_db, config)

    def test_unknown_column_rejected(self, paper_db):
        broken = dict(HEALTHCARE_TINY_OVERLAY)
        broken = OverlayConfig.from_dict(HEALTHCARE_TINY_OVERLAY)
        broken.v_tables[1].id_spec = "noSuchColumn"
        broken.v_tables[1].__post_init__()
        with pytest.raises(OverlayError):
            Topology(paper_db, broken)

    def test_default_properties_are_remaining_columns(self, paper_db):
        config = OverlayConfig.from_dict(HEALTHCARE_TINY_OVERLAY)
        topology = Topology(paper_db, config)
        has_disease = topology.edge_tables[1]
        # paper: "equivalent to defining ['description']"
        assert has_disease.property_columns == ["description"]

    def test_explicit_properties_resolve_case_insensitively(self, paper_db):
        config = OverlayConfig.from_dict(HEALTHCARE_TINY_OVERLAY)
        config.v_tables[0].properties = ["NAME"]
        topology = Topology(paper_db, config)
        assert topology.vertex_tables[0].property_columns == ["name"]

    def test_label_column_excluded_from_default_properties(self, topology):
        ontology = topology.edge_tables[0]
        assert "type" not in [c.lower() for c in ontology.property_columns]


class TestRowMapping:
    def test_vertex_row_roundtrip(self, topology):
        patient = topology.vertex_tables[0]
        row = {"patientid": 1, "name": "Alice", "address": "x", "subscriptionid": 9}
        assert patient.row_id(row) == "patient::1"
        assert patient.row_label(row) == "patient"
        props = patient.row_properties(row)
        assert props["name"] == "Alice" and props["patientID"] == 1

    def test_vertex_projection(self, topology):
        patient = topology.vertex_tables[0]
        row = {"patientid": 1, "name": "Alice", "address": "x", "subscriptionid": 9}
        assert patient.row_properties(row, ["name"]) == {"name": "Alice"}

    def test_edge_row_roundtrip(self, topology):
        has_disease = topology.edge_tables[1]
        row = {"patientid": 2, "diseaseid": 10, "description": "dx"}
        assert has_disease.row_id(row) == "patient::2::hasDisease::10"
        assert has_disease.row_src(row) == "patient::2"
        assert has_disease.row_dst(row) == 10
        assert has_disease.row_properties(row) == {"description": "dx"}

    def test_column_label_edge(self, topology):
        ontology = topology.edge_tables[0]
        row = {"sourceid": 11, "targetid": 10, "type": "isa"}
        assert ontology.row_label(row) == "isa"
        assert ontology.row_id(row) == "ontology::11::10"

    def test_required_columns_with_projection(self, topology):
        patient = topology.vertex_tables[0]
        columns = patient.required_columns(["name"])
        assert "patientID" in columns  # id columns always included
        assert "name" in columns
        assert "address" not in columns


class TestLookups:
    def test_vertex_tables_with_label(self, provider):
        assert surviving(provider, "vertex", Pushdown(labels=("patient",))) == ["Patient"]
        assert surviving(provider, "vertex", Pushdown(labels=("ghost",))) == []

    def test_column_label_tables_always_searched(self, provider):
        # DiseaseOntology has no fixed label -> must always be searched
        tables = surviving(provider, "edge", Pushdown(), edge_labels=("whatever",))
        assert tables == ["DiseaseOntology"]

    def test_tables_with_property(self, provider):
        assert surviving(provider, "vertex", having("conceptCode")) == ["Disease"]
        assert surviving(provider, "edge", having("description")) == ["HasDisease"]

    def test_prefix_pinning(self, topology):
        pinned = topology.vertex_table_for_prefix("patient::1")
        assert pinned is not None and pinned.table_name == "Patient"
        assert topology.vertex_table_for_prefix(10) is None
        assert topology.vertex_table_for_prefix("ghost::1") is None

    def test_edges_from_to_vertex_table(self, provider):
        def adjacent_tables(vertex, direction):
            _, plan = provider.planner.adjacent_plan([vertex], direction, None, Pushdown())
            return [entry.etop.name for entry in plan]

        patient = Vertex("patient::1", source_table="Patient")
        assert adjacent_tables(patient, Direction.OUT) == ["HasDisease"]
        disease = Vertex(10, source_table="Disease")
        assert adjacent_tables(disease, Direction.IN) == ["DiseaseOntology", "HasDisease"]

    def test_duplicate_prefix_rejected(self, paper_db):
        config = OverlayConfig.from_dict(HEALTHCARE_TINY_OVERLAY)
        config.v_tables[1].id_spec = "'patient'::diseaseID"
        config.v_tables[1].prefixed_id = True
        config.v_tables[1].__post_init__()
        with pytest.raises(OverlayError):
            Topology(paper_db, config)


class TestVertexFromEdge:
    def test_subsumption_when_table_is_both(self, db):
        """A fact-like table serving as vertex and edge table."""
        db.execute(
            "CREATE TABLE orders (orderID BIGINT PRIMARY KEY, customerID BIGINT, note VARCHAR)"
        )
        db.execute("CREATE TABLE customer (customerID BIGINT PRIMARY KEY, name VARCHAR)")
        config = OverlayConfig.from_dict(
            {
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
        )
        topology = Topology(db, config)
        edge_top = topology.edge_tables[0]
        assert topology.vertex_subsumed_by_edge(edge_top, "src") is not None
        assert topology.vertex_subsumed_by_edge(edge_top, "dst") is None

    def test_no_subsumption_for_separate_tables(self, topology):
        has_disease = topology.edge_tables[1]
        assert topology.vertex_subsumed_by_edge(has_disease, "src") is None


class TestViewsInOverlay:
    def test_view_as_edge_table_with_types(self, db):
        db.execute("CREATE TABLE n (id INT PRIMARY KEY, name VARCHAR)")
        db.execute("CREATE TABLE e1 (a INT, b INT)")
        db.execute("CREATE TABLE e2 (a INT, b INT)")
        db.execute(
            "CREATE VIEW combined AS "
            "SELECT e1.a AS a, e2.b AS b FROM e1 JOIN e2 ON e1.b = e2.a"
        )
        config = OverlayConfig.from_dict(
            {
                "v_tables": [
                    {"table_name": "n", "id": "id", "fix_label": True, "label": "'n'"}
                ],
                "e_tables": [
                    {"table_name": "combined", "src_v_table": "n", "src_v": "a",
                     "dst_v_table": "n", "dst_v": "b", "implicit_edge_id": True,
                     "fix_label": True, "label": "'derived'"}
                ],
            }
        )
        topology = Topology(db, config)
        relation = topology.edge_tables[0].relation
        assert relation.is_view
        # inferred types allow id coercion through the view
        assert relation.coerce("a", "5") == 5

    def test_describe_mentions_tables(self, topology):
        text = topology.describe()
        assert "Patient" in text and "HasDisease" in text


class TestRelationInfo:
    def test_has_column_and_canonical_are_case_insensitive(self, topology):
        relation = topology.vertex_tables[0].relation
        assert relation.has_column("PATIENTID")
        assert relation.canonical("patientid") == "patientID"

    def test_canonical_unknown_column_raises(self, topology):
        relation = topology.vertex_tables[0].relation
        with pytest.raises(OverlayError):
            relation.canonical("noSuchColumn")

    def test_canonical_first_declared_column_wins(self):
        relation = RelationInfo("t", ["Name", "NAME", "id"], {"name": None, "id": None}, False)
        assert relation.canonical("name") == "Name"
        assert relation.canonical("NaMe") == "Name"
        assert relation.canonical("ID") == "id"

    def test_canonical_unknown_column_message(self, topology):
        relation = topology.vertex_tables[0].relation
        with pytest.raises(OverlayError) as info:
            relation.canonical("ghost")
        assert str(info.value) == "relation 'Patient' has no column 'ghost'"

    def test_coerce_typed_untyped_and_null(self, topology):
        relation = topology.vertex_tables[0].relation
        assert relation.coerce("patientID", "7") == 7
        assert relation.coerce("patientID", None) is None
        # unknown column -> no type information -> passthrough
        assert relation.coerce("ghost", "7") == "7"


class TestColumnSets:
    def test_required_columns_deduplicate_id_and_property_overlap(self, topology):
        # patientID is both the id column and (by default) a property —
        # the SELECT list must name it exactly once.
        patient = topology.vertex_tables[0]
        columns = patient.required_columns()
        assert len(columns) == len({c.lower() for c in columns})
        assert "patientID" in columns

    def test_edge_required_columns_cover_endpoints_and_label(self, topology):
        ontology = topology.edge_tables[0]  # column label, explicit id
        columns = {c.lower() for c in ontology.required_columns()}
        assert {"sourceid", "targetid", "type"} <= columns

    def test_edge_required_columns_projection_still_fetches_endpoints(self, topology):
        has_disease = topology.edge_tables[1]
        columns = {c.lower() for c in has_disease.required_columns([])}
        assert {"patientid", "diseaseid"} <= columns
        assert "description" not in columns

    def test_mutating_required_columns_does_not_poison_the_memo(self, topology):
        patient, has_disease = topology.vertex_tables[0], topology.edge_tables[1]
        for top, projection in ((patient, None), (patient, ("name",)), (has_disease, ())):
            expected = top.required_columns(projection)
            returned = top.required_columns(projection)
            assert returned is not expected
            returned.append("ghost")
            returned.remove(expected[0])
            assert top.required_columns(projection) == expected
        # a list projection shares the tuple projection's entry
        assert patient.required_columns(["name"]) == patient.required_columns(("name",))

    def test_refresh_after_ddl_fetches_the_new_column(self, db):
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, a VARCHAR)")
        db.execute("INSERT INTO t VALUES (1, 'x')")
        overlay = {
            "v_tables": [{"table_name": "t", "id": "id", "fix_label": True, "label": "'t'"}],
            "e_tables": [],
        }
        graph = Db2Graph.open(db, overlay, auto_refresh=True)
        script = "g.V(vid).valueMap()"
        assert graph.execute(script, {"vid": 1}) == [{"a": "x"}]
        stale = graph.topology.vertex_tables[0]
        assert [c.lower() for c in stale.required_columns()] == ["id", "a"]
        db.execute("ALTER TABLE t ADD c VARCHAR")
        db.execute("UPDATE t SET c = 'fresh' WHERE id = 1")
        assert graph.execute(script, {"vid": 1}) == [{"a": "x", "c": "fresh"}]
        fresh = graph.topology.vertex_tables[0]
        assert fresh is not stale and graph.refresh_count == 1
        assert [c.lower() for c in fresh.required_columns()] == ["id", "a", "c"]

    def test_has_property_is_case_insensitive(self, topology):
        disease = topology.vertex_tables[1]
        assert disease.has_property("CONCEPTCODE")
        assert not disease.has_property("description")


class TestLookupEdgeCases:
    def test_vertex_table_unknown_name_raises(self, topology):
        with pytest.raises(OverlayError):
            topology.vertex_table("Missing")

    def test_vertex_table_lookup_is_case_insensitive(self, topology):
        assert topology.vertex_table("PATIENT").table_name == "Patient"

    def test_multi_property_lookup_requires_all(self, provider):
        both = surviving(provider, "vertex", having("conceptCode", "conceptName"))
        assert both == ["Disease"]
        assert surviving(provider, "vertex", having("conceptCode", "name")) == []

    def test_label_lookup_with_multiple_labels(self, provider):
        tables = surviving(provider, "vertex", Pushdown(labels=("patient", "disease")))
        assert tables == ["Patient", "Disease"]

    def test_prefix_pinning_ignores_unprefixed_config(self, paper_db):
        # Disease ids are plain ints; even an id shaped like a prefix
        # must not pin to a table that didn't declare prefixed_id.
        config = OverlayConfig.from_dict(HEALTHCARE_TINY_OVERLAY)
        topology = Topology(paper_db, config)
        assert topology.vertex_table_for_prefix("disease::1") is None

    def test_row_label_from_column_stringifies(self, paper_db):
        config = OverlayConfig.from_dict(HEALTHCARE_TINY_OVERLAY)
        topology = Topology(paper_db, config)
        ontology = topology.edge_tables[0]
        assert ontology.row_label({"sourceid": 1, "targetid": 2, "type": 99}) == "99"
