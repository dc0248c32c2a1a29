"""End-to-end Db2Graph tests: the paper's §4 scenario, the graphQuery
table function, synergy with SQL, access control and temporal behaviour
inherited through the graph, and the paper's example queries."""

import os
import subprocess
import sys
import textwrap

import pytest

from repro.common.clock import ManualClock
from repro.core import Db2Graph
from repro.graph import GremlinSyntaxError
from repro.relational import AccessDeniedError, Database
from repro.workloads.healthcare import (
    HealthcareConfig,
    HealthcareDataset,
    similar_diseases_script,
    synergy_sql,
)
from tests.conftest import HEALTHCARE_TINY_OVERLAY


class TestOpen:
    def test_open_from_dict(self, paper_db):
        graph = Db2Graph.open(paper_db, HEALTHCARE_TINY_OVERLAY)
        assert graph.traversal().V().count().next() == 7

    def test_open_from_file(self, paper_db, tmp_path):
        import json

        path = tmp_path / "overlay.json"
        path.write_text(json.dumps(HEALTHCARE_TINY_OVERLAY))
        graph = Db2Graph.open(paper_db, path)
        assert graph.traversal().V().count().next() == 7

    def test_open_from_connection(self, paper_db):
        conn = paper_db.connect()
        graph = Db2Graph.open(conn, HEALTHCARE_TINY_OVERLAY)
        assert graph.connection is conn

    def test_plain_open_does_not_import_replication(self):
        # without replication to resolve, the first open of a process
        # skips the replication package import (tens of milliseconds)
        script = textwrap.dedent(
            """
            import sys
            from repro.core import Db2Graph
            from repro.relational import Database

            db = Database()
            db.execute("CREATE TABLE item (id INT PRIMARY KEY)")
            overlay = {"v_tables": [{"table_name": "item", "id": "id",
                       "fix_label": True, "label": "'item'"}], "e_tables": []}
            for replication in (None, False, 0):
                Db2Graph.open(db, overlay, replication=replication)
            print("repro.replication" in sys.modules)
            """
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        out = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True,
            check=True, timeout=60,
        )
        assert out.stdout.strip() == "False"

    def test_multiple_overlays_on_same_tables(self, paper_db):
        """Paper §5.1: 'One can create multiple overlay configuration
        files on the same set of tables.'"""
        full = Db2Graph.open(paper_db, HEALTHCARE_TINY_OVERLAY)
        diseases_only = Db2Graph.open(
            paper_db,
            {
                "v_tables": [HEALTHCARE_TINY_OVERLAY["v_tables"][1]],
                "e_tables": [HEALTHCARE_TINY_OVERLAY["e_tables"][0]],
            },
        )
        assert full.traversal().V().count().next() == 7
        assert diseases_only.traversal().V().count().next() == 4

    def test_repr_and_stats(self, paper_graph):
        assert "v_tables=2" in repr(paper_graph)
        paper_graph.traversal().V().count().next()
        stats = paper_graph.stats()
        assert stats["sql_queries"] > 0
        paper_graph.reset_stats()
        assert paper_graph.stats()["sql_queries"] == 0


class TestGremlinStringInterface:
    def test_execute_simple(self, paper_graph):
        assert paper_graph.execute("g.V().hasLabel('patient').count().next()") == 3

    def test_execute_with_variables(self, paper_graph):
        result = paper_graph.execute("g.V(pid).values('name')", {"pid": "patient::2"})
        assert result == ["Bob"]

    def test_paper_similar_diseases_script(self, paper_graph):
        result = paper_graph.execute(similar_diseases_script(1))
        # Alice has type-2 diabetes; similar patients = everyone with a
        # disease within 2 hops of the ontology (Bob: diabetes, Carol: type 1)
        ids = sorted(row[0] for row in result)
        assert ids == [1, 2, 3]

    def test_syntax_error_propagates(self, paper_graph):
        with pytest.raises(GremlinSyntaxError):
            paper_graph.execute("g.V().bogus()")


class TestGraphQueryTableFunction:
    def test_rows_from_scalars(self, paper_graph):
        paper_graph.register_table_function()
        db = paper_graph.connection.database
        rows = db.execute(
            "SELECT n FROM TABLE(graphQuery('gremlin', "
            "'g.V().hasLabel(''patient'').values(''name'')')) AS t (n VARCHAR) "
            "ORDER BY n"
        ).rows
        assert rows == [("Alice",), ("Bob",), ("Carol",)]

    def test_rows_from_tuples(self, paper_graph):
        paper_graph.register_table_function()
        db = paper_graph.connection.database
        rows = db.execute(
            "SELECT pid, sub FROM TABLE(graphQuery('gremlin', "
            "'g.V().hasLabel(''patient'').valueTuple(''patientID'', ''subscriptionID'')')) "
            "AS t (pid BIGINT, sub BIGINT) ORDER BY pid"
        ).rows
        assert rows == [(1, 100), (2, 200), (3, 300)]

    def test_unsupported_language_rejected(self, paper_graph):
        paper_graph.register_table_function()
        db = paper_graph.connection.database
        from repro.graph import GraphError

        with pytest.raises(GraphError):
            db.execute(
                "SELECT n FROM TABLE(graphQuery('cypher', 'MATCH (n)')) AS t (n VARCHAR)"
            )

    def test_full_synergy_query(self):
        """The paper's §4 flagship statement, on the synthetic dataset."""
        dataset = HealthcareDataset(HealthcareConfig(n_patients=30, seed=7))
        db = Database()
        dataset.install_relational(db)
        graph = Db2Graph.open(db, dataset.overlay_config())
        graph.register_table_function()
        result = db.execute(synergy_sql(1))
        assert result.columns[0].lower() == "patientid"
        assert len(result.rows) >= 1
        for _pid, avg_steps, avg_minutes in result.rows:
            assert 500 <= avg_steps <= 15000
            assert 0 <= avg_minutes <= 120


class TestInheritedAccessControl:
    def test_graph_queries_respect_grants(self, paper_db):
        eve = paper_db.connect("eve")
        graph = Db2Graph.open(eve, HEALTHCARE_TINY_OVERLAY)
        with pytest.raises(AccessDeniedError):
            graph.traversal().V().hasLabel("patient").toList()

    def test_grant_opens_the_graph(self, paper_db):
        for table in ("Patient", "Disease", "HasDisease", "DiseaseOntology"):
            paper_db.execute(f"GRANT SELECT ON {table} TO eve")
        eve = paper_db.connect("eve")
        graph = Db2Graph.open(eve, HEALTHCARE_TINY_OVERLAY)
        assert graph.traversal().V().count().next() == 7

    def test_partial_grant_blocks_cross_table_traversal(self, paper_db):
        paper_db.execute("GRANT SELECT ON Patient TO eve")
        eve = paper_db.connect("eve")
        graph = Db2Graph.open(eve, HEALTHCARE_TINY_OVERLAY)
        # patient vertices are visible...
        assert graph.traversal().V().hasLabel("patient").count().next() == 3
        # ...but traversing into HasDisease is denied
        with pytest.raises(AccessDeniedError):
            graph.traversal().V("patient::1").out("hasDisease").toList()


class TestTemporalThroughGraph:
    def test_graph_sees_latest_data(self):
        clock = ManualClock(1000.0)
        db = Database(clock=clock)
        db.execute("CREATE TABLE Patient (patientID BIGINT PRIMARY KEY, name VARCHAR, address VARCHAR, subscriptionID BIGINT)")
        db.execute("CREATE TABLE Disease (diseaseID BIGINT PRIMARY KEY, conceptCode VARCHAR, conceptName VARCHAR)")
        db.execute("CREATE TABLE HasDisease (patientID BIGINT, diseaseID BIGINT, description VARCHAR)")
        db.execute("CREATE TABLE DiseaseOntology (sourceID BIGINT, targetID BIGINT, type VARCHAR)")
        db.execute("INSERT INTO Patient VALUES (1, 'Alice', 'old addr', 1)")
        graph = Db2Graph.open(db, HEALTHCARE_TINY_OVERLAY)
        g = graph.traversal()
        assert g.V("patient::1").values("address").next() == "old addr"
        clock.advance(10)
        db.execute("UPDATE Patient SET address = 'new addr' WHERE patientID = 1")
        assert graph.traversal().V("patient::1").values("address").next() == "new addr"
        # the relational history is still queryable
        rows = db.execute(
            "SELECT address FROM Patient FOR SYSTEM_TIME AS OF 1005.0"
        ).rows
        assert rows == [("old addr",)]

    def test_graph_inside_transaction_sees_own_writes(self, paper_db):
        conn = paper_db.connect()
        graph = Db2Graph.open(conn, HEALTHCARE_TINY_OVERLAY)
        conn.begin()
        conn.execute("INSERT INTO Patient VALUES (9, 'Dave', 'x', 900)")
        assert graph.traversal().V().hasLabel("patient").count().next() == 4
        conn.rollback()
        assert graph.traversal().V().hasLabel("patient").count().next() == 3


class TestIndexAdvisorIntegration:
    def test_advisor_via_facade(self, paper_graph):
        # cache=False: the tracker counts repeated statements, and
        # read-cache hits would answer the repeats without one.
        graph = Db2Graph.open(
            paper_graph.connection, paper_graph.topology.config, cache=False
        )
        graph.dialect.tracker.threshold = 2
        for _ in range(4):
            graph.traversal().V().hasLabel("patient").has("name", "Alice").toList()
        suggestions = graph.suggest_indexes()
        assert ("patient", ("name",)) in suggestions
        created = graph.create_suggested_indexes()
        assert any("name" in name for name in created)
