"""Tests for the customer-scenario workloads: healthcare (§4),
finance/mule-fraud (§7), and police (§7)."""

import pytest

from repro.core import Db2Graph, generate_overlay
from repro.graph import __
from repro.relational import Database
from repro.workloads.finance import FinanceConfig, FinanceDataset, find_mule_chains
from repro.workloads.healthcare import (
    HealthcareConfig,
    HealthcareDataset,
    similar_diseases_script,
    synergy_sql,
)
from repro.workloads.police import PoliceConfig, PoliceDataset


class TestHealthcare:
    @pytest.fixture(scope="class")
    def setup(self):
        dataset = HealthcareDataset(HealthcareConfig(n_patients=30, seed=5))
        db = Database()
        dataset.install_relational(db)
        graph = Db2Graph.open(db, dataset.overlay_config())
        return dataset, db, graph

    def test_counts(self, setup):
        dataset, _db, graph = setup
        g = graph.traversal()
        assert g.V().hasLabel("patient").count().next() == 30
        assert g.V().hasLabel("disease").count().next() == len(dataset.diseases)
        assert g.E().hasLabel("hasDisease").count().next() == len(dataset.has_disease)

    def test_ontology_is_a_tree(self, setup):
        dataset, _db, graph = setup
        g = graph.traversal()
        # every non-root disease has exactly one parent
        n_edges = g.E().hasLabel("isa").count().next()
        assert n_edges == len(dataset.diseases) - 1

    def test_leaves_reach_root(self, setup):
        dataset, _db, graph = setup
        g = graph.traversal()
        leaf = dataset.leaf_diseases[0]
        root = (
            g.V(leaf)
            .repeat(__.out("isa"))
            .times(dataset.config.ontology_depth - 1)
            .values("conceptName")
            .toList()
        )
        assert root == ["disease (root)"]

    def test_similar_diseases_script_runs(self, setup):
        _dataset, _db, graph = setup
        result = graph.execute(similar_diseases_script(1))
        assert isinstance(result, list)
        assert all(len(row) == 2 for row in result)

    def test_synergy_sql_end_to_end(self, setup):
        _dataset, db, graph = setup
        graph.register_table_function()
        result = db.execute(synergy_sql(1))
        assert result.columns == ["patientID", "AVG(steps)", "AVG(exerciseMinutes)"]
        assert len(result.rows) >= 1

    def test_device_data_joins_by_subscription(self, setup):
        dataset, db, _graph = setup
        rows = db.execute(
            "SELECT COUNT(*) FROM Patient p JOIN DeviceData d "
            "ON p.subscriptionID = d.subscriptionID"
        ).scalar()
        assert rows == 30 * dataset.config.device_days


class TestFinance:
    @pytest.fixture(scope="class")
    def setup(self):
        dataset = FinanceDataset(FinanceConfig(n_accounts=200, n_rings=3, seed=13))
        db = Database()
        dataset.install_relational(db)
        graph = Db2Graph.open(db, dataset.overlay_config())
        return dataset, db, graph

    def test_account_kinds(self, setup):
        dataset, _db, graph = setup
        g = graph.traversal()
        assert g.V().has("kind", "fraudster").count().next() == 3
        assert g.V().has("kind", "beneficiary").count().next() == 3

    def test_rings_are_disjoint(self, setup):
        dataset, _db, _graph = setup
        members = [a for ring in dataset.rings for a in ring.chain]
        assert len(members) == len(set(members))

    def test_planted_rings_recovered(self, setup):
        dataset, _db, graph = setup
        chains = find_mule_chains(graph, max_hops=6)
        found = {tuple(c) for c in chains}
        for ring in dataset.rings:
            assert tuple(ring.chain) in found, f"ring {ring.chain} not detected"

    def test_chains_end_at_beneficiaries(self, setup):
        dataset, _db, graph = setup
        beneficiaries = set(dataset.beneficiary_ids())
        for chain in find_mule_chains(graph, max_hops=6):
            assert chain[-1] in beneficiaries
            assert chain[0] in set(dataset.fraudster_ids())

    def test_mule_chains_fetch_each_level_once(self, setup):
        # out() fetches a level's distinct accounts together and the
        # emit() check materializes the level in one call: statements
        # scale with hops, not with the 16k paths walked.
        dataset, db, _graph = setup
        graph = Db2Graph.open(db, dataset.overlay_config(), batch_size=256, cache=False)
        before = graph.stats()["sql_queries"]
        find_mule_chains(graph, max_hops=6)
        assert graph.stats()["sql_queries"] - before <= 200

    def test_live_insert_changes_detection(self, setup):
        dataset, db, graph = setup
        ring = dataset.rings[0]
        db.execute(
            "INSERT INTO Txn VALUES (888001, ?, ?, 1.0, 1.0)",
            [ring.fraudster, ring.beneficiary],
        )
        direct = (
            graph.traversal()
            .V(f"acct::{ring.fraudster}")
            .out("transfer")
            .has("kind", "beneficiary")
            .dedup()
            .count()
            .next()
        )
        assert direct >= 1


class TestPolice:
    @pytest.fixture(scope="class")
    def setup(self):
        dataset = PoliceDataset(PoliceConfig(seed=17))
        db = Database()
        dataset.install_relational(db)
        graph = Db2Graph.open(db, generate_overlay(db))
        return dataset, db, graph

    def test_autooverlay_covers_schema(self, setup):
        _dataset, _db, graph = setup
        vertex_tables = {v.table_name for v in graph.topology.vertex_tables}
        assert vertex_tables == {"Person", "Organization", "Arrest", "Vehicle", "Phone"}
        edge_names = {e.name for e in graph.topology.edge_tables}
        assert "Arrest_Person" in edge_names
        assert "Person_Membership_Organization" in edge_names

    def test_suspect_phone_vehicle_case_study(self, setup):
        dataset, _db, graph = setup
        g = graph.traversal()
        person_id = dataset.vehicles[0][2]
        plates = (
            g.V(f"Person::{person_id}").in_("Vehicle_Person").values("plate").toList()
        )
        expected = [p for (_vid, p, owner) in dataset.vehicles if owner == person_id]
        assert sorted(plates) == sorted(expected)

    def test_gang_membership_traversal(self, setup):
        dataset, _db, graph = setup
        g = graph.traversal()
        person, org, _role = dataset.memberships[0]
        orgs = g.V(f"Person::{person}").out("Person_Membership_Organization").toList()
        assert f"Organization::{org}" in [v.id for v in orgs]

    def test_arrest_counts(self, setup):
        dataset, _db, graph = setup
        g = graph.traversal()
        assert g.E().hasLabel("Arrest_Person").count().next() == len(dataset.arrests)
