"""The §4 synergy statement against the standalone-graph-database pipeline.

Db2 Graph answers the healthcare analysis in one SQL statement:
``graphQuery`` finds patients with similar diseases and the outer query
joins their wearable-device data and averages it per patient.  A
standalone graph database gets the same answer the long way round:
export the graph tables, load them into the store, traverse there, ship
the ``(patientID, subscriptionID)`` pairs back and run one ``AVG``
query per subscription in SQL.  The two pipelines must return the same
rows on the 800-patient dataset (seed 21).
"""

from __future__ import annotations

import pytest

from repro.baselines.kvstore import DiskModel
from repro.baselines.loader import export_tables_to_csv, load_into_store
from repro.baselines.native import NativeGraphStore
from repro.core import Db2Graph
from repro.core.topology import Topology
from repro.graph import GraphTraversalSource
from repro.graph.gremlin_parser import evaluate_gremlin
from repro.relational import Database
from repro.workloads.healthcare import (
    HealthcareConfig,
    HealthcareDataset,
    similar_diseases_script,
    synergy_sql,
)


@pytest.fixture(scope="module")
def setup():
    dataset = HealthcareDataset(HealthcareConfig(n_patients=800, device_days=30, seed=21))
    db = Database()
    dataset.install_relational(db)
    graph = Db2Graph.open(db, dataset.overlay_config())
    graph.register_table_function()
    yield dataset, db
    graph.close()


def run_standalone_pipeline(dataset, db, patient_id: int):
    """Export -> load -> traverse -> per-subscription aggregate in SQL."""
    export = export_tables_to_csv(db, dataset.relational_table_names())
    export.cleanup()
    store = NativeGraphStore(disk_model=DiskModel(0.0))
    load_into_store(store, Topology(db, dataset.overlay_config()), db)
    store.open_graph(prefetch=True)
    try:
        g = GraphTraversalSource(store)
        pairs = evaluate_gremlin(g, similar_diseases_script(patient_id))
        rows = []
        for patient, subscription in pairs:
            avg = db.execute(
                "SELECT AVG(steps), AVG(exerciseMinutes) FROM DeviceData "
                "WHERE subscriptionID = ?",
                [subscription],
            ).rows[0]
            rows.append((patient, *avg))
        return rows
    finally:
        store.close()


def test_synergy_results_agree(setup):
    dataset, db = setup
    integrated = sorted(db.execute(synergy_sql(1)).rows)
    standalone = sorted(run_standalone_pipeline(dataset, db, 1))
    assert integrated
    assert len(integrated) == len(standalone)
    for a, b in zip(integrated, standalone):
        assert a[0] == b[0]
        assert a[1:] == pytest.approx(b[1:])
