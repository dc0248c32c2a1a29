"""Table 3: graph loading time and disk usage.

The paper's breakdown per system:

* Db2 Graph: no export, no load — just opening the overlay (seconds);
  disk usage = the relational data itself.
* GDB-X: export from the DB + load into its record format + open (with
  aggressive prefetch); disk usage 6-7x the relational data.
* JanusGraph: export + an even slower load (whole-adjacency blobs,
  edges duplicated per endpoint); comparable disk blow-up.

Shape assertions: Db2 Graph's total is orders of magnitude below both
baselines; baseline disk usage is a multiple of the relational CSV
footprint.
"""

from __future__ import annotations

from paper import format_bytes, format_seconds, format_table, write_result
from repro.baselines.janus import JanusLikeStore
from repro.baselines.kvstore import DiskModel
from repro.baselines.loader import (
    measure_baseline_pipeline,
    measure_db2graph_open,
)
from repro.baselines.native import NativeGraphStore
from repro.core.db2graph import Db2Graph
from repro.core.topology import Topology
from repro.relational.database import Database
from repro.workloads.linkbench import LinkBenchConfig, LinkBenchDataset


def test_table3_loading():
    config = LinkBenchConfig.small()
    dataset = LinkBenchDataset(config)
    db = Database(enforce_foreign_keys=False)
    dataset.install_relational(db)
    tables = dataset.relational_table_names()
    topology = Topology(db, dataset.overlay_config())

    # The first open in a process also imports the replication package,
    # which ``Db2Graph.open`` resolves lazily; time a warm open.
    Db2Graph.open(db, dataset.overlay_config())
    db2_report = measure_db2graph_open(db, dataset.overlay_config(), tables)

    native = NativeGraphStore(disk_model=DiskModel(0.0))
    native_report = measure_baseline_pipeline(
        "GDB-X", native, topology, db, tables, prefetch=True
    )
    janus = JanusLikeStore(disk_model=DiskModel(0.0))
    janus_report = measure_baseline_pipeline(
        "JanusGraph", janus, topology, db, tables, prefetch=False
    )

    rows = []
    for report in (db2_report, native_report, janus_report):
        rows.append(
            [
                report.system,
                format_seconds(report.export_seconds),
                format_seconds(report.load_seconds),
                format_seconds(report.open_seconds),
                format_seconds(report.total_seconds),
                format_bytes(report.disk_usage_bytes),
            ]
        )
    write_result(
        "table3_loading",
        format_table(
            ["System", "Export From DB", "Load Data", "Open Graph", "Total", "Disk Usage"],
            rows,
            title=f"Table 3: graph loading time and disk usage (LinkBench {config.name})",
        ),
    )

    # -- paper-shape assertions ---------------------------------------------
    assert db2_report.export_seconds == 0.0 and db2_report.load_seconds == 0.0
    assert db2_report.total_seconds < native_report.total_seconds / 5, (
        "Db2 Graph must open orders of magnitude faster than reloading GDB-X"
    )
    assert db2_report.total_seconds < janus_report.total_seconds / 5
    for report in (native_report, janus_report):
        blowup = report.disk_usage_bytes / db2_report.disk_usage_bytes
        assert blowup > 2.0, (
            f"{report.system} should use a multiple of the relational footprint "
            f"(got {blowup:.1f}x)"
        )
    assert janus_report.load_seconds > 0 and native_report.load_seconds > 0

    native.close()
    janus.close()
