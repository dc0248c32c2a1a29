"""Ablation D1/D4 (DESIGN.md): prepared-statement templates and index
use in the relational engine.

The paper's SQL Dialect module prepares frequent query templates "to
avoid the SQL compilation overhead at runtime" (§6.1) and feeds the
index advisor.  We quantify both:

* D1 — the same workload through the dialect with and without the
  statement cache (every statement re-parsed/re-planned when off);
* D4 — getLinkList latency with and without the link-table id1 index
  (index advisor's suggestion applied vs dropped).
"""

from __future__ import annotations

from paper import EngineUnderTest, format_table, measure_latency, write_result
from repro.core.db2graph import Db2Graph
from repro.relational.database import Database
from repro.workloads.linkbench import LinkBenchConfig, LinkBenchDataset, LinkBenchWorkload


def _mean_ms(engine: EngineUnderTest, workload, iterations: int, warmup: int) -> float:
    return measure_latency(
        engine, workload, "getLinkList", iterations=iterations, warmup=warmup
    ).mean_ms


def test_ablation_prepared(small_db2_only):
    # -- D1: the same workload with and without the statement cache
    setup = small_db2_only
    unprepared = Db2Graph.open(setup.database, setup.dataset.overlay_config())
    unprepared.dialect.use_prepared = False
    prepared_ms = _mean_ms(
        EngineUnderTest("prepared", setup.db2graph.traversal), setup.workload, 120, 20
    )
    unprepared_ms = _mean_ms(
        EngineUnderTest("unprepared", unprepared.traversal), setup.workload, 120, 20
    )

    # -- D4: a separate database without the link-table id1 indexes
    dataset = LinkBenchDataset(LinkBenchConfig.small())
    db = Database(enforce_foreign_keys=False)
    dataset.install_relational(db)
    for t in range(10):
        db.execute(f"DROP INDEX idx_link{t}_id1")
    graph = Db2Graph.open(db, dataset.overlay_config())
    workload = LinkBenchWorkload(dataset)
    unindexed = EngineUnderTest("unindexed", graph.traversal)
    unindexed_ms = _mean_ms(unindexed, workload, 30, 5)

    # The index advisor notices the frequent pattern and re-creates the
    # index; latency recovers.  Drive enough traffic for the pattern
    # tracker to cross its frequency threshold on each link table.
    for call in workload.stream("getLinkList", 200):
        call.run(graph.traversal())
    suggestions = graph.suggest_indexes()
    assert any("link" in table for table, _cols in suggestions), (
        f"advisor should flag the frequent link-table probes, got {suggestions}"
    )
    assert graph.create_suggested_indexes(), "advisor should create the missing indexes"
    reindexed_ms = _mean_ms(unindexed, workload, 50, 10)

    write_result(
        "ablation_prepared",
        format_table(
            ["Configuration", "getLinkList mean latency (ms)"],
            [
                ["D1 statement cache ON", f"{prepared_ms:.3f}"],
                ["D1 statement cache OFF", f"{unprepared_ms:.3f}"],
                ["D4 link index dropped", f"{unindexed_ms:.3f}"],
                ["D4 after index advisor", f"{reindexed_ms:.3f}"],
            ],
            title="Ablation: prepared-statement templates (D1) and index use (D4)",
        ),
    )
    assert prepared_ms < unprepared_ms, (
        "prepared templates should beat re-parsing every statement"
    )
    assert reindexed_ms < unindexed_ms, "the advisor-created index should beat full scans"
