"""Multi-table fan-out + traverser batching (DESIGN.md §9 "Traverser
batching").

Not a paper figure, but the batching layer added on top of the paper's
serial per-table SQL is worth quantifying: LinkBench ids carry no table
prefix, so ``g.V(id)`` fans out across every node table, and multi-hop
expansions carry hundreds of traverser ids that batching coalesces into
``WHERE id IN (...)`` lists.

Two configurations over the same database:

* ``serial``          — batch_size=1 (one id, one table, one
                        statement: the fully unbatched baseline)
* ``serial+batch``    — batch_size=64

Recorded per configuration: wall-clock latency of a LinkBench-style
mixed workload and the exact number of SQL statements issued (from
stats(), so deterministic).  The acceptance bar: ``serial+batch``
issues >=4x fewer statements than ``serial`` and runs faster.
"""

from __future__ import annotations

import time

import pytest

from repro.bench.reporting import format_table
from repro.core.db2graph import Db2Graph
from repro.workloads.linkbench import LinkBenchConfig, LinkBenchDataset, LinkBenchWorkload

CONFIGS = [
    ("serial", 1),
    ("serial+batch", 64),
]

_RESULTS: dict[str, dict[str, float]] = {}


@pytest.fixture(scope="module")
def fanout_setup():
    from repro.relational.database import Database

    dataset = LinkBenchDataset(LinkBenchConfig.small())
    database = Database(enforce_foreign_keys=False)
    dataset.install_relational(database)
    workload = LinkBenchWorkload(dataset, seed=29)
    graphs = {
        name: Db2Graph.open(database, dataset.overlay_config(), batch_size=batch)
        for name, batch in CONFIGS
    }
    return dataset, workload, graphs


def _workload_calls(workload, rounds: int = 12):
    """A mixed LinkBench-style slice: point lookups (unprefixed ids fan
    out over every node table) plus two-hop expansions (hundreds of
    traverser ids for batching to coalesce)."""
    calls = []
    for _ in range(rounds):
        calls.append(workload.sample("getNode"))
        calls.append(workload.sample("getLinkList"))
        calls.append(workload.sample("countLinks"))
    return calls


def _run_workload(graph, workload) -> tuple[float, int]:
    calls = _workload_calls(workload)
    before = graph.stats()["sql_queries"]
    start = time.perf_counter()
    for call in calls:
        call.run(graph.traversal())
    for id1 in list(workload._sources)[:6]:
        g = graph.traversal()
        g.V(id1).out().out().count().next()
    elapsed = time.perf_counter() - start
    return elapsed, graph.stats()["sql_queries"] - before


@pytest.mark.parametrize("mode", [name for name, _b in CONFIGS])
def test_fanout_latency(benchmark, fanout_setup, mode):
    _dataset, workload, graphs = fanout_setup
    graph = graphs[mode]
    _run_workload(graph, workload)  # warmup (prepared caches)

    timings: list[float] = []
    statements = 0

    def run_once():
        elapsed, issued = _run_workload(graph, workload)
        timings.append(elapsed)
        return issued

    statements = benchmark.pedantic(run_once, rounds=5, iterations=1, warmup_rounds=1)
    _RESULTS[mode] = {
        "seconds": min(timings),
        "statements": float(statements),
    }


def test_fanout_report(fanout_setup, collector):
    assert set(_RESULTS) == {name for name, _b in CONFIGS}
    rows = []
    for name, batch in CONFIGS:
        result = _RESULTS[name]
        rows.append(
            [
                name,
                batch,
                f"{result['seconds'] * 1e3:.1f}",
                int(result["statements"]),
            ]
        )
    collector.add(
        "parallel_fanout",
        format_table(
            ["config", "batch_size", "best ms/round", "sql stmts/round"],
            rows,
            title="Multi-table fan-out + traverser batching (LinkBench-style mix)",
        ),
    )

    serial = _RESULTS["serial"]
    batched = _RESULTS["serial+batch"]
    # The acceptance bar: batching cuts SQL statements >=4x and
    # wall-clock strictly improves over the unbatched run.
    assert batched["statements"] * 4 <= serial["statements"]
    assert batched["seconds"] < serial["seconds"]
