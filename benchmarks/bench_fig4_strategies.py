"""Figure 4: Db2 Graph with vs without optimized traversal strategies.

The paper: all four LinkBench queries speed up 2.8-3.3x when the §6.2
compile-time strategies are on (the §6.3 runtime optimizations stay on
in both configurations).  Mechanism per query:

* getNode       — predicate pushdown (label narrows 10 node tables to 1);
* countLinks    — GraphStep::VertexStep mutation + aggregate pushdown;
* getLink       — mutation + predicate pushdown (endpoint id into SQL);
* getLinkList   — mutation (no wasted vertex-table lookups).

We assert every query gets faster with strategies on, and that the
optimized engine issues strictly fewer SQL statements.
"""

from __future__ import annotations

import pytest

from repro.bench.harness import build_engines, measure_latency, EngineUnderTest
from repro.bench.reporting import format_table
from repro.core.db2graph import Db2Graph
from repro.workloads.linkbench import LINKBENCH_QUERIES, LinkBenchConfig

_RESULTS: dict[str, dict[str, float]] = {"on": {}, "off": {}}


@pytest.fixture(scope="module")
def engines(small_db2_only):
    setup = small_db2_only
    unoptimized = Db2Graph.open(
        setup.database, setup.dataset.overlay_config(), optimized=False
    )
    return {
        "on": EngineUnderTest("strategies-on", setup.db2graph.traversal, raw=setup.db2graph),
        "off": EngineUnderTest("strategies-off", unoptimized.traversal, raw=unoptimized),
        "setup": setup,
    }


@pytest.mark.parametrize("kind", list(LINKBENCH_QUERIES))
@pytest.mark.parametrize("mode", ["on", "off"])
def test_fig4_latency(benchmark, engines, kind, mode):
    setup = engines["setup"]
    engine = engines[mode]
    calls = [setup.workload.sample(kind) for _ in range(64)]
    state = {"i": 0}

    def run_one():
        call = calls[state["i"] % len(calls)]
        state["i"] += 1
        return call.run(engine.traversal())

    benchmark.pedantic(run_one, rounds=40, iterations=1, warmup_rounds=5)
    result = measure_latency(engine, setup.workload, kind, iterations=120, warmup=20)
    _RESULTS[mode][kind] = result.mean_seconds


def test_fig4_report(benchmark, engines, collector):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    setup = engines["setup"]
    rows = []
    for kind in LINKBENCH_QUERIES:
        on = _RESULTS["on"].get(kind)
        off = _RESULTS["off"].get(kind)
        if on is None or off is None:
            pytest.skip("latency benchmarks did not run")
        speedup = off / on
        rows.append([kind, f"{off * 1e3:.3f}", f"{on * 1e3:.3f}", f"{speedup:.1f}x"])
        assert speedup > 1.2, (
            f"{kind}: optimized strategies should clearly win (got {speedup:.2f}x)"
        )
    collector.add(
        "fig4_strategies",
        format_table(
            ["Query", "Without strategies (ms)", "With strategies (ms)", "Speedup"],
            rows,
            title="Figure 4: Db2 Graph with vs without optimized traversal "
            "strategies (LinkBench small)",
        ),
    )

    # SQL-count mechanism check: the optimized engine issues fewer SQLs
    on_engine = engines["on"].raw
    off_engine = engines["off"].raw
    for kind in ("countLinks", "getLinkList"):
        call = setup.workload.sample(kind)
        on_engine.reset_stats()
        off_engine.reset_stats()
        call.run(on_engine.traversal())
        call.run(off_engine.traversal())
        assert (
            on_engine.stats()["sql_queries"]
            < off_engine.stats()["sql_queries"]
        ), f"{kind}: strategies must reduce the number of SQL statements"
