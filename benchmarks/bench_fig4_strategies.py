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

from paper import EngineUnderTest, format_table, measure_latency, write_result
from repro.core.db2graph import Db2Graph
from repro.workloads.linkbench import LINKBENCH_QUERIES


def test_fig4_strategies(small_db2_only):
    setup = small_db2_only
    unoptimized = Db2Graph.open(
        setup.database, setup.dataset.overlay_config(), optimized=False
    )
    on = EngineUnderTest("strategies-on", setup.db2graph.traversal, raw=setup.db2graph)
    off = EngineUnderTest("strategies-off", unoptimized.traversal, raw=unoptimized)

    rows = []
    for kind in LINKBENCH_QUERIES:
        on_s = measure_latency(on, setup.workload, kind, iterations=120, warmup=20).mean_seconds
        off_s = measure_latency(off, setup.workload, kind, iterations=120, warmup=20).mean_seconds
        speedup = off_s / on_s
        rows.append([kind, f"{off_s * 1e3:.3f}", f"{on_s * 1e3:.3f}", f"{speedup:.1f}x"])
        assert speedup > 1.2, (
            f"{kind}: optimized strategies should clearly win (got {speedup:.2f}x)"
        )
    write_result(
        "fig4_strategies",
        format_table(
            ["Query", "Without strategies (ms)", "With strategies (ms)", "Speedup"],
            rows,
            title="Figure 4: Db2 Graph with vs without optimized traversal "
            "strategies (LinkBench small)",
        ),
    )

    # SQL-count mechanism check: the optimized engine issues fewer SQLs
    for kind in ("countLinks", "getLinkList"):
        call = setup.workload.sample(kind)
        on.raw.reset_stats()
        off.raw.reset_stats()
        call.run(on.traversal())
        call.run(off.traversal())
        assert (
            on.raw.stats()["sql_queries"] < off.raw.stats()["sql_queries"]
        ), f"{kind}: strategies must reduce the number of SQL statements"
