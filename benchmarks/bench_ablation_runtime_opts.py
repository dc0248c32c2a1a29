"""Ablation D2/D3 (DESIGN.md): the data-dependent runtime
optimizations of §6.3.

Not a paper figure — the paper always runs with these on — but
DESIGN.md calls them out as design decisions worth quantifying:
table elimination via labels/properties/prefixed-ids, src/dst vertex
table narrowing, and vertex-from-edge construction.

We compare Db2 Graph with all runtime optimizations on vs all off
(compile-time strategies on in both), on the multi-table LinkBench
overlay where elimination matters most.
"""

from __future__ import annotations

from paper import EngineUnderTest, format_table, measure_latency, write_result
from repro.core.db2graph import Db2Graph
from repro.core.graph_structure import RuntimeOptimizations
from repro.workloads.linkbench import LINKBENCH_QUERIES


def test_ablation_runtime_opts(small_db2_only):
    setup = small_db2_only
    stripped = Db2Graph.open(
        setup.database,
        setup.dataset.overlay_config(),
        runtime_opts=RuntimeOptimizations.all_off(),
    )
    on = EngineUnderTest("runtime-opts-on", setup.db2graph.traversal, raw=setup.db2graph)
    off = EngineUnderTest("runtime-opts-off", stripped.traversal, raw=stripped)

    rows = []
    for kind in LINKBENCH_QUERIES:
        on_s = measure_latency(on, setup.workload, kind, iterations=100, warmup=15).mean_seconds
        off_s = measure_latency(off, setup.workload, kind, iterations=100, warmup=15).mean_seconds
        rows.append([kind, f"{off_s * 1e3:.3f}", f"{on_s * 1e3:.3f}", f"{off_s / on_s:.1f}x"])
    write_result(
        "ablation_runtime_opts",
        format_table(
            ["Query", "Runtime opts OFF (ms)", "Runtime opts ON (ms)", "Speedup"],
            rows,
            title="Ablation: §6.3 data-dependent runtime optimizations "
            "(LinkBench small; compile-time strategies on in both)",
        ),
    )

    # Correctness must be identical with optimizations off.
    for kind in LINKBENCH_QUERIES:
        call = setup.workload.sample(kind)
        a = call.run(on.traversal())
        b = call.run(off.traversal())
        assert len(a) == len(b), f"{kind}: runtime opts must not change results"

    # getLinkList (edge fetch by known source) benefits from label-based
    # table elimination: fewer per-query SQL statements with opts on.
    call = setup.workload.sample("getLinkList")
    on.raw.reset_stats()
    off.raw.reset_stats()
    call.run(on.traversal())
    call.run(off.traversal())
    assert on.raw.stats()["sql_queries"] < off.raw.stats()["sql_queries"]
