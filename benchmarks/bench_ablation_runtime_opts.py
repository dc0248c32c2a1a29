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

import pytest

from repro.bench.harness import EngineUnderTest, measure_latency
from repro.bench.reporting import format_table
from repro.core.db2graph import Db2Graph
from repro.core.graph_structure import RuntimeOptimizations
from repro.workloads.linkbench import LINKBENCH_QUERIES

_RESULTS: dict[str, dict[str, float]] = {"on": {}, "off": {}}


@pytest.fixture(scope="module")
def engines(small_db2_only):
    setup = small_db2_only
    stripped = Db2Graph.open(
        setup.database,
        setup.dataset.overlay_config(),
        runtime_opts=RuntimeOptimizations.all_off(),
    )
    return {
        "on": EngineUnderTest("runtime-opts-on", setup.db2graph.traversal, raw=setup.db2graph),
        "off": EngineUnderTest("runtime-opts-off", stripped.traversal, raw=stripped),
        "setup": setup,
    }


@pytest.mark.parametrize("kind", list(LINKBENCH_QUERIES))
@pytest.mark.parametrize("mode", ["on", "off"])
def test_ablation_runtime_latency(benchmark, engines, kind, mode):
    setup = engines["setup"]
    engine = engines[mode]
    calls = [setup.workload.sample(kind) for _ in range(48)]
    state = {"i": 0}

    def run_one():
        call = calls[state["i"] % len(calls)]
        state["i"] += 1
        return call.run(engine.traversal())

    benchmark.pedantic(run_one, rounds=25, iterations=1, warmup_rounds=5)
    result = measure_latency(engine, setup.workload, kind, iterations=100, warmup=15)
    _RESULTS[mode][kind] = result.mean_seconds


def test_ablation_runtime_report(benchmark, engines, collector):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    setup = engines["setup"]
    rows = []
    for kind in LINKBENCH_QUERIES:
        on = _RESULTS["on"].get(kind)
        off = _RESULTS["off"].get(kind)
        if on is None or off is None:
            pytest.skip("ablation benchmarks did not run")
        rows.append([kind, f"{off * 1e3:.3f}", f"{on * 1e3:.3f}", f"{off / on:.1f}x"])
    collector.add(
        "ablation_runtime_opts",
        format_table(
            ["Query", "Runtime opts OFF (ms)", "Runtime opts ON (ms)", "Speedup"],
            rows,
            title="Ablation: §6.3 data-dependent runtime optimizations "
            "(LinkBench small; compile-time strategies on in both)",
        ),
    )

    # Correctness must be identical with optimizations off.
    on_engine, off_engine = engines["on"], engines["off"]
    for kind in LINKBENCH_QUERIES:
        call = setup.workload.sample(kind)
        a = call.run(on_engine.traversal())
        b = call.run(off_engine.traversal())
        assert len(a) == len(b), f"{kind}: runtime opts must not change results"

    # getLinkList (edge fetch by known source) benefits from label-based
    # table elimination: fewer per-query SQL statements with opts on.
    call = setup.workload.sample("getLinkList")
    on_engine.raw.reset_stats()
    off_engine.raw.reset_stats()
    call.run(on_engine.traversal())
    call.run(off_engine.traversal())
    assert (
        on_engine.raw.stats()["sql_queries"]
        < off_engine.raw.stats()["sql_queries"]
    )
