"""Figure 6: throughput with 50 concurrent clients.

Paper shape: Db2 Graph wins throughput on every query and both scales
(up to 1.6x over GDB-X, up to 4.2x over JanusGraph), because the Db2
engine handles concurrency well while the baselines serialize.

The reproduction reports what it measures: wall-clock throughput of 50
client threads and the single-client service time.  All threads share
one interpreter lock, so the measured rate cannot show the parallel
CPU scaling the paper's 32-core server had; it shows each engine's
per-query cost plus its queueing and lock contention (EXPERIMENTS.md,
Fig. 6).  The assertions check that every client query completed.
"""

from __future__ import annotations

from paper import PAPER_CLIENTS, format_table, measure_throughput, write_result

_ENGINES = ["Db2 Graph", "GDB-X", "JanusGraph"]
_KINDS = ["getNode", "getLinkList"]
_QUERIES_PER_CLIENT = 10


def test_fig6_throughput(small_setup, large_setup):
    tables = []
    for scale, setup in (("small", small_setup), ("large", large_setup)):
        rows = []
        for kind in _KINDS:
            for engine_name in _ENGINES:
                engine = next(e for e in setup.engines if e.name == engine_name)
                r = measure_throughput(
                    engine, setup.workload, kind,
                    clients=PAPER_CLIENTS, queries_per_client=_QUERIES_PER_CLIENT,
                )
                assert r.queries == PAPER_CLIENTS * _QUERIES_PER_CLIENT
                assert r.measured_qps > 0 and r.service_time_seconds > 0
                rows.append(
                    [
                        kind,
                        engine_name,
                        f"{r.measured_qps:,.0f}",
                        f"{r.service_time_seconds * 1e3:.3f}",
                    ]
                )
        tables.append(
            format_table(
                ["Query", "System", "Measured q/s", "Service time (ms)"],
                rows,
                title=(
                    f"Figure 6: throughput of LinkBench queries ({scale} dataset, "
                    f"{PAPER_CLIENTS} client threads, one process)"
                ),
            )
        )
    write_result("fig6_throughput", *tables)
