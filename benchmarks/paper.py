"""Harness of the paper-figure scripts (``benchmarks/bench_*.py``):
engine setup, latency timing, measured thread-pool throughput and
paper-style text tables.

``build_engines`` constructs all three systems over the *same*
LinkBench dataset — Db2 Graph on the relational tables, the baselines
on their own storage — so every script queries identical data.  Engine
construction is cached per (scale, seed) within a process because
dataset generation and loading dominate setup.

Run the scripts with
``PYTHONPATH=src python -m pytest -p no:benchmark benchmarks/bench_*.py``;
each writes its table to ``benchmarks/results/``.  The seeded,
oracle-checked benchmark is ``benchmarks/perf/``.
"""

from __future__ import annotations

import statistics
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Sequence

from repro.baselines.janus import JanusLikeStore
from repro.baselines.kvstore import DiskModel
from repro.baselines.native import NativeGraphStore
from repro.core.db2graph import Db2Graph
from repro.graph.traversal import GraphTraversalSource
from repro.relational.database import Database
from repro.workloads.linkbench import LinkBenchConfig, LinkBenchDataset, LinkBenchWorkload

RESULTS_DIR = Path(__file__).parent / "results"

# Cache capacity chosen between the small and large datasets' record
# counts, reproducing Fig. 5's "fits in cache" vs "doesn't" regimes
# (paper: 10M dataset cached entirely, 100M's 327GB could not be).
NATIVE_CACHE_RECORDS = 40_000
JANUS_CACHE_BLOBS = 8_000

PAPER_CLIENTS = 50


@dataclass
class EngineUnderTest:
    name: str
    traversal: Callable[[], GraphTraversalSource]
    close: Callable[[], None] = lambda: None
    raw: Any = None


@dataclass
class BenchSetup:
    dataset: LinkBenchDataset
    workload: LinkBenchWorkload
    database: Database
    db2graph: Db2Graph
    engines: list[EngineUnderTest]


_setup_cache: dict[tuple, BenchSetup] = {}


def build_engines(
    config: LinkBenchConfig,
    include_baselines: bool = True,
    disk_read_latency: float = 100e-6,
) -> BenchSetup:
    key = (config.name, config.n_vertices, config.seed, include_baselines, disk_read_latency)
    if key in _setup_cache:
        return _setup_cache[key]

    dataset = LinkBenchDataset(config)
    database = Database(enforce_foreign_keys=False)
    dataset.install_relational(database)
    db2graph = Db2Graph.open(database, dataset.overlay_config())

    engines = [EngineUnderTest("Db2 Graph", db2graph.traversal, raw=db2graph)]
    if include_baselines:
        native = NativeGraphStore(
            cache_records=NATIVE_CACHE_RECORDS,
            disk_model=DiskModel(read_latency_seconds=disk_read_latency),
        )
        dataset.load_into_store(native)
        native.open_graph(prefetch=True)
        janus = JanusLikeStore(
            cache_blobs=JANUS_CACHE_BLOBS,
            disk_model=DiskModel(read_latency_seconds=disk_read_latency),
        )
        dataset.load_into_store(janus)
        janus.open_graph()
        for name, store in (("GDB-X", native), ("JanusGraph", janus)):
            engines.append(
                EngineUnderTest(
                    name,
                    lambda store=store: GraphTraversalSource(store),
                    close=store.close,
                    raw=store,
                )
            )

    setup = BenchSetup(
        dataset=dataset,
        workload=LinkBenchWorkload(dataset),
        database=database,
        db2graph=db2graph,
        engines=engines,
    )
    _setup_cache[key] = setup
    return setup


def clear_engine_cache() -> None:
    for setup in _setup_cache.values():
        for engine in setup.engines:
            engine.close()
    _setup_cache.clear()


# -- latency ------------------------------------------------------------------


@dataclass
class LatencyResult:
    engine: str
    query: str
    mean_seconds: float
    p50_seconds: float
    p95_seconds: float
    samples: int

    @property
    def mean_ms(self) -> float:
        return self.mean_seconds * 1e3


def measure_latency(
    engine: EngineUnderTest,
    workload: LinkBenchWorkload,
    kind: str,
    iterations: int = 200,
    warmup: int = 20,
) -> LatencyResult:
    calls = [workload.sample(kind) for _ in range(warmup + iterations)]
    for call in calls[:warmup]:
        call.run(engine.traversal())
    timings: list[float] = []
    for call in calls[warmup:]:
        g = engine.traversal()
        start = time.perf_counter()
        call.run(g)
        timings.append(time.perf_counter() - start)
    timings.sort()
    return LatencyResult(
        engine=engine.name,
        query=kind,
        mean_seconds=statistics.fmean(timings),
        p50_seconds=timings[len(timings) // 2],
        p95_seconds=timings[int(len(timings) * 0.95)],
        samples=len(timings),
    )


# -- throughput (Fig. 6) --------------------------------------------------------


@dataclass
class ThroughputResult:
    queries: int
    measured_qps: float
    service_time_seconds: float


def measure_throughput(
    engine: EngineUnderTest,
    workload: LinkBenchWorkload,
    kind: str,
    clients: int = PAPER_CLIENTS,
    queries_per_client: int = 20,
) -> ThroughputResult:
    """Single-client service time, then wall-clock throughput of
    ``clients`` threads each running ``queries_per_client`` queries
    released together.  One interpreter lock runs every thread, so the
    measured rate shows queueing and lock contention, not parallel
    CPU scaling."""
    probe_calls = [workload.sample(kind) for _ in range(100)]
    for call in probe_calls[:10]:  # warm caches
        call.run(engine.traversal())
    start = time.perf_counter()
    for call in probe_calls:
        call.run(engine.traversal())
    service_time = (time.perf_counter() - start) / len(probe_calls)

    start_gate = threading.Barrier(clients + 1)
    done_gate = threading.Barrier(clients + 1)
    completed = [0] * clients

    def client(index: int, calls: list) -> None:
        start_gate.wait()
        try:
            for call in calls:
                call.run(engine.traversal())
                completed[index] += 1
        finally:  # a failed query shows in ``queries``, never as a hang
            done_gate.wait()

    threads = [
        threading.Thread(
            target=client,
            args=(i, [workload.sample(kind) for _ in range(queries_per_client)]),
            daemon=True,
        )
        for i in range(clients)
    ]
    for thread in threads:
        thread.start()
    start_gate.wait()
    start = time.perf_counter()
    done_gate.wait()
    wall = time.perf_counter() - start
    for thread in threads:
        thread.join()
    queries = sum(completed)
    return ThroughputResult(
        queries=queries,
        measured_qps=queries / wall if wall > 0 else 0.0,
        service_time_seconds=service_time,
    )


# -- reporting -------------------------------------------------------------------


def format_table(headers: Sequence[str], rows: Sequence[Sequence[Any]], title: str = "") -> str:
    rendered = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines: list[str] = []
    if title:
        lines.append(title)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("-+-".join("-" * w for w in widths))
    for row in rendered:
        lines.append(" | ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


def format_bytes(n: float) -> str:
    for unit in ("B", "KB", "MB", "GB"):
        if abs(n) < 1024:
            return f"{n:.1f}{unit}"
        n /= 1024
    return f"{n:.1f}TB"


def format_seconds(seconds: float) -> str:
    if seconds < 1e-3:
        return f"{seconds * 1e6:.0f}us"
    if seconds < 1:
        return f"{seconds * 1e3:.1f}ms"
    if seconds < 120:
        return f"{seconds:.2f}s"
    return f"{seconds / 60:.1f}min"


def write_result(name: str, *tables: str) -> None:
    """Write ``benchmarks/results/<name>.txt`` (tables separated by a
    blank line) and echo it."""
    RESULTS_DIR.mkdir(exist_ok=True)
    body = "\n\n".join(tables) + "\n"
    (RESULTS_DIR / f"{name}.txt").write_text(body)
    print(f"\n===== {name} =====\n{body}")
