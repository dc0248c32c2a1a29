"""Level-batched ``repeat()`` and the bulk analytics profile
(DESIGN.md §14).

A 10k-vertex graph: a dense 250-vertex community (out-degree 10,
closed under ``out()``) beside a shallow 10-ary tree holding the other
9750 vertices.  From a community seed, ``repeat(out()).times(5)``
walks 10^5 paths whose distinct frontier never exceeds the community
size.  ``out()`` batches by distinct vertex, so each level costs one
batched statement per edge table, not one per ``batch_size``
traversers.

Recorded: wall-clock and exact SQL statements issued (from
``stats()``, deterministic; cache off, so every probe reaches SQL).
Acceptance bar: the chain issues at most ``HOPS + 1`` statements and
its result multiset equals a pure-Python expansion of the generated
edge list.  A second table profiles the four analytics algorithms on
the same graph — statements, steps, frontier sizes, convergence
(batch_size=1024: a level of more distinct ids than that is one scan
of the unindexed ``link`` table, DESIGN.md §9).
"""

from __future__ import annotations

import random
import time
from collections import Counter

import pytest

from repro.bench.reporting import format_table
from repro.core.db2graph import Db2Graph
from repro.graph import __
from repro.relational.database import Database

COMMUNITY = 250
OUT_DEGREE = 10
N_VERTICES = 10_000
HOPS = 5

OVERLAY = {
    "v_tables": [
        {"table_name": "node", "id": "id", "fix_label": True,
         "label": "'node'", "properties": ["id"]},
    ],
    "e_tables": [
        {"table_name": "link", "src_v_table": "node", "src_v": "src",
         "dst_v_table": "node", "dst_v": "dst",
         "implicit_edge_id": True, "fix_label": True, "label": "'link'",
         "properties": ["w"]},
    ],
}

_RESULTS: dict[str, dict[str, float]] = {}


def generate_edges() -> list[tuple[int, int, float]]:
    rng = random.Random(42)
    edges: list[tuple[int, int, float]] = []
    for src in range(1, COMMUNITY + 1):
        for dst in rng.sample(range(1, COMMUNITY + 1), OUT_DEGREE):
            edges.append((src, dst, float(rng.randint(1, 9))))
    # the bulk of the graph: a shallow 10-ary tree rooted just past the
    # community (small diameter keeps whole-graph algorithms
    # level-bounded; disjoint from the community so the repeat()
    # benchmark's frontier stays community-sized)
    for dst in range(COMMUNITY + 2, N_VERTICES + 1):
        edges.append((max(COMMUNITY + 1, dst // 10), dst, 1.0))
    return edges


def build_database(edges: list[tuple[int, int, float]]) -> Database:
    db = Database(enforce_foreign_keys=False)
    db.execute("CREATE TABLE node (id INT PRIMARY KEY)")
    db.execute("CREATE TABLE link (src INT, dst INT, w DOUBLE)")
    for start in range(1, N_VERTICES + 1, 500):
        values = ", ".join(
            f"({i})" for i in range(start, min(start + 500, N_VERTICES + 1))
        )
        db.execute(f"INSERT INTO node VALUES {values}")
    rows = [f"({src}, {dst}, {w})" for src, dst, w in edges]
    for start in range(0, len(rows), 500):
        db.execute("INSERT INTO link VALUES " + ", ".join(rows[start:start + 500]))
    return db


def reference_repeat(edges: list[tuple[int, int, float]]) -> Counter:
    """``V(1).repeat(out()).times(HOPS)`` expanded in pure Python."""
    out: dict[int, list[int]] = {}
    for src, dst, _w in edges:
        out.setdefault(src, []).append(dst)
    level = Counter({1: 1})
    for _ in range(HOPS):
        following: Counter = Counter()
        for vertex, count in level.items():
            for dst in out.get(vertex, ()):
                following[dst] += count
        level = following
    return level


@pytest.fixture(scope="module")
def analytics_setup():
    edges = generate_edges()
    db = build_database(edges)
    graphs = {
        # batch_size >= COMMUNITY: a whole level fits one batch
        "repeat": Db2Graph.open(db, OVERLAY, cache=False, batch_size=256),
        "profile": Db2Graph.open(db, OVERLAY, cache=False, batch_size=1024),
    }
    yield edges, graphs
    for graph in graphs.values():
        graph.close()


def _run_repeat(graph) -> tuple[float, int, Counter]:
    before = graph.stats()["sql_queries"]
    start = time.perf_counter()
    result = (
        graph.traversal().V(1).repeat(__.out()).times(HOPS).id_().toList()
    )
    elapsed = time.perf_counter() - start
    issued = graph.stats()["sql_queries"] - before
    return elapsed, issued, Counter(result)


def test_repeat_chain(benchmark, analytics_setup):
    _edges, graphs = analytics_setup
    graph = graphs["repeat"]
    _run_repeat(graph)  # warmup (prepared-statement caches)

    timings: list[float] = []
    counters: list[Counter] = []

    def run_once():
        elapsed, issued, result = _run_repeat(graph)
        timings.append(elapsed)
        counters.append(result)
        return issued

    statements = benchmark.pedantic(run_once, rounds=2, iterations=1)
    _RESULTS["repeat"] = {
        "seconds": min(timings),
        "statements": float(statements),
        "traversers": float(sum(counters[-1].values())),
    }
    _RESULTS.setdefault("multisets", {})["repeat"] = counters[-1]  # type: ignore[arg-type]


_PROFILE_ROWS: list[list] = []


@pytest.mark.parametrize(
    "name", ["bfs", "sssp", "wcc", "pagerank"]
)
def test_algorithm_profile(analytics_setup, name):
    """Statement/step/frontier profile, one algorithm per test so the
    CI per-test timeout applies to each whole-graph run separately."""
    _edges, graphs = analytics_setup
    an = graphs["profile"].analytics()
    graph = graphs["profile"]
    runs = {
        "bfs": lambda: an.bfs(COMMUNITY + 1),
        "sssp": lambda: an.sssp(COMMUNITY + 1, weight="w"),
        "wcc": lambda: an.wcc(),
        "pagerank": lambda: an.pagerank(max_iterations=10),
    }
    before = graph.stats()["sql_queries"]
    start = time.perf_counter()
    result = runs[name]()
    elapsed = time.perf_counter() - start
    issued = graph.stats()["sql_queries"] - before
    if name == "pagerank":
        steps, frontier_max = result.iterations, N_VERTICES
    else:
        steps = result.steps
        frontier_max = max(result.frontier_sizes, default=0)
    _PROFILE_ROWS.append(
        [name, f"{elapsed * 1e3:.0f}", issued, steps, frontier_max,
         result.converged]
    )


def test_analytics_report(analytics_setup, collector):
    collector.add(
        "analytics",
        format_table(
            ["algorithm", "ms", "sql stmts", "steps", "max frontier", "converged"],
            _PROFILE_ROWS,
            title=(
                f"Bulk analytics on {N_VERTICES} vertices "
                f"(community={COMMUNITY}, degree={OUT_DEGREE}, 10-ary tree "
                f"tail, batch_size=1024)"
            ),
        ),
    )
    result = _RESULTS["repeat"]
    collector.add(
        "analytics",
        format_table(
            ["chain", "best ms", "sql stmts", "result traversers"],
            [
                [
                    f"repeat(out()).times({HOPS})",
                    f"{result['seconds'] * 1e3:.1f}",
                    int(result["statements"]),
                    int(result["traversers"]),
                ]
            ],
            title=(
                f"repeat(out()).times({HOPS}) from a community seed "
                f"(bound: {HOPS + 1} statements)"
            ),
        ),
    )

    # The acceptance bar: one statement per level plus the start
    # vertex, and exactly the multiset of paths the edge list implies.
    assert result["statements"] <= HOPS + 1, result["statements"]
    edges, _graphs = analytics_setup
    assert _RESULTS["multisets"]["repeat"] == reference_repeat(edges)
