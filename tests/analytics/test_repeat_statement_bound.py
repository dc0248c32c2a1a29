"""Level-batched ``repeat()``: one statement per level (DESIGN.md §14).

A 10k-vertex graph: a dense 250-vertex community (out-degree 10, closed
under ``out()``) beside a shallow 10-ary tree holding the other 9,750
vertices.  From a community seed, ``repeat(out()).times(5)`` walks 10^5
paths whose distinct frontier never exceeds the community size.
``out()`` batches by distinct vertex, so with ``batch_size=256`` each
level is one statement on the edge table.  With the cache off, the
chain must issue at most ``HOPS + 1`` statements, and its result
multiset must equal a pure-Python expansion of the generated edge list.
"""

from __future__ import annotations

import random
from collections import Counter

from repro.core import Db2Graph
from repro.graph import __
from repro.relational import Database

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


def generate_edges() -> list[tuple[int, int, float]]:
    rng = random.Random(42)
    edges: list[tuple[int, int, float]] = []
    for src in range(1, COMMUNITY + 1):
        for dst in rng.sample(range(1, COMMUNITY + 1), OUT_DEGREE):
            edges.append((src, dst, float(rng.randint(1, 9))))
    # The bulk of the graph: a shallow 10-ary tree rooted just past the
    # community, disjoint from it so the walk's frontier stays
    # community-sized.
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


def test_repeat_issues_one_statement_per_level():
    edges = generate_edges()
    # batch_size >= COMMUNITY: a whole level fits one batch.
    graph = Db2Graph.open(build_database(edges), OVERLAY, cache=False, batch_size=256)
    try:
        before = graph.stats()["sql_queries"]
        result = graph.traversal().V(1).repeat(__.out()).times(HOPS).id_().toList()
        issued = graph.stats()["sql_queries"] - before
    finally:
        graph.close()
    assert issued <= HOPS + 1, issued
    assert Counter(result) == reference_repeat(edges)
