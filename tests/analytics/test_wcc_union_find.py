"""Union-find WCC (DESIGN.md §9): one id read of the vertices, one
endpoint-only read of each candidate edge table, then unions in memory.

Pinned here:

- the statement list is the vertex read plus one read per candidate
  edge table, whatever indexes the catalog holds and whatever
  ``batch_size`` is;
- an endpoint that no vertex table holds (a dangling id, possible with
  foreign keys off) joins its component but never names it, and a
  component of dangling ids alone is dropped;
- ``edge_labels`` selects the same components with label elimination
  on and off.

The graph puts a dangling id, ``0``, first in the canonical id order,
so naming a component by a dangling id changes a label here.
"""

from __future__ import annotations

import pytest

from repro.analytics import GraphAnalytics
from repro.core import Db2Graph
from repro.core.graph_structure import RuntimeOptimizations
from repro.graph import InMemoryGraph
from repro.obs import tracing
from repro.relational import Database

OVERLAY = {
    "v_tables": [
        {"table_name": "item", "id": "id", "fix_label": True,
         "label": "'item'", "properties": ["name"]},
    ],
    "e_tables": [
        {"table_name": "link", "src_v_table": "item", "src_v": "src",
         "dst_v_table": "item", "dst_v": "dst", "implicit_edge_id": True,
         "fix_label": True, "label": "'link'", "properties": ["w"]},
        {"table_name": "rel", "src_v": "src", "dst_v": "dst", "id": "rid",
         "label": "kind", "properties": []},
        {"table_name": "cite", "src_v": "src", "dst_v": "dst",
         "implicit_edge_id": True, "fix_label": True, "label": "'cite'",
         "properties": []},
    ],
}

# link: 0 -> 2 -> 3 -> 4 with 0 missing, and 98 -> 99, both missing
# rel:  1 -a-> 5, 6 -b-> 7
# cite: 5 -> 8
LINKS = [(0, 2), (2, 3), (3, 4), (98, 99)]
RELS = [(1, 1, 5, "a"), (2, 6, 7, "b")]
CITES = [(5, 8)]
ITEMS = range(1, 9)


def make_db() -> Database:
    db = Database(enforce_foreign_keys=False)
    db.execute("CREATE TABLE item (id INT PRIMARY KEY, name VARCHAR)")
    for table in ("link", "cite"):
        db.execute(
            f"CREATE TABLE {table} (src INT, dst INT, w DOUBLE, "
            "FOREIGN KEY (src) REFERENCES item (id), "
            "FOREIGN KEY (dst) REFERENCES item (id))"
        )
    db.execute("CREATE TABLE rel (rid INT PRIMARY KEY, src INT, dst INT, kind VARCHAR)")
    db.execute("INSERT INTO item VALUES " + ", ".join(f"({i}, 'i{i}')" for i in ITEMS))
    db.execute("INSERT INTO link VALUES " + ", ".join(f"({s}, {d}, 1.0)" for s, d in LINKS))
    db.execute("INSERT INTO rel VALUES " + ", ".join(f"{row!r}" for row in RELS))
    db.execute("INSERT INTO cite VALUES " + ", ".join(f"({s}, {d}, 1.0)" for s, d in CITES))
    return db


def components(*groups: tuple[int, ...]) -> dict[int, int]:
    """Every item in its own component unless grouped; a group is named
    by its smallest member other than the dangling ``0``."""
    result = {v: v for v in ITEMS}
    for group in groups:
        name = min(v for v in group if v != 0)
        result.update((v, name) for v in group)
    return result


def traced_wcc(graph, edge_labels=()):
    recorder = graph.enable_tracing()
    recorder.clear()
    result = graph.analytics().wcc(edge_labels=edge_labels)
    return result, [e.get("sql") for e in recorder.named(tracing.SQL_ISSUED)]


TABLES = ("link", "rel", "cite")
VERTEX_READ = "SELECT id FROM item"
EDGE_READS = [f"SELECT src, dst FROM {t}" for t in TABLES]


@pytest.mark.parametrize("batch_size", [1, 256])
@pytest.mark.parametrize("indexed", [False, True], ids=["scan", "indexed"])
def test_one_read_per_candidate_edge_table(indexed, batch_size):
    db = make_db()
    if indexed:
        for table in ("link", "rel", "cite"):
            db.execute(f"CREATE INDEX {table}_src ON {table} (src)")
            db.execute(f"CREATE INDEX {table}_dst ON {table} (dst)")
    graph = Db2Graph.open(db, OVERLAY, batch_size=batch_size, cache=False)
    result, statements = traced_wcc(graph)
    assert statements == [VERTEX_READ, *EDGE_READS]
    assert (result.converged, result.steps, result.frontier_sizes) == (True, 1, [8])
    assert graph.stats()["analytics_steps"] == 1
    graph.close()


def test_a_dangling_endpoint_joins_but_never_names_its_component():
    graph = Db2Graph.open(make_db(), OVERLAY, cache=False)
    got = graph.analytics().wcc().component
    # 0 sorts before 2 but is no vertex: {0, 2, 3, 4} is named 2
    assert got == components((0, 2, 3, 4), (1, 5, 8), (6, 7))
    assert got[0] == 2
    graph.close()


def test_an_edge_between_two_missing_vertices_is_excluded():
    graph = Db2Graph.open(make_db(), OVERLAY, cache=False)
    got = graph.analytics().wcc().component
    assert 98 not in got and 99 not in got
    assert graph.analytics().wcc().component_count() == 3
    graph.close()


@pytest.mark.parametrize(
    "edge_labels, groups",
    [
        (("link",), [(0, 2, 3, 4)]),
        (("a", "cite"), [(1, 5, 8)]),
        (("b",), [(6, 7)]),
        (("zzz",), []),
    ],
)
@pytest.mark.parametrize("eliminate", [True, False], ids=["elim", "noelim"])
def test_edge_labels_with_label_elimination_on_and_off(edge_labels, groups, eliminate):
    opts = None if eliminate else RuntimeOptimizations.all_off()
    graph = Db2Graph.open(make_db(), OVERLAY, runtime_opts=opts, cache=False)
    result, statements = traced_wcc(graph, edge_labels)
    assert result.component == components(*groups)
    # rel has a label column: it always survives elimination, and its
    # reads fetch the column to re-check the labels
    reads = [
        "SELECT src, dst, kind FROM rel" if table == "rel" else f"SELECT src, dst FROM {table}"
        for table in TABLES
        if not eliminate or table in edge_labels or table == "rel"
    ]
    assert statements == [VERTEX_READ, *reads]
    graph.close()


def test_in_memory_provider_reads_edges_through_the_default():
    mem = InMemoryGraph()
    for v in (1, 2, 3, 4):
        mem.add_vertex(v, "item")
    mem.add_edge("link", 2, 1)
    mem.add_edge("rel", 3, 4)
    an = GraphAnalytics(mem)
    assert an.wcc().component == {1: 1, 2: 1, 3: 3, 4: 3}
    assert an.wcc(edge_labels=("rel",)).component == {1: 1, 2: 2, 3: 3, 4: 3}
