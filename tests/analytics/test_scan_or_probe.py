"""Scan or probe: on the neighbour path (``adjacent_ids`` and
``adjacent(..., "vertex")``), ``Planner.adjacent_plan`` replaces
the ``IN (...)`` probes on an unindexed single-column endpoint of a base
table with one scan of the table when a batch holds more distinct ids
than ``batch_size`` (DESIGN.md §9).  Both physical forms must return the
same thing.

Each generated overlay (seeds 0-39) is opened twice over one database:
with ``batch_size`` above the number of input ids every (table,
direction) probes, and with ``batch_size=1`` every eligible one scans.
``adjacent_ids`` and ``adjacent(..., "vertex")`` must return the same
lists in the same order, with the same table hints, over all three
directions, runtime optimizations on and off, and inputs mixing hinted
vertices, unhinted copies and missing ids.  ``adjacent(..., "edge")``
and a folded ``outE().count()`` never scan; they must agree at both
batch sizes too.

``test_adjacent_ids_contract.py`` compares two consumers of one plan,
so it cannot see a scan that keeps the wrong rows; this test compares
two plans.
"""

from __future__ import annotations

import pytest

from repro.core import Db2Graph
from repro.core.graph_structure import RuntimeOptimizations
from repro.graph.model import Direction, GraphProvider, Pushdown, Vertex
from repro.relational import Database
from repro.testing import (
    ScenarioInvalid,
    build_database,
    generate_scenario,
    materialize_oracle,
    resolve_overlay,
)

DIRECTIONS = (Direction.OUT, Direction.IN, Direction.BOTH)
MISSING_IDS = (999999, "nope::1")
PROBE_ALL = 1_000_000


def inputs(graph):
    """Scanned vertices (hinted with their table), unhinted copies of
    every third one, and ids naming no vertex."""
    provider = graph.provider
    scanned = graph.traversal().V().toList()
    vertices = scanned + [Vertex(v.id, provider=provider) for v in scanned[::3]]
    vertices += [Vertex(v, provider=provider) for v in MISSING_IDS]
    return scanned, vertices


def per_table(scanned):
    """One batch per vertex table: §6.3 narrowing drops a whole batch
    from an edge table declaring another endpoint table, even where ids
    collide across tables."""
    batches: dict[str, list] = {}
    for vertex in scanned:
        batches.setdefault(vertex.source_table, []).append(vertex)
    return list(batches.values())


def scannable_tables(provider) -> set[str]:
    """Edge tables with a single-column endpoint that no index covers."""
    catalog = provider.dialect.connection.database.catalog
    return {
        etop.table_name
        for etop in provider.topology.edge_tables
        for template in (etop.src_template, etop.dst_template)
        if template.only_column is not None
        and catalog.has_table(etop.table_name)
        and not any(
            template.only_column.lower() in [c.lower() for c in index.columns]
            for index in catalog.get_table(etop.table_name).storage.indexes.values()
        )
    }


def scanned_tables(provider, vertices) -> set[str]:
    _eliminated, plan = provider.planner.adjacent_plan(vertices, Direction.BOTH, None)
    return {
        entry.etop.table_name
        for entry in plan
        if any(side.keep is not None for side in entry.sides)
    }


def neighbours(provider, vertices, direction, edge_labels):
    got = provider.adjacent(vertices, direction, edge_labels, "vertex", Pushdown())
    return {u: [(v.id, v.source_table) for v in vs] for u, vs in got.items()}


def edges(provider, vertices, direction, edge_labels):
    got = provider.adjacent(vertices, direction, edge_labels, "edge", Pushdown())
    return {
        u: [(e.id, e.label, e.out_v_id, e.in_v_id, e.out_v_table, e.in_v_table) for e in es]
        for u, es in got.items()
    }


def edge_count(provider, vertices, direction, edge_labels):
    got = provider.adjacent(vertices, direction, edge_labels, "edge", Pushdown(aggregate="count"))
    return got[None]


@pytest.mark.parametrize("seed", range(40))
def test_scan_returns_what_probes_return(seed):
    try:
        scenario = generate_scenario(seed, workload_size=0)
    except ScenarioInvalid:
        pytest.skip("unrepresentable scenario")
    db = build_database(scenario)
    overlay = resolve_overlay(scenario, db)
    oracle = materialize_oracle(db, overlay)
    labels = sorted({e.label for e in oracle._edges.values()})
    keys = sorted({k for e in oracle._edges.values() for k in e.properties})
    for opts in (None, RuntimeOptimizations.all_off()):
        probe = Db2Graph.open(db, overlay, runtime_opts=opts, cache=False, batch_size=PROBE_ALL)
        scan = Db2Graph.open(db, overlay, runtime_opts=opts, cache=False, batch_size=1)
        try:
            p, s = probe.provider, scan.provider
            p_scanned, p_vertices = inputs(probe)
            s_scanned, s_vertices = inputs(scan)
            assert [v.id for v in s_vertices] == [v.id for v in p_vertices]
            ids = [v.id for v in s_vertices]
            assert scanned_tables(p, p_vertices) == set()
            if scannable_tables(s) and len(s_scanned) > 1:
                assert scanned_tables(s, s_vertices), "no scan planned: the test shows nothing"
            for direction in DIRECTIONS:
                for edge_labels in (None, tuple(labels[:1]) or None):
                    context = f"{direction} labels={edge_labels} opts={opts}"
                    for weight in (None, *keys[:1]):
                        assert s.adjacent_ids(ids, direction, edge_labels, weight) == (
                            p.adjacent_ids(ids, direction, edge_labels, weight)
                        ), context
                    assert neighbours(s, s_vertices, direction, edge_labels) == (
                        neighbours(p, p_vertices, direction, edge_labels)
                    ), context
                    assert edges(s, s_vertices, direction, edge_labels) == (
                        edges(p, p_vertices, direction, edge_labels)
                    ), context
                    # probes at both batch sizes: duplicate ids fetch and
                    # weight, distinct ones count in SQL where it pushes down
                    batches = zip(
                        [s_vertices, s_scanned, *per_table(s_scanned)],
                        [p_vertices, p_scanned, *per_table(p_scanned)],
                    )
                    for s_batch, p_batch in batches:
                        assert edge_count(s, s_batch, direction, edge_labels) == (
                            edge_count(p, p_batch, direction, edge_labels)
                        ), context
                        if s_batch is s_vertices:
                            continue
                        assert neighbours(s, s_batch, direction, edge_labels) == (
                            neighbours(p, p_batch, direction, edge_labels)
                        ), context
                        assert edges(s, s_batch, direction, edge_labels) == (
                            edges(p, p_batch, direction, edge_labels)
                        ), context
            # the element default agrees with the scan's own id path
            for direction in DIRECTIONS:
                assert s.adjacent_ids(ids, direction, None) == (
                    GraphProvider.adjacent_ids(s, ids, direction, None)
                )
        finally:
            probe.close()
            scan.close()


COLLIDING_OVERLAY = {
    "v_tables": [
        {"table_name": "a", "id": "id", "fix_label": True, "label": "'a'", "properties": []},
        {"table_name": "b", "id": "id", "fix_label": True, "label": "'b'", "properties": []},
    ],
    "e_tables": [
        {"table_name": "e", "src_v_table": "b", "src_v": "src", "dst_v_table": "a",
         "dst_v": "dst", "implicit_edge_id": True, "fix_label": True, "label": "'e'",
         "properties": []},
    ],
}


@pytest.mark.parametrize("direction", DIRECTIONS, ids=lambda d: d.value)
def test_scan_keeps_only_rows_of_narrowed_vertices(direction):
    """Vertex tables ``a`` and ``b`` share ids 1-3, and ``e`` runs b -> a.
    From a batch holding a:1, a:2, b:2 and b:3, ``e``'s src side keeps
    b:2 and b:3 only, so the scan must drop the row of b:1 that a:1's id
    also names, as the probe ``src IN (2, 3)`` never fetches it; its dst
    side likewise drops the row into a:3 that b:3's id names."""
    results = []
    for batch_size in (PROBE_ALL, 1):
        db = Database()
        for table in ("a", "b"):
            db.execute(f"CREATE TABLE {table} (id INT PRIMARY KEY)")
            db.execute(f"INSERT INTO {table} VALUES (1), (2), (3)")
        db.execute("CREATE TABLE e (src INT, dst INT)")
        db.execute("INSERT INTO e VALUES (1, 1), (2, 3), (3, 1), (3, 2)")
        graph = Db2Graph.open(db, COLLIDING_OVERLAY, cache=False, batch_size=batch_size)
        try:
            provider = graph.provider
            batch = [Vertex(i, provider=provider, source_table="a") for i in (1, 2)]
            batch += [Vertex(i, provider=provider, source_table="b") for i in (2, 3)]
            results.append((
                neighbours(provider, batch, direction, None),
                edges(provider, batch, direction, None),
                edge_count(provider, batch, direction, None),
                scanned_tables(provider, batch),
            ))
        finally:
            graph.close()
    (probed, probe_scans), (scanned, scans) = [(r[:3], r[3]) for r in results]
    assert (probe_scans, scans) == (set(), {"e"})
    assert scanned == probed
    if direction is Direction.OUT:
        assert probed[0] == {1: [], 2: [(3, "a")], 3: [(1, "a"), (2, "a")]}
