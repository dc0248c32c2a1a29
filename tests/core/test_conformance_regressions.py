"""Engine bugs flushed out by the generative conformance harness
(``repro.testing``), and one check of the harness that over-claimed,
pinned as hand-written minimal repros so they can never regress
silently.

Each test names the sweep seed that first exposed the bug; the repro
itself is reduced to a hand-built schema so it does not depend on the
generator's draw sequence staying stable.
"""

from __future__ import annotations

import pytest

from repro.core import Db2Graph
from repro.core.graph_structure import RuntimeOptimizations
from repro.graph import __
from repro.obs import tracing
from repro.relational import Database
from repro.testing import generate_scenario, run_scenario


def composite_src_graph(batch_size):
    """Vertices with composite ids ('vc'::ka::kb) feeding an edge table
    whose src template is multi-column."""
    db = Database(enforce_foreign_keys=False)
    db.execute("CREATE TABLE vc (ka INT, kb INT, score INT)")
    db.execute("CREATE TABLE vo (pk INT PRIMARY KEY)")
    db.execute("CREATE TABLE e (s_ka INT, s_kb INT, d_pk INT)")
    db.execute("INSERT INTO vc VALUES (1, 2, 5), (3, 4, 6)")
    db.execute("INSERT INTO vo VALUES (10), (11), (12)")
    db.execute("INSERT INTO e VALUES (1, 2, 10), (1, 2, 11), (3, 4, 12)")
    overlay = {
        "v_tables": [
            {"table_name": "vc", "prefixed_id": True, "id": "'vc'::ka::kb",
             "fix_label": True, "label": "'vc_lab'", "properties": ["score"]},
            {"table_name": "vo", "id": "pk", "fix_label": True,
             "label": "'vo_lab'", "properties": []},
        ],
        "e_tables": [
            {"table_name": "e", "src_v": "'vc'::s_ka::s_kb", "dst_v": "d_pk",
             "src_v_table": "vc", "dst_v_table": "vo",
             "implicit_edge_id": True, "fix_label": True, "label": "'e_lab'"},
        ],
    }
    return Db2Graph.open(db, overlay, batch_size=batch_size)


@pytest.mark.parametrize("batch_size", [1, 2, 64])
def test_duplicate_composite_traversers_fetch_once(batch_size):
    """Sweep seed 27: with batch_size > 1, several traversers parked on
    the same composite-id vertex were each emitting one endpoint-id
    probe, and every probe's edges were demuxed back to *every*
    traverser — quadratic duplication.  g.V(x, x).out() must yield each
    neighbor exactly once per traverser, at any batch size."""
    graph = composite_src_graph(batch_size)
    try:
        out = graph.traversal().V("vc::1::2", "vc::1::2").out().toList()
        assert sorted(str(v.id) for v in out) == ["10", "10", "11", "11"]
        # same invariant via union(), the shape the sweep first caught
        t = graph.traversal()
        both = t.V("vc::1::2").union(__.identity(), __.identity()).out().toList()
        assert sorted(str(v.id) for v in both) == ["10", "10", "11", "11"]
    finally:
        graph.close()


def dual_role_column_label_graph():
    """A §5 dual table: rows are vertices (column label!) and edges at
    once.  The vertex's label column is not part of the edge config, so
    an edge row fetched with a projection may lack it."""
    db = Database(enforce_foreign_keys=False)
    db.execute("CREATE TABLE d (pk INT PRIMARY KEY, ref INT, lab VARCHAR, score INT)")
    db.execute("INSERT INTO d VALUES (1, 2, 'x_lab', 7), (2, 1, 'y_lab', 8)")
    overlay = {
        "v_tables": [
            {"table_name": "d", "prefixed_id": True, "id": "'d'::pk",
             "label": "lab", "properties": ["score"]},
        ],
        "e_tables": [
            {"table_name": "d", "config_name": "d_self",
             "src_v": "'d'::pk", "dst_v": "'d'::ref",
             "src_v_table": "d", "dst_v_table": "d",
             "implicit_edge_id": True, "fix_label": True,
             "label": "'d_e'", "properties": []},
        ],
    }
    return Db2Graph.open(db, overlay)


def test_vertex_from_edge_with_projected_row():
    """Sweep seed 155: the vertex-from-edge shortcut (§6.3 'when a
    vertex table is also an edge table') trusted the *relation's* column
    list, but the fetched edge row was projected down to edge columns —
    building the vertex then KeyError'd on the label column.  The
    shortcut must fall back to a lazy vertex when the row is partial."""
    graph = dual_role_column_label_graph()
    try:
        endpoints = graph.traversal().E().outV().toList()
        assert sorted((str(v.id), v.label) for v in endpoints) == [
            ("d::1", "x_lab"),
            ("d::2", "y_lab"),
        ]
    finally:
        graph.close()


def fan_in_graph(optimized):
    """One vertex table and three edge tables whose dst can hold any
    integer id, opened as the conformance SQL-count pair's optimized or
    stripped batch-1 cell."""
    db = Database(enforce_foreign_keys=False)
    db.execute("CREATE TABLE p (pk INT PRIMARY KEY)")
    db.execute("INSERT INTO p VALUES (1), (2)")
    tables = ("k0", "k1", "k2")
    for table in tables:
        db.execute(f"CREATE TABLE {table} (s INT, d INT)")
        db.execute(f"INSERT INTO {table} VALUES (1, 2)")
    overlay = {
        "v_tables": [
            {"table_name": "p", "id": "pk", "fix_label": True, "label": "'p'",
             "properties": []},
        ],
        "e_tables": [
            {"table_name": table, "src_v": "s", "dst_v": "d",
             "src_v_table": "p", "dst_v_table": "p", "implicit_edge_id": True,
             "fix_label": True, "label": f"'{table}'", "properties": []}
            for table in tables
        ],
    }
    return Db2Graph.open(
        db, overlay, optimized=optimized, batch_size=1, cache=False,
        runtime_opts=None if optimized else RuntimeOptimizations.all_off(),
    )


def test_vertex_step_fold_probes_missing_start_ids_by_design():
    """Sweep seed 2953: the §6.2 GraphStep::VertexStep fold turns
    V(ids).inE() into dst probes on every edge table and skips the vertex
    lookup the stripped engine runs first.  For an id naming no vertex
    the stripped engine stops at the empty lookup, so the fold issues
    more statements (6 vs 5 here) without any rule over-eliminating.
    The conformance SQL-count check therefore covers only chains whose
    V(ids) all resolve, where the fold stays at or under the stripped
    count.  The folded V(ids).in_() runs the neighbour path, which reads
    each unindexed table in one scan: 3 statements, under the stripped
    engine's 5 even with the missing id."""
    counts = {}
    for optimized in (True, False):
        graph = fan_in_graph(optimized)
        graph.enable_tracing()
        try:
            for step in ("inE", "in_"):
                for ids in ((2,), (2, 999999)):
                    graph.trace.clear()
                    out = getattr(graph.traversal().V(*ids), step)().toList()
                    ends = [x.out_v_id if step == "inE" else x.id for x in out]
                    assert ends == [1, 1, 1]
                    counts[optimized, step, ids] = graph.trace.count(tracing.SQL_ISSUED)
        finally:
            graph.close()
    for step in ("inE", "in_"):
        assert counts[True, step, (2,)] <= counts[False, step, (2,)]
    assert counts[True, "inE", (2, 999999)] == 6
    assert counts[False, "inE", (2, 999999)] == 5
    assert counts[True, "in_", (2, 999999)] == 3
    assert counts[False, "in_", (2, 999999)] == 5


@pytest.mark.parametrize("seed", [27, 155, 179, 2953])
def test_original_sweep_seeds_stay_conformant(seed):
    """The full generated scenarios that first exposed the bugs above
    (27: composite dedup, 155: projected-row subsumption, 179: NULL-key
    DML WHERE clauses, 2953: the SQL-count check over-claiming for a
    missing start id) replay divergence-free."""
    assert run_scenario(generate_scenario(seed)) is None
