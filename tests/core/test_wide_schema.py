"""Scale test for AutoOverlay: the paper mentions an overlay spanning
135 tables (§5.1).  We generate a synthetic 135-table schema with
realistic PK/FK structure, auto-generate the overlay, and verify the
graph is fully navigable with the expected table-elimination behaviour.
"""

import random

import pytest

from repro.core import Db2Graph, generate_overlay
from repro.relational import Database

N_DIMENSION = 90   # vertex-only tables
N_FACT = 30        # PK + FK tables (vertex AND edge tables)
N_BRIDGE = 15      # 2-FK no-PK tables (pure edge tables)
# total: 135 tables, as in the paper's anecdote


@pytest.fixture(scope="module")
def wide():
    rng = random.Random(77)
    db = Database()
    dimensions = []
    for i in range(N_DIMENSION):
        name = f"dim{i:03d}"
        db.execute(f"CREATE TABLE {name} (id BIGINT PRIMARY KEY, payload VARCHAR)")
        db.execute(f"INSERT INTO {name} VALUES (1, 'p-{i}-1'), (2, 'p-{i}-2')")
        dimensions.append(name)
    for i in range(N_FACT):
        name = f"fact{i:03d}"
        ref = dimensions[rng.randrange(N_DIMENSION)]
        db.execute(
            f"CREATE TABLE {name} (id BIGINT PRIMARY KEY, ref BIGINT, note VARCHAR, "
            f"FOREIGN KEY (ref) REFERENCES {ref} (id))"
        )
        db.execute(f"INSERT INTO {name} VALUES (1, 1, 'n1'), (2, 2, 'n2')")
    for i in range(N_BRIDGE):
        name = f"bridge{i:03d}"
        left = dimensions[rng.randrange(N_DIMENSION)]
        right = dimensions[rng.randrange(N_DIMENSION)]
        db.execute(
            f"CREATE TABLE {name} (l BIGINT, r BIGINT, "
            f"FOREIGN KEY (l) REFERENCES {left} (id), "
            f"FOREIGN KEY (r) REFERENCES {right} (id))"
        )
        db.execute(f"INSERT INTO {name} VALUES (1, 2), (2, 1)")
    config = generate_overlay(db)
    graph = Db2Graph.open(db, config)
    return db, config, graph


def test_135_tables_covered(wide):
    _db, config, _graph = wide
    assert len(config.v_tables) == N_DIMENSION + N_FACT
    assert len(config.e_tables) == N_FACT + N_BRIDGE


def test_total_counts(wide):
    _db, _config, graph = wide
    g = graph.traversal()
    assert g.V().count().next() == (N_DIMENSION + N_FACT) * 2
    assert g.E().count().next() == (N_FACT + N_BRIDGE) * 2


def test_prefixed_id_pins_one_of_120_vertex_tables(wide):
    _db, _config, graph = wide
    graph.reset_stats()
    vertex = graph.traversal().V("dim042::1").next()
    assert vertex.value("payload") == "p-42-1"
    assert graph.stats()["vertex_table_queries"] == 1


def test_label_narrows_45_edge_tables_to_one(wide):
    _db, _config, graph = wide
    graph.reset_stats()
    edges = graph.traversal().E().hasLabel("fact007_" + _fact_ref(wide, 7)).toList()
    assert len(edges) == 2
    assert graph.stats()["edge_table_queries"] == 1


def _fact_ref(wide, index):
    _db, config, _graph = wide
    edge = next(e for e in config.e_tables if e.table_name == f"fact{index:03d}")
    return edge.dst_v_table


def test_traversal_across_fact_edge(wide):
    _db, config, graph = wide
    edge_conf = next(e for e in config.e_tables if e.table_name == "fact000")
    g = graph.traversal()
    targets = g.V("fact000::1").out(edge_conf.label.constant).toList()
    assert len(targets) == 1
    assert targets[0].id.startswith(edge_conf.dst_v_table)


def test_bridge_edges_navigable_both_ways(wide):
    _db, config, graph = wide
    bridge = next(e for e in config.e_tables if e.table_name == "bridge000")
    g = graph.traversal()
    out_count = g.V().hasLabel(bridge.src_v_table).outE(bridge.label.constant).count().next()
    in_count = g.V().hasLabel(bridge.dst_v_table).inE(bridge.label.constant).count().next()
    assert out_count == 2 and in_count == 2


def test_unlabelled_full_scan_touches_every_vertex_table(wide):
    _db, _config, graph = wide
    graph.reset_stats()
    graph.traversal().V().count().next()
    assert graph.stats()["vertex_table_queries"] == N_DIMENSION + N_FACT


def test_overlay_json_roundtrip_at_scale(wide):
    _db, config, _graph = wide
    from repro.core import OverlayConfig

    again = OverlayConfig.from_json(config.to_json())
    assert len(again.v_tables) == len(config.v_tables)
    assert len(again.e_tables) == len(config.e_tables)
