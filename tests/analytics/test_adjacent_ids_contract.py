"""Contract of ``OverlayGraph.adjacent_ids``: the id-only expansion the
analytics executor runs must return what the :class:`GraphProvider`
default derives from full edge elements (``adjacent(..., "edge")``),
per vertex as a multiset and, for OUT (PageRank's successor lists), in
the same order.  A ``weight`` value must equal ``edge.value(weight)``,
an exact-name property lookup.

``out()``/``in()``/``both()`` (``adjacent(..., "vertex")``) run the
same row loop: they must return the far endpoints of those edges in the
same order, as the vertices ``outV()``/``inV()`` make of them (lazy and
hinted with the vertex table the edge's table declares for that
endpoint, or built from the row where that table is the edge table),
and build no edge.

Generated scenarios cover the overlay-config space (prefixed and
composite ids, column labels, dual tables, views); hand-built graphs
pin the corners: composite and prefixed endpoints, column-label tables
under ``edge_labels``, self-loops under BOTH, parallel edges, and
weights that are missing, NULL, bool, non-numeric or differ only in
case.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.core import Db2Graph
from repro.core.graph_structure import OverlayEdge, RuntimeOptimizations
from repro.core.topology import EdgeTopology
from repro.graph import P
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


def assert_contract(provider, vertex_ids, direction, edge_labels=None, weight=None):
    got = provider.adjacent_ids(vertex_ids, direction, edge_labels, weight)
    want = GraphProvider.adjacent_ids(provider, vertex_ids, direction, edge_labels, weight)
    assert set(got) == set(want) == set(vertex_ids)
    for vertex_id in vertex_ids:
        assert Counter(got[vertex_id]) == Counter(want[vertex_id]), (
            f"{vertex_id!r} {direction} labels={edge_labels} weight={weight!r}"
        )
        if direction is Direction.OUT:
            assert got[vertex_id] == want[vertex_id]
    return got


def assert_vertex_contract(provider, vertices, direction, edge_labels=None):
    """``adjacent(..., "vertex")`` against the edges ``adjacent(...,
    "edge")`` returns: the same far endpoint ids in the same order, each
    the vertex ``outV()``/``inV()`` (``edge_vertex``) makes of its edge
    over IN or OUT: lazy and hinted with the vertex table the edge's
    table declares for that endpoint (§6.3 narrowing), or, where that
    table is the edge table itself, built from the row with the same
    label and properties (§6.3 vertex-from-edge).  A self-loop under
    BOTH is reached both ways, so either endpoint's vertex is right."""
    got = provider.adjacent(vertices, direction, edge_labels, "vertex", Pushdown())
    edges = provider.adjacent(vertices, direction, edge_labels, "edge", Pushdown())
    assert set(got) == set(edges) == {v.id for v in vertices}
    for vertex_id, edge_list in edges.items():
        want = []
        for edge in edge_list:
            if direction is Direction.BOTH and edge.out_v_id == edge.in_v_id:
                ends = (Direction.IN, Direction.OUT)
            elif direction is Direction.OUT or (
                direction is Direction.BOTH and edge.out_v_id == vertex_id
            ):
                ends = (Direction.IN,)
            else:
                ends = (Direction.OUT,)
            far = edge.endpoint_id(ends[0])
            want.append((far, [next(provider.edge_vertex(edge, end)) for end in ends]))
        context = f"{vertex_id!r} {direction} labels={edge_labels}"
        assert [v.id for v in got[vertex_id]] == [far for far, _ends in want], context
        for vertex, (_far, candidates) in zip(got[vertex_id], want):
            assert any(same_vertex(vertex, c) for c in candidates), context


def same_vertex(vertex, expected) -> bool:
    """Equal ids and hints; a lazy vertex where ``expected`` is lazy,
    and a built one with ``expected``'s label and properties (reading
    them fetches ``expected`` when its edge row lacked the vertex
    columns)."""
    if (vertex.id, vertex.source_table) != (expected.id, expected.source_table):
        return False
    if not vertex.is_materialized:
        return not expected.is_materialized
    return (vertex.label, vertex.properties) == (expected.label, expected.properties)


# ---------------------------------------------------------------------------
# generated overlays
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(40))
def test_generated_overlays_match_the_element_default(seed):
    try:
        scenario = generate_scenario(seed, workload_size=0)
    except ScenarioInvalid:
        pytest.skip("unrepresentable scenario")
    db = build_database(scenario)
    overlay = resolve_overlay(scenario, db)
    oracle = materialize_oracle(db, overlay)
    vertex_ids = sorted(oracle._vertices, key=lambda v: (str(v), repr(v)))
    vertex_ids += [v for v in MISSING_IDS if v not in oracle._vertices]
    labels = sorted({e.label for e in oracle._edges.values()})
    keys = sorted({k for e in oracle._edges.values() for k in e.properties})
    weights = [None] + [w for k in keys[:1] for w in (k, k.swapcase())]
    for opts in (None, RuntimeOptimizations.all_off()):
        graph = Db2Graph.open(db, overlay, runtime_opts=opts, cache=seed % 2 == 1)
        try:
            provider = graph.provider
            # out()/in()/both() from scanned vertices, which carry their
            # table as the narrowing hint, beside unhinted copies and
            # missing ids in the same batch
            vertices = graph.traversal().V().toList()
            vertices += [Vertex(v.id, provider=provider) for v in vertices[::3]]
            vertices += [Vertex(v, provider=provider) for v in MISSING_IDS]
            for direction in DIRECTIONS:
                for edge_labels in (None, tuple(labels[:1]) or None):
                    for weight in weights:
                        assert_contract(provider, vertex_ids, direction, edge_labels, weight)
                    assert_vertex_contract(provider, vertices, direction, edge_labels)
            assert_mutation_contract(graph.traversal(), vertex_ids, labels[:1])
            assert_edge_contract(graph, vertices, labels[:1])
            key = next((k for e in oracle._edges.values() for k in sorted(e.properties)), None)
            if key is not None:
                value = next(e.properties[key] for e in oracle._edges.values() if key in e.properties)
                starts = [Vertex(v, provider=provider) for v in vertex_ids + vertex_ids[:1]]
                assert_memory_count(provider, starts, labels[:1], key, value)
        finally:
            graph.close()


def edge_facts(edge):
    ends = edge.out_v_id, edge.in_v_id, edge.out_v_table, edge.in_v_table
    return edge.id, edge.label, *ends, edge.properties


def assert_edge_contract(graph, vertices, labels):
    """The edges ``adjacent(..., "edge")`` builds from its rows equal the
    ``g.E()`` edges of the same ids: label, endpoints, endpoint tables
    and properties (parallel edges share an implicit id, so any one of
    that id's edges may match)."""
    by_id: dict = {}
    for edge in graph.traversal().E().toList():
        by_id.setdefault(edge.id, []).append(edge_facts(edge))
    for direction in DIRECTIONS:
        for edge_labels in (None, tuple(labels) or None):
            got = graph.provider.adjacent(vertices, direction, edge_labels, "edge", Pushdown())
            for edge in (e for edges in got.values() for e in edges):
                assert edge_facts(edge) in by_id.get(edge.id, []), (direction, edge_labels)


def assert_memory_count(provider, starts, labels, key, value):
    """A ``count()`` that cannot push down (``outside`` has no SQL form)
    counts each start's listed edges, a repeated start id twice."""
    for direction in DIRECTIONS:
        for edge_labels in (None, tuple(labels) or None):
            predicates = [(key, P.outside(value, value))]
            listed = provider.adjacent(
                starts, direction, edge_labels, "edge", Pushdown(predicates=predicates)
            )
            counting = Pushdown(predicates=predicates, aggregate="count")
            counted = provider.adjacent(starts, direction, edge_labels, "edge", counting)
            assert counted == {None: [sum(len(listed[v.id]) for v in starts)]}, direction


def assert_mutation_contract(g, vertex_ids, labels):
    """``g.V(ids).out()``/``in()``, which the §6.2 GraphStep::VertexStep
    mutation folds into one step from the constant ids, equals the
    unfolded ``g.V(ids).as('a').out()``/``in()``: the same vertices in
    the same order, with the same hints, lazy or built alike."""
    for step in ("out", "in_"):
        for step_labels in ((), tuple(labels)):
            folded = getattr(g.V(*vertex_ids), step)(*step_labels).toList()
            unfolded = getattr(g.V(*vertex_ids).as_("a"), step)(*step_labels).toList()
            context = f"{step}{step_labels}"
            assert [v.id for v in folded] == [v.id for v in unfolded], context
            assert [(v.source_table, v.is_materialized) for v in folded] == [
                (v.source_table, v.is_materialized) for v in unfolded
            ], context


# ---------------------------------------------------------------------------
# hand-built corners
# ---------------------------------------------------------------------------

CORNER_OVERLAY = {
    "v_tables": [
        {"table_name": "node", "id": "id", "fix_label": True, "label": "'node'",
         "properties": []},
    ],
    "e_tables": [
        {"table_name": "link", "src_v_table": "node", "src_v": "src",
         "dst_v_table": "node", "dst_v": "dst", "implicit_edge_id": True,
         "fix_label": True, "label": "'link'",
         "properties": ["w", "Wt", "flag", "note"]},
        {"table_name": "rel", "src_v": "src", "dst_v": "dst", "id": "rid",
         "label": "kind", "properties": ["w"]},
    ],
}


def corner_db() -> Database:
    """``link``: a self-loop on 1, two parallel 1 -> 2 edges, and weights
    that are NULL, bool or text.  ``rel``: a column-label table whose
    rows carry labels 'a' and 'b'."""
    db = Database()
    db.execute("CREATE TABLE node (id INT PRIMARY KEY)")
    db.execute(
        "CREATE TABLE link (src INT, dst INT, w DOUBLE, Wt DOUBLE, "
        "flag BOOLEAN, note VARCHAR)"
    )
    db.execute("CREATE TABLE rel (rid INT PRIMARY KEY, src INT, dst INT, kind VARCHAR, w INT)")
    db.execute("INSERT INTO node VALUES (1), (2), (3), (4)")
    db.execute(
        "INSERT INTO link VALUES (1, 1, 0.5, 5.0, TRUE, 'loop'), "
        "(1, 2, 2.0, 20.0, FALSE, 'x'), (1, 2, NULL, NULL, TRUE, '7'), "
        "(2, 3, 1.0, 10.0, NULL, NULL)"
    )
    db.execute(
        "INSERT INTO rel VALUES (1, 3, 4, 'a', 3), (2, 4, 1, 'b', NULL), "
        "(3, 2, 2, 'a', 9)"
    )
    return db


@pytest.fixture(params=[False, True], ids=["nocache", "cache"])
def corner_graph(request):
    graph = Db2Graph.open(corner_db(), CORNER_OVERLAY, cache=request.param)
    yield graph
    graph.close()


@pytest.mark.parametrize("direction", DIRECTIONS, ids=lambda d: d.value)
@pytest.mark.parametrize(
    "weight", [None, "w", "Wt", "WT", "W", "flag", "note", "absent"]
)
def test_weights_match_exact_name_property_lookup(corner_graph, direction, weight):
    assert_contract(corner_graph.provider, [1, 2, 3, 4, 99], direction, None, weight)


def test_weight_values_are_raw_property_values(corner_graph):
    out = corner_graph.provider.adjacent_ids([1], Direction.OUT, None, "w")
    assert Counter(out[1]) == Counter([(1, 0.5), (2, 2.0), (2, None)])
    # 'W' differs from the declared 'w' only in case: no such property
    out = corner_graph.provider.adjacent_ids([1], Direction.OUT, None, "W")
    assert Counter(out[1]) == Counter([(1, None), (2, None), (2, None)])
    out = corner_graph.provider.adjacent_ids([1], Direction.OUT, None, "flag")
    assert Counter(out[1]) == Counter([(1, True), (2, False), (2, True)])


def test_self_loop_under_both_counts_once_per_direction(corner_graph):
    got = assert_contract(corner_graph.provider, [1], Direction.BOTH)
    # out: 1 (loop), 2, 2 (parallel); in: 1 (loop), 2 (rel 4 -> 1 is 'b')
    assert Counter(got[1]) == Counter([1, 1, 2, 2, 4])


@pytest.mark.parametrize("direction", DIRECTIONS, ids=lambda d: d.value)
@pytest.mark.parametrize("edge_labels", [("a",), ("b",), ("a", "link"), ("zzz",)])
def test_column_label_table_under_edge_labels(direction, edge_labels):
    for opts in (None, RuntimeOptimizations.all_off()):
        graph = Db2Graph.open(corner_db(), CORNER_OVERLAY, runtime_opts=opts, cache=False)
        try:
            assert_contract(graph.provider, [1, 2, 3, 4], direction, edge_labels, "w")
            vertices = graph.traversal().V().toList()
            assert_vertex_contract(graph.provider, vertices, direction, edge_labels)
        finally:
            graph.close()


COMPOSITE_OVERLAY = {
    "v_tables": [
        {"table_name": "vc", "prefixed_id": True, "id": "'vc'::ka::kb",
         "fix_label": True, "label": "'vc_lab'", "properties": ["score"]},
        {"table_name": "vo", "prefixed_id": True, "id": "'vo'::pk",
         "fix_label": True, "label": "'vo_lab'", "properties": []},
    ],
    "e_tables": [
        {"table_name": "e", "src_v": "'vc'::s_ka::s_kb", "dst_v": "'vo'::d_pk",
         "src_v_table": "vc", "dst_v_table": "vo", "implicit_edge_id": True,
         "fix_label": True, "label": "'e_lab'", "properties": ["w"]},
        {"table_name": "e2", "src_v": "'vo'::a", "dst_v": "'vo'::b",
         "src_v_table": "vo", "dst_v_table": "vo", "implicit_edge_id": True,
         "fix_label": True, "label": "'e2_lab'", "properties": []},
    ],
}


@pytest.mark.parametrize("direction", DIRECTIONS, ids=lambda d: d.value)
@pytest.mark.parametrize("batch_size", [1, 64])
def test_composite_and_prefixed_endpoints(direction, batch_size):
    db = Database(enforce_foreign_keys=False)
    db.execute("CREATE TABLE vc (ka INT, kb INT, score INT)")
    db.execute("CREATE TABLE vo (pk INT PRIMARY KEY)")
    db.execute("CREATE TABLE e (s_ka INT, s_kb INT, d_pk INT, w DOUBLE)")
    db.execute("CREATE TABLE e2 (a INT, b INT)")
    db.execute("INSERT INTO vc VALUES (1, 2, 5), (3, 4, 6)")
    db.execute("INSERT INTO vo VALUES (10), (11), (12)")
    db.execute(
        "INSERT INTO e VALUES (1, 2, 10, 1.5), (1, 2, 11, NULL), "
        "(1, 2, 11, 2.5), (3, 4, 12, 0.0)"
    )
    db.execute("INSERT INTO e2 VALUES (10, 10), (11, 12)")
    graph = Db2Graph.open(db, COMPOSITE_OVERLAY, batch_size=batch_size, cache=False)
    try:
        ids = ["vc::1::2", "vc::3::4", "vo::10", "vo::11", "vo::12", "vc::9::9", 10]
        for weight in (None, "w"):
            got = assert_contract(graph.provider, ids, direction, None, weight)
        vertices = [Vertex(i, provider=graph.provider) for i in ids]
        assert_vertex_contract(graph.provider, vertices + graph.traversal().V().toList(), direction)
        if direction is Direction.OUT:
            assert Counter(got["vc::1::2"]) == Counter(
                [("vo::10", 1.5), ("vo::11", None), ("vo::11", 2.5)]
            )
            assert got[10] == []  # an unprefixed id fits no template
    finally:
        graph.close()


def count_edges_built(monkeypatch) -> list:
    """The ids of every ``OverlayEdge`` built from now on."""
    built = []
    init = OverlayEdge.__init__

    def counting(self, *args, **kwargs):
        built.append(args[0])
        init(self, *args, **kwargs)

    monkeypatch.setattr(OverlayEdge, "__init__", counting)
    return built


def test_out_builds_no_edge_elements(corner_graph, monkeypatch):
    built = count_edges_built(monkeypatch)
    g = corner_graph.traversal()
    assert sorted(v.id for v in g.V().out().toList()) == [1, 1, 2, 2, 2, 3, 4]
    assert sorted(v.id for v in g.V(1).both().toList()) == [1, 1, 2, 2, 4]
    assert built == []
    assert len(g.V().outE().toList()) == 7
    assert len(built) == 7


def test_folded_in_builds_no_edge_elements(healthcare_graph, monkeypatch):
    """The §4 synergy script's ``g.V(similar_diseases).in('hasDisease')``,
    which the §6.2 mutation folds into one step from the disease ids,
    reads its neighbours as ``in()`` does: no edge is built."""
    _dataset, _database, graph = healthcare_graph
    g = graph.traversal()
    diseases = [v.id for v in g.V().hasLabel("disease").toList()]
    want = [v.id for v in g.V(*diseases).as_("d").in_("hasDisease").toList()]
    built = count_edges_built(monkeypatch)
    patients = g.V(*diseases).in_("hasDisease").toList()
    assert want and [v.id for v in patients] == want
    assert built == []


def test_out_e_builds_properties_on_first_read(corner_graph, monkeypatch):
    """``outE()`` keeps each edge's row; no property dict is built until
    one is read, and then it equals the ``g.E(id)`` edge's."""
    built = []
    row_properties = EdgeTopology.row_properties

    def counting(self, *args):
        built.append(self.name)
        return row_properties(self, *args)

    monkeypatch.setattr(EdgeTopology, "row_properties", counting)
    g = corner_graph.traversal()
    edges = g.V(2).outE("link").toList() + g.V(3).outE("a").toList()
    assert [e.id for e in edges] == ["2::link::3", 1]
    assert all(e.is_materialized for e in edges) and built == []
    for edge in edges:
        assert edge.properties == g.E(edge.id).next().properties
    assert built


def test_folded_projection_yields_only_projected_keys(corner_graph):
    provider = corner_graph.provider
    projected = Pushdown(projection=("w",))
    got = provider.adjacent([Vertex(1)], Direction.OUT, ("link",), "edge", projected)
    assert [sorted(e.properties) for e in got[1]] == [["w"]] * 3
    value_maps = corner_graph.traversal().V(1).outE("link").valueMap("w").toList()
    assert len(value_maps) == 3 and all(set(m) <= {"w"} for m in value_maps)


def test_folded_edge_mean_pushes_down(corner_graph):
    """``mean()`` over a folded ``outE()`` runs as SUM and COUNT in SQL
    and combines the (sum, count) partials: NULL weights are skipped."""
    g = corner_graph.traversal()
    weights = g.V(1, 2).outE("link").values("w").toList()
    assert sorted(weights) == [0.5, 1.0, 2.0]
    assert g.V(1, 2).outE("link").values("w").mean().next() == pytest.approx(3.5 / 3)
