"""The conformance oracle: overlay semantics in pure Python.

:func:`materialize_oracle` reads the *committed* rows of every overlay
member (base tables and views alike, via plain ``SELECT *``) and builds
an :class:`~repro.graph.memory.InMemoryGraph` by applying the paper's
§5 mapping rules directly — id specs, fixed/column labels, implicit
``src::label::dst`` edge ids, and the "all remaining columns" property
default.  It deliberately does NOT reuse :mod:`repro.core.topology` or
:mod:`repro.core.ids`: the oracle is an independent reading of the
spec, so a bug in the engine's interpretation shows up as a divergence
instead of being shared by both sides.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..graph.memory import InMemoryGraph
from ..relational.database import Database

SEP = "::"


class OracleError(Exception):
    """The oracle cannot represent this scenario (e.g. NULL id column,
    duplicate element ids, dangling edge endpoint)."""


def _parse_spec(spec: str) -> list[tuple[str, str]]:
    """``'patient'::patientID`` -> [("const", "patient"), ("col", "patientid")]."""
    parts: list[tuple[str, str]] = []
    for raw in spec.split(SEP):
        token = raw.strip()
        if token.startswith("'") and token.endswith("'") and len(token) >= 2:
            parts.append(("const", token[1:-1]))
        else:
            parts.append(("col", token.lower()))
    return parts


def _render(parts: list[tuple[str, str]], row: dict[str, Any]) -> Any:
    if len(parts) == 1 and parts[0][0] == "col":
        value = row[parts[0][1]]
        if value is None:
            raise OracleError(f"NULL id column {parts[0][1]!r}")
        return value
    rendered: list[str] = []
    for kind, token in parts:
        if kind == "const":
            rendered.append(token)
        else:
            value = row[token]
            if value is None:
                raise OracleError(f"NULL id column {token!r}")
            rendered.append(str(value))
    return SEP.join(rendered)


def _spec_columns(parts: list[tuple[str, str]]) -> list[str]:
    return [token for kind, token in parts if kind == "col"]


def _label_of(entry: dict[str, Any], row: dict[str, Any]) -> str:
    spec = str(entry["label"]).strip()
    if spec.startswith("'") and spec.endswith("'"):
        return spec[1:-1]
    if entry.get("fix_label"):
        return spec
    value = row[spec.lower()]
    return str(value)


def _label_column(entry: dict[str, Any]) -> str | None:
    spec = str(entry["label"]).strip()
    if spec.startswith("'") and spec.endswith("'") or entry.get("fix_label"):
        return None
    return spec.lower()


def _property_columns(
    entry: dict[str, Any], all_columns: list[str], used: set[str]
) -> list[str]:
    if "properties" in entry:
        return [p.lower() for p in entry["properties"]]
    return [c for c in all_columns if c not in used]


def _table_rows(db: Database, name: str) -> tuple[list[str], list[dict[str, Any]]]:
    result = db.execute(f"SELECT * FROM {name}")
    columns = [c.lower() for c in result.columns]
    return columns, [dict(zip(columns, row)) for row in result.rows]


def materialize_oracle(db: Database, overlay: dict[str, Any]) -> InMemoryGraph:
    """Build the reference graph from the committed relational state."""
    graph = InMemoryGraph()
    for entry in overlay.get("v_tables", []):
        columns, rows = _table_rows(db, entry["table_name"])
        id_parts = _parse_spec(entry["id"])
        used = set(_spec_columns(id_parts))
        label_col = _label_column(entry)
        if label_col is not None:
            used.add(label_col)
        props = _property_columns(entry, columns, used)
        for row in rows:
            vertex_id = _render(id_parts, row)
            if graph.load_vertex(vertex_id) is not None:
                raise OracleError(f"duplicate vertex id {vertex_id!r}")
            graph.add_vertex(
                vertex_id, _label_of(entry, row), {p: row.get(p) for p in props}
            )
    for entry in overlay.get("e_tables", []):
        columns, rows = _table_rows(db, entry["table_name"])
        src_parts = _parse_spec(entry["src_v"])
        dst_parts = _parse_spec(entry["dst_v"])
        used = set(_spec_columns(src_parts)) | set(_spec_columns(dst_parts))
        id_parts = None
        if not entry.get("implicit_edge_id"):
            id_parts = _parse_spec(entry["id"])
            used.update(_spec_columns(id_parts))
        label_col = _label_column(entry)
        if label_col is not None:
            used.add(label_col)
        props = _property_columns(entry, columns, used)
        for row in rows:
            src = _render(src_parts, row)
            dst = _render(dst_parts, row)
            label = _label_of(entry, row)
            if id_parts is None:
                edge_id: Any = SEP.join([str(src), label, str(dst)])
            else:
                edge_id = _render(id_parts, row)
            if graph.load_edge(edge_id) is not None:
                raise OracleError(f"duplicate edge id {edge_id!r}")
            if graph.load_vertex(src) is None or graph.load_vertex(dst) is None:
                raise OracleError(
                    f"edge {edge_id!r} has dangling endpoint {src!r} -> {dst!r}"
                )
            graph.add_edge(label, src, dst, {p: row.get(p) for p in props}, edge_id=edge_id)
    return graph


def graphs_equal(a: InMemoryGraph, b: InMemoryGraph) -> bool:
    """Structural equality: same vertices, edges, labels, properties."""
    return _signature(a) == _signature(b)


def _signature(graph: InMemoryGraph) -> tuple:
    vertices = {
        v.id: (v.label, tuple(sorted(v.properties.items(), key=repr)))
        for v in graph.graph_step("vertex", None, _EMPTY)
    }
    edges = {
        e.id: (
            e.label,
            e.out_v_id,
            e.in_v_id,
            tuple(sorted(e.properties.items(), key=repr)),
        )
        for e in graph.graph_step("edge", None, _EMPTY)
    }
    return (
        tuple(sorted(vertices.items(), key=repr)),
        tuple(sorted(edges.items(), key=repr)),
    )


from ..graph.model import Pushdown as _Pushdown  # noqa: E402

_EMPTY = _Pushdown()


# ---------------------------------------------------------------------------
# Scenario vocabulary (what a workload can reference)
# ---------------------------------------------------------------------------


@dataclass
class Vocab:
    """Everything a chain/workload generator may mention: derived by
    scanning the materialized oracle, so it is valid for any overlay —
    explicit or AutoOverlay-derived."""

    vertex_labels: list[str]
    edge_labels: list[str]
    int_keys: list[str]
    str_keys: list[str]
    vertex_ids: list[Any]
    edge_ids: list[Any]
    str_values: list[str]
    int_values: list[int]

    def has_chains(self) -> bool:
        return bool(self.vertex_labels)


def scenario_vocab(graph: InMemoryGraph) -> Vocab:
    vertex_labels: list[str] = []
    edge_labels: list[str] = []
    int_keys: list[str] = []
    str_keys: list[str] = []
    str_values: list[str] = []
    int_values: list[int] = []
    vertex_ids = []
    edge_ids = []

    def note(seen: list, value: Any) -> None:
        if value not in seen:
            seen.append(value)

    for vertex in graph.graph_step("vertex", None, _EMPTY):
        note(vertex_labels, vertex.label)
        note(vertex_ids, vertex.id)
        for key, value in vertex.properties.items():
            if isinstance(value, bool):
                continue
            if isinstance(value, int):
                note(int_keys, key)
                note(int_values, value)
            elif isinstance(value, str):
                note(str_keys, key)
                note(str_values, value)
    for edge in graph.graph_step("edge", None, _EMPTY):
        note(edge_labels, edge.label)
        note(edge_ids, edge.id)
        for key, value in edge.properties.items():
            if isinstance(value, bool):
                continue
            if isinstance(value, int):
                note(int_keys, key)
                note(int_values, value)
            elif isinstance(value, str):
                note(str_keys, key)
                note(str_values, value)
    return Vocab(
        vertex_labels=vertex_labels,
        edge_labels=edge_labels,
        int_keys=int_keys,
        str_keys=str_keys,
        vertex_ids=vertex_ids,
        edge_ids=edge_ids,
        str_values=str_values or ["w"],
        int_values=int_values or [0],
    )


# ---------------------------------------------------------------------------
# reference analytics (the differential battery's ground truth)
# ---------------------------------------------------------------------------
#
# Pure-Python reference implementations of the four bulk algorithms,
# walking the InMemoryGraph adjacency lists directly.  Like the overlay
# oracle above, these are an independent reading of the spec: they do
# NOT import repro.analytics.  Determinism contract shared with the
# engine (so BFS/SSSP/WCC compare exactly): per-level iteration in
# (str(id), repr(id)) order, strict-improvement-only updates, ties to
# the sorted-first candidate.  PageRank accumulation order differs from
# the engine's SQL row order, so callers compare within an L1 tolerance.


def _a_key(vertex_id: Any) -> tuple[str, str]:
    return (str(vertex_id), repr(vertex_id))


def _a_incident(
    graph: InMemoryGraph,
    vertex_id: Any,
    direction: str,
    edge_labels: "tuple[str, ...] | None",
):
    """(edge, neighbor_id) pairs from ``vertex_id`` in ``direction``."""
    directions = ("out", "in") if direction == "both" else (direction,)
    for d in directions:
        adjacency = graph._out if d == "out" else graph._in
        for edge_id in adjacency.get(vertex_id, ()):
            edge = graph._edges[edge_id]
            if edge_labels and edge.label not in edge_labels:
                continue
            yield edge, (edge.in_v_id if d == "out" else edge.out_v_id)


def _a_weight(value: Any, default: float) -> float:
    """Independent statement of the weight-coercion rule: real numbers
    (bools excluded) pass through, everything else takes the default."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return default
    if value < 0:
        raise OracleError(f"negative edge weight {value!r}")
    return float(value)


def reference_bfs(
    graph: InMemoryGraph,
    source: Any,
    *,
    direction: str = "out",
    edge_labels: "tuple[str, ...] | None" = None,
    max_depth: "int | None" = None,
) -> dict[str, dict]:
    """Level-synchronous BFS; returns ``{"depth": ..., "parent": ...}``."""
    if source not in graph._vertices:
        raise OracleError(f"source vertex {source!r} not found")
    depth: dict[Any, int] = {source: 0}
    parent: dict[Any, Any] = {source: None}
    frontier = [source]
    level = 0
    while frontier:
        if max_depth is not None and level >= max_depth:
            break
        next_frontier: list[Any] = []
        for u in sorted(set(frontier), key=_a_key):
            for _edge, v in _a_incident(graph, u, direction, edge_labels):
                if v not in depth:
                    depth[v] = level + 1
                    parent[v] = u
                    next_frontier.append(v)
        frontier = next_frontier
        level += 1
    return {"depth": depth, "parent": parent}


def reference_sssp(
    graph: InMemoryGraph,
    source: Any,
    *,
    weight: str,
    direction: str = "out",
    edge_labels: "tuple[str, ...] | None" = None,
    default_weight: float = 1.0,
) -> dict[str, dict]:
    """Level-synchronous Bellman-Ford relaxation; returns
    ``{"distance": ..., "parent": ...}``."""
    if source not in graph._vertices:
        raise OracleError(f"source vertex {source!r} not found")
    distance: dict[Any, float] = {source: 0.0}
    parent: dict[Any, Any] = {source: None}
    frontier: set[Any] = {source}
    while frontier:
        improved: set[Any] = set()
        for u in sorted(frontier, key=_a_key):
            base = distance[u]
            for edge, v in _a_incident(graph, u, direction, edge_labels):
                w = _a_weight(edge.properties.get(weight), default_weight)
                candidate = base + w
                if v not in distance or candidate < distance[v]:
                    distance[v] = candidate
                    parent[v] = u
                    improved.add(v)
        frontier = improved
    return {"distance": distance, "parent": parent}


def reference_wcc(
    graph: InMemoryGraph,
    *,
    edge_labels: "tuple[str, ...] | None" = None,
) -> dict[Any, Any]:
    """Weakly-connected components by BFS flood fill over both edge
    directions (a deliberately different algorithm than the engine's
    union-find).  Seeds are taken in sorted order, so each component is
    first reached from, and mapped to, its sorted-min member id."""
    component: dict[Any, Any] = {}
    for seed in sorted(graph._vertices, key=_a_key):
        if seed in component:
            continue
        component[seed] = seed
        frontier = [seed]
        while frontier:
            next_frontier: list[Any] = []
            for u in frontier:
                for _edge, v in _a_incident(graph, u, "both", edge_labels):
                    if v not in component:
                        component[v] = seed
                        next_frontier.append(v)
            frontier = next_frontier
    return {v: component[v] for v in graph._vertices}


def reference_pagerank(
    graph: InMemoryGraph,
    *,
    damping: float = 0.85,
    max_iterations: int = 20,
    tolerance: "float | None" = None,
    edge_labels: "tuple[str, ...] | None" = None,
) -> dict[Any, float]:
    """PageRank by power iteration with uniform dangling redistribution."""
    vertices = sorted(graph._vertices, key=_a_key)
    if not vertices:
        return {}
    successors: dict[Any, list[Any]] = {}
    for u in vertices:
        successors[u] = [
            v for _edge, v in _a_incident(graph, u, "out", edge_labels)
        ]
    n = len(vertices)
    base = (1.0 - damping) / n
    rank = {v: 1.0 / n for v in vertices}
    for _ in range(max_iterations):
        dangling = sum(rank[u] for u in vertices if not successors[u])
        contribution = {v: 0.0 for v in vertices}
        for u in vertices:
            succ = successors[u]
            if not succ:
                continue
            share = rank[u] / len(succ)
            for v in succ:
                contribution[v] += share
        spread = damping * dangling / n
        new_rank = {v: base + spread + damping * contribution[v] for v in vertices}
        delta = sum(abs(new_rank[v] - rank[v]) for v in vertices)
        rank = new_rank
        if tolerance is not None and delta < tolerance:
            break
    return rank
