"""A simple in-memory property graph — the reproduction's TinkerGraph.

Used as the reference backend for traversal engine tests and as the
parent class of the native baseline store.  Adjacency is kept as
per-vertex lists of edge ids (index-free adjacency), so traversals
never scan the edge set.
"""

from __future__ import annotations

import itertools
from typing import Any, Iterator, Mapping, Sequence

from .errors import ElementNotFoundError, GraphError
from .model import Direction, Edge, GraphProvider, Pushdown, Vertex


class InMemoryGraph(GraphProvider):
    def __init__(self) -> None:
        self._vertices: dict[Any, Vertex] = {}
        self._edges: dict[Any, Edge] = {}
        self._out: dict[Any, list[Any]] = {}
        self._in: dict[Any, list[Any]] = {}
        self._edge_id_counter = itertools.count(1)

    # -- construction ----------------------------------------------------------

    def add_vertex(
        self, vertex_id: Any, label: str, properties: Mapping[str, Any] | None = None
    ) -> Vertex:
        if vertex_id in self._vertices:
            raise GraphError(f"vertex {vertex_id!r} already exists")
        vertex = Vertex(vertex_id, label, dict(properties or {}), provider=self)
        self._vertices[vertex_id] = vertex
        self._out[vertex_id] = []
        self._in[vertex_id] = []
        return vertex

    def add_edge(
        self,
        label: str,
        out_v: Any,
        in_v: Any,
        properties: Mapping[str, Any] | None = None,
        edge_id: Any = None,
    ) -> Edge:
        if out_v not in self._vertices:
            raise ElementNotFoundError(f"source vertex {out_v!r} not found")
        if in_v not in self._vertices:
            raise ElementNotFoundError(f"target vertex {in_v!r} not found")
        if edge_id is None:
            edge_id = next(self._edge_id_counter)
        if edge_id in self._edges:
            raise GraphError(f"edge {edge_id!r} already exists")
        edge = Edge(edge_id, label, out_v, in_v, dict(properties or {}), provider=self)
        self._edges[edge_id] = edge
        self._out[out_v].append(edge_id)
        self._in[in_v].append(edge_id)
        return edge

    # -- mutation (addV/addE support) -------------------------------------------

    def insert_vertex(self, label: str, properties: Mapping[str, Any]) -> Vertex:
        vertex_id = properties.get("id")
        if vertex_id is None:
            vertex_id = f"v{len(self._vertices) + 1}"
            while vertex_id in self._vertices:
                vertex_id += "'"
        props = {k: v for k, v in properties.items() if k != "id"}
        return self.add_vertex(vertex_id, label, props)

    def insert_edge(
        self, label: str, src_id: Any, dst_id: Any, properties: Mapping[str, Any]
    ) -> Edge:
        return self.add_edge(label, src_id, dst_id, properties)

    # -- in-place mutation (conformance-oracle support) --------------------------

    def remove_vertex(self, vertex_id: Any) -> None:
        """Delete a vertex and cascade over its incident edges."""
        if vertex_id not in self._vertices:
            raise ElementNotFoundError(f"vertex {vertex_id!r} not found")
        for edge_id in list(self._out.get(vertex_id, ())) + list(self._in.get(vertex_id, ())):
            if edge_id in self._edges:
                self.remove_edge(edge_id)
        del self._vertices[vertex_id]
        self._out.pop(vertex_id, None)
        self._in.pop(vertex_id, None)

    def remove_edge(self, edge_id: Any) -> None:
        edge = self._edges.pop(edge_id, None)
        if edge is None:
            raise ElementNotFoundError(f"edge {edge_id!r} not found")
        for adjacency, vertex_id in ((self._out, edge.out_v_id), (self._in, edge.in_v_id)):
            ids = adjacency.get(vertex_id)
            if ids is not None and edge_id in ids:
                ids.remove(edge_id)

    def set_vertex_property(self, vertex_id: Any, key: str, value: Any) -> None:
        vertex = self._vertices.get(vertex_id)
        if vertex is None:
            raise ElementNotFoundError(f"vertex {vertex_id!r} not found")
        vertex.properties[key] = value

    def set_edge_property(self, edge_id: Any, key: str, value: Any) -> None:
        edge = self._edges.get(edge_id)
        if edge is None:
            raise ElementNotFoundError(f"edge {edge_id!r} not found")
        edge.properties[key] = value

    # -- provider interface ------------------------------------------------------

    def graph_step(
        self, return_type: str, ids: Sequence[Any] | None, pushdown: Pushdown
    ) -> Iterator[Any]:
        pool: Iterator[Any]
        if return_type == "vertex":
            if ids is not None:
                pool = (self._vertices[i] for i in ids if i in self._vertices)
            else:
                pool = iter(list(self._vertices.values()))
        else:
            if ids is not None:
                pool = (self._edges[i] for i in ids if i in self._edges)
            else:
                pool = iter(list(self._edges.values()))
        filtered = (e for e in pool if pushdown.matches(e))
        if pushdown.aggregate is not None:
            yield _aggregate(filtered, pushdown)
            return
        yield from filtered

    def adjacent(
        self,
        vertices: Sequence[Vertex],
        direction: Direction,
        edge_labels: tuple[str, ...] | None,
        return_type: str,
        pushdown: Pushdown,
    ) -> dict[Any, list[Any]]:
        result: dict[Any, list[Any]] = {}
        aggregating = pushdown.aggregate is not None
        collected: list[Any] = []
        for vertex in vertices:
            elements: list[Any] = []
            for edge_direction in self._expand(direction):
                edge_ids = (
                    self._out.get(vertex.id, ())
                    if edge_direction is Direction.OUT
                    else self._in.get(vertex.id, ())
                )
                for edge_id in edge_ids:
                    edge = self._edges[edge_id]
                    if edge_labels is not None and edge.label not in edge_labels:
                        continue
                    if return_type == "edge":
                        if pushdown.matches(edge):
                            elements.append(edge)
                    else:
                        other_id = (
                            edge.in_v_id if edge_direction is Direction.OUT else edge.out_v_id
                        )
                        other = self._vertices[other_id]
                        if pushdown.matches(other):
                            elements.append(other)
            if aggregating:
                collected.extend(elements)
            else:
                result[vertex.id] = elements
        if aggregating:
            result[None] = [_aggregate(iter(collected), pushdown)]
        return result

    def edge_vertex(self, edge: Edge, direction: Direction) -> Iterator[Vertex]:
        if direction is Direction.BOTH:
            yield self._vertices[edge.out_v_id]
            yield self._vertices[edge.in_v_id]
            return
        yield self._vertices[edge.endpoint_id(direction)]

    def load_vertex(self, vertex_id: Any, table_hint: str | None = None) -> Vertex | None:
        return self._vertices.get(vertex_id)

    def load_edge(self, edge_id: Any) -> Edge | None:
        return self._edges.get(edge_id)

    # -- stats ---------------------------------------------------------------------

    def vertex_count(self) -> int:
        return len(self._vertices)

    def edge_count(self) -> int:
        return len(self._edges)

    def degree(self, vertex_id: Any) -> int:
        return len(self._out.get(vertex_id, ())) + len(self._in.get(vertex_id, ()))

    # -- helpers ---------------------------------------------------------------------

    @staticmethod
    def _expand(direction: Direction) -> tuple[Direction, ...]:
        if direction is Direction.BOTH:
            return (Direction.OUT, Direction.IN)
        return (direction,)


def _aggregate(elements: Iterator[Any], pushdown: Pushdown) -> Any:
    if pushdown.aggregate == "count":
        return sum(1 for _ in elements)
    values = [
        e.value(pushdown.aggregate_key)
        for e in elements
        if pushdown.aggregate_key and e.has_property(pushdown.aggregate_key)
    ]
    if not values:
        return None
    if pushdown.aggregate == "sum":
        return sum(values)
    if pushdown.aggregate == "mean":
        return sum(values) / len(values)
    if pushdown.aggregate == "min":
        return min(values)
    if pushdown.aggregate == "max":
        return max(values)
    raise GraphError(f"unknown aggregate {pushdown.aggregate!r}")
