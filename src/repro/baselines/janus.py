"""The JanusGraph-like baseline: adjacency lists serialized into a
key-value store.

The paper (§1): "JanusGraph stores the entire adjacency list of a
vertex in a somewhat *encrypted* form in one column."  We mirror that:
one KV entry per vertex containing its properties **and its entire
adjacency list** (with each incident edge's label, endpoints, and
properties inlined).  Every vertex access therefore deserializes the
whole blob — the cost that makes JanusGraph the slowest system in
Figs. 5 and 6 — and every edge is stored twice (once per endpoint),
inflating disk usage as in Table 3.

A small blob cache exists (JanusGraph has one too), but the dominant
cost is deserialization, which the cache only avoids for hot vertices.
"""

from __future__ import annotations

import itertools
from typing import Any, Iterator, Mapping, Sequence

from ..common.lru import LruCache
from ..graph.errors import ElementNotFoundError, GraphError
from ..graph.model import Direction, Edge, GraphProvider, Pushdown, Vertex
from .kvstore import DiskModel, LogStructuredKVStore

DEFAULT_BLOB_CACHE = 10_000


class JanusLikeStore(GraphProvider):
    def __init__(
        self,
        cache_blobs: int = DEFAULT_BLOB_CACHE,
        disk_model: DiskModel | None = None,
        path: str | None = None,
    ):
        self._store = LogStructuredKVStore(path=path, disk_model=disk_model)
        self.cache: LruCache[Any, dict] = LruCache(cache_blobs)
        self._staging: dict[Any, dict] = {}
        self._finalized = False
        self._vertex_ids: list[Any] = []
        self._edge_index: dict[Any, Any] = {}  # edge id -> out vertex id
        self._vertex_labels: dict[str, list[Any]] = {}
        self._edge_id_counter = itertools.count(1)
        self._edge_count = 0

    def describe(self) -> str:
        return "JanusGraph(kv)"

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------

    def add_vertex(self, vertex_id: Any, label: str, properties: Mapping[str, Any] | None = None) -> None:
        if self._finalized:
            raise GraphError("store is finalized")
        if vertex_id in self._staging:
            raise GraphError(f"vertex {vertex_id!r} already exists")
        self._staging[vertex_id] = {
            "id": vertex_id,
            "label": label,
            "properties": dict(properties or {}),
            # full adjacency inlined; edges duplicated on both endpoints
            "adjacency": [],  # entries: {dir, edge_id, label, out_v, in_v, properties}
        }

    def add_edge(
        self,
        label: str,
        out_v: Any,
        in_v: Any,
        properties: Mapping[str, Any] | None = None,
        edge_id: Any = None,
    ) -> Any:
        if self._finalized:
            raise GraphError("store is finalized")
        if out_v not in self._staging or in_v not in self._staging:
            raise ElementNotFoundError(f"edge endpoints {out_v!r}->{in_v!r} not loaded")
        if edge_id is None:
            edge_id = next(self._edge_id_counter)
        entry = {
            "edge_id": edge_id,
            "label": label,
            "out_v": out_v,
            "in_v": in_v,
            "properties": dict(properties or {}),
        }
        self._staging[out_v]["adjacency"].append({**entry, "dir": "out"})
        self._staging[in_v]["adjacency"].append({**entry, "dir": "in"})
        self._edge_index[edge_id] = out_v
        self._edge_count += 1
        return edge_id

    def finalize(self) -> None:
        if self._finalized:
            return
        for vertex_id, blob in self._staging.items():
            self._store.put(vertex_id, blob)
            self._vertex_labels.setdefault(blob["label"], []).append(vertex_id)
            self._vertex_ids.append(vertex_id)
        self._store.flush()
        self._staging.clear()
        self._finalized = True

    def open_graph(self, prefetch: bool = False) -> None:
        self.finalize()
        if prefetch:
            budget = self.cache.capacity or len(self._vertex_ids)
            for vertex_id in self._vertex_ids[:budget]:
                self._blob(vertex_id)

    # ------------------------------------------------------------------
    # Blob access
    # ------------------------------------------------------------------

    def _blob(self, vertex_id: Any) -> dict | None:
        return self.cache.get_or_load(vertex_id, self._store.get)

    def _vertex_from_blob(self, blob: dict) -> Vertex:
        return Vertex(blob["id"], blob["label"], blob["properties"], provider=self)

    @staticmethod
    def _edge_from_entry(entry: dict, provider: "JanusLikeStore") -> Edge:
        return Edge(
            entry["edge_id"],
            entry["label"],
            out_v_id=entry["out_v"],
            in_v_id=entry["in_v"],
            properties=entry["properties"],
            provider=provider,
        )

    # ------------------------------------------------------------------
    # GraphProvider interface
    # ------------------------------------------------------------------

    def graph_step(
        self, return_type: str, ids: Sequence[Any] | None, pushdown: Pushdown
    ) -> Iterator[Any]:
        if return_type == "vertex":
            candidate_ids = self._candidate_vertex_ids(ids, pushdown)
            elements: Iterator[Any] = (
                self._vertex_from_blob(blob)
                for blob in (self._blob(i) for i in candidate_ids)
                if blob is not None
                and self._passes(blob["properties"], blob["label"], blob["id"], pushdown)
            )
        else:
            elements = self._edge_scan(ids, pushdown)
        if pushdown.aggregate is not None:
            yield _aggregate(elements, pushdown)
            return
        yield from elements

    def _candidate_vertex_ids(
        self, ids: Sequence[Any] | None, pushdown: Pushdown
    ) -> list[Any]:
        if ids is not None:
            return list(ids)
        labels = pushdown.labels
        for key, p in pushdown.predicates:
            if key == "~label" and p.op == "eq":
                labels = (p.value,) if labels is None else tuple(set(labels) & {p.value})
        if labels is not None:
            out: list[Any] = []
            for label in labels:
                out.extend(self._vertex_labels.get(label, ()))
            return out
        return list(self._vertex_ids)

    def _edge_scan(self, ids: Sequence[Any] | None, pushdown: Pushdown) -> Iterator[Edge]:
        if ids is not None:
            for edge_id in ids:
                out_v = self._edge_index.get(edge_id)
                if out_v is None:
                    continue
                blob = self._blob(out_v)
                if blob is None:
                    continue
                for entry in blob["adjacency"]:
                    if entry["dir"] == "out" and entry["edge_id"] == edge_id:
                        if self._passes(
                            entry["properties"], entry["label"], edge_id, pushdown
                        ):
                            yield self._edge_from_entry(entry, self)
            return
        for vertex_id in self._vertex_ids:
            blob = self._blob(vertex_id)
            if blob is None:
                continue
            for entry in blob["adjacency"]:
                if entry["dir"] != "out":
                    continue  # each edge only from its out endpoint
                if self._passes(entry["properties"], entry["label"], entry["edge_id"], pushdown):
                    yield self._edge_from_entry(entry, self)

    def adjacent(
        self,
        vertices: Sequence[Vertex],
        direction: Direction,
        edge_labels: tuple[str, ...] | None,
        return_type: str,
        pushdown: Pushdown,
    ) -> dict[Any, list[Any]]:
        wanted_dirs = (
            ("out", "in") if direction is Direction.BOTH else
            ("out",) if direction is Direction.OUT else ("in",)
        )
        aggregating = pushdown.aggregate is not None
        collected: list[Any] = []
        result: dict[Any, list[Any]] = {}
        for vertex in vertices:
            blob = self._blob(vertex.id)
            if blob is None:
                result[vertex.id] = []
                continue
            elements: list[Any] = []
            for entry in blob["adjacency"]:
                if entry["dir"] not in wanted_dirs:
                    continue
                if edge_labels is not None and entry["label"] not in edge_labels:
                    continue
                if return_type == "edge":
                    if self._passes(
                        entry["properties"], entry["label"], entry["edge_id"], pushdown
                    ):
                        elements.append(self._edge_from_entry(entry, self))
                else:
                    other_id = entry["in_v"] if entry["dir"] == "out" else entry["out_v"]
                    other = self._blob(other_id)
                    if other is not None and self._passes(
                        other["properties"], other["label"], other["id"], pushdown
                    ):
                        elements.append(self._vertex_from_blob(other))
            if aggregating:
                collected.extend(elements)
            else:
                result[vertex.id] = elements
        if aggregating:
            return {None: [_aggregate(iter(collected), pushdown)]}
        return result

    def edge_vertex(self, edge: Edge, direction: Direction) -> Iterator[Vertex]:
        if direction is Direction.BOTH:
            yield from self.edge_vertex(edge, Direction.OUT)
            yield from self.edge_vertex(edge, Direction.IN)
            return
        blob = self._blob(edge.endpoint_id(direction))
        if blob is None:
            raise ElementNotFoundError(f"vertex {edge.endpoint_id(direction)!r} not found")
        yield self._vertex_from_blob(blob)

    def load_vertex(self, vertex_id: Any, table_hint: str | None = None) -> Vertex | None:
        blob = self._blob(vertex_id)
        return self._vertex_from_blob(blob) if blob else None

    def load_edge(self, edge_id: Any) -> Edge | None:
        for edge in self._edge_scan([edge_id], Pushdown()):
            return edge
        return None

    # ------------------------------------------------------------------
    # Stats / admin
    # ------------------------------------------------------------------

    def vertex_count(self) -> int:
        return len(self._vertex_ids) + len(self._staging)

    def edge_count(self) -> int:
        return self._edge_count

    def disk_usage_bytes(self) -> int:
        return self._store.disk_usage_bytes()

    def close(self) -> None:
        self._store.close()

    @staticmethod
    def _passes(properties: Mapping[str, Any], label: str, element_id: Any, pushdown: Pushdown) -> bool:
        if not pushdown.matches_labels(label):
            return False
        return pushdown.matches_predicates(properties, label, element_id)


def _aggregate(elements: Iterator[Any], pushdown: Pushdown) -> Any:
    if pushdown.aggregate == "count":
        return sum(1 for _ in elements)
    key = pushdown.aggregate_key
    values = [e.value(key) for e in elements if key and e.has_property(key)]
    if pushdown.aggregate == "mean":
        return sum(values) / len(values) if values else None
    if not values:
        return None
    if pushdown.aggregate == "sum":
        return sum(values)
    if pushdown.aggregate == "min":
        return min(values)
    if pushdown.aggregate == "max":
        return max(values)
    raise GraphError(f"unknown aggregate {pushdown.aggregate!r}")
