"""The native graph database baseline — the paper's anonymized "GDB-X".

Design, mirroring what §2/§8 say about native stores like Neo4j and
GDB-X:

* **index-free adjacency**: each vertex's on-disk record embeds its
  full in/out adjacency (edge id, label, other endpoint), so traversals
  never consult a global edge index;
* **denormalized records**: property *names* are stored in every
  record (contributing to the 6–7× disk blow-up of Table 3);
* **aggressive caching**: a bounded LRU record cache in front of the
  record file; the paper's Fig. 5 crossover comes from the cache
  covering the small dataset but not the large one;
* **prefetch on open**: opening the graph warms the cache (the paper's
  14–15 s open times for GDB-X);
* a **label index** and optional property indexes ("building all the
  indexes necessary for each system", §8).

Concurrency: the store serializes traversal execution around its
storage engine with a global engine latch, held for the duration of
each provider call (in addition to the record cache's own lock).  The
paper observes exactly this behaviour in GDB-X — "it cannot keep up
with the large amount of concurrency" (§8) — and an embedded
single-writer storage engine behind a query server is the simplest
mechanism consistent with it; see DESIGN.md substitution notes.
"""

from __future__ import annotations

import itertools
import threading
from typing import Any, Iterator, Mapping, Sequence

from ..common.lru import LruCache
from ..graph.errors import ElementNotFoundError, GraphError
from ..graph.model import Direction, Edge, GraphProvider, Pushdown, Vertex
from .kvstore import DiskModel, LogStructuredKVStore

DEFAULT_CACHE_RECORDS = 80_000


class NativeGraphStore(GraphProvider):
    def __init__(
        self,
        cache_records: int = DEFAULT_CACHE_RECORDS,
        disk_model: DiskModel | None = None,
        path: str | None = None,
    ):
        self._store = LogStructuredKVStore(path=path, disk_model=disk_model)
        self.cache: LruCache[tuple[str, Any], dict] = LruCache(cache_records)
        # loading staging area (records mutable until finalize)
        self._staging_vertices: dict[Any, dict] = {}
        self._staging_edges: dict[Any, dict] = {}
        self._finalized = False
        # label index: label -> vertex/edge ids (kept in memory, as
        # native stores keep label scans cheap)
        self._vertex_labels: dict[str, list[Any]] = {}
        self._edge_labels: dict[str, list[Any]] = {}
        # property indexes: (kind, key, value) -> ids
        self._property_indexes: dict[tuple[str, str], dict[Any, list[Any]]] = {}
        self._edge_id_counter = itertools.count(1)
        self._vertex_ids: list[Any] = []
        self._edge_ids: list[Any] = []
        # global engine latch (see module docstring)
        self._engine_latch = threading.RLock()

    def describe(self) -> str:
        return "GDB-X(native)"

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------

    def add_vertex(self, vertex_id: Any, label: str, properties: Mapping[str, Any] | None = None) -> None:
        if self._finalized:
            raise GraphError("store is finalized; bulk loading is over")
        if vertex_id in self._staging_vertices:
            raise GraphError(f"vertex {vertex_id!r} already exists")
        self._staging_vertices[vertex_id] = {
            "id": vertex_id,
            "label": label,
            # property names stored per record (denormalized)
            "properties": dict(properties or {}),
            "out": [],  # (edge_id, edge_label, other_vertex_id)
            "in": [],
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
            raise GraphError("store is finalized; bulk loading is over")
        if out_v not in self._staging_vertices or in_v not in self._staging_vertices:
            raise ElementNotFoundError(f"edge endpoints {out_v!r}->{in_v!r} not loaded")
        if edge_id is None:
            edge_id = next(self._edge_id_counter)
        self._staging_edges[edge_id] = {
            "id": edge_id,
            "label": label,
            "out_v": out_v,
            "in_v": in_v,
            "properties": dict(properties or {}),
        }
        self._staging_vertices[out_v]["out"].append((edge_id, label, in_v))
        self._staging_vertices[in_v]["in"].append((edge_id, label, out_v))
        return edge_id

    def finalize(self) -> None:
        """Write all records to the record file and build label indexes.
        This is the baseline's 'load data' phase of Table 3."""
        if self._finalized:
            return
        for vertex_id, record in self._staging_vertices.items():
            self._store.put(("v", vertex_id), record)
            self._vertex_labels.setdefault(record["label"], []).append(vertex_id)
            self._vertex_ids.append(vertex_id)
        for edge_id, record in self._staging_edges.items():
            self._store.put(("e", edge_id), record)
            self._edge_labels.setdefault(record["label"], []).append(edge_id)
            self._edge_ids.append(edge_id)
        self._store.flush()
        self._staging_vertices.clear()
        self._staging_edges.clear()
        self._finalized = True

    def open_graph(self, prefetch: bool = True) -> None:
        """'Open the graph for traversal': aggressive prefetch into the
        record cache, which is why GDB-X's open is slow in Table 3."""
        self.finalize()
        if not prefetch:
            return
        budget = self.cache.capacity or len(self._vertex_ids) + len(self._edge_ids)
        loaded = 0
        for vertex_id in self._vertex_ids:
            if loaded >= budget:
                return
            self._record(("v", vertex_id))
            loaded += 1
        for edge_id in self._edge_ids:
            if loaded >= budget:
                return
            self._record(("e", edge_id))
            loaded += 1

    def create_property_index(self, kind: str, key: str) -> None:
        """Build an exact-match property index ('v' or 'e' records)."""
        ids = self._vertex_ids if kind == "v" else self._edge_ids
        index: dict[Any, list[Any]] = {}
        for element_id in ids:
            record = self._record((kind, element_id))
            value = record["properties"].get(key)
            if value is not None:
                index.setdefault(value, []).append(element_id)
        self._property_indexes[(kind, key)] = index

    # ------------------------------------------------------------------
    # Record access
    # ------------------------------------------------------------------

    def _record(self, key: tuple[str, Any]) -> dict:
        record = self.cache.get_or_load(key, self._read_record)
        if record is None:
            raise ElementNotFoundError(f"record {key!r} not found")
        return record

    def _try_record(self, key: tuple[str, Any]) -> dict | None:
        return self.cache.get_or_load(key, self._read_record)

    def _read_record(self, key: tuple[str, Any]) -> dict | None:
        return self._store.get(key)

    def _vertex_from_record(self, record: dict) -> Vertex:
        return Vertex(record["id"], record["label"], record["properties"], provider=self)

    def _edge_from_record(self, record: dict) -> Edge:
        return Edge(
            record["id"],
            record["label"],
            out_v_id=record["out_v"],
            in_v_id=record["in_v"],
            properties=record["properties"],
            provider=self,
        )

    # ------------------------------------------------------------------
    # GraphProvider interface
    # ------------------------------------------------------------------

    def graph_step(
        self, return_type: str, ids: Sequence[Any] | None, pushdown: Pushdown
    ) -> Iterator[Any]:
        with self._engine_latch:
            return iter(list(self._graph_step_impl(return_type, ids, pushdown)))

    def _graph_step_impl(
        self, return_type: str, ids: Sequence[Any] | None, pushdown: Pushdown
    ) -> Iterator[Any]:
        kind = "v" if return_type == "vertex" else "e"
        candidate_ids = self._candidate_ids(kind, ids, pushdown)
        make = self._vertex_from_record if kind == "v" else self._edge_from_record
        elements: Iterator[Any] = (
            make(record)
            for record in (self._try_record((kind, i)) for i in candidate_ids)
            if record is not None and self._passes(record, pushdown)
        )
        if pushdown.aggregate is not None:
            yield _aggregate(elements, pushdown)
            return
        yield from elements

    def _candidate_ids(
        self, kind: str, ids: Sequence[Any] | None, pushdown: Pushdown
    ) -> list[Any]:
        if ids is not None:
            return list(ids)
        # label index
        labels = pushdown.labels
        for key, p in pushdown.predicates:
            if key == "~label" and p.op == "eq":
                labels = (p.value,) if labels is None else tuple(set(labels) & {p.value})
        # property index
        for key, p in pushdown.predicates:
            if key.startswith("~") or p.op != "eq":
                continue
            index = self._property_indexes.get((kind, key))
            if index is not None:
                return list(index.get(p.value, ()))
        label_map = self._vertex_labels if kind == "v" else self._edge_labels
        if labels is not None:
            out: list[Any] = []
            for label in labels:
                out.extend(label_map.get(label, ()))
            return out
        return list(self._vertex_ids if kind == "v" else self._edge_ids)

    def adjacent(
        self,
        vertices: Sequence[Vertex],
        direction: Direction,
        edge_labels: tuple[str, ...] | None,
        return_type: str,
        pushdown: Pushdown,
    ) -> dict[Any, list[Any]]:
        with self._engine_latch:
            return self._adjacent_impl(
                vertices, direction, edge_labels, return_type, pushdown
            )

    def _adjacent_impl(
        self,
        vertices: Sequence[Vertex],
        direction: Direction,
        edge_labels: tuple[str, ...] | None,
        return_type: str,
        pushdown: Pushdown,
    ) -> dict[Any, list[Any]]:
        directions = (
            (Direction.OUT, Direction.IN) if direction is Direction.BOTH else (direction,)
        )
        aggregating = pushdown.aggregate is not None
        collected: list[Any] = []
        result: dict[Any, list[Any]] = {}
        for vertex in vertices:
            record = self._try_record(("v", vertex.id))
            if record is None:
                result[vertex.id] = []
                continue
            elements: list[Any] = []
            for d in directions:
                adjacency = record["out"] if d is Direction.OUT else record["in"]
                for edge_id, edge_label, other_id in adjacency:
                    if edge_labels is not None and edge_label not in edge_labels:
                        continue
                    if return_type == "edge":
                        edge_record = self._record(("e", edge_id))
                        if self._passes(edge_record, pushdown):
                            elements.append(self._edge_from_record(edge_record))
                    else:
                        other_record = self._record(("v", other_id))
                        if self._passes(other_record, pushdown):
                            elements.append(self._vertex_from_record(other_record))
            if aggregating:
                collected.extend(elements)
            else:
                result[vertex.id] = elements
        if aggregating:
            return {None: [_aggregate(iter(collected), pushdown)]}
        return result

    def edge_vertex(self, edge: Edge, direction: Direction) -> Iterator[Vertex]:
        with self._engine_latch:
            if direction is Direction.BOTH:
                records = [
                    self._record(("v", edge.out_v_id)),
                    self._record(("v", edge.in_v_id)),
                ]
            else:
                records = [self._record(("v", edge.endpoint_id(direction)))]
            return iter([self._vertex_from_record(r) for r in records])

    def load_vertex(self, vertex_id: Any, table_hint: str | None = None) -> Vertex | None:
        with self._engine_latch:
            record = self._try_record(("v", vertex_id))
            return self._vertex_from_record(record) if record else None

    def load_edge(self, edge_id: Any) -> Edge | None:
        with self._engine_latch:
            record = self._try_record(("e", edge_id))
            return self._edge_from_record(record) if record else None

    # ------------------------------------------------------------------
    # Stats / admin
    # ------------------------------------------------------------------

    def vertex_count(self) -> int:
        return len(self._vertex_ids) + len(self._staging_vertices)

    def edge_count(self) -> int:
        return len(self._edge_ids) + len(self._staging_edges)

    def disk_usage_bytes(self) -> int:
        return self._store.disk_usage_bytes()

    def close(self) -> None:
        self._store.close()

    @staticmethod
    def _passes(record: dict, pushdown: Pushdown) -> bool:
        if not pushdown.matches_labels(record["label"]):
            return False
        return pushdown.matches_predicates(
            record["properties"], record["label"], record["id"]
        )


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
