"""Property graph structure API.

This module is the reproduction's analogue of the TinkerPop *core API*
(paper §3): vertices, edges, and the provider interface that each graph
backend implements — the overlay-backed Db2 Graph provider
(:mod:`repro.core.graph_structure`) as well as the baseline native and
KV-backed stores.

Vertices support *lazy* materialization: an edge knows its endpoint
ids, so ``outV().id()`` never touches the backend — one of the runtime
optimizations Db2 Graph relies on (§6.3).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Mapping, Sequence

from .errors import ElementNotFoundError
from .predicates import P


class Direction(enum.Enum):
    OUT = "out"
    IN = "in"
    BOTH = "both"
    OTHER = "other"

    def opposite(self) -> "Direction":
        if self is Direction.OUT:
            return Direction.IN
        if self is Direction.IN:
            return Direction.OUT
        return self


@dataclass
class Pushdown:
    """Work folded into a graph-structure-accessing (GSA) step.

    The Traversal Strategy module (paper §6.2) populates these fields by
    mutating the step plan; the Graph Structure module turns them into
    SQL predicates, projections, and aggregates (§6.3).  Backends that
    cannot exploit a field simply honour it in-memory.
    """

    labels: tuple[str, ...] | None = None
    predicates: list[tuple[str, P]] = field(default_factory=list)
    projection: tuple[str, ...] | None = None
    aggregate: str | None = None  # 'count' | 'sum' | 'mean' | 'min' | 'max'
    aggregate_key: str | None = None

    def copy(self) -> "Pushdown":
        return Pushdown(
            labels=self.labels,
            predicates=list(self.predicates),
            projection=self.projection,
            aggregate=self.aggregate,
            aggregate_key=self.aggregate_key,
        )

    def matches(self, element: Any) -> bool:
        """Whether ``element`` passes the folded label filter and
        predicates.  ``~src_v``/``~dst_v`` read an edge's endpoint ids;
        properties are read only for a predicate that names one."""
        if self.labels is not None and element.label not in self.labels:
            return False
        for key, predicate in self.predicates:
            if key == "~label":
                value: Any = element.label
            elif key == "~id":
                value = element.id
            elif key == "~src_v":
                value = element.out_v_id
            elif key == "~dst_v":
                value = element.in_v_id
            else:
                value = element.properties.get(key)
            if not predicate.test(value):
                return False
        return True

    def matches_labels(self, label: str) -> bool:
        return self.labels is None or label in self.labels

    def matches_predicates(self, properties: Mapping[str, Any], label: str, element_id: Any) -> bool:
        for key, predicate in self.predicates:
            if key == "~label":
                value: Any = label
            elif key == "~id":
                value = element_id
            else:
                value = properties.get(key)
            if not predicate.test(value):
                return False
        return True

    @property
    def property_names(self) -> set[str]:
        """Property names this pushdown *requires to exist* — used for
        table elimination (§6.3 'Using Property Names')."""
        names = {key for key, _p in self.predicates if not key.startswith("~")}
        if self.projection is not None:
            names.update(self.projection)
        if self.aggregate_key is not None:
            names.add(self.aggregate_key)
        return names


class Element:
    """Common behaviour of vertices and edges."""

    __slots__ = ("id", "_label", "_properties", "_provider", "source_table")

    def __init__(
        self,
        element_id: Any,
        label: str | None = None,
        properties: dict[str, Any] | None = None,
        provider: "GraphProvider | None" = None,
        source_table: str | None = None,
    ):
        self.id = element_id
        self._label = label
        self._properties = properties
        self._provider = provider
        self.source_table = source_table

    @property
    def label(self) -> str:
        if self._label is None:
            self._materialize()
        return self._label  # type: ignore[return-value]

    @property
    def properties(self) -> dict[str, Any]:
        if self._properties is None:
            self._materialize()
        return self._properties  # type: ignore[return-value]

    @property
    def is_materialized(self) -> bool:
        return self._properties is not None

    def value(self, key: str, default: Any = None) -> Any:
        return self.properties.get(key, default)

    def has_property(self, key: str) -> bool:
        return key in self.properties and self.properties[key] is not None

    def keys(self) -> list[str]:
        return [k for k, v in self.properties.items() if v is not None]

    def _materialize(self) -> None:
        raise NotImplementedError

    def absorb(self, label: str, properties: dict[str, Any], source_table: str | None) -> None:
        """Fill a lazy element from a bulk-materialization fetch."""
        self._label = label
        self._properties = properties
        if source_table is not None:
            self.source_table = source_table

    # Identity is (kind, id), not (concrete class, id): a vertex fetched
    # by a table scan and a lazy Vertex minted from an edge endpoint are
    # the same logical vertex and must dedup() together.
    _kind = "element"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Element)
            and self._kind == other._kind
            and self.id == other.id
        )

    def __hash__(self) -> int:
        return hash((self._kind, self.id))


class Vertex(Element):
    __slots__ = ()

    _kind = "vertex"

    def _materialize(self) -> None:
        if self._provider is None:
            raise ElementNotFoundError(f"vertex {self.id!r} has no provider to load from")
        # source_table doubles as a table hint for lazy vertices created
        # from edge endpoints (§6.3 src/dst vertex table narrowing)
        loaded = self._provider.load_vertex(self.id, table_hint=self.source_table)
        if loaded is None:
            raise ElementNotFoundError(f"vertex {self.id!r} not found")
        self._label = loaded._label
        self._properties = loaded._properties
        self.source_table = loaded.source_table

    def __repr__(self) -> str:
        return f"v[{self.id}]"


class Edge(Element):
    __slots__ = ("out_v_id", "in_v_id", "out_v_table", "in_v_table")

    _kind = "edge"

    def __init__(
        self,
        element_id: Any,
        label: str | None = None,
        out_v_id: Any = None,
        in_v_id: Any = None,
        properties: dict[str, Any] | None = None,
        provider: "GraphProvider | None" = None,
        source_table: str | None = None,
        out_v_table: str | None = None,
        in_v_table: str | None = None,
    ):
        super().__init__(element_id, label, properties, provider, source_table)
        self.out_v_id = out_v_id
        self.in_v_id = in_v_id
        # Which vertex table each endpoint comes from, when the overlay
        # declares src_v_table/dst_v_table (§6.3 table narrowing).
        self.out_v_table = out_v_table
        self.in_v_table = in_v_table

    def _materialize(self) -> None:
        if self._provider is None:
            raise ElementNotFoundError(f"edge {self.id!r} has no provider to load from")
        loaded = self._provider.load_edge(self.id)
        if loaded is None:
            raise ElementNotFoundError(f"edge {self.id!r} not found")
        self._label = loaded._label
        self._properties = loaded._properties
        self.source_table = loaded.source_table

    def endpoint_id(self, direction: Direction) -> Any:
        if direction is Direction.OUT:
            return self.out_v_id
        if direction is Direction.IN:
            return self.in_v_id
        raise ElementNotFoundError(f"edge endpoint direction {direction} is ambiguous")

    def __repr__(self) -> str:
        return f"e[{self.id}][{self.out_v_id}->{self.in_v_id}]"


class GraphProvider:
    """The backend interface the traversal engine executes against.

    Implementations: :class:`repro.core.graph_structure.OverlayGraph`
    (Db2 Graph), :class:`repro.baselines.native.NativeGraphStore`
    (GDB-X stand-in), :class:`repro.baselines.janus.JanusLikeStore`
    (JanusGraph stand-in).
    """

    # -- GSA step entry points ---------------------------------------------

    def graph_step(
        self,
        return_type: str,  # 'vertex' | 'edge'
        ids: Sequence[Any] | None,
        pushdown: Pushdown,
    ) -> Iterator[Any]:
        """``g.V(ids)`` / ``g.E(ids)`` with folded-in work.

        When ``pushdown.aggregate`` is set, yields exactly one scalar.
        """
        raise NotImplementedError

    def vertex_ids(self) -> list[Any]:
        """Every vertex id in ``g.V()`` order (the overlay reads id columns only)."""
        return [v.id for v in self.graph_step("vertex", None, Pushdown())]

    def edge_endpoints(self, edge_labels: tuple[str, ...] | None) -> list[tuple[Any, Any]]:
        """``(out id, in id)`` of every edge in ``g.E()`` order, limited
        to ``edge_labels`` when given (the overlay reads endpoint columns
        only)."""
        edges = self.graph_step("edge", None, Pushdown(labels=edge_labels))
        return [(e.out_v_id, e.in_v_id) for e in edges]

    def adjacent(
        self,
        vertices: Sequence[Vertex],
        direction: Direction,
        edge_labels: tuple[str, ...] | None,
        return_type: str,  # 'vertex' | 'edge'
        pushdown: Pushdown,
    ) -> dict[Any, list[Any]]:
        """Batched ``out()/in()/both()/outE()/...`` for a set of input
        vertices: vertex id -> adjacent elements."""
        raise NotImplementedError

    def adjacent_ids(
        self,
        vertex_ids: Sequence[Any],
        direction: Direction,
        edge_labels: tuple[str, ...] | None,
        weight: str | None = None,
    ) -> dict[Any, list[Any]]:
        """Bulk-analytics expansion: vertex id -> neighbour ids in
        :meth:`adjacent`'s edge order, or ``(neighbour id, value)`` pairs
        where ``value`` is ``edge.value(weight)``.  This default builds
        the edges; the overlay reads endpoint-only rows, as ``out()`` does."""
        vertices = [Vertex(v, provider=self) for v in vertex_ids]
        adjacency = self.adjacent(vertices, direction, edge_labels, "edge", Pushdown())
        result: dict[Any, list[Any]] = {}
        for u, edges in adjacency.items():
            ids: list[Any] = []
            for edge in edges:
                if direction is Direction.OUT or (
                    direction is Direction.BOTH and edge.out_v_id == u
                ):
                    v = edge.in_v_id
                else:
                    v = edge.out_v_id
                ids.append(v if weight is None else (v, edge.value(weight)))
            result[u] = ids
        return result

    def edge_vertex(self, edge: Edge, direction: Direction) -> Iterator[Vertex]:
        """``outV()/inV()/bothV()`` of one edge."""
        if direction is Direction.BOTH:
            yield from self.edge_vertex(edge, Direction.OUT)
            yield from self.edge_vertex(edge, Direction.IN)
            return
        vertex_id = edge.endpoint_id(direction)
        yield Vertex(vertex_id, provider=self)

    # -- point lookups -------------------------------------------------------

    def load_vertex(self, vertex_id: Any, table_hint: str | None = None) -> Vertex | None:
        raise NotImplementedError

    def bulk_materialize(self, vertices: Sequence["Vertex"]) -> None:
        """Fill a batch of lazy vertices in one backend round trip.

        Property-reading steps call this before touching a batch of
        traversers, avoiding the one-SQL-per-vertex pattern.  The
        default is a no-op (in-memory backends hand out materialized
        elements already)."""

    def load_edge(self, edge_id: Any) -> Edge | None:
        raise NotImplementedError

    # -- metadata -------------------------------------------------------------

    def describe(self) -> str:
        return type(self).__name__

    def close(self) -> None:
        """Release backend resources (default: nothing)."""
