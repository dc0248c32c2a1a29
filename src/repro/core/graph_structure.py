"""The Graph Structure module (paper §6, Figure 3): the overlay-backed
implementation of the graph structure API.

Every GSA step of a traversal lands here.  The §6.3 planner
(:mod:`repro.core.planning`) decides its SELECTs; this module records
the plan's eliminations, runs its statements through the SQL Dialect
module, and builds elements (or bare ids) from the rows.

A step's per-table statements run one after another on the caller's
thread.  Traverser batching coalesces up to ``batch_size`` ids into one
``IN (...)`` probe per table (DESIGN.md §9).
"""

from __future__ import annotations

import itertools
import operator
import os
from typing import Any, Callable, Iterator, Mapping, Sequence

from ..cache.graph_cache import NEGATIVE
from ..graph.errors import TraversalError
from ..graph.model import Direction, Edge, GraphProvider, Pushdown, Vertex
from ..obs import metrics as M
from ..obs import tracing
from ..obs.metrics import MetricsRegistry
from ..obs.tracing import TraceRecorder
from .ids import IdTemplate
from .planning import (
    EVERY_ROW,
    Adjacency,
    Planner,
    RuntimeOptimizations,
    Side,
    Statement,
    effective_projection,
    fills,
    has_repeats,
)
from .sql_dialect import SqlDialect
from .topology import EdgeTopology, Topology, VertexTopology

#: Traverser-coalescing default: matches the step layer's historical
#: batch of 256 traversers per ``adjacent()`` call, so an unconfigured
#: graph issues exactly the SQL it always did.
DEFAULT_BATCH_SIZE = 256

BATCH_SIZE_ENV = "REPRO_BATCH_SIZE"


def resolve_batch_size(batch_size: int | None) -> int:
    """Explicit argument, else ``REPRO_BATCH_SIZE`` (blank = unset), else
    256.  A malformed environment value raises rather than silently
    soaking the default."""
    if batch_size is None:
        raw = os.environ.get(BATCH_SIZE_ENV, "").strip()
        if not raw:
            return DEFAULT_BATCH_SIZE
        try:
            batch_size = int(raw)
        except ValueError:
            raise ValueError(
                f"{BATCH_SIZE_ENV} must be an integer, got {raw!r}"
            ) from None
    return max(1, int(batch_size))


class OverlayEdge(Edge):
    """An edge over one fetched row tuple (``columns`` its lowercase
    names).  The row holds every property its statement fetched, so the
    edge counts as materialized; the property dict, limited to a folded
    ``projection``, is built on first read."""

    __slots__ = ("columns", "values", "etop", "projection")

    def __init__(
        self, edge_id, label, out_v_id, in_v_id, provider, out_v_table, in_v_table,
        columns, values, etop, projection,
    ):
        super().__init__(
            edge_id, label, out_v_id, in_v_id, None, provider, etop.name, out_v_table, in_v_table
        )
        self.columns, self.values, self.etop, self.projection = columns, values, etop, projection

    @property
    def row(self) -> dict[str, Any]:
        return dict(zip(self.columns, self.values))

    @property
    def properties(self) -> dict[str, Any]:
        if self._properties is None:
            self._properties = self.etop.row_properties(self.row, self.projection)
        return self._properties

    @property
    def is_materialized(self) -> bool:
        return True


class OverlayGraph(GraphProvider):
    """GraphProvider over relational tables through a graph overlay."""

    def __init__(
        self,
        topology: Topology,
        dialect: SqlDialect,
        opts: RuntimeOptimizations | None = None,
        registry: MetricsRegistry | None = None,
        recorder: TraceRecorder | None = None,
        *,
        batch_size: int = DEFAULT_BATCH_SIZE,
        cache: Any = None,
    ):
        self.dialect = dialect
        self.opts = opts or RuntimeOptimizations()
        # Optional GraphCache (repro.cache): level 2 memoizes endpoint
        # materialization (bulk_materialize groups, load_vertex point
        # lookups); level 1 lives inside the dialect.
        self.cache = cache
        # Share the dialect's registry/recorder by default so one
        # snapshot covers both modules.
        self.registry = registry if registry is not None else dialect.registry
        self.trace = recorder if recorder is not None else dialect.trace
        # The traverser-coalescing unit: at most this many ids ride one
        # IN (...) probe per table.  The step layer reads it too, to size
        # its traverser batches so the two levels agree (graph/steps.py).
        self.batch_size = batch_size
        # §6.3: every SELECT this module runs is one of the planner's
        # statements; explain() renders the same ones.
        self.planner = Planner(
            topology, self.opts, batch_size, dialect.connection.database.catalog
        )

    @property
    def topology(self) -> Topology:
        return self.planner.topology

    @topology.setter
    def topology(self, topology: Topology) -> None:
        self.planner.topology = topology  # Db2Graph.refresh()

    def describe(self) -> str:
        return "Db2Graph(OverlayGraph)"

    # -- observability -------------------------------------------------

    def _note_eliminations(self, eliminated: Sequence[tuple[str, str]]) -> None:
        """Count ``(table, rule)`` eliminations under their §6.3 rules —
        one counter increment per rule — each mirrored 1:1 by a
        ``table.eliminated`` trace event."""
        if not eliminated:
            return
        registry = self.registry
        registry.counter(M.TABLES_ELIMINATED).increment(len(eliminated))
        per_rule: dict[str, int] = {}
        for _table, rule in eliminated:
            per_rule[rule] = per_rule.get(rule, 0) + 1
        for rule, count in per_rule.items():
            registry.counter(M.eliminated_counter_name(rule)).increment(count)
        if self.trace.enabled:
            for table, rule in eliminated:
                self.trace.emit(tracing.TABLE_ELIMINATED, table=table, rule=rule)

    def _note_table_query(self, table: str, kind: str) -> None:
        name = M.VERTEX_TABLE_QUERIES if kind == "vertex" else M.EDGE_TABLE_QUERIES
        self.registry.counter(name).increment()
        self.trace.emit(tracing.TABLE_QUERIED, table=table, kind=kind)

    # ------------------------------------------------------------------
    # Running a plan: each statement exactly as the planner built it
    # ------------------------------------------------------------------

    def _run_select(self, kind: str, s: Statement, pushdown: Pushdown) -> list[Any]:
        """One row-fetching statement, rows built into elements."""
        if kind == "edge":
            edges: list[Any] = []
            entry = Adjacency(s.top, [EVERY_ROW], [s], None, None)
            self._walk(entry, None, {}, self._edge_entry(pushdown), edges)
            return [edge for edge in edges if pushdown.matches(edge)]
        self._note_table_query(s.table, kind)
        keys, rows = self.dialect.select(s.table, s.columns, s.predicates)
        made = (self._make_vertex(s.top, dict(zip(keys, values)), pushdown) for values in rows)
        return [vertex for vertex in made if vertex is not None]

    def _run_plan(self, kind: str, plan: tuple, pushdown: Pushdown) -> Iterator[Any]:
        """Record a plan's eliminations, then its elements, statement by
        statement (lazy: a caller that stops pulling issues no more)."""
        eliminated, statements = plan
        self._note_eliminations(eliminated)
        for s in statements:
            yield from self._run_select(kind, s, pushdown)

    def _aggregate(self, kind: str, s: Statement) -> Any:
        """One statement computing its aggregate in SQL."""
        self._note_table_query(s.table, kind)
        agg, column = s.aggregate
        if agg == "sum_count":
            return self.dialect.sum_and_count(s.table, column or "", s.predicates)
        value = self.dialect.aggregate_value(s.table, agg, column, s.predicates)
        return (value or 0) if agg == "count" else value

    def _make_vertex(
        self, vtop: VertexTopology, row: Mapping[str, Any], pushdown: Pushdown
    ) -> Vertex | None:
        properties = vtop.row_properties(row, effective_projection(pushdown))
        vertex = Vertex(
            vtop.row_id(row), vtop.row_label(row), properties,
            provider=self, source_table=vtop.table_name,
        )
        return vertex if pushdown.matches(vertex) else None

    def _edge_reader(
        self, etop: EdgeTopology, keys: Sequence[str], projection: Sequence[str] | None
    ) -> Callable[[Any, Sequence[Any]], OverlayEdge]:
        """The one edge constructor: the edge of a row tuple over
        ``keys`` whose endpoint columns hold no NULL (the far id argument
        of :meth:`_walk`'s entries is unused)."""
        ends = _endpoint_reader(keys, etop.src_template, etop.dst_template)
        if etop.implicit_id is None:
            edge_id = _id_reader(keys, etop.id_template)
        else:
            edge_id = lambda row: etop.implicit_id.render(dict(zip(keys, row)))  # noqa: E731
        label_at = None if etop.fixed_label is not None else keys.index(etop.label.column.lower())
        narrow = self.opts.use_src_dst_tables
        tables = (etop.src_v_table, etop.dst_v_table) if narrow else (None, None)
        return lambda _far, row: OverlayEdge(
            edge_id(row), etop.fixed_label if label_at is None else str(row[label_at]),
            *ends(row), self, *tables, keys, row, etop, projection,
        )

    def _edge_entry(self, pushdown: Pushdown) -> Callable[..., Callable[..., OverlayEdge]]:
        """:meth:`_walk`'s ``entry_for`` on the edge path."""
        projection = effective_projection(pushdown)
        return lambda keys, _side, entry: self._edge_reader(entry.etop, keys, projection)

    # ------------------------------------------------------------------
    # GSA entry point: g.V(ids) / g.E(ids)
    # ------------------------------------------------------------------

    def graph_step(
        self, return_type: str, ids: Sequence[Any] | None, pushdown: Pushdown
    ) -> Iterator[Any]:
        yield from self._elements(return_type, ids, pushdown)

    def vertex_ids(self) -> list[Any]:
        """``g.V()``'s plan, eliminations and events reduced to ids: each
        SELECT fetches only the id columns, and no vertex is built."""
        eliminated, plan = self.planner.vertex_id_plan()
        self._note_eliminations(eliminated)
        ids: list[Any] = []
        for s in plan:
            self._note_table_query(s.table, "vertex")
            keys, rows = self.dialect.select(s.table, s.columns, s.predicates)
            ids.extend(map(_id_reader(keys, s.top.id_template), rows))
        return ids

    def edge_endpoints(self, edge_labels: tuple[str, ...] | None) -> list[tuple[Any, Any]]:
        """``g.E()``'s plan, eliminations and events reduced to ``(out
        id, in id)`` pairs by the row walk: no edge is built."""
        eliminated, plan = self.planner.endpoint_plan(edge_labels)
        self._note_eliminations(eliminated)
        pairs: list[tuple[Any, Any]] = []
        for entry in plan:
            self._walk(entry, edge_labels, {}, lambda *_: _PAIR, every=pairs)
        return pairs

    def _elements(
        self,
        kind: str,
        ids: Sequence[Any] | None,
        pushdown: Pushdown,
        tables: Sequence[Any] | None = None,
    ) -> Iterator[Any]:
        eliminated, statements = self.planner.plan(kind, ids, pushdown, tables)
        self._note_eliminations(eliminated)
        if pushdown.aggregate is not None:
            if has_repeats(ids):
                elements = self._fetch_ids(kind, ids, statements, pushdown)
                partial = _memory_aggregate(elements, pushdown)
                yield _combine_aggregates(pushdown.aggregate, [partial])
            else:
                yield self._aggregate_over_tables(kind, statements, pushdown)
            return
        if ids is not None:
            yield from self._fetch_ids(kind, ids, statements, pushdown)
            return
        # Scans stay lazy: a downstream limit()/next() that stops
        # pulling must not issue SQL against the remaining tables.
        for s in statements:
            yield from self._run_select(kind, s, pushdown)

    def _fetch_ids(
        self, kind: str, ids: Sequence[Any], statements: list[Statement], pushdown: Pushdown
    ) -> list[Any]:
        """Gremlin semantics: g.V(1, 1) yields the vertex twice and
        preserves request order; the SQL IN-list dedups, so run every
        planned statement and re-emit per request."""
        fetched: dict[str, Any] = {}
        for s in statements:
            for element in self._run_select(kind, s, pushdown):
                fetched.setdefault(str(element.id), element)
        out: list[Any] = []
        for requested in ids:
            element = fetched.get(str(requested))
            if element is not None:
                out.append(element)
        return out

    def _aggregate_over_tables(
        self, kind: str, statements: list[Statement], pushdown: Pushdown
    ) -> Any:
        """Per-table partials: SQL aggregates where they push down, else
        an in-memory aggregate over the table's fetched rows."""
        partials: list[Any] = []
        for _top, table_statements in itertools.groupby(statements, key=operator.itemgetter(0)):
            table_statements = list(table_statements)
            if table_statements[0].aggregate:
                partials.extend(self._aggregate(kind, s) for s in table_statements)
                continue
            elements = [e for s in table_statements for e in self._run_select(kind, s, pushdown)]
            partials.append(_memory_aggregate(elements, pushdown))
        return _combine_aggregates(pushdown.aggregate, partials)

    # ------------------------------------------------------------------
    # GSA entry point: out()/in()/both()/outE()/... (batched)
    # ------------------------------------------------------------------

    def adjacent(
        self,
        vertices: Sequence[Vertex],
        direction: Direction,
        edge_labels: tuple[str, ...] | None,
        return_type: str,
        pushdown: Pushdown,
    ) -> dict[Any, list[Any]]:
        if return_type == "vertex":
            targets = self._adjacency(vertices, direction, edge_labels, "vertex")
            return self._resolve_adjacent_vertices(targets, pushdown)
        eliminated, plan = self.planner.adjacent_plan(
            vertices, direction, edge_labels, pushdown, "edge"
        )
        self._note_eliminations(eliminated)
        edge = self._edge_entry(pushdown)
        if pushdown.aggregate is None:
            result: dict[Any, list[Any]] = {v.id: [] for v in vertices}
            for entry in plan:
                self._walk(entry, edge_labels, result, edge)
            return {vid: [e for e in edges if pushdown.matches(e)] for vid, edges in result.items()}
        partials: list[Any] = []
        for entry in plan:
            if entry.statements and entry.statements[0].aggregate:
                table = [self._aggregate("edge", s) for s in entry.statements]
                if pushdown.aggregate == "mean":  # (sum, count) partials
                    partials.extend(table)
                else:
                    partials.append(_combine_aggregates(pushdown.aggregate, table))
                continue
            # each matching input's edges count: g.V(1, 1).outE() twice
            [side] = entry.sides
            buckets: dict[Any, list[Any]] = {v.id: [] for v in side.matching}
            self._walk(entry, edge_labels, buckets, edge)
            edges = [e for v in side.matching for e in buckets[v.id] if pushdown.matches(e)]
            partials.append(_memory_aggregate(edges, pushdown))
        return {None: [_combine_aggregates(pushdown.aggregate, partials)]}

    def _resolve_adjacent_vertices(
        self, targets: dict[Any, list[Vertex]], pushdown: Pushdown
    ) -> dict[Any, list[Vertex]]:
        """Vertex id -> neighbour vertices from :meth:`_adjacency`: lazy
        ones as they are, or, when a ``has()`` or projection was folded
        into the step, fetched in one pass per table hint, over the hint
        table alone (§6.3 src/dst narrowing, as :meth:`load_vertex`).  A
        vertex built from its edge row (§6.3) is complete: its folded
        ``has()``s are checked in memory and it is not fetched again."""
        lazy = [v for entry in targets.values() for v in entry if not v.is_materialized]
        if not fills(pushdown):
            self.registry.counter(M.LAZY_VERTICES).increment(len(lazy))
            if self.trace.enabled:
                for vertex in lazy:
                    self.trace.emit(tracing.VERTEX_LAZY, table=vertex.source_table)
            return targets
        by_hint: dict[str | None, dict[Any, None]] = {}
        for v in lazy:
            by_hint.setdefault(v.source_table, {})[v.id] = None
        resolved = {
            (v.id, hint): v
            for hint, ids in by_hint.items()
            for v in self._elements(
                "vertex", list(ids), pushdown, self.planner.hint_tables(hint)
            )
        }

        def kept(v: Vertex) -> Vertex | None:
            if not v.is_materialized:
                return resolved.get((v.id, v.source_table))
            return v if pushdown.matches(v) else None

        return {
            vertex_id: [k for v in entry if (k := kept(v)) is not None]
            for vertex_id, entry in targets.items()
        }

    def adjacent_ids(
        self,
        vertex_ids: Sequence[Any],
        direction: Direction,
        edge_labels: tuple[str, ...] | None,
        weight: str | None = None,
    ) -> dict[Any, list[Any]]:
        """``adjacent()`` reduced to ids for bulk analytics: the same
        row walk as ``out()``/``in()``/``outE()``."""
        vertices = [Vertex(v, provider=self) for v in vertex_ids]
        return self._adjacency(vertices, direction, edge_labels, "id", weight)

    def _adjacency(
        self,
        vertices: Sequence[Vertex],
        direction: Direction,
        edge_labels: tuple[str, ...] | None,
        return_type: str,
        weight: str | None = None,
    ) -> dict[Any, list[Any]]:
        """Vertex id -> far endpoints over the planner's adjacency plan:
        per row, the far id, with ``weight`` a ``(far id, weight value)``
        pair, or with ``return_type`` ``"vertex"`` the far vertex."""
        eliminated, plan = self.planner.adjacent_plan(
            vertices, direction, edge_labels, None, return_type, weight
        )
        self._note_eliminations(eliminated)
        entry_for = (lambda *_: None) if weight is None else _weight_entry
        if return_type == "vertex":
            entry_for = self._vertex_entry
        result: dict[Any, list[Any]] = {v.id: [] for v in vertices}
        for entry in plan:
            self._walk(entry, edge_labels, result, entry_for)
        return result

    def _walk(
        self,
        entry: Adjacency,
        edge_labels: tuple[str, ...] | None,
        result: dict[Any, list[Any]],
        entry_for: Callable[[Sequence[str], Side, Adjacency], Any],
        every: list[Any] | None = None,
    ) -> None:
        """The one loop over edge rows (tuples): per side, append what
        ``entry_for(keys, side, entry)`` makes of a row (the far id for
        ``None``, the ``(near, far)`` pair for :data:`_PAIR`, else
        ``make(far id, row)``) to the ``result`` bucket of its near id,
        else to ``every``.  A NULL endpoint column is no edge."""
        etop, sides, statements, label_column, _weight = entry
        # a fixed label outside edge_labels survives only with label
        # elimination off: its statements run, its rows are dropped
        rejected = bool(edge_labels) and etop.fixed_label not in (None, *edge_labels)
        for s in statements:
            self._note_table_query(s.table, "edge")
            keys, rows = self.dialect.select(s.table, s.columns, s.predicates)
            if rejected:
                continue
            label_at = keys.index(label_column.lower()) if label_column else None
            for side in sides:
                near, far = etop.src_template, etop.dst_template
                if side.direction is Direction.IN:
                    near, far = far, near
                ends = _endpoint_reader(keys, near, far)
                make = entry_for(keys, side, entry)
                side_rows = rows
                if side.keep is not None:
                    near_at = keys.index(near.only_column.lower())
                    side_rows = [row for row in rows if row[near_at] in side.keep]
                buckets = result
                if side.aliases:
                    buckets = {**result, **{near_id: [] for near_id in side.aliases}}
                for row in side_rows:
                    if label_at is not None and str(row[label_at]) not in edge_labels:
                        continue
                    key, other = pair = ends(row)
                    bucket = buckets.get(key, every)
                    if bucket is None or key is None or other is None:
                        continue
                    bucket.append(
                        other if make is None else pair if make is _PAIR else make(other, row)
                    )
                for near_id, ids in (side.aliases or {}).items():
                    for receiver in (near_id, *ids):
                        if receiver in result:
                            result[receiver] += buckets[near_id]

    def _vertex_entry(self, keys: Sequence[str], side: Side, _entry: Adjacency) -> Callable:
        """The far vertex of one neighbour row over ``side``."""
        row_vertex, hint = side.row_vertex, side.hint
        if row_vertex is not None:
            return lambda _other, row: self._vertex_from_row(row_vertex, dict(zip(keys, row)))
        return lambda other, _row: Vertex(other, provider=self, source_table=hint)

    def _vertex_from_row(self, vtop: VertexTopology, row: Mapping[str, Any]) -> Vertex:
        """§6.3 'When A Vertex Table Is Also An Edge Table': the vertex
        built from its edge row, with no statement of its own."""
        self.registry.counter(M.VERTICES_FROM_EDGES).increment()
        self.trace.emit(tracing.VERTEX_FROM_EDGE, table=vtop.table_name)
        built = vtop.row_id(row), vtop.row_label(row), vtop.row_properties(row)
        return Vertex(*built, provider=self, source_table=vtop.table_name)

    # ------------------------------------------------------------------
    # Edge endpoints: outV()/inV()
    # ------------------------------------------------------------------

    def edge_vertex(self, edge: Edge, direction: Direction) -> Iterator[Vertex]:
        if direction is Direction.BOTH:
            yield from self.edge_vertex(edge, Direction.OUT)
            yield from self.edge_vertex(edge, Direction.IN)
            return
        vtop = None
        if isinstance(edge, OverlayEdge):  # outV() is the far end over IN
            vtop = self.planner.row_vertex(edge.etop, direction.opposite())
        # a row fetched under a projection may lack vertex columns
        if vtop is not None and all(c.lower() in edge.row for c in vtop.required_columns()):
            yield self._vertex_from_row(vtop, edge.row)
            return
        hint = edge.out_v_table if direction is Direction.OUT else edge.in_v_table
        self.registry.counter(M.LAZY_VERTICES).increment()
        self.trace.emit(tracing.VERTEX_LAZY, table=hint)
        yield Vertex(edge.endpoint_id(direction), provider=self, source_table=hint)

    # ------------------------------------------------------------------
    # Mutation: addV()/addE() translate to SQL INSERTs
    # ------------------------------------------------------------------

    def insert_vertex(self, label: str, properties: dict[str, Any]) -> Vertex:
        """``g.addV(label).property(...)``: INSERT into the unique
        fixed-label vertex table.  Properties that belong to the id or
        label columns flow into them (e.g. a primary-key property)."""
        vtop = self._unique_table_for_label(self.topology.vertex_tables, label, "vertex")
        columns, values = self._row_from_properties(vtop, properties, label)
        self.dialect.insert(vtop.table_name, columns, values)
        row = {c.lower(): v for c, v in zip(columns, values)}
        return Vertex(
            vtop.row_id(row),
            label,
            vtop.row_properties(row),
            provider=self,
            source_table=vtop.table_name,
        )

    def insert_edge(
        self, label: str, src_id: Any, dst_id: Any, properties: dict[str, Any]
    ) -> Edge:
        """``g.addE(label).from_(..).to(..)``: INSERT into the unique
        fixed-label edge table, decomposing endpoint ids into their
        source/destination columns."""
        etop = self._unique_table_for_label(self.topology.edge_tables, label, "edge")
        src_values = etop.src_template.decode(src_id)
        dst_values = etop.dst_template.decode(dst_id)
        if src_values is None or dst_values is None:
            raise TraversalError(
                f"edge endpoints {src_id!r} -> {dst_id!r} do not match table "
                f"{etop.table_name!r}'s src/dst id shapes"
            )
        merged = dict(properties)
        for column, value in {**src_values, **dst_values}.items():
            merged[column] = etop.relation.coerce(column, value)
        columns, values = self._row_from_properties(etop, merged, label)
        self.dialect.insert(etop.table_name, columns, values)
        keys = [c.lower() for c in columns]
        return self._edge_reader(etop, keys, None)(None, tuple(values))

    def _unique_table_for_label(self, tables: list, label: str, kind: str):
        matches = [t for t in tables if t.fixed_label == label]
        if len(matches) != 1:
            raise TraversalError(
                f"cannot insert: label {label!r} maps to {len(matches)} {kind} "
                f"tables (need exactly one fixed-label table)"
            )
        top = matches[0]
        if top.relation.is_view:
            raise TraversalError(f"cannot insert into view-backed table {top.table_name!r}")
        return top

    @staticmethod
    def _row_from_properties(top: Any, properties: dict[str, Any], label: str):
        """Map property names (case-insensitively) onto table columns."""
        by_lower = {k.lower(): v for k, v in properties.items()}
        columns: list[str] = []
        values: list[Any] = []
        consumed: set[str] = set()
        for column in top.relation.columns:
            key = column.lower()
            if key in by_lower:
                columns.append(column)
                values.append(by_lower[key])
                consumed.add(key)
        unknown = set(by_lower) - consumed
        if unknown:
            raise TraversalError(
                f"properties {sorted(unknown)} have no columns in {top.table_name!r}"
            )
        return columns, values

    # ------------------------------------------------------------------
    # Point lookups
    # ------------------------------------------------------------------

    def bulk_materialize(self, vertices: Sequence[Vertex]) -> None:
        """Fill a batch of lazy endpoint vertices with as few SQL
        statements as possible: vertices sharing a table hint batch
        into one IN-list query; unhinted ones go through the normal
        multi-table id resolution in one pass."""
        by_hint: dict[str | None, list[Vertex]] = {}
        for vertex in vertices:
            if vertex.is_materialized:
                continue
            hint = vertex.source_table if self.opts.use_src_dst_tables else None
            by_hint.setdefault(hint, []).append(vertex)
        for hint, group in by_hint.items():
            self._materialize_group(hint, group)

    def _materialize_group(self, hint: str | None, group: list[Vertex]) -> None:
        ids = list(dict.fromkeys(v.id for v in group))
        ticket = None
        if self.cache is not None:
            # The (hint, id-tuple) group is the cache unit: the
            # hint-table-then-fallback logic below is group-composition
            # dependent, so a hit must replay exactly one previously
            # computed group, never per-id slices.
            status, payload = self.cache.lookup_group(
                self.dialect.connection,
                self._vertex_relations(),
                hint,
                tuple(ids),
            )
            if status == "hit":
                found = {
                    vid: (label, dict(items), table)
                    for vid, label, items, table in payload
                }
                for vertex in group:
                    entry = found.get(vertex.id)
                    if entry is not None:
                        vertex.absorb(*entry)
                return
            if status == "miss":
                ticket = payload
        empty = Pushdown()
        loaded: dict[Any, Vertex] = {}
        if hint is not None:
            try:
                tables = [self.topology.vertex_table(hint)]
            except Exception:
                tables = None
            if tables is not None:
                plan = self.planner.plan("vertex", ids, empty, tables)
                for vertex in self._run_plan("vertex", plan, empty):
                    loaded[vertex.id] = vertex
        if not loaded:
            for vertex in self._elements("vertex", ids, empty):
                loaded.setdefault(vertex.id, vertex)
        for vertex in group:
            fetched = loaded.get(vertex.id)
            if fetched is not None:
                vertex.absorb(fetched.label, fetched.properties, fetched.source_table)
        if ticket is not None:
            self.cache.store(
                ticket,
                tuple(
                    (vid, v.label, tuple(v.properties.items()), v.source_table)
                    for vid, v in loaded.items()
                ),
            )

    def _vertex_relations(self) -> tuple[str, ...]:
        """The level-2 cache's dependency set: every vertex table of the
        current topology (views included; the cache resolves them)."""
        return tuple(v.table_name for v in self.topology.vertex_tables)

    def load_vertex(self, vertex_id: Any, table_hint: str | None = None) -> Vertex | None:
        ticket = None
        if self.cache is not None:
            scope = (
                table_hint
                if table_hint is not None and self.opts.use_src_dst_tables
                else None
            )
            status, payload = self.cache.lookup_vertex(
                self.dialect.connection, self._vertex_relations(), scope, vertex_id
            )
            if status == "hit":
                if payload == NEGATIVE:
                    return None
                found_id, label, items, source_table = payload
                return Vertex(
                    found_id,
                    label,
                    dict(items),
                    provider=self,
                    source_table=source_table,
                )
            if status == "miss":
                ticket = payload
        result = self._load_vertex_uncached(vertex_id, table_hint)
        if ticket is not None:
            self.cache.store(
                ticket,
                NEGATIVE
                if result is None
                else (
                    result.id,
                    result.label,
                    tuple(result.properties.items()),
                    result.source_table,
                ),
            )
        return result

    def _load_vertex_uncached(
        self, vertex_id: Any, table_hint: str | None = None
    ) -> Vertex | None:
        candidates = self.planner.hint_tables(table_hint)
        if table_hint is None or not self.opts.use_src_dst_tables:
            if self.opts.use_prefixed_ids:
                pinned = self.topology.vertex_table_for_prefix(vertex_id)
                if pinned is not None:
                    candidates = [pinned]
        empty = Pushdown()
        for vtop in candidates:
            plan = self.planner.plan("vertex", [vertex_id], empty, [vtop])
            for vertex in self._run_plan("vertex", plan, empty):
                return vertex
        return None

    def load_edge(self, edge_id: Any) -> Edge | None:
        return next(self._elements("edge", [edge_id], Pushdown()), None)


def _id_reader(keys: Sequence[str], template: IdTemplate) -> Callable[[Sequence[Any]], Any]:
    """The id of one row tuple: a single-column id by tuple index, a
    composite or prefixed id rendered from a row dict."""
    if template.is_single_column:
        return operator.itemgetter(keys.index(template.columns[0].lower()))
    return lambda row: template.render(dict(zip(keys, row)))


def _endpoint_reader(
    keys: Sequence[str], near: IdTemplate, far: IdTemplate
) -> Callable[[Sequence[Any]], tuple[Any, Any]]:
    """``(near id, far id)`` of one row tuple; a row with a NULL endpoint
    column reads as a pair holding ``None``."""
    if near.is_single_column and far.is_single_column:
        return operator.itemgetter(
            keys.index(near.columns[0].lower()), keys.index(far.columns[0].lower())
        )
    near_id, far_id = _id_reader(keys, near), _id_reader(keys, far)
    at = [keys.index(c.lower()) for c in (*near.columns, *far.columns)]
    return lambda row: (None, None) if None in [row[i] for i in at] else (near_id(row), far_id(row))


#: ``_walk``'s marker for an ``(near id, far id)`` pair entry.
_PAIR = object()


def _weight_entry(keys: Sequence[str], _side: Side, entry: Adjacency) -> Callable:
    """``(far id, weight value)`` of one neighbour row; the value is
    ``None`` on a table without the weight property."""
    at = keys.index(entry.weight_column.lower()) if entry.weight_column else None
    return lambda other, row: (other, None if at is None else row[at])


def _memory_aggregate(elements: list, pushdown: Pushdown) -> Any:
    kind = pushdown.aggregate
    if kind == "count":
        return len(elements)
    key = pushdown.aggregate_key
    values = [e.value(key) for e in elements if key and e.has_property(key)]
    if kind == "mean":
        return (float(sum(values)), len(values))
    return _reduce(kind, values)


def _combine_aggregates(kind: str | None, partials: list[Any]) -> Any:
    if kind == "count":
        return sum(p or 0 for p in partials)
    if kind == "mean":
        total = 0.0
        count = 0
        for partial in partials:
            if partial is None:
                continue
            s, c = partial
            total += s or 0
            count += c or 0
        return total / count if count else None
    return _reduce(kind, [p for p in partials if p is not None])


def _reduce(kind: str | None, values: list[Any]) -> Any:
    """``sum``/``min``/``max`` of non-empty ``values``, else ``None``."""
    reducer = {"sum": sum, "min": min, "max": max}.get(kind or "")
    return reducer(values) if values and reducer else None
