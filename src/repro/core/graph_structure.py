"""The Graph Structure module (paper §6, Figure 3): the overlay-backed
implementation of the graph structure API.

Every GSA step of a traversal lands here and becomes one or more SQL
queries (via the SQL Dialect module).  The data-dependent runtime
optimizations of §6.3 are all implemented — and individually
toggleable through :class:`RuntimeOptimizations` so the ablation
benchmarks can quantify each:

* ``use_src_dst_tables``   — src_v_table/dst_v_table narrowing
* ``use_vertex_from_edge`` — build the vertex straight from the edge
  row when a table serves as both vertex and edge table
* ``use_property_names``   — eliminate tables lacking a pushed-down
  property
* ``use_label_values``     — eliminate fixed-label tables whose label
  doesn't match
* ``use_prefixed_ids``     — pin the table from a prefixed id and
  decompose composite ids into conjunctive predicates
* ``use_implicit_edge_ids``— use the label inside ``src::label::dst``
  edge ids for table elimination

A step's per-table statements run one after another on the caller's
thread.  Traverser batching coalesces up to ``batch_size`` ids into one
``IN (...)`` probe per table (DESIGN.md §9).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping, Sequence

from ..cache.graph_cache import NEGATIVE
from ..common.env import env_int
from ..graph.model import Direction, Edge, GraphProvider, Pushdown, Vertex
from ..graph.predicates import P
from ..obs import metrics as M
from ..obs import tracing
from ..obs.metrics import MetricsRegistry
from ..obs.tracing import TraceRecorder
from .sql_dialect import SqlDialect, SqlPredicate, predicate_to_sql
from .topology import EdgeTopology, Topology, VertexTopology

#: Traverser-coalescing default: matches the step layer's historical
#: batch of 256 traversers per ``adjacent()`` call, so an unconfigured
#: graph issues exactly the SQL it always did.
DEFAULT_BATCH_SIZE = 256

BATCH_SIZE_ENV = "REPRO_BATCH_SIZE"


def resolve_batch_size(batch_size: int | None) -> int:
    """Explicit argument, else ``REPRO_BATCH_SIZE``, else 256."""
    if batch_size is None:
        batch_size = env_int(BATCH_SIZE_ENV, DEFAULT_BATCH_SIZE)
    return max(1, int(batch_size))


def chunked(values: Sequence[Any], size: int) -> list[Sequence[Any]]:
    """Split ``values`` into ``len(values)//size (+1)`` runs of at most
    ``size``, preserving order — the traverser-batching unit."""
    if size <= 0 or len(values) <= size:
        return [values]
    return [values[i : i + size] for i in range(0, len(values), size)]


@dataclass
class RuntimeOptimizations:
    use_src_dst_tables: bool = True
    use_vertex_from_edge: bool = True
    use_property_names: bool = True
    use_label_values: bool = True
    use_prefixed_ids: bool = True
    use_implicit_edge_ids: bool = True

    @classmethod
    def all_on(cls) -> "RuntimeOptimizations":
        return cls()

    @classmethod
    def all_off(cls) -> "RuntimeOptimizations":
        return cls(False, False, False, False, False, False)


class OverlayVertex(Vertex):
    __slots__ = ("row",)

    def __init__(self, *args: Any, row: Mapping[str, Any] | None = None, **kwargs: Any):
        super().__init__(*args, **kwargs)
        self.row = row


class OverlayEdge(Edge):
    __slots__ = ("row",)

    def __init__(self, *args: Any, row: Mapping[str, Any] | None = None, **kwargs: Any):
        super().__init__(*args, **kwargs)
        self.row = row


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
        batch_size: int | None = None,
        cache: Any = None,
    ):
        self.topology = topology
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
        # IN (...) probe per table.  ``None`` falls back to the
        # REPRO_BATCH_SIZE env default, then 256.
        self.batch_size = resolve_batch_size(batch_size)
        # The step layer reads this to size its traverser batches so the
        # two batching levels agree (see graph/steps.py).
        self.traverser_batch_size = self.batch_size

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
    # GSA entry point: g.V(ids) / g.E(ids)
    # ------------------------------------------------------------------

    def graph_step(
        self, return_type: str, ids: Sequence[Any] | None, pushdown: Pushdown
    ) -> Iterator[Any]:
        if return_type == "vertex":
            yield from self._vertices(ids, pushdown)
        else:
            yield from self._edges(ids, pushdown)

    # -- vertices ------------------------------------------------------------

    def _vertices(self, ids: Sequence[Any] | None, pushdown: Pushdown) -> Iterator[Any]:
        candidates, _ = self._candidate_vertex_tables(pushdown)
        if pushdown.aggregate is not None:
            if ids is not None and len({str(i) for i in ids}) != len(ids):
                # duplicate ids contribute multiply to aggregates
                # (g.V(1,1).count() == 2): aggregate in memory instead
                fetch = pushdown.copy()
                fetch.aggregate = None
                yield _memory_aggregate_final(list(self._vertices(ids, fetch)), pushdown)
                return
            yield self._aggregate_over_tables(candidates, ids, pushdown, kind="vertex")
            return
        if ids is not None:
            # Gremlin semantics: g.V(1, 1) yields the vertex twice and
            # preserves request order; the SQL IN-list dedups, so fetch
            # unique ids and re-emit per request.  Every (table, batch)
            # group is planned before the first statement runs, so all
            # elimination events precede the SQL events.
            unique = list(dict.fromkeys(ids))
            plan = [
                (vtop, group)
                for vtop in candidates
                for group in self._vertex_predicate_groups(vtop, unique, pushdown)
                if group is not None
            ]
            fetched: dict[str, Any] = {}
            for vtop, group in plan:
                for vertex in self._run_vertex_select(vtop, group, pushdown):
                    fetched.setdefault(str(vertex.id), vertex)
            for requested in ids:
                vertex = fetched.get(str(requested))
                if vertex is not None:
                    yield vertex
            return
        # Scans stay lazy: a downstream limit()/next() that stops
        # pulling must not issue SQL against the remaining tables.
        for vtop in candidates:
            yield from self._query_vertex_table(vtop, ids, pushdown)

    def _candidate_vertex_tables(
        self, pushdown: Pushdown, record: bool = True
    ) -> tuple[list[VertexTopology], list[tuple[str, str]]]:
        """Surviving vertex tables plus ``(table, rule)`` eliminations.

        ``record=False`` computes without touching counters/traces —
        used by ``explain()`` for side-effect-free previews.
        """
        candidates = list(self.topology.vertex_tables)
        eliminated: list[tuple[str, str]] = []
        labels = _label_values(pushdown)
        if self.opts.use_label_values and labels is not None:
            survivors = []
            for v in candidates:
                if v.fixed_label is None or v.fixed_label in labels:
                    survivors.append(v)
                else:
                    eliminated.append((v.table_name, "label_values"))
            candidates = survivors
        if self.opts.use_property_names:
            survivors = self._eliminate_by_properties(candidates, pushdown)
            kept = {id(t) for t in survivors}
            eliminated.extend(
                (t.table_name, "property_names") for t in candidates if id(t) not in kept
            )
            candidates = survivors
        if record:
            self._note_eliminations(eliminated)
        return candidates, eliminated

    def _eliminate_by_properties(self, candidates: list, pushdown: Pushdown) -> list:
        required = {
            key.lower() for key, _p in pushdown.predicates if not key.startswith("~")
        }
        if pushdown.aggregate_key is not None:
            required.add(pushdown.aggregate_key.lower())
        survivors = [
            t for t in candidates if all(t.has_property(name) for name in required)
        ]
        if pushdown.projection:
            wanted = {p.lower() for p in pushdown.projection}
            # a table lacking *every* projected property can emit nothing
            survivors = [
                t for t in survivors if any(t.has_property(name) for name in wanted)
            ]
        return survivors

    def _query_vertex_table(
        self, vtop: VertexTopology, ids: Sequence[Any] | None, pushdown: Pushdown
    ) -> Iterator[OverlayVertex]:
        for predicates in self._vertex_predicate_groups(vtop, ids, pushdown):
            if predicates is None:
                continue
            yield from self._run_vertex_select(vtop, predicates, pushdown)

    def _run_vertex_select(
        self, vtop: VertexTopology, predicates: list[SqlPredicate], pushdown: Pushdown
    ) -> list[OverlayVertex]:
        """One SQL statement against one vertex table — the fan-out
        unit."""
        columns = vtop.required_columns(self._effective_projection(pushdown))
        self._note_table_query(vtop.table_name, "vertex")
        out: list[OverlayVertex] = []
        for row in self.dialect.select(vtop.table_name, columns, predicates):
            vertex = self._make_vertex(vtop, row, pushdown)
            if vertex is not None:
                out.append(vertex)
        return out

    def _vertex_predicate_groups(
        self, vtop: VertexTopology, ids: Sequence[Any] | None, pushdown: Pushdown
    ) -> Iterator[list[SqlPredicate] | None]:
        """One (or more) SQL predicate lists for this table.

        Multiple groups arise for composite ids, where each id becomes
        its own conjunctive lookup.  A ``None`` group means "skip".
        """
        base = self._sql_predicates(vtop, pushdown)
        if ids is None:
            yield base
            return
        strict = self.opts.use_prefixed_ids
        decoded: list[dict[str, Any]] = []
        for vertex_id in ids:
            values = vtop.id_template.decode(vertex_id, strict=strict)
            if values is None:
                continue
            coerced = self._coerce_values(vtop, values)
            if coerced is not None:
                decoded.append(coerced)
        if not decoded:
            self._note_eliminations([(vtop.table_name, "prefixed_ids")])
            return
        if len(vtop.id_template.columns) == 1:
            # one varying column (constants already verified by decode):
            # coalesce up to batch_size ids per probe (batch_size=1
            # degenerates to one `id = ?` statement per traverser)
            column = vtop.relation.canonical(vtop.id_template.columns[0])
            values = tuple(
                dict.fromkeys(d[vtop.id_template.columns[0]] for d in decoded)
            )
            for chunk in chunked(values, self.batch_size):
                if len(chunk) == 1:
                    yield [SqlPredicate(column, "=", (chunk[0],), batch=True)] + base
                else:
                    yield [SqlPredicate(column, "IN", tuple(chunk), batch=True)] + base
            return
        # multi-column composite id: conjunctive predicates per id (§6.3)
        for values_map in decoded:
            group = [
                SqlPredicate(vtop.relation.canonical(col), "=", (value,))
                for col, value in values_map.items()
            ]
            yield group + base

    def _coerce_values(self, top: Any, values: dict[str, Any]) -> dict[str, Any] | None:
        coerced: dict[str, Any] = {}
        for column, value in values.items():
            try:
                coerced[column] = top.relation.coerce(column, value)
            except Exception:
                return None  # value can't inhabit the column's type
        return coerced

    def _sql_predicates(self, top: Any, pushdown: Pushdown) -> list[SqlPredicate]:
        """Translate pushdown property/label predicates to SQL for one
        table; untranslatable ones are re-checked in memory anyway."""
        predicates: list[SqlPredicate] = []
        for key, p in pushdown.predicates:
            if key == "~label":
                if top.fixed_label is None and top.label.column:
                    converted = predicate_to_sql(top.relation.canonical(top.label.column), p)
                    if converted:
                        predicates.extend(converted)
                continue
            if key.startswith("~"):
                continue  # ~id handled via id groups; ~src_v/~dst_v by edges
            if not top.has_property(key):
                continue  # post-filter rejects rows from this table
            converted = predicate_to_sql(top.relation.canonical(key), p)
            if converted:
                predicates.extend(converted)
        return predicates

    def _make_vertex(
        self, vtop: VertexTopology, row: Mapping[str, Any], pushdown: Pushdown
    ) -> OverlayVertex | None:
        label = vtop.row_label(row)
        if not pushdown.matches_labels(label):
            return None
        properties = vtop.row_properties(row, self._effective_projection(pushdown))
        vertex_id = vtop.row_id(row)
        if not pushdown.matches_predicates(properties, label, vertex_id):
            return None
        return OverlayVertex(
            vertex_id,
            label,
            properties,
            provider=self,
            source_table=vtop.table_name,
            row=row,
        )

    @staticmethod
    def _effective_projection(pushdown: Pushdown) -> tuple[str, ...] | None:
        """Projection plus every property the predicates need to re-check."""
        if pushdown.projection is None:
            return None
        extra = [
            key for key, _p in pushdown.predicates if not key.startswith("~")
        ]
        if pushdown.aggregate_key:
            extra.append(pushdown.aggregate_key)
        return tuple(dict.fromkeys((*pushdown.projection, *extra)))

    # -- edges ------------------------------------------------------------------

    def _edges(self, ids: Sequence[Any] | None, pushdown: Pushdown) -> Iterator[Any]:
        candidates, _ = self._candidate_edge_tables(pushdown, edge_labels=None)
        if pushdown.aggregate is not None:
            if ids is not None and len({str(i) for i in ids}) != len(ids):
                fetch = pushdown.copy()
                fetch.aggregate = None
                yield _memory_aggregate_final(list(self._edges(ids, fetch)), pushdown)
                return
            yield self._aggregate_over_tables(candidates, ids, pushdown, kind="edge")
            return
        if ids is not None:
            unique = list(dict.fromkeys(ids))
            plan = [
                (etop, group)
                for etop in candidates
                for group in self._edge_id_groups(etop, unique, pushdown)
                if group is not None
            ]
            fetched: dict[str, Any] = {}
            for etop, group in plan:
                for edge in self._run_edge_select(etop, group, pushdown):
                    fetched.setdefault(str(edge.id), edge)
            for requested in ids:
                edge = fetched.get(str(requested))
                if edge is not None:
                    yield edge
            return
        for etop in candidates:
            yield from self._query_edge_table(etop, ids, pushdown)

    def _candidate_edge_tables(
        self,
        pushdown: Pushdown,
        edge_labels: tuple[str, ...] | None,
        record: bool = True,
    ) -> tuple[list[EdgeTopology], list[tuple[str, str]]]:
        candidates = list(self.topology.edge_tables)
        eliminated: list[tuple[str, str]] = []
        labels = _label_values(pushdown)
        if edge_labels is not None:
            labels = tuple(edge_labels) if labels is None else tuple(
                set(labels) & set(edge_labels)
            )
        if self.opts.use_label_values and labels is not None:
            survivors = []
            for e in candidates:
                if e.fixed_label is None or e.fixed_label in labels:
                    survivors.append(e)
                else:
                    eliminated.append((e.table_name, "label_values"))
            candidates = survivors
        if self.opts.use_property_names:
            survivors = self._eliminate_by_properties(candidates, pushdown)
            kept = {id(t) for t in survivors}
            eliminated.extend(
                (t.table_name, "property_names") for t in candidates if id(t) not in kept
            )
            candidates = survivors
        if record:
            self._note_eliminations(eliminated)
        return candidates, eliminated

    def _query_edge_table(
        self, etop: EdgeTopology, ids: Sequence[Any] | None, pushdown: Pushdown
    ) -> Iterator[OverlayEdge]:
        for predicates in self._edge_id_groups(etop, ids, pushdown):
            if predicates is None:
                continue
            yield from self._run_edge_select(etop, predicates, pushdown)

    def _run_edge_select(
        self, etop: EdgeTopology, predicates: list[SqlPredicate], pushdown: Pushdown
    ) -> list[OverlayEdge]:
        columns = etop.required_columns(self._effective_projection(pushdown))
        self._note_table_query(etop.table_name, "edge")
        out: list[OverlayEdge] = []
        for row in self.dialect.select(etop.table_name, columns, predicates):
            edge = self._make_edge(etop, row, pushdown)
            if edge is not None:
                out.append(edge)
        return out

    def _edge_id_groups(
        self, etop: EdgeTopology, ids: Sequence[Any] | None, pushdown: Pushdown
    ) -> Iterator[list[SqlPredicate] | None]:
        base = self._sql_predicates(etop, pushdown)
        base.extend(self._endpoint_predicates(etop, pushdown))
        if ids is None:
            yield base
            return
        strict_implicit = self.opts.use_implicit_edge_ids
        strict_prefix = self.opts.use_prefixed_ids
        matched_any = False
        for edge_id in ids:
            group: list[SqlPredicate] | None = None
            if etop.implicit_id is not None:
                decoded = etop.implicit_id.decode(edge_id, strict=strict_implicit)
                if decoded is None:
                    continue
                src_id, dst_id = decoded
                src_values = etop.src_template.decode(src_id, strict=strict_prefix)
                dst_values = etop.dst_template.decode(dst_id, strict=strict_prefix)
                if src_values is None or dst_values is None:
                    continue
                src_values = self._coerce_values(etop, src_values)
                dst_values = self._coerce_values(etop, dst_values)
                if src_values is None or dst_values is None:
                    continue
                group = [
                    SqlPredicate(etop.relation.canonical(col), "=", (value,))
                    for col, value in {**src_values, **dst_values}.items()
                ]
            elif etop.id_template is not None:
                values = etop.id_template.decode(edge_id, strict=strict_prefix)
                if values is None:
                    continue
                coerced = self._coerce_values(etop, values)
                if coerced is None:
                    continue
                group = [
                    SqlPredicate(etop.relation.canonical(col), "=", (value,))
                    for col, value in coerced.items()
                ]
            if group is not None:
                matched_any = True
                yield group + base
        if not matched_any:
            rule = "implicit_edge_ids" if etop.implicit_id is not None else "prefixed_ids"
            self._note_eliminations([(etop.table_name, rule)])

    def _endpoint_predicates(self, etop: EdgeTopology, pushdown: Pushdown) -> list[SqlPredicate]:
        """~src_v / ~dst_v pushdown predicates (from folded
        ``filter(inV().id() == x)`` patterns)."""
        predicates: list[SqlPredicate] = []
        for key, p in pushdown.predicates:
            if key not in ("~src_v", "~dst_v"):
                continue
            template = etop.src_template if key == "~src_v" else etop.dst_template
            targets = (
                list(p.value) if p.op == "within" else [p.value] if p.op == "eq" else None
            )
            if targets is None:
                continue  # verified in memory instead
            groups: list[dict[str, Any]] = []
            for target in targets:
                values = template.decode(target, strict=self.opts.use_prefixed_ids)
                if values is None:
                    continue
                coerced = self._coerce_values(etop, values)
                if coerced is not None:
                    groups.append(coerced)
            if not groups:
                # no target can live in this table: impossible predicate
                column = etop.relation.canonical(template.columns[0])
                predicates.append(SqlPredicate(column, "IS NULL"))
                continue
            if template.is_single_column:
                column = etop.relation.canonical(template.columns[0])
                values = tuple(g[template.columns[0]] for g in groups)
                op = "=" if len(values) == 1 else "IN"
                predicates.append(
                    SqlPredicate(column, op, values if op == "IN" else (values[0],))
                )
            elif len(groups) == 1:
                for col, value in groups[0].items():
                    predicates.append(
                        SqlPredicate(etop.relation.canonical(col), "=", (value,))
                    )
            # multiple composite targets: leave to in-memory verification
        return predicates

    def _make_edge(
        self, etop: EdgeTopology, row: Mapping[str, Any], pushdown: Pushdown
    ) -> OverlayEdge | None:
        label = etop.row_label(row)
        if not pushdown.matches_labels(label):
            return None
        properties = etop.row_properties(row, self._effective_projection(pushdown))
        edge_id = etop.row_id(row)
        if not self._edge_matches_predicates(etop, row, properties, label, edge_id, pushdown):
            return None
        return OverlayEdge(
            edge_id,
            label,
            out_v_id=etop.row_src(row),
            in_v_id=etop.row_dst(row),
            properties=properties,
            provider=self,
            source_table=etop.name,
            out_v_table=etop.src_v_table if self.opts.use_src_dst_tables else None,
            in_v_table=etop.dst_v_table if self.opts.use_src_dst_tables else None,
            row=row,
        )

    def _edge_matches_predicates(
        self,
        etop: EdgeTopology,
        row: Mapping[str, Any],
        properties: Mapping[str, Any],
        label: str,
        edge_id: Any,
        pushdown: Pushdown,
    ) -> bool:
        for key, p in pushdown.predicates:
            if key == "~src_v":
                if not p.test(etop.row_src(row)):
                    return False
            elif key == "~dst_v":
                if not p.test(etop.row_dst(row)):
                    return False
            elif key == "~label":
                if not p.test(label):
                    return False
            elif key == "~id":
                if not p.test(edge_id):
                    return False
            else:
                if not p.test(properties.get(key)):
                    return False
        return True

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
        directions = (
            (Direction.OUT, Direction.IN) if direction is Direction.BOTH else (direction,)
        )
        edge_pushdown = pushdown if return_type == "edge" else Pushdown(labels=None)
        candidates, _ = self._candidate_edge_tables(edge_pushdown, edge_labels)

        aggregate_edges = pushdown.aggregate is not None and return_type == "edge"
        result: dict[Any, list[Any]] = {}
        per_vertex_edges: dict[Any, list[tuple[OverlayEdge, Direction]]] = {
            v.id: [] for v in vertices
        }

        # Plan every (table, direction) pair first, so all src/dst
        # eliminations are noted before the first statement runs.
        plan: list[tuple[EdgeTopology, Direction, list[Vertex]]] = []
        for etop in candidates:
            for d in directions:
                matching = self._vertices_matching_endpoint(etop, vertices, d)
                if not matching:
                    self._note_eliminations([(etop.table_name, "src_dst_tables")])
                    continue
                plan.append((etop, d, matching))

        if aggregate_edges:
            aggregates = [
                self._aggregate_edges_for(etop, matching, d, edge_pushdown, edge_labels)
                for etop, d, matching in plan
            ]
            result[None] = [_combine_aggregates(pushdown.aggregate, aggregates)]
            return result

        for etop, d, matching in plan:
            for edge in self._fetch_edges_for(etop, matching, d, edge_pushdown, edge_labels):
                key = edge.out_v_id if d is Direction.OUT else edge.in_v_id
                if key in per_vertex_edges:
                    per_vertex_edges[key].append((edge, d))

        if return_type == "edge":
            for vertex_id, pairs in per_vertex_edges.items():
                result[vertex_id] = [edge for edge, _d in pairs]
            return result

        # return_type == 'vertex': resolve the other endpoints
        return self._resolve_adjacent_vertices(per_vertex_edges, pushdown)

    def _vertices_matching_endpoint(
        self, etop: EdgeTopology, vertices: Sequence[Vertex], d: Direction
    ) -> list[Vertex]:
        """src/dst vertex-table narrowing (§6.3): which of the input
        vertices can possibly have edges in this table+direction?"""
        declared = etop.src_v_table if d is Direction.OUT else etop.dst_v_table
        template = etop.src_template if d is Direction.OUT else etop.dst_template
        matching: list[Vertex] = []
        for vertex in vertices:
            if (
                self.opts.use_src_dst_tables
                and declared is not None
                and vertex.source_table is not None
                and vertex.source_table.lower() != declared.lower()
            ):
                continue
            if template.decode(vertex.id, strict=self.opts.use_prefixed_ids) is None:
                continue
            matching.append(vertex)
        return matching

    def _endpoint_id_predicates(
        self, etop: EdgeTopology, vertices: Sequence[Vertex], d: Direction
    ) -> Iterator[list[SqlPredicate]]:
        template = etop.src_template if d is Direction.OUT else etop.dst_template
        strict = self.opts.use_prefixed_ids
        if len(template.columns) == 1:
            column = etop.relation.canonical(template.columns[0])
            values: list[Any] = []
            for vertex in vertices:
                decoded = template.decode(vertex.id, strict=strict)
                if decoded is None:
                    continue
                coerced = self._coerce_values(etop, decoded)
                if coerced is not None:
                    values.append(coerced[template.columns[0]])
            values = list(dict.fromkeys(values))
            if not values:
                return
            for chunk in chunked(values, self.batch_size):
                if len(chunk) == 1:
                    yield [SqlPredicate(column, "=", (chunk[0],), batch=True)]
                else:
                    yield [SqlPredicate(column, "IN", tuple(chunk), batch=True)]
            return
        seen: set[tuple[Any, ...]] = set()
        for vertex in vertices:
            decoded = template.decode(vertex.id, strict=strict)
            if decoded is None:
                continue
            coerced = self._coerce_values(etop, decoded)
            if coerced is None:
                continue
            # duplicate traversers at one composite-id vertex must not
            # re-probe (and re-emit) the same edges — mirror the
            # dict.fromkeys dedup of the single-column path above
            key = tuple(sorted(coerced.items()))
            if key in seen:
                continue
            seen.add(key)
            yield [
                SqlPredicate(etop.relation.canonical(col), "=", (value,))
                for col, value in coerced.items()
            ]

    def _edge_label_sql(
        self, etop: EdgeTopology, edge_labels: tuple[str, ...] | None
    ) -> list[SqlPredicate]:
        if edge_labels is None or etop.fixed_label is not None:
            return []
        if not etop.label.column:
            return []
        column = etop.relation.canonical(etop.label.column)
        if len(edge_labels) == 1:
            return [SqlPredicate(column, "=", (edge_labels[0],))]
        return [SqlPredicate(column, "IN", tuple(edge_labels))]

    def _fetch_edges_for(
        self,
        etop: EdgeTopology,
        vertices: Sequence[Vertex],
        d: Direction,
        pushdown: Pushdown,
        edge_labels: tuple[str, ...] | None,
    ) -> Iterator[OverlayEdge]:
        """One SELECT against the edge table per id batch, yielding the
        matching edges."""
        base = self._sql_predicates(etop, pushdown)
        base.extend(self._endpoint_predicates(etop, pushdown))
        base.extend(self._edge_label_sql(etop, edge_labels))
        label_filter = Pushdown(labels=edge_labels) if edge_labels else None
        columns = etop.required_columns(self._effective_projection(pushdown))
        for id_group in self._endpoint_id_predicates(etop, vertices, d):
            self._note_table_query(etop.table_name, "edge")
            for row in self.dialect.select(etop.table_name, columns, id_group + base):
                edge = self._make_edge(etop, row, pushdown)
                if edge is None:
                    continue
                if label_filter is not None and not label_filter.matches_labels(edge.label):
                    continue
                yield edge

    def _aggregate_edges_for(
        self,
        etop: EdgeTopology,
        vertices: Sequence[Vertex],
        d: Direction,
        pushdown: Pushdown,
        edge_labels: tuple[str, ...] | None,
    ) -> Any:
        # Duplicate endpoint ids (g.V(1, 1).outE().count()) must each
        # contribute to the aggregate, but the SQL IN-list dedups them —
        # fetch and weight each edge by its endpoint's multiplicity.
        multiplicity: dict[str, int] = {}
        for vertex in vertices:
            key = str(vertex.id)
            multiplicity[key] = multiplicity.get(key, 0) + 1
        if any(count > 1 for count in multiplicity.values()):
            fetch_pushdown = pushdown.copy()
            fetch_pushdown.aggregate = None
            unique = list({str(v.id): v for v in vertices}.values())
            weighted: list[OverlayEdge] = []
            for edge in self._fetch_edges_for(etop, unique, d, fetch_pushdown, edge_labels):
                endpoint = str(edge.out_v_id if d is Direction.OUT else edge.in_v_id)
                weighted.extend([edge] * multiplicity.get(endpoint, 1))
            return _memory_aggregate(weighted, pushdown)
        # Aggregates push down only when everything else does too;
        # otherwise fall back to fetching and aggregating in memory.
        if not self._fully_pushable(etop, pushdown, edge_labels):
            fetch_pushdown = pushdown.copy()
            fetch_pushdown.aggregate = None
            edges = list(self._fetch_edges_for(etop, vertices, d, fetch_pushdown, edge_labels))
            return _memory_aggregate(edges, pushdown)
        base = self._sql_predicates(etop, pushdown)
        base.extend(self._endpoint_predicates(etop, pushdown))
        base.extend(self._edge_label_sql(etop, edge_labels))
        partials: list[Any] = []
        for id_group in self._endpoint_id_predicates(etop, vertices, d):
            self._note_table_query(etop.table_name, "edge")
            partials.append(
                self._table_aggregate(etop.table_name, pushdown, id_group + base)
            )
        return _combine_aggregates(pushdown.aggregate, partials)

    def _fully_pushable(
        self, etop: EdgeTopology, pushdown: Pushdown, edge_labels: tuple[str, ...] | None
    ) -> bool:
        if edge_labels is not None and etop.fixed_label is None and not etop.label.column:
            return False
        if edge_labels is not None and etop.fixed_label is not None:
            if etop.fixed_label not in edge_labels:
                return False
        for key, p in pushdown.predicates:
            if key in ("~src_v", "~dst_v"):
                template = etop.src_template if key == "~src_v" else etop.dst_template
                if p.op not in ("eq", "within"):
                    return False
                targets = list(p.value) if p.op == "within" else [p.value]
                if not template.is_single_column and len(targets) > 1:
                    return False
                continue
            if key == "~label":
                if etop.fixed_label is None and not etop.label.column:
                    return False
                continue
            if key == "~id":
                return False
            if not etop.has_property(key):
                continue  # table can't match; COUNT(*) with impossible pred is fine
            column = etop.relation.canonical(key)
            if predicate_to_sql(column, p) is None:
                return False
        if pushdown.aggregate_key is not None and not etop.has_property(pushdown.aggregate_key):
            return False
        return True

    def _table_aggregate(
        self, table: str, pushdown: Pushdown, predicates: list[SqlPredicate]
    ) -> Any:
        kind = pushdown.aggregate
        key = pushdown.aggregate_key
        if kind == "count":
            return self.dialect.aggregate_value(table, "count", None, predicates) or 0
        if kind == "mean":
            return self.dialect.sum_and_count(table, key or "", predicates)
        return self.dialect.aggregate_value(table, kind or "count", key, predicates)

    def _resolve_adjacent_vertices(
        self,
        per_vertex_edges: dict[Any, list[tuple[OverlayEdge, Direction]]],
        pushdown: Pushdown,
    ) -> dict[Any, list[Any]]:
        needs_resolution = bool(
            pushdown.predicates or pushdown.labels or pushdown.projection or pushdown.aggregate
        )
        targets: dict[Any, list[tuple[Any, str | None]]] = {}
        all_ids: list[Any] = []
        for vertex_id, pairs in per_vertex_edges.items():
            entry: list[tuple[Any, str | None]] = []
            for edge, d in pairs:
                if d is Direction.OUT:
                    other_id, hint = edge.in_v_id, edge.in_v_table
                else:
                    other_id, hint = edge.out_v_id, edge.out_v_table
                entry.append((other_id, hint))
                all_ids.append(other_id)
            targets[vertex_id] = entry

        result: dict[Any, list[Any]] = {}
        if not needs_resolution:
            self.registry.counter(M.LAZY_VERTICES).increment(len(all_ids))
            for vertex_id, entry in targets.items():
                result[vertex_id] = [
                    Vertex(other_id, provider=self, source_table=hint)
                    for other_id, hint in entry
                ]
            if self.trace.enabled:
                for entry in targets.values():
                    for _other_id, hint in entry:
                        self.trace.emit(tracing.VERTEX_LAZY, table=hint)
            return result

        resolved: dict[Any, Vertex] = {}
        unique_ids = list(dict.fromkeys(all_ids))
        if unique_ids:
            for vertex in self._vertices(unique_ids, pushdown):
                resolved[vertex.id] = vertex
        for vertex_id, entry in targets.items():
            result[vertex_id] = [
                resolved[other_id] for other_id, _hint in entry if other_id in resolved
            ]
        if pushdown.aggregate is not None:
            flattened = [v for vs in result.values() for v in vs]
            return {None: [_memory_aggregate_final(flattened, pushdown)]}
        return result

    # ------------------------------------------------------------------
    # Edge endpoints: outV()/inV()
    # ------------------------------------------------------------------

    def edge_vertex(self, edge: Edge, direction: Direction) -> Iterator[Vertex]:
        if direction is Direction.BOTH:
            yield from self.edge_vertex(edge, Direction.OUT)
            yield from self.edge_vertex(edge, Direction.IN)
            return
        endpoint = "src" if direction is Direction.OUT else "dst"
        vertex_id = edge.endpoint_id(direction)
        # §6.3: vertex table is also the edge table -> build from the row
        if (
            self.opts.use_vertex_from_edge
            and isinstance(edge, OverlayEdge)
            and edge.row is not None
            and edge.source_table is not None
        ):
            try:
                etop = next(
                    e
                    for e in self.topology.edge_tables
                    if e.name.lower() == edge.source_table.lower()
                )
            except StopIteration:
                etop = None
            if etop is not None:
                vtop = self.topology.vertex_subsumed_by_edge(etop, endpoint)
                if vtop is not None and any(
                    c.lower() not in edge.row for c in vtop.required_columns()
                ):
                    # the edge was fetched with a projection that dropped
                    # some vertex columns — the row can't build the vertex
                    vtop = None
                if vtop is not None:
                    self.registry.counter(M.VERTICES_FROM_EDGES).increment()
                    self.trace.emit(
                        tracing.VERTEX_FROM_EDGE, table=vtop.table_name
                    )
                    yield OverlayVertex(
                        vtop.row_id(edge.row),
                        vtop.row_label(edge.row),
                        vtop.row_properties(edge.row),
                        provider=self,
                        source_table=vtop.table_name,
                        row=edge.row,
                    )
                    return
        hint = edge.out_v_table if direction is Direction.OUT else edge.in_v_table
        self.registry.counter(M.LAZY_VERTICES).increment()
        self.trace.emit(tracing.VERTEX_LAZY, table=hint)
        yield Vertex(vertex_id, provider=self, source_table=hint)

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
        return OverlayVertex(
            vtop.row_id(row),
            label,
            vtop.row_properties(row),
            provider=self,
            source_table=vtop.table_name,
            row=row,
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
            from ..graph.errors import TraversalError

            raise TraversalError(
                f"edge endpoints {src_id!r} -> {dst_id!r} do not match table "
                f"{etop.table_name!r}'s src/dst id shapes"
            )
        merged = dict(properties)
        for column, value in {**src_values, **dst_values}.items():
            merged[column] = etop.relation.coerce(column, value)
        columns, values = self._row_from_properties(etop, merged, label)
        self.dialect.insert(etop.table_name, columns, values)
        row = {c.lower(): v for c, v in zip(columns, values)}
        return self._make_edge(etop, row, Pushdown())

    def _unique_table_for_label(self, tables: list, label: str, kind: str):
        matches = [t for t in tables if t.fixed_label == label]
        if len(matches) != 1:
            from ..graph.errors import TraversalError

            raise TraversalError(
                f"cannot insert: label {label!r} maps to {len(matches)} {kind} "
                f"tables (need exactly one fixed-label table)"
            )
        top = matches[0]
        if top.relation.is_view:
            from ..graph.errors import TraversalError

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
            from ..graph.errors import TraversalError

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
        loaded: dict[Any, OverlayVertex] = {}
        if hint is not None:
            try:
                vtop = self.topology.vertex_table(hint)
            except Exception:
                vtop = None
            if vtop is not None:
                for vertex in self._query_vertex_table(vtop, ids, empty):
                    loaded[vertex.id] = vertex
        if not loaded:
            for vertex in self._vertices(ids, empty):
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
                return OverlayVertex(
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
        candidates: list[VertexTopology]
        if table_hint is not None and self.opts.use_src_dst_tables:
            try:
                candidates = [self.topology.vertex_table(table_hint)]
            except Exception:
                candidates = list(self.topology.vertex_tables)
        else:
            candidates = list(self.topology.vertex_tables)
            if self.opts.use_prefixed_ids:
                pinned = self.topology.vertex_table_for_prefix(vertex_id)
                if pinned is not None:
                    candidates = [pinned]
        empty = Pushdown()
        for vtop in candidates:
            for vertex in self._query_vertex_table(vtop, [vertex_id], empty):
                return vertex
        return None

    def load_edge(self, edge_id: Any) -> Edge | None:
        empty = Pushdown()
        for edge in self._edges([edge_id], empty):
            return edge
        return None

    # ------------------------------------------------------------------
    # Aggregates over whole tables (for g.V().count() etc.)
    # ------------------------------------------------------------------

    def _aggregate_over_tables(
        self, candidates: list, ids: Sequence[Any] | None, pushdown: Pushdown, kind: str
    ) -> Any:
        # (table, predicates) pairs, planned before any statement runs;
        # ``None`` predicates mean "fetch and aggregate in memory".
        plan: list[tuple[Any, list[SqlPredicate] | None]] = []
        for top in candidates:
            if not self._table_fully_pushable(top, pushdown):
                plan.append((top, None))
                continue
            groups = (
                self._vertex_predicate_groups(top, ids, pushdown)
                if kind == "vertex"
                else self._edge_id_groups(top, ids, pushdown)
            )
            plan.extend((top, group) for group in groups if group is not None)
        partials: list[Any] = []
        for top, predicates in plan:
            if predicates is None:
                fetch_pushdown = pushdown.copy()
                fetch_pushdown.aggregate = None
                query = self._query_vertex_table if kind == "vertex" else self._query_edge_table
                elements = list(query(top, ids, fetch_pushdown))
                partials.append(_memory_aggregate(elements, pushdown))
            else:
                self._note_table_query(top.table_name, kind)
                partials.append(self._table_aggregate(top.table_name, pushdown, predicates))
        return _combine_aggregates(pushdown.aggregate, partials)

    def _table_fully_pushable(self, top: Any, pushdown: Pushdown) -> bool:
        for key, p in pushdown.predicates:
            if key == "~label":
                if top.fixed_label is not None:
                    if not p.test(top.fixed_label):
                        # impossible: contributes zero, still pushable
                        continue
                    continue
                if not top.label.column:
                    return False
                continue
            if key in ("~id", "~src_v", "~dst_v"):
                if key == "~id":
                    continue  # id groups encode it exactly
                return False
            if not top.has_property(key):
                continue
            if predicate_to_sql(top.relation.canonical(key), p) is None:
                return False
        if pushdown.aggregate_key is not None and not top.has_property(pushdown.aggregate_key):
            return False
        # label predicates that exclude this fixed-label table entirely
        labels = _label_values(pushdown)
        if labels is not None and top.fixed_label is not None and top.fixed_label not in labels:
            return False
        return True


def _label_values(pushdown: Pushdown) -> tuple[str, ...] | None:
    """Constant label values implied by the pushdown, if any."""
    values: set[str] | None = None
    if pushdown.labels is not None:
        values = set(pushdown.labels)
    for key, p in pushdown.predicates:
        if key != "~label":
            continue
        if p.op == "eq":
            candidate = {p.value}
        elif p.op == "within":
            candidate = set(p.value)
        else:
            continue
        values = candidate if values is None else values & candidate
    return tuple(sorted(values)) if values is not None else None


def _memory_aggregate_final(elements: list, pushdown: Pushdown) -> Any:
    """Terminal in-memory aggregate (mean folded to its final value)."""
    return _combine_aggregates(pushdown.aggregate, [_memory_aggregate(elements, pushdown)])


def _memory_aggregate(elements: list, pushdown: Pushdown) -> Any:
    kind = pushdown.aggregate
    if kind == "count":
        return len(elements)
    key = pushdown.aggregate_key
    values = [e.value(key) for e in elements if key and e.has_property(key)]
    if kind == "mean":
        return (float(sum(values)), len(values))
    if not values:
        return None
    if kind == "sum":
        return sum(values)
    if kind == "min":
        return min(values)
    if kind == "max":
        return max(values)
    return None


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
    values = [p for p in partials if p is not None]
    if not values:
        return None
    if kind == "sum":
        return sum(values)
    if kind == "min":
        return min(values)
    if kind == "max":
        return max(values)
    return None
