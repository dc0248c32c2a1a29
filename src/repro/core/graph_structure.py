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

import itertools
import operator
import os
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Mapping, Sequence

from ..cache.graph_cache import NEGATIVE
from ..graph.errors import TraversalError
from ..graph.model import Direction, Edge, GraphProvider, Pushdown, Vertex
from ..obs import metrics as M
from ..obs import tracing
from ..obs.metrics import MetricsRegistry
from ..obs.tracing import TraceRecorder
from .ids import IdTemplate
from .sql_dialect import SqlDialect, SqlPredicate, predicate_to_sql
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


class OverlayEdge(Edge):
    __slots__ = ("row", "etop")

    def __init__(self, *args: Any, row: Mapping[str, Any], etop: EdgeTopology, **kwargs: Any):
        super().__init__(*args, **kwargs)
        self.row = row
        self.etop = etop


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
        # IN (...) probe per table.  The step layer reads it too, to size
        # its traverser batches so the two levels agree (graph/steps.py).
        self.batch_size = batch_size

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
    # Planning: which statements a step issues.  Pure — nothing here
    # counts, traces or runs SQL; callers record the eliminations once,
    # before their first statement, and explain() renders the same plan.
    # ------------------------------------------------------------------

    def _candidate_tables(
        self,
        kind: str,
        pushdown: Pushdown,
        edge_labels: tuple[str, ...] | None = None,
        record: bool = True,
    ) -> tuple[list[Any], list[tuple[str, str]]]:
        """Surviving ``kind`` tables plus ``(table, rule)`` eliminations
        by label value and property name (§6.3).  ``edge_labels`` are the
        labels of an ``out('l')``-style step."""
        tables = self.topology.vertex_tables if kind == "vertex" else self.topology.edge_tables
        candidates = list(tables)
        eliminated: list[tuple[str, str]] = []
        labels = _label_values(pushdown)
        if edge_labels is not None:
            labels = tuple(edge_labels) if labels is None else tuple(
                set(labels) & set(edge_labels)
            )
        if self.opts.use_label_values and labels is not None:
            survivors = []
            for top in candidates:
                if top.fixed_label is None or top.fixed_label in labels:
                    survivors.append(top)
                else:
                    eliminated.append((top.table_name, "label_values"))
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

    def _plan(
        self, kind: str, ids: Sequence[Any] | None, pushdown: Pushdown
    ) -> tuple[list[tuple[str, str]], list[tuple[Any, list[SqlPredicate], bool]]]:
        """``g.V(ids)`` / ``g.E(ids)``: eliminations plus the
        ``(table, predicates, aggregated)`` statements in run order —
        candidate tables in topology order × id groups.  ``aggregated``
        statements compute the step's aggregate in SQL; the others
        fetch rows."""
        candidates, eliminated = self._candidate_tables(kind, pushdown, record=False)
        if pushdown.aggregate is not None and _has_repeats(ids):
            # g.V(1, 1).count() == 2, but the IN list dedups: the rows are
            # fetched and aggregated in memory instead
            fetch_eliminated, plan = self._plan(kind, ids, _without_aggregate(pushdown))
            return eliminated + fetch_eliminated, plan
        plan: list[tuple[Any, list[SqlPredicate], bool]] = []
        for top in candidates:
            table_eliminated, groups = self._table_plan(kind, top, ids, pushdown)
            eliminated += table_eliminated
            # an aggregate pushes down only when everything else does too
            aggregated = pushdown.aggregate is not None and self._table_fully_pushable(
                top, pushdown
            )
            plan.extend((top, group, aggregated) for group in groups)
        return eliminated, plan

    def _table_plan(
        self, kind: str, top: Any, ids: Sequence[Any] | None, pushdown: Pushdown
    ) -> tuple[list[tuple[str, str]], list[list[SqlPredicate]]]:
        """One table's predicate groups: the scan, or one group per id
        probe.  No id fitting the table eliminates it."""
        base = self._base_predicates(kind, top, pushdown)
        if ids is None:
            return [], [base]
        if kind == "vertex":
            template = top.id_template
            decoded = [d for i in ids if (d := self._decode(top, template, i)) is not None]
            column, rule = template.only_column, "prefixed_ids"
        else:
            decoded = [d for i in ids if (d := self._decode_edge_id(top, i)) is not None]
            # edge ids are never batched: one conjunctive lookup per id
            column = None
            rule = "prefixed_ids" if top.implicit_id is None else "implicit_edge_ids"
        groups = self._id_groups(top, decoded, column)
        if not groups:
            return [(top.table_name, rule)], []
        return [], [group + base for group in groups]

    def _adjacent_plan(
        self,
        vertices: Sequence[Vertex] | None,
        direction: Direction,
        edge_labels: tuple[str, ...] | None,
        pushdown: Pushdown,
        scans: bool = False,
    ) -> tuple[list[tuple[str, str]], list[tuple[Any, list, list, bool]]]:
        """``adjacent()`` for one vertex batch: eliminations plus ``(edge
        table, sides, predicate groups, aggregated)`` in run order.  A
        side is ``(direction, matching vertices, keep)``; a probe entry
        has one side with ``keep=None``.  With ``scans`` (the neighbour
        path, :meth:`_neighbours`) an entry may scan instead
        (:meth:`_scan_filter`): it keeps rows whose near endpoint value
        is in ``keep``, and under BOTH serves both sides from one
        statement, walked OUT then IN.  The edge and aggregate paths
        keep probes: a scan would build an edge per table row, and an
        aggregate would no longer push down.

        ``vertices=None`` plans for a batch known only at run time
        (``explain()`` of ``out()``): nothing is narrowed and the
        endpoint probe is a placeholder."""
        directions = (
            (Direction.OUT, Direction.IN) if direction is Direction.BOTH else (direction,)
        )
        candidates, eliminated = self._candidate_tables(
            "edge", pushdown, edge_labels, record=False
        )
        plan: list[tuple[Any, list, list, bool]] = []
        for etop in candidates:
            base = self._base_predicates("edge", etop, pushdown, edge_labels)
            pushable = pushdown.aggregate is not None and self._fully_pushable(
                etop, pushdown, edge_labels
            )
            scan_sides: list | None = None
            for d in directions:
                template = etop.src_template if d is Direction.OUT else etop.dst_template
                if vertices is None:
                    column = etop.relation.canonical(template.columns[0])
                    probe = SqlPredicate(column, "IN", ("<input vertex ids>",))
                    plan.append((etop, [(d, None, None)], [[probe] + base], pushable))
                    continue
                matching, decoded = self._vertices_matching_endpoint(etop, vertices, d)
                if not matching:
                    eliminated.append((etop.table_name, "src_dst_tables"))
                    continue
                keep = self._scan_filter(etop, template.only_column, decoded) if scans else None
                if keep is not None:
                    if scan_sides is None:  # under BOTH, IN joins OUT's scan
                        scan_sides = []
                        plan.append((etop, scan_sides, [base], False))
                    scan_sides.append((d, matching, keep))
                    continue
                groups = self._id_groups(etop, decoded, template.only_column)
                # duplicate endpoints each count toward an aggregate, but
                # the IN list dedups them: fetch and weight instead
                aggregated = pushable and len({str(v.id) for v in matching}) == len(matching)
                plan.append((etop, [(d, matching, None)], [g + base for g in groups], aggregated))
        return eliminated, plan

    def _scan_filter(
        self, etop: EdgeTopology, column: str | None, decoded: list[dict[str, Any]]
    ) -> set[Any] | None:
        """Scan or probe (DESIGN.md §9): the ``column`` values a scan of
        ``etop`` keeps, or ``None`` to probe.  A scan replaces two or more
        probes that would each scan the table anyway: a single-column
        endpoint of a base table that no index in the live catalog
        covers, alone or beside other columns."""
        if column is None or len(decoded) <= self.batch_size:
            return None
        catalog = self.dialect.connection.database.catalog
        if not catalog.has_table(etop.table_name):
            return None  # a view: probes may reach its base tables' indexes
        indexes = catalog.get_table(etop.table_name).storage.indexes.values()
        if any(column.lower() in map(str.lower, index.columns) for index in indexes):
            return None
        keep = {values[column] for values in decoded}
        return keep if len(keep) > self.batch_size else None

    def _vertices_matching_endpoint(
        self, etop: EdgeTopology, vertices: Sequence[Vertex], d: Direction
    ) -> tuple[list[Vertex], list[dict[str, Any]]]:
        """src/dst vertex-table narrowing (§6.3): which of the input
        vertices can possibly have edges in this table+direction, and
        the decoded endpoint values of those whose id also coerces to
        the column types."""
        declared = etop.src_v_table if d is Direction.OUT else etop.dst_v_table
        template = etop.src_template if d is Direction.OUT else etop.dst_template
        narrow = self.opts.use_src_dst_tables and declared is not None
        decode, strict = template.decode, self.opts.use_prefixed_ids
        # _decode's coercion, with each column's coercer looked up once
        # per batch rather than once per vertex
        coercers = [(c, etop.relation.coercer(c)) for c in template.columns]
        matching: list[Vertex] = []
        decoded: list[dict[str, Any]] = []
        for vertex in vertices:
            if (
                narrow
                and vertex.source_table is not None
                and vertex.source_table.lower() != declared.lower()
            ):
                continue
            values = decode(vertex.id, strict)
            if values is None:
                continue
            matching.append(vertex)
            try:
                for column, coerce in coercers:
                    values[column] = coerce(values[column])
            except Exception:
                continue
            decoded.append(values)
        return matching, decoded

    # -- ids -----------------------------------------------------------------

    def _decode(self, top: Any, template: Any, value: Any) -> dict[str, Any] | None:
        """``value``'s column values under ``template``, coerced to
        ``top``'s column types; ``None`` when it cannot be an id there
        (wrong shape or prefix, or a value the column type rejects)."""
        values = template.decode(value, strict=self.opts.use_prefixed_ids)
        if values is None:
            return None
        coerce = top.relation.coerce
        try:
            for column, v in values.items():
                values[column] = coerce(column, v)
        except Exception:
            return None
        return values

    def _decode_edge_id(self, etop: EdgeTopology, edge_id: Any) -> dict[str, Any] | None:
        if etop.implicit_id is None:
            return self._decode(etop, etop.id_template, edge_id)
        ends = etop.implicit_id.decode(edge_id, strict=self.opts.use_implicit_edge_ids)
        if ends is None:
            return None
        src = self._decode(etop, etop.src_template, ends[0])
        dst = self._decode(etop, etop.dst_template, ends[1])
        if src is None or dst is None:
            return None
        return {**src, **dst}

    def _id_groups(
        self, top: Any, decoded: list[dict[str, Any]], column: str | None
    ) -> list[list[SqlPredicate]]:
        """Id conjuncts for decoded ids.  With one varying ``column``, its
        distinct values coalesce into ``=``/``IN`` probes of at most
        ``batch_size`` (1 degenerates to one ``=`` per traverser);
        otherwise each distinct id is one conjunctive lookup (§6.3)."""
        if column is not None:
            values = list(dict.fromkeys([d[column] for d in decoded]))
            if not values:
                return []
            canonical = top.relation.canonical(column)
            return [
                [SqlPredicate(canonical, "IN" if len(chunk) > 1 else "=", tuple(chunk), batch=True)]
                for chunk in chunked(values, self.batch_size)
            ]
        distinct = {tuple(d.items()): d for d in decoded}
        return [
            [SqlPredicate(top.relation.canonical(col), "=", (value,)) for col, value in d.items()]
            for d in distinct.values()
        ]

    # -- pushdown predicates -------------------------------------------------

    def _base_predicates(
        self,
        kind: str,
        top: Any,
        pushdown: Pushdown,
        edge_labels: tuple[str, ...] | None = None,
    ) -> list[SqlPredicate]:
        """Every statement's non-id conjuncts for one table: pushed-down
        property/label predicates and, for edges, endpoint and step-label
        predicates.  Untranslatable ones are re-checked in memory."""
        predicates: list[SqlPredicate] = []
        for key, p in pushdown.predicates:
            if key == "~label":
                if top.fixed_label is None and top.label.column:
                    converted = predicate_to_sql(top.relation.canonical(top.label.column), p)
                    if converted:
                        predicates.extend(converted)
                continue
            if key.startswith("~"):
                continue  # ~id handled via id groups; ~src_v/~dst_v below
            if not top.has_property(key):
                continue  # post-filter rejects rows from this table
            converted = predicate_to_sql(top.relation.canonical(key), p)
            if converted:
                predicates.extend(converted)
        if kind == "edge":
            predicates.extend(self._endpoint_predicates(top, pushdown))
            predicates.extend(self._edge_label_sql(top, edge_labels))
        return predicates

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
            groups = [
                values
                for target in targets
                if (values := self._decode(etop, template, target)) is not None
            ]
            column = etop.relation.canonical(template.columns[0])
            if not groups:
                # no target can live in this table: impossible predicate
                predicates.append(SqlPredicate(column, "IS NULL"))
            elif template.is_single_column:
                values = tuple(g[template.columns[0]] for g in groups)
                op = "=" if len(values) == 1 else "IN"
                predicates.append(SqlPredicate(column, op, values))
            elif len(groups) == 1:
                for col, value in groups[0].items():
                    predicates.append(
                        SqlPredicate(etop.relation.canonical(col), "=", (value,))
                    )
            # multiple composite targets: leave to in-memory verification
        return predicates

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

    def _table_fully_pushable(self, top: Any, pushdown: Pushdown) -> bool:
        for key, p in pushdown.predicates:
            if key == "~label":
                # a fixed label that fails the predicate contributes zero
                if top.fixed_label is None and not top.label.column:
                    return False
                continue
            if key == "~id":
                continue  # id groups encode it exactly
            if key in ("~src_v", "~dst_v"):
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

    # ------------------------------------------------------------------
    # Running a plan
    # ------------------------------------------------------------------

    def _run_select(
        self, kind: str, top: Any, predicates: list[SqlPredicate], pushdown: Pushdown
    ) -> list[Any]:
        """One SQL statement against one table, rows built into elements."""
        columns = top.required_columns(self._effective_projection(pushdown))
        self._note_table_query(top.table_name, kind)
        make = self._make_vertex if kind == "vertex" else self._make_edge
        out: list[Any] = []
        keys, rows = self.dialect.select(top.table_name, columns, predicates)
        for values in rows:
            element = make(top, dict(zip(keys, values)), pushdown)
            if element is not None:
                out.append(element)
        return out

    def _query_table(
        self, kind: str, top: Any, ids: Sequence[Any] | None, pushdown: Pushdown
    ) -> Iterator[Any]:
        """One table's elements, statement by statement (lazy)."""
        eliminated, groups = self._table_plan(kind, top, ids, pushdown)
        self._note_eliminations(eliminated)
        for predicates in groups:
            yield from self._run_select(kind, top, predicates, pushdown)

    def _table_aggregate(
        self, table: str, pushdown: Pushdown, predicates: list[SqlPredicate]
    ) -> Any:
        kind, column = aggregate_spec(pushdown)
        if kind == "sum_count":
            return self.dialect.sum_and_count(table, column or "", predicates)
        value = self.dialect.aggregate_value(table, kind, column, predicates)
        return (value or 0) if kind == "count" else value

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

    def _make_vertex(
        self, vtop: VertexTopology, row: Mapping[str, Any], pushdown: Pushdown
    ) -> Vertex | None:
        label = vtop.row_label(row)
        if not pushdown.matches_labels(label):
            return None
        properties = vtop.row_properties(row, self._effective_projection(pushdown))
        vertex_id = vtop.row_id(row)
        if not pushdown.matches_predicates(properties, label, vertex_id):
            return None
        return Vertex(vertex_id, label, properties, provider=self, source_table=vtop.table_name)

    def _make_edge(
        self, etop: EdgeTopology, row: Mapping[str, Any], pushdown: Pushdown
    ) -> OverlayEdge | None:
        if None in etop.endpoint_values(row):
            return None  # a NULL endpoint column: no edge
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
            etop=etop,
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
    # GSA entry point: g.V(ids) / g.E(ids)
    # ------------------------------------------------------------------

    def graph_step(
        self, return_type: str, ids: Sequence[Any] | None, pushdown: Pushdown
    ) -> Iterator[Any]:
        yield from self._elements(return_type, ids, pushdown)

    def vertex_ids(self) -> list[Any]:
        """``g.V()``'s plan, eliminations and events reduced to ids: each
        SELECT fetches only the id columns, and no vertex is built."""
        eliminated, plan = self._plan("vertex", None, Pushdown())
        self._note_eliminations(eliminated)
        ids: list[Any] = []
        for vtop, predicates, _aggregated in plan:
            template = vtop.id_template
            columns = list(dict.fromkeys(vtop.relation.canonical(c) for c in template.columns))
            self._note_table_query(vtop.table_name, "vertex")
            keys, rows = self.dialect.select(vtop.table_name, columns, predicates)
            ids.extend(map(_id_reader(keys, template), rows))
        return ids

    def edge_endpoints(self, edge_labels: tuple[str, ...] | None) -> list[tuple[Any, Any]]:
        """``g.E()``'s plan, eliminations and events reduced to ``(out
        id, in id)`` pairs: each SELECT fetches only
        :func:`neighbour_columns`, rows are read as tuples, and no edge
        is built.  Rows are dropped as :meth:`_neighbours` drops them,
        NULL endpoints included."""
        eliminated, plan = self._plan("edge", None, Pushdown(labels=edge_labels))
        self._note_eliminations(eliminated)
        pairs: list[tuple[Any, Any]] = []
        for etop, predicates, _aggregated in plan:
            columns, label_column, _weight = neighbour_columns(etop, edge_labels)
            self._note_table_query(etop.table_name, "edge")
            keys, rows = self.dialect.select(etop.table_name, columns, predicates)
            if edge_labels and etop.fixed_label not in (None, *edge_labels):
                continue  # survives only with label elimination off
            ends = _endpoint_reader(keys, etop.src_template, etop.dst_template)
            if label_column:
                label_at = keys.index(label_column.lower())
                rows = [row for row in rows if str(row[label_at]) in edge_labels]
            pairs.extend(
                (near, far) for near, far in map(ends, rows) if near is not None and far is not None
            )
        return pairs

    def _elements(
        self, kind: str, ids: Sequence[Any] | None, pushdown: Pushdown
    ) -> Iterator[Any]:
        eliminated, plan = self._plan(kind, ids, pushdown)
        self._note_eliminations(eliminated)
        if pushdown.aggregate is not None:
            if _has_repeats(ids):
                elements = self._fetch_ids(kind, ids, plan, pushdown)
                yield _memory_aggregate_final(elements, pushdown)
            else:
                yield self._aggregate_over_tables(kind, plan, pushdown)
            return
        if ids is not None:
            yield from self._fetch_ids(kind, ids, plan, pushdown)
            return
        # Scans stay lazy: a downstream limit()/next() that stops
        # pulling must not issue SQL against the remaining tables.
        for top, predicates, _aggregated in plan:
            yield from self._run_select(kind, top, predicates, pushdown)

    def _fetch_ids(
        self, kind: str, ids: Sequence[Any], plan: list, pushdown: Pushdown
    ) -> list[Any]:
        """Gremlin semantics: g.V(1, 1) yields the vertex twice and
        preserves request order; the SQL IN-list dedups, so run every
        planned statement and re-emit per request."""
        fetched: dict[str, Any] = {}
        for top, predicates, _aggregated in plan:
            for element in self._run_select(kind, top, predicates, pushdown):
                fetched.setdefault(str(element.id), element)
        out: list[Any] = []
        for requested in ids:
            element = fetched.get(str(requested))
            if element is not None:
                out.append(element)
        return out

    def _aggregate_over_tables(self, kind: str, plan: list, pushdown: Pushdown) -> Any:
        """Per-table partials: SQL aggregates where they push down, else
        an in-memory aggregate over the table's fetched rows."""
        partials: list[Any] = []
        for top, entries in itertools.groupby(plan, key=lambda entry: entry[0]):
            entries = list(entries)
            if entries[0][2]:
                for _top, predicates, _aggregated in entries:
                    self._note_table_query(top.table_name, kind)
                    partials.append(self._table_aggregate(top.table_name, pushdown, predicates))
                continue
            elements = [
                element
                for _top, predicates, _aggregated in entries
                for element in self._run_select(kind, top, predicates, pushdown)
            ]
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
            targets = self._neighbours(vertices, direction, edge_labels, hinted=True)
            return self._resolve_adjacent_vertices(targets, pushdown)
        eliminated, plan = self._adjacent_plan(vertices, direction, edge_labels, pushdown)
        self._note_eliminations(eliminated)
        if pushdown.aggregate is not None:
            aggregates = [
                self._aggregate_edges_for(entry, pushdown, edge_labels) for entry in plan
            ]
            return {None: [_combine_aggregates(pushdown.aggregate, aggregates)]}
        result: dict[Any, list[Any]] = {v.id: [] for v in vertices}
        for etop, [(d, _matching, _keep)], groups, _aggregated in plan:
            for edge in self._fetch_edges_for(etop, groups, pushdown, edge_labels):
                bucket = result.get(edge.out_v_id if d is Direction.OUT else edge.in_v_id)
                if bucket is not None:
                    bucket.append(edge)
        return result

    def _fetch_edges_for(
        self,
        etop: EdgeTopology,
        groups: list[list[SqlPredicate]],
        pushdown: Pushdown,
        edge_labels: tuple[str, ...] | None,
    ) -> Iterator[OverlayEdge]:
        """One SELECT against the edge table per id batch, yielding the
        matching edges."""
        for predicates in groups:
            for edge in self._run_select("edge", etop, predicates, pushdown):
                if not edge_labels or edge.label in edge_labels:
                    yield edge

    def _aggregate_edges_for(
        self, entry: tuple, pushdown: Pushdown, edge_labels: tuple[str, ...] | None
    ) -> Any:
        etop, [(d, matching, _keep)], groups, aggregated = entry
        if aggregated:
            partials: list[Any] = []
            for predicates in groups:
                self._note_table_query(etop.table_name, "edge")
                partials.append(self._table_aggregate(etop.table_name, pushdown, predicates))
            return _combine_aggregates(pushdown.aggregate, partials)
        # Fetch and aggregate in memory, weighting each edge by its
        # endpoint's multiplicity (g.V(1, 1).outE().count()).
        multiplicity = Counter(str(v.id) for v in matching)
        weighted: list[OverlayEdge] = []
        for edge in self._fetch_edges_for(etop, groups, pushdown, edge_labels):
            endpoint = str(edge.out_v_id if d is Direction.OUT else edge.in_v_id)
            weighted.extend([edge] * multiplicity.get(endpoint, 1))
        return _memory_aggregate(weighted, pushdown)

    def _resolve_adjacent_vertices(
        self, targets: dict[Any, list[Vertex]], pushdown: Pushdown
    ) -> dict[Any, list[Vertex]]:
        """Vertex id -> neighbour vertices from :meth:`_neighbours`: lazy
        ones as they are, or, when a ``has()`` or projection was folded
        into the step, fetched in one pass.  A vertex built from its edge
        row (§6.3) is complete: its folded ``has()``s are checked in
        memory and it is not fetched again."""
        lazy = [v for entry in targets.values() for v in entry if not v.is_materialized]
        if not (pushdown.predicates or pushdown.labels or pushdown.projection):
            self.registry.counter(M.LAZY_VERTICES).increment(len(lazy))
            if self.trace.enabled:
                for vertex in lazy:
                    self.trace.emit(tracing.VERTEX_LAZY, table=vertex.source_table)
            return targets
        ids = list(dict.fromkeys(v.id for v in lazy))
        resolved = {v.id: v for v in self._elements("vertex", ids, pushdown)} if ids else {}

        def kept(v: Vertex) -> Vertex | None:
            if not v.is_materialized:
                return resolved.get(v.id)
            matches = pushdown.matches_labels(v.label) and pushdown.matches_predicates(
                v.properties, v.label, v.id
            )
            return v if matches else None

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
        neighbour row loop as ``out()``/``in()``/``both()``."""
        vertices = [Vertex(v, provider=self) for v in vertex_ids]
        return self._neighbours(vertices, direction, edge_labels, weight)

    def _neighbours(
        self,
        vertices: Sequence[Vertex],
        direction: Direction,
        edge_labels: tuple[str, ...] | None,
        weight: str | None = None,
        hinted: bool = False,
    ) -> dict[Any, list[Any]]:
        """Vertex id -> far endpoints, over ``adjacent()``'s plan: the
        same eliminations, tables, statements and order.  Each SELECT
        fetches only :func:`neighbour_columns` (§6.2 projection pushdown)
        and rows are read as tuples; no edge is built, and a row with a
        NULL endpoint column is no edge.  An entry is the far id; with
        ``weight``, a ``(far id, weight value)`` pair; with ``hinted``, a
        vertex: lazy and hinted with the far endpoint's declared vertex
        table (§6.3 narrowing), or built from the row when that table is
        the edge table itself (§6.3 vertex-from-edge)."""
        eliminated, plan = self._adjacent_plan(
            vertices, direction, edge_labels, Pushdown(), scans=True
        )
        self._note_eliminations(eliminated)
        result: dict[Any, list[Any]] = {v.id: [] for v in vertices}
        for etop, sides, groups, _aggregated in plan:
            # a fixed label outside edge_labels survives only with label
            # elimination off: its statements run, its rows are dropped
            rejected = bool(edge_labels) and etop.fixed_label not in (None, *edge_labels)
            row_vertices = [self._row_vertex(etop, d) if hinted else None for d, _m, _k in sides]
            columns, label_column, weight_column = neighbour_columns(
                etop, edge_labels, weight, row_vertices
            )
            for predicates in groups:
                self._note_table_query(etop.table_name, "edge")
                keys, rows = self.dialect.select(etop.table_name, columns, predicates)
                if rejected:
                    continue
                label_at = keys.index(label_column.lower()) if label_column else None
                for (d, _matching, keep), row_vertex in zip(sides, row_vertices):
                    near, far = etop.src_template, etop.dst_template
                    if d is Direction.IN:
                        near, far = far, near
                    ends = _endpoint_reader(keys, near, far)
                    if weight is not None:
                        entry = _weight_entry(keys, weight_column)
                    elif hinted:
                        entry = self._vertex_entry(keys, etop, d, row_vertex)
                    else:
                        entry = None
                    side_rows = rows
                    if keep is not None:
                        near_at = keys.index(near.only_column.lower())
                        side_rows = [row for row in rows if row[near_at] in keep]
                    for row in side_rows:
                        if label_at is not None and str(row[label_at]) not in edge_labels:
                            continue
                        key, other = ends(row)
                        bucket = result.get(key)
                        if bucket is None or key is None or other is None:
                            continue
                        bucket.append(other if entry is None else entry(other, row))
        return result

    def _row_vertex(self, etop: EdgeTopology, d: Direction) -> VertexTopology | None:
        """The vertex table whose vertex at ``etop``'s far end over ``d``
        is built from the edge row (§6.3 vertex-from-edge), or ``None``."""
        if not self.opts.use_vertex_from_edge:
            return None
        return etop.dst_row_vertex if d is Direction.OUT else etop.src_row_vertex

    def _vertex_entry(
        self, keys: Sequence[str], etop: EdgeTopology, d: Direction, row_vertex: Any
    ) -> Callable[[Any, Sequence[Any]], Vertex]:
        """The far vertex of one neighbour row over ``d``."""
        if row_vertex is not None:
            return lambda _other, row: self._vertex_from_row(row_vertex, dict(zip(keys, row)))
        declared = etop.dst_v_table if d is Direction.OUT else etop.src_v_table
        hint = declared if self.opts.use_src_dst_tables else None
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
            vtop = self._row_vertex(edge.etop, direction.opposite())
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
        row = {c.lower(): v for c, v in zip(columns, values)}
        return self._make_edge(etop, row, Pushdown())

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
                vtop = self.topology.vertex_table(hint)
            except Exception:
                vtop = None
            if vtop is not None:
                for vertex in self._query_table("vertex", vtop, ids, empty):
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
            for vertex in self._query_table("vertex", vtop, [vertex_id], empty):
                return vertex
        return None

    def load_edge(self, edge_id: Any) -> Edge | None:
        empty = Pushdown()
        for edge in self._elements("edge", [edge_id], empty):
            return edge
        return None


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


def neighbour_columns(
    etop: EdgeTopology,
    edge_labels: tuple[str, ...] | None,
    weight: str | None = None,
    row_vertices: Sequence[VertexTopology | None] = (),
) -> tuple[list[str], str | None, str | None]:
    """``(columns, label column, weight column)`` of a neighbour-only
    SELECT on ``etop``: both endpoints' columns, plus the label column
    when ``edge_labels`` is re-checked on a column-label table, the
    ``weight`` property's column, and the columns of each vertex built
    from the row (``row_vertices``).  ``explain()`` previews the same
    list."""
    label_column = etop.label.column if edge_labels and etop.fixed_label is None else None
    weight_column = weight if weight in etop.property_columns else None
    wanted = [*etop.src_template.columns, *etop.dst_template.columns]
    wanted += [c for c in (label_column, weight_column) if c]
    wanted += [c for vtop in row_vertices if vtop is not None for c in vtop.required_columns()]
    columns = list(dict.fromkeys(etop.relation.canonical(c) for c in wanted))
    return columns, label_column, weight_column


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


def _weight_entry(
    keys: Sequence[str], weight_column: str | None
) -> Callable[[Any, Sequence[Any]], tuple[Any, Any]]:
    """``(far id, weight value)`` of one neighbour row; the value is
    ``None`` on a table without the weight property."""
    at = keys.index(weight_column.lower()) if weight_column else None
    return lambda other, row: (other, None if at is None else row[at])


def _has_repeats(ids: Sequence[Any] | None) -> bool:
    return ids is not None and len({str(i) for i in ids}) != len(ids)


def _without_aggregate(pushdown: Pushdown) -> Pushdown:
    fetch = pushdown.copy()
    fetch.aggregate = None
    return fetch


def aggregate_spec(pushdown: Pushdown) -> tuple[str, str | None]:
    """``SqlDialect.build_select``'s ``aggregate`` for a pushed-down
    aggregate; a mean is computed as a sum and a count."""
    if pushdown.aggregate == "count":
        return "count", None
    if pushdown.aggregate == "mean":
        return "sum_count", pushdown.aggregate_key
    return pushdown.aggregate or "count", pushdown.aggregate_key


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
