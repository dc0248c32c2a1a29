"""The §6.3 planner (paper §6, Figure 3): which tables a GSA step reads
and the SELECTs it issues, as values.

Topology says what the overlay declares and the SQL Dialect writes the
text.  Between the two, :class:`Planner` decides every SELECT the Graph
Structure module runs — its table, column list, predicates and
aggregate — after the data-dependent runtime optimizations of §6.3,
each toggleable through :class:`RuntimeOptimizations` so the ablation
benchmarks can quantify it:

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

A plan is ``(eliminations, statements)``: the ``(table, rule)`` pairs
§6.3 pruned, and the statements in run order.  Planning is pure: it
counts, traces and runs nothing.  ``OverlayGraph`` records the
eliminations and runs the statements as they are; ``explain()`` renders
the same values (DESIGN.md §9).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, NamedTuple, Sequence

from ..graph.model import Direction, Pushdown, Vertex
from .sql_dialect import SqlPredicate, predicate_to_sql
from .topology import EdgeTopology, Topology, VertexTopology

#: The ids of a fetch known only at run time (``explain()`` of the fill
#: after ``out()``): each table gets one placeholder probe.
RUNTIME_IDS = ("<neighbour ids>",)


@dataclass
class RuntimeOptimizations:
    use_src_dst_tables: bool = True
    use_vertex_from_edge: bool = True
    use_property_names: bool = True
    use_label_values: bool = True
    use_prefixed_ids: bool = True
    use_implicit_edge_ids: bool = True

    @classmethod
    def all_off(cls) -> "RuntimeOptimizations":
        return cls(False, False, False, False, False, False)


class Statement(NamedTuple):
    """One SELECT exactly as it runs: ``dialect.select(table, columns,
    predicates, aggregate)`` against ``top``'s table.  ``aggregate`` is
    ``SqlDialect.build_select``'s ``(kind, column)``, with ``columns``
    ``None``; a statement without one fetches rows."""

    top: Any
    table: str
    columns: list[str] | None
    predicates: list[SqlPredicate]
    aggregate: tuple[str, str | None] | None


class Side(NamedTuple):
    """One direction an adjacency entry walks.  ``matching`` are the
    input vertices that can have edges there (``None`` in a preview);
    ``keep`` the near endpoint values a scan keeps (``None``: probes).
    On the vertex path, ``row_vertex`` is the vertex table whose far
    vertex is built from the row (§6.3 vertex-from-edge) and ``hint``
    the far vertex's declared table (§6.3 src/dst narrowing).
    ``aliases`` maps a near id to the input ids that spell it otherwise
    (``"1"`` on a BIGINT column), which receive its rows too."""

    direction: Direction
    matching: list[Vertex] | None
    keep: set[Any] | None
    row_vertex: VertexTopology | None
    hint: str | None
    aliases: dict[Any, list[Any]] | None = None


#: The side of an entry that keeps every row, walked OUT (``g.E()``).
EVERY_ROW = Side(Direction.OUT, None, None, None, None)


class Adjacency(NamedTuple):
    """One edge table's share of an ``adjacent()`` or ``g.E()`` endpoint
    plan.  A probe entry has one side; a scan under BOTH serves both
    sides from one statement, walked OUT then IN.  ``label_column`` is
    re-checked against the step's edge labels, ``weight_column`` read
    for SSSP."""

    etop: EdgeTopology
    sides: list[Side]
    statements: list[Statement]
    label_column: str | None
    weight_column: str | None


Plan = tuple[list[tuple[str, str]], list[Any]]


class Planner:
    """§6.3 planning over one topology, the runtime switches, the
    traverser batch size and the live catalog."""

    def __init__(
        self, topology: Topology, opts: RuntimeOptimizations, batch_size: int, catalog: Any
    ):
        self.topology = topology
        self.opts = opts
        self.batch_size = batch_size
        self.catalog = catalog

    # -- tables --------------------------------------------------------------

    def candidate_tables(
        self,
        kind: str,
        pushdown: Pushdown,
        edge_labels: tuple[str, ...] | None = None,
        tables: Sequence[Any] | None = None,
    ) -> tuple[list[Any], list[tuple[str, str]]]:
        """Surviving ``kind`` tables (of ``tables``, by default all of
        them) plus ``(table, rule)`` eliminations by label value and
        property name (§6.3).  ``edge_labels`` are the labels of an
        ``out('l')``-style step."""
        if tables is None:
            tables = self.topology.vertex_tables if kind == "vertex" else self.topology.edge_tables
        candidates = list(tables)
        eliminated: list[tuple[str, str]] = []
        labels = label_values(pushdown)
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

    def hint_tables(self, hint: str | None) -> list[VertexTopology]:
        """The vertex tables a lazy vertex's table hint narrows its fetch
        to (§6.3): the hint table alone when ``use_src_dst_tables`` is on
        and the hint names one, else every vertex table."""
        if hint is not None and self.opts.use_src_dst_tables:
            try:
                return [self.topology.vertex_table(hint)]
            except Exception:
                pass
        return list(self.topology.vertex_tables)

    def row_vertex(self, etop: EdgeTopology, d: Direction) -> VertexTopology | None:
        """The vertex table whose vertex at ``etop``'s far end over ``d``
        is built from the edge row (§6.3 vertex-from-edge), or ``None``."""
        if not self.opts.use_vertex_from_edge:
            return None
        return etop.dst_row_vertex if d is Direction.OUT else etop.src_row_vertex

    # -- g.V(ids) / g.E(ids) -------------------------------------------------

    def plan(
        self,
        kind: str,
        ids: Sequence[Any] | None,
        pushdown: Pushdown,
        tables: Sequence[Any] | None = None,
    ) -> Plan:
        """``g.V(ids)`` / ``g.E(ids)``: eliminations plus the statements
        in run order — candidate tables in topology order (or ``tables``)
        × id groups.  A table computes the step's aggregate in SQL only
        when everything else pushes down too; otherwise its statements
        fetch rows.  ``ids=None`` scans; :data:`RUNTIME_IDS` previews a
        fetch whose ids are known only at run time."""
        if pushdown.aggregate is not None and has_repeats(ids):
            # g.V(1, 1).count() == 2, but the IN list dedups: the rows are
            # fetched and aggregated in memory instead.  The fetch keeps
            # the aggregate key, so it eliminates the same tables.
            fetch = pushdown.copy()
            fetch.aggregate = None
            return self.plan(kind, ids, fetch, tables)
        candidates, eliminated = self.candidate_tables(kind, pushdown, tables=tables)
        projection = effective_projection(pushdown)
        plan: list[Statement] = []
        for top in candidates:
            table_eliminated, groups = self._table_plan(kind, top, ids, pushdown)
            eliminated += table_eliminated
            if pushdown.aggregate is not None and self._table_fully_pushable(top, pushdown):
                columns, aggregate = None, aggregate_spec(pushdown)
            else:
                columns, aggregate = top.required_columns(projection), None
            plan.extend(Statement(top, top.table_name, columns, g, aggregate) for g in groups)
        return eliminated, plan

    def _table_plan(
        self, kind: str, top: Any, ids: Sequence[Any] | None, pushdown: Pushdown
    ) -> tuple[list[tuple[str, str]], list[list[SqlPredicate]]]:
        """One table's predicate groups: the scan, or one group per id
        probe.  No id fitting the table eliminates it."""
        base = self._base_predicates(kind, top, pushdown)
        if ids is None:
            return [], [base]
        if ids is RUNTIME_IDS:
            column = top.relation.canonical(top.id_template.columns[0])
            return [], [[SqlPredicate(column, "IN", ids)] + base]
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

    def vertex_id_plan(self) -> Plan:
        """``g.V()``'s plan reduced to ids: each SELECT fetches only the
        id columns."""
        eliminated, plan = self.plan("vertex", None, Pushdown())
        return eliminated, [
            s._replace(columns=list(dict.fromkeys(
                s.top.relation.canonical(c) for c in s.top.id_template.columns
            )))
            for s in plan
        ]

    def endpoint_plan(self, edge_labels: tuple[str, ...] | None) -> Plan:
        """``g.E()``'s plan reduced to endpoints: one :data:`EVERY_ROW`
        entry per edge table, fetching :func:`neighbour_columns`."""
        eliminated, plan = self.plan("edge", None, Pushdown(labels=edge_labels))
        entries = []
        for s in plan:
            columns, label_column, _weight = neighbour_columns(s.top, edge_labels)
            entry = [EVERY_ROW], [s._replace(columns=columns)], label_column, None
            entries.append(Adjacency(s.top, *entry))
        return eliminated, entries

    # -- adjacent(): out()/in()/both()/outE()/... ----------------------------

    def adjacent_plan(
        self,
        vertices: Sequence[Vertex] | None,
        direction: Direction,
        edge_labels: tuple[str, ...] | None,
        pushdown: Pushdown | None = None,
        return_type: str = "id",
        weight: str | None = None,
    ) -> Plan:
        """Eliminations plus :class:`Adjacency` entries in run order for
        ``adjacent()`` returning ``"vertex"``, ``"edge"`` (with the step's
        ``pushdown``) or ``"id"`` (``adjacent_ids``).  Edge entries fetch
        whole rows or the pushed-down aggregate, and always probe; the
        others fetch :func:`neighbour_columns` and may scan.  Vertex
        sides carry ``row_vertex`` and ``hint``.  ``vertices=None`` plans
        a preview: nothing narrowed, a placeholder endpoint probe."""
        edges, hinted = return_type == "edge", return_type == "vertex"
        if not edges or pushdown is None:
            pushdown = Pushdown()
        directions = (
            (Direction.OUT, Direction.IN) if direction is Direction.BOTH else (direction,)
        )
        candidates, eliminated = self.candidate_tables("edge", pushdown, edge_labels)
        projection = effective_projection(pushdown)
        plan: list[Adjacency] = []
        for etop in candidates:
            label_column = etop.label.column if edge_labels and etop.fixed_label is None else None
            base = self._base_predicates("edge", etop, pushdown, edge_labels)
            pushable = pushdown.aggregate is not None and self._fully_pushable(
                etop, pushdown, edge_labels
            )
            entries: list[tuple[list[Side], list[list[SqlPredicate]], bool]] = []
            scan_sides: list[Side] | None = None
            for d in directions:
                template = etop.src_template if d is Direction.OUT else etop.dst_template
                far = (None, None)
                if hinted:
                    declared = etop.dst_v_table if d is Direction.OUT else etop.src_v_table
                    far = self.row_vertex(etop, d), declared if self.opts.use_src_dst_tables else None
                if vertices is None:
                    column = etop.relation.canonical(template.columns[0])
                    probe = SqlPredicate(column, "IN", ("<input vertex ids>",))
                    entries.append(([Side(d, None, None, *far)], [[probe] + base], pushable))
                    continue
                matching, decoded, aliases = self._vertices_matching_endpoint(etop, vertices, d)
                if not matching:
                    eliminated.append((etop.table_name, "src_dst_tables"))
                    continue
                keep = None if edges else self._scan_filter(etop, template.only_column, decoded)
                if keep is not None:
                    if scan_sides is None:  # under BOTH, IN joins OUT's scan
                        scan_sides = []
                        entries.append((scan_sides, [base], False))
                    scan_sides.append(Side(d, matching, keep, *far, aliases))
                    continue
                groups = self._id_groups(etop, decoded, template.only_column)
                # duplicate endpoints each count toward an aggregate, but
                # the IN list dedups them: fetch and count per input instead
                aggregated = pushable and len({str(v.id) for v in matching}) == len(matching)
                side = Side(d, matching, None, *far, aliases)
                entries.append(([side], [g + base for g in groups], aggregated))
            for sides, groups, aggregated in entries:
                weight_column = aggregate = None
                if aggregated:
                    columns, aggregate = None, aggregate_spec(pushdown)
                elif edges:
                    columns = etop.required_columns(projection)
                else:
                    columns, _label, weight_column = neighbour_columns(
                        etop, edge_labels, weight, [side.row_vertex for side in sides]
                    )
                statements = [
                    Statement(etop, etop.table_name, columns, g, aggregate) for g in groups
                ]
                plan.append(Adjacency(etop, sides, statements, label_column, weight_column))
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
        catalog = self.catalog
        if not catalog.has_table(etop.table_name):
            return None  # a view: probes may reach its base tables' indexes
        indexes = catalog.get_table(etop.table_name).storage.indexes.values()
        if any(column.lower() in map(str.lower, index.columns) for index in indexes):
            return None
        keep = {values[column] for values in decoded}
        return keep if len(keep) > self.batch_size else None

    def _vertices_matching_endpoint(
        self, etop: EdgeTopology, vertices: Sequence[Vertex], d: Direction
    ) -> tuple[list[Vertex], list[dict[str, Any]], dict[Any, list[Any]] | None]:
        """src/dst vertex-table narrowing (§6.3): which of the input
        vertices can possibly have edges in this table+direction, the
        decoded endpoint values of those whose id also coerces to the
        column types, and :class:`Side`'s ``aliases``: a single-column
        endpoint renders its coerced value, so an input id that coerces
        to another value of the same text (``"1"`` -> ``1``) is that
        vertex, as ``g.V("1")`` finds ``v[1]``."""
        declared = etop.src_v_table if d is Direction.OUT else etop.dst_v_table
        template = etop.src_template if d is Direction.OUT else etop.dst_template
        narrow = self.opts.use_src_dst_tables and declared is not None
        decode, strict = template.decode, self.opts.use_prefixed_ids
        # _decode's coercion, with each column's coercer looked up once
        # per batch rather than once per vertex
        coercers = [(c, etop.relation.coercer(c)) for c in template.columns]
        matching: list[Vertex] = []
        decoded: list[dict[str, Any]] = []
        aliased: dict[Any, dict[Any, None]] = {}
        column = template.columns[0] if template.is_single_column else None
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
            if column is not None:
                value = values[column]
                if value != vertex.id and str(value) == str(vertex.id):
                    aliased.setdefault(value, {})[vertex.id] = None
        aliases = {value: list(ids) for value, ids in aliased.items()} or None
        return matching, decoded, aliases

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

    @staticmethod
    def _edge_label_sql(
        etop: EdgeTopology, edge_labels: tuple[str, ...] | None
    ) -> list[SqlPredicate]:
        if edge_labels is None or etop.fixed_label is not None:
            return []
        if not etop.label.column:
            return []
        column = etop.relation.canonical(etop.label.column)
        if len(edge_labels) == 1:
            return [SqlPredicate(column, "=", (edge_labels[0],))]
        return [SqlPredicate(column, "IN", tuple(edge_labels))]

    # Two pushability rules, not one: an adjacent() aggregate pushes
    # ~src_v/~dst_v (eq or within, one target on a composite endpoint)
    # but never ~id; a g.V()/g.E() aggregate pushes ~id, which its id
    # groups encode, but no endpoint predicate.

    @staticmethod
    def _fully_pushable(
        etop: EdgeTopology, pushdown: Pushdown, edge_labels: tuple[str, ...] | None
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
                if p.test(None):
                    continue  # every row passes: its SQL drops the predicate
                return False  # no row passes, but its SQL would count them all
            column = etop.relation.canonical(key)
            if predicate_to_sql(column, p) is None:
                return False
        if pushdown.aggregate_key is not None and not etop.has_property(pushdown.aggregate_key):
            return False
        return True

    @staticmethod
    def _table_fully_pushable(top: Any, pushdown: Pushdown) -> bool:
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
                if p.test(None):
                    continue
                return False  # as in _fully_pushable
            if predicate_to_sql(top.relation.canonical(key), p) is None:
                return False
        if pushdown.aggregate_key is not None and not top.has_property(pushdown.aggregate_key):
            return False
        # label predicates that exclude this fixed-label table entirely
        labels = label_values(pushdown)
        if labels is not None and top.fixed_label is not None and top.fixed_label not in labels:
            return False
        return True


def fills(pushdown: Pushdown) -> bool:
    """Whether ``out()``/``in()`` fetches its lazy neighbours: a
    ``has()`` or a projection was folded into the step."""
    return bool(pushdown.predicates or pushdown.labels or pushdown.projection)


def label_values(pushdown: Pushdown) -> tuple[str, ...] | None:
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


def effective_projection(pushdown: Pushdown) -> tuple[str, ...] | None:
    """Projection plus every property the predicates need to re-check."""
    if pushdown.projection is None:
        return None
    extra = [key for key, _p in pushdown.predicates if not key.startswith("~")]
    if pushdown.aggregate_key:
        extra.append(pushdown.aggregate_key)
    return tuple(dict.fromkeys((*pushdown.projection, *extra)))


def aggregate_spec(pushdown: Pushdown) -> tuple[str, str | None]:
    """``SqlDialect.build_select``'s ``aggregate`` for a pushed-down
    aggregate; a mean is computed as a sum and a count."""
    if pushdown.aggregate == "count":
        return "count", None
    if pushdown.aggregate == "mean":
        return "sum_count", pushdown.aggregate_key
    return pushdown.aggregate or "count", pushdown.aggregate_key


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
    from the row (``row_vertices``)."""
    label_column = etop.label.column if edge_labels and etop.fixed_label is None else None
    weight_column = weight if weight in etop.property_columns else None
    wanted = [*etop.src_template.columns, *etop.dst_template.columns]
    wanted += [c for c in (label_column, weight_column) if c]
    wanted += [c for vtop in row_vertices if vtop is not None for c in vtop.required_columns()]
    columns = list(dict.fromkeys(etop.relation.canonical(c) for c in wanted))
    return columns, label_column, weight_column


def chunked(values: Sequence[Any], size: int) -> list[Sequence[Any]]:
    """Split ``values`` into ``len(values)//size (+1)`` runs of at most
    ``size``, preserving order — the traverser-batching unit."""
    if size <= 0 or len(values) <= size:
        return [values]
    return [values[i : i + size] for i in range(0, len(values), size)]


def has_repeats(ids: Sequence[Any] | None) -> bool:
    return ids is not None and len({str(i) for i in ids}) != len(ids)
