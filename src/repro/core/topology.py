"""The Topology module (paper §6, Figure 3).

Resolves an :class:`~repro.core.overlay.OverlayConfig` against the
database catalog: checks that every mapped table/view and column
exists, computes the effective property sets (including the "all
remaining columns" default), and records per table the facts the
Graph Structure module's §6.3 eliminations read: fixed label, property
names, id templates, declared src/dst vertex tables.  The eliminations
themselves are applied in ``OverlayGraph``; the only lookups here are
by table name, by id prefix, and vertex-from-edge subsumption.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

from ..relational.database import Database
from ..relational.types import SqlType
from .ids import SEPARATOR, IdTemplate, ImplicitEdgeId
from .overlay import EdgeTableConfig, OverlayConfig, OverlayError, VertexTableConfig


@dataclass
class RelationInfo:
    """Catalog facts about one table or view used by the overlay."""

    name: str
    columns: list[str]  # canonical (as-declared) column names
    types: dict[str, SqlType | None]  # lowercase name -> type (None for views)
    is_view: bool
    # lowercase name -> declared name; the first declared column wins
    _by_lower: dict[str, str] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._by_lower = {}
        for column in self.columns:
            self._by_lower.setdefault(column.lower(), column)

    def has_column(self, name: str) -> bool:
        return name.lower() in self.types

    def canonical(self, name: str) -> str:
        column = self._by_lower.get(name.lower())
        if column is None:
            raise OverlayError(f"relation {self.name!r} has no column {name!r}")
        return column

    def coerce(self, column: str, value: Any) -> Any:
        """Coerce a decoded id segment back to the column's SQL type."""
        return self.coercer(column)(value)

    def coercer(self, column: str) -> Callable[[Any], Any]:
        """The function :meth:`coerce` applies to ``column``'s values."""
        sql_type = self.types.get(column.lower())
        return _unchanged if sql_type is None else sql_type.coerce


def _unchanged(value: Any) -> Any:
    return value


def _relation_info(database: Database, name: str) -> RelationInfo:
    catalog = database.catalog
    if catalog.has_table(name):
        schema = catalog.get_table(name).schema
        return RelationInfo(
            name=schema.name,
            columns=schema.column_names(),
            types={c.name.lower(): c.sql_type for c in schema.columns},
            is_view=False,
        )
    if catalog.has_view(name):
        view = catalog.get_view(name)
        if view.columns is None:
            from ..relational.planner import Planner

            view.columns = Planner(database).plan_select(view.select).output_names
        return RelationInfo(
            name=view.name,
            columns=list(view.columns),
            types=_infer_view_types(database, view),
            is_view=True,
        )
    raise OverlayError(f"overlay references unknown relation {name!r}")


def _infer_view_types(database: Database, view: Any) -> dict[str, Any]:
    """Best-effort column types for a view: a select item that is a
    plain column reference inherits the base column's type (needed so
    decoded id segments coerce correctly when a view is an overlay
    member — §5's derived-edge views).  Computed items stay untyped."""
    from ..relational.expressions import ColumnRef as _ColumnRef
    from ..relational import sql_ast as _ast

    # map FROM aliases -> relation names
    sources: dict[str, str] = {}
    select = view.select
    from_items = ([] if select.from_first is None else [select.from_first]) + [
        j.right for j in select.joins
    ]
    for item in from_items:
        if isinstance(item, _ast.FromTable):
            sources[item.alias.lower()] = item.name

    def base_type(expr: Any) -> Any:
        if not isinstance(expr, _ColumnRef):
            return None
        candidates = (
            [sources[expr.qualifier.lower()]]
            if expr.qualifier and expr.qualifier.lower() in sources
            else list(sources.values())
        )
        found = None
        for relation in candidates:
            info = None
            if database.catalog.has_table(relation):
                schema = database.catalog.get_table(relation).schema
                if schema.has_column(expr.name):
                    column_type = schema.column(expr.name).sql_type
                    if found is not None and found != column_type:
                        return None  # ambiguous across sources
                    found = column_type
            elif database.catalog.has_view(relation):
                inner = _infer_view_types(database, database.catalog.get_view(relation))
                if expr.name.lower() in inner and inner[expr.name.lower()] is not None:
                    if found is not None and found != inner[expr.name.lower()]:
                        return None
                    found = inner[expr.name.lower()]
        return found

    types: dict[str, Any] = {c.lower(): None for c in view.columns or []}
    names = [c.lower() for c in view.columns or []]
    has_star = any(isinstance(i, _ast.StarItem) for i in select.items)
    if not has_star and len(select.items) == len(names):
        for name, item in zip(names, select.items):
            types[name] = base_type(item.expr)
    # fill remaining (star-expanded or unresolved) by column name
    for column in names:
        if types[column] is None:
            types[column] = base_type(_ColumnRef(None, column))
    return types


#: Distinct projections whose column lists one table memoizes; past it
#: the list is recomputed (projections come from query text).
_REQUIRED_MEMO_LIMIT = 256


class _TableTopology:
    """Column bookkeeping shared by vertex and edge tables.  Everything
    here is static for one resolved overlay; a :class:`Topology` is
    rebuilt on refresh, so the memo below can never go stale."""

    relation: RelationInfo
    label: Any
    fixed_label: str | None

    def _resolve_columns(self, config: Any, key_columns: list[str]) -> None:
        """``key_columns`` are the id/endpoint/label columns every SELECT
        fetches; properties default to all the other columns (§5)."""
        self._key_columns = tuple(key_columns)
        self._required: dict[tuple[str, ...] | None, tuple[str, ...]] = {}
        if config.properties is not None:
            self.property_columns = [self.relation.canonical(p) for p in config.properties]
        else:
            used = {c.lower() for c in key_columns}
            self.property_columns = [c for c in self.relation.columns if c.lower() not in used]
        self.property_names = {p.lower() for p in self.property_columns}

    def row_properties(
        self, row: Mapping[str, Any], projection: Sequence[str] | None = None
    ) -> dict[str, Any]:
        columns = self.property_columns
        if projection is not None:
            wanted = {p.lower() for p in projection}
            columns = [c for c in columns if c.lower() in wanted]
        return {c: row[c.lower()] for c in columns if c.lower() in row}

    def required_columns(self, projection: Sequence[str] | None = None) -> list[str]:
        """Columns a SELECT must fetch to build this table's elements
        (with optional projection pushdown).  Memoized per projection;
        the caller owns the returned list."""
        key = None if projection is None else tuple(projection)
        needed = self._required.get(key)
        if needed is None:
            columns = self.property_columns
            if projection is not None:
                wanted = {p.lower() for p in projection}
                columns = [c for c in columns if c.lower() in wanted]
            by_lower: dict[str, str] = {}
            for column in (*self._key_columns, *columns):
                if column.lower() not in by_lower:
                    by_lower[column.lower()] = self.relation.canonical(column)
            needed = tuple(by_lower.values())
            if len(self._required) < _REQUIRED_MEMO_LIMIT:
                self._required[key] = needed
        return list(needed)

    def has_property(self, name: str) -> bool:
        return name.lower() in self.property_names

    def row_label(self, row: Mapping[str, Any]) -> str:
        if self.fixed_label is not None:
            return self.fixed_label
        return str(row[(self.label.column or "").lower()])


class VertexTopology(_TableTopology):
    """One vertex table of the overlay, resolved against the catalog."""

    def __init__(self, config: VertexTableConfig, relation: RelationInfo):
        self.config = config
        self.relation = relation
        self.table_name = relation.name
        self.id_template = config.id_template
        for column in self.id_template.columns:
            relation.canonical(column)
        self.label = config.label
        if not self.label.is_fixed:
            relation.canonical(self.label.column or "")
        self.fixed_label: str | None = self.label.constant

        key_columns = list(self.id_template.columns)
        if not self.label.is_fixed and self.label.column:
            key_columns.append(self.label.column)
        self._resolve_columns(config, key_columns)

    # -- per-row construction -------------------------------------------------

    def row_id(self, row: Mapping[str, Any]) -> Any:
        return self.id_template.render(row)

    def __repr__(self) -> str:
        return f"VertexTopology({self.table_name})"


class EdgeTopology(_TableTopology):
    """One edge table of the overlay, resolved against the catalog."""

    def __init__(self, config: EdgeTableConfig, relation: RelationInfo):
        self.config = config
        self.relation = relation
        self.table_name = relation.name
        self.name = config.name
        self.src_template = config.src_template
        self.dst_template = config.dst_template
        for column in (*self.src_template.columns, *self.dst_template.columns):
            relation.canonical(column)
        self.label = config.label
        if not self.label.is_fixed:
            relation.canonical(self.label.column or "")
        self.fixed_label: str | None = self.label.constant
        self.src_v_table = config.src_v_table
        self.dst_v_table = config.dst_v_table
        # the vertex tables whose src/dst vertex is built from this
        # table's row (§6.3 vertex-from-edge), set by Topology
        self.src_row_vertex: VertexTopology | None = None
        self.dst_row_vertex: VertexTopology | None = None

        self.id_template: IdTemplate | None = config.id_template
        self.implicit_id: ImplicitEdgeId | None = None
        if config.implicit_edge_id:
            # validated in overlay: implicit ids require a fixed label
            self.implicit_id = ImplicitEdgeId(
                self.src_template, self.fixed_label or "", self.dst_template
            )
        if self.id_template is not None:
            for column in self.id_template.columns:
                relation.canonical(column)

        key_columns = [*self.src_template.columns, *self.dst_template.columns]
        if self.id_template is not None:
            key_columns.extend(self.id_template.columns)
        if not self.label.is_fixed and self.label.column:
            key_columns.append(self.label.column)
        self._resolve_columns(config, key_columns)

    # -- per-row construction ---------------------------------------------------

    def row_id(self, row: Mapping[str, Any]) -> Any:
        if self.implicit_id is not None:
            return self.implicit_id.render(row)
        assert self.id_template is not None
        return self.id_template.render(row)

    def row_src(self, row: Mapping[str, Any]) -> Any:
        return self.src_template.render(row)

    def row_dst(self, row: Mapping[str, Any]) -> Any:
        return self.dst_template.render(row)

    def __repr__(self) -> str:
        return f"EdgeTopology({self.name})"


class Topology:
    """The resolved overlay: every lookup the runtime needs."""

    def __init__(self, database: Database, config: OverlayConfig):
        self.database = database
        self.config = config
        config.validate_internal()
        self.vertex_tables: list[VertexTopology] = []
        self.edge_tables: list[EdgeTopology] = []
        for vconf in config.v_tables:
            relation = _relation_info(database, vconf.table_name)
            self.vertex_tables.append(VertexTopology(vconf, relation))
        for econf in config.e_tables:
            relation = _relation_info(database, econf.table_name)
            self.edge_tables.append(EdgeTopology(econf, relation))

        self._vertex_by_table = {v.table_name.lower(): v for v in self.vertex_tables}
        self._vertex_by_prefix: dict[str, VertexTopology] = {}
        for vtop in self.vertex_tables:
            prefix = vtop.id_template.prefix
            if vtop.config.prefixed_id and prefix is not None:
                if prefix in self._vertex_by_prefix:
                    raise OverlayError(
                        f"id prefix {prefix!r} is used by two vertex tables; "
                        f"prefixes must be unique table identifiers"
                    )
                self._vertex_by_prefix[prefix] = vtop
        for etop in self.edge_tables:
            etop.src_row_vertex = self.vertex_subsumed_by_edge(etop, "src")
            etop.dst_row_vertex = self.vertex_subsumed_by_edge(etop, "dst")

    # -- lookups (the §6.3 questions) ---------------------------------------------

    def vertex_table(self, name: str) -> VertexTopology:
        vtop = self._vertex_by_table.get(name.lower())
        if vtop is None:
            raise OverlayError(f"no vertex table {name!r} in topology")
        return vtop

    def vertex_table_for_prefix(self, vertex_id: Any) -> VertexTopology | None:
        """Pin the exact vertex table from a prefixed id value (§6.3)."""
        if not isinstance(vertex_id, str) or SEPARATOR not in vertex_id:
            return None
        prefix = vertex_id.split(SEPARATOR, 1)[0]
        return self._vertex_by_prefix.get(prefix)

    def vertex_subsumed_by_edge(self, edge_top: EdgeTopology, endpoint: str) -> VertexTopology | None:
        """§6.3 'When A Vertex Table Is Also An Edge Table': if the
        endpoint's vertex table is the edge's own table (so the vertex's
        columns are the edge row's) and the endpoint's id template is the
        vertex's (so the row's vertex is that endpoint, not the row a
        self-reference points at), the vertex can be built straight from
        the edge row."""
        table = edge_top.src_v_table if endpoint == "src" else edge_top.dst_v_table
        if table is None or table.lower() != edge_top.table_name.lower():
            return None
        vtop = self._vertex_by_table.get(table.lower())
        template = edge_top.src_template if endpoint == "src" else edge_top.dst_template
        if vtop is None or vtop.id_template != template:
            return None
        return vtop

    def describe(self) -> str:
        lines = ["Topology:"]
        for vtop in self.vertex_tables:
            label = vtop.fixed_label or f"col:{vtop.label.column}"
            lines.append(
                f"  V {vtop.table_name} id={vtop.id_template.spec()} label={label} "
                f"props={vtop.property_columns}"
            )
        for etop in self.edge_tables:
            label = etop.fixed_label or f"col:{etop.label.column}"
            lines.append(
                f"  E {etop.name} ({etop.table_name}) "
                f"src={etop.src_template.spec()}@{etop.src_v_table} "
                f"dst={etop.dst_template.spec()}@{etop.dst_v_table} label={label}"
            )
        return "\n".join(lines)
