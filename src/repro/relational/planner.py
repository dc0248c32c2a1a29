"""Query planner and physical plan operators.

The planner turns a SELECT AST into a tree of plan nodes.  Planning
resolves column references to tuple positions, picks indexes and
compiles expressions once.  Table access is set-at-a-time: a
:class:`TableScanNode` takes the visible rows of its index candidates
(or of the whole table) in one storage pass, then runs each pushed-down
conjunct as a compiled batch filter over that list.  Hash joins and
aggregation take whole inputs too: their keys compile once (column keys
to ``itemgetter``), and each group's aggregates reduce in one call.
UPDATE and DELETE find their rows through the same node.

Optimizations implemented (the ones the paper's generated SQL relies
on — the graph layer counts on the relational engine doing its part):

* WHERE-conjunct pushdown into single-table scans, evaluated as batch
  filters (``IN`` lists as one hash-set probe per row);
* index selection: equality conjuncts (including IN lists) probe hash
  or sorted indexes; range conjuncts use sorted indexes;
* hash joins for equi-join conditions, nested loops otherwise;
* hash aggregation: input bucketed by group key, then one reducer call
  per group and aggregate.
"""

from __future__ import annotations

import functools
import itertools
import operator
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, Sequence

from . import sql_ast as A
from .aggregates import numeric, reducer, step
from .catalog import Table, View
from .errors import CatalogError, ExecutionError, SqlSyntaxError
from .expressions import (
    BinaryOp,
    Between,
    ColumnRef,
    Expression,
    FunctionCall,
    InList,
    IsNull,
    Literal,
    Param,
    Scope,
    UnaryOp,
    conjoin,
    contains_aggregate,
    split_conjuncts,
)
from .values import _compare


@dataclass
class ExecContext:
    """Everything a running statement needs at execution time."""

    database: Any  # Database (untyped to avoid import cycle)
    session: Any  # Connection
    params: Sequence[Any] = ()
    snapshot_csn: int = 0
    txn_id: int | None = None

    def scalar(self, expr: Expression, scope: Scope | None = None) -> Any:
        """Evaluate an expression that needs no input row."""
        compiled = expr.compile(scope or Scope([]))
        return compiled((), self)


ColumnList = list[tuple[str | None, str]]


class PlanNode:
    """Base class: ``columns`` (qualifier, name) and a row iterable."""

    columns: ColumnList

    def rows(self, ctx: ExecContext) -> Iterable[tuple]:
        raise NotImplementedError

    def scope(self) -> Scope:
        return Scope(self.columns)

    def explain(self, depth: int = 0) -> str:
        lines = ["  " * depth + self._describe()]
        for child in self._children():
            lines.append(child.explain(depth + 1))
        return "\n".join(lines)

    def _describe(self) -> str:
        return type(self).__name__

    def _children(self) -> list["PlanNode"]:
        return []


class ConstantRowNode(PlanNode):
    """FROM-less SELECT: a single empty row."""

    def __init__(self) -> None:
        self.columns: ColumnList = []

    def rows(self, ctx: ExecContext) -> Iterator[tuple]:
        yield ()


class TableScanNode(PlanNode):
    """Scan of a base table, with index selection and residual filter.

    Index strategy is chosen at plan time from the pushed-down
    conjuncts; key *values* are computed at run time, so the same plan
    works for prepared statements with parameter markers.  A node holds
    no per-execution state: prepared plans share it across threads.
    """

    def __init__(self, table: Table, alias: str, conjuncts: list[Expression], as_of: Expression | None):
        self.table = table
        self.alias = alias
        self.as_of = as_of
        schema = table.schema
        self.columns = [(alias, c.name) for c in schema.columns]
        scope = self.scope()

        self._access_path = "scan"
        self._index = None
        self._key_fns: list[Callable] = []
        self._in_fns: list[Callable] | None = None
        self._range_low: tuple[Callable, bool] | None = None
        self._range_high: tuple[Callable, bool] | None = None
        residual = list(conjuncts)

        eq_map: dict[str, Expression] = {}
        in_map: dict[str, InList] = {}
        range_map: dict[str, list[tuple[str, Expression]]] = {}
        for conjunct in conjuncts:
            kind = _classify_conjunct(conjunct, alias, schema)
            if kind is None:
                continue
            form, column, payload = kind
            if form == "eq" and column not in eq_map:
                eq_map[column] = payload
            elif form == "in" and column not in in_map and column not in eq_map:
                in_map[column] = payload
            elif form == "range":
                range_map.setdefault(column, []).append(payload)

        # NOTE: conjuncts that select the index key deliberately STAY in
        # the residual filter — index entries are never removed under
        # MVCC (a row version may have changed the key), so every probe
        # is post-verified against the visible version's actual values.

        # 1) full equality cover of an index -> point lookups
        best: tuple[Any, list[str]] | None = None
        for index in table.storage.indexes.values():
            cols = [c.lower() for c in index.columns]
            if all(c in eq_map for c in cols):
                if best is None or len(cols) > len(best[1]):
                    best = (index, cols)
        if best is not None:
            index, cols = best
            self._access_path = "index_eq"
            self._index = index
            self._key_fns = [eq_map[c].compile(scope) for c in cols]
        else:
            # 2) single-column index + IN list -> multiple probes
            for index in table.storage.indexes.values():
                cols = [c.lower() for c in index.columns]
                if len(cols) == 1 and cols[0] in in_map:
                    in_list = in_map[cols[0]]
                    self._access_path = "index_in"
                    self._index = index
                    self._in_fns = [item.compile(scope) for item in in_list.items]
                    break
            else:
                # 3) sorted index + range conjunct(s) on its first column
                for index in table.storage.indexes.values():
                    if not index.supports_range():
                        continue
                    first = index.columns[0].lower()
                    if first in range_map:
                        self._access_path = "index_range"
                        self._index = index
                        for op, value_expr in range_map[first]:
                            compiled = value_expr.compile(scope)
                            if op in (">", ">="):
                                self._range_low = (compiled, op == ">=")
                            else:
                                self._range_high = (compiled, op == "<=")
                        # range conjuncts stay in the residual filter —
                        # the index probe is a superset under MVCC.
                        break

        self._filters = [c.compile_filter(scope) for c in residual]

    def rows(self, ctx: ExecContext) -> list[tuple]:
        return self._filter(self._visible(ctx)[1], ctx)

    def matches(self, ctx: ExecContext) -> list[tuple[int, tuple]]:
        """``(rowid, values)`` of every qualifying row, for UPDATE and
        DELETE.  Rows pass the filters tagged with their rowid as an
        extra trailing column, which no compiled conjunct can see."""
        rowids, rows = self._visible(ctx)
        width = len(self.columns)
        tagged = [values + (rowid,) for rowid, values in zip(rowids, rows)]
        return [(row[width], row[:width]) for row in self._filter(tagged, ctx)]

    def _filter(self, rows: list[tuple], ctx: ExecContext) -> list[tuple]:
        for keep in self._filters:
            if not rows:
                break
            rows = keep(rows, ctx)
        return rows

    def _visible(self, ctx: ExecContext) -> tuple[list[int], list[tuple]]:
        as_of_ts: float | None = None
        if self.as_of is not None:
            as_of_ts = ctx.scalar(self.as_of)
            if as_of_ts is None:
                raise ExecutionError("AS OF timestamp evaluated to NULL")
            as_of_ts = float(as_of_ts)
        return self.table.storage.visible_rows(
            ctx.snapshot_csn, ctx.txn_id, as_of_ts, self._candidates(ctx)
        )

    def _candidates(self, ctx: ExecContext) -> list[int] | None:
        """Sorted rowids the index probe yields, or None for a full scan."""
        if self._access_path == "index_eq":
            key = tuple(fn((), ctx) for fn in self._key_fns)
            return sorted(self._index.lookup(key))
        if self._access_path == "index_in":
            ids: set[int] = set()
            for fn in self._in_fns or ():
                ids.update(self._index.lookup((fn((), ctx),)))
            return sorted(ids)
        if self._access_path == "index_range":
            low = high = None
            low_inc = high_inc = True
            if self._range_low is not None:
                low = (self._range_low[0]((), ctx),)
                low_inc = self._range_low[1]
            if self._range_high is not None:
                high = (self._range_high[0]((), ctx),)
                high_inc = self._range_high[1]
            return sorted(set(self._index.range(low, high, low_inc, high_inc)))
        return None

    def _describe(self) -> str:
        detail = self._access_path
        if self._index is not None:
            detail += f" via {self._index.name}"
        return f"TableScan({self.table.name} AS {self.alias}, {detail})"


def _classify_conjunct(
    conjunct: Expression, alias: str, schema
) -> tuple[str, str, Any] | None:
    """Recognize index-usable conjunct shapes on this table's columns."""
    alias_l = alias.lower()

    def own_column(expr: Expression) -> str | None:
        if not isinstance(expr, ColumnRef):
            return None
        if expr.qualifier is not None and expr.qualifier.lower() != alias_l:
            return None
        if not schema.has_column(expr.name):
            return None
        return expr.name.lower()

    def is_value(expr: Expression) -> bool:
        return not expr.references()

    if isinstance(conjunct, BinaryOp) and conjunct.op in ("=", "<", "<=", ">", ">="):
        left_col = own_column(conjunct.left)
        if left_col is not None and is_value(conjunct.right):
            if conjunct.op == "=":
                return ("eq", left_col, conjunct.right)
            return ("range", left_col, (conjunct.op, conjunct.right))
        right_col = own_column(conjunct.right)
        if right_col is not None and is_value(conjunct.left):
            if conjunct.op == "=":
                return ("eq", right_col, conjunct.left)
            flipped = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}[conjunct.op]
            return ("range", right_col, (flipped, conjunct.left))
    if isinstance(conjunct, InList) and not conjunct.negated:
        column = own_column(conjunct.expr)
        if column is not None and all(is_value(i) for i in conjunct.items):
            return ("in", column, conjunct)
    return None


class AliasNode(PlanNode):
    """Re-qualifies a child's output columns under a new alias (views,
    subqueries)."""

    def __init__(self, child: PlanNode, alias: str):
        self.child = child
        self.alias = alias
        self.columns = [(alias, name) for _q, name in child.columns]

    def rows(self, ctx: ExecContext) -> Iterator[tuple]:
        return self.child.rows(ctx)

    def _describe(self) -> str:
        return f"Alias({self.alias})"

    def _children(self) -> list[PlanNode]:
        return [self.child]


class TableFunctionNode(PlanNode):
    """TABLE(func(args)) AS alias (col type, ...) — calls a registered
    polymorphic table function and coerces rows to the declared types."""

    def __init__(self, func: Callable, args: list[Expression], alias: str, columns: list[tuple[str, Any]]):
        self.func = func
        self.args = args
        self.alias = alias
        self.declared = columns
        self.columns = [(alias, name) for name, _t in columns]
        self._arg_fns = [a.compile(Scope([])) for a in args]

    def rows(self, ctx: ExecContext) -> Iterator[tuple]:
        arg_values = [fn((), ctx) for fn in self._arg_fns]
        width = len(self.declared)
        for row in self.func(ctx.session, *arg_values):
            row = tuple(row)
            if len(row) != width:
                raise ExecutionError(
                    f"table function returned {len(row)} columns, expected {width}"
                )
            yield tuple(t.coerce(v) for (_n, t), v in zip(self.declared, row))

    def _describe(self) -> str:
        return f"TableFunction({self.alias})"


class FilterNode(PlanNode):
    def __init__(self, child: PlanNode, predicate: Expression):
        self.child = child
        self.predicate = predicate
        self.columns = child.columns
        self._fn = predicate.compile(child.scope())

    def rows(self, ctx: ExecContext) -> Iterator[tuple]:
        fn = self._fn
        return (row for row in self.child.rows(ctx) if fn(row, ctx) is True)

    def _describe(self) -> str:
        return f"Filter({self.predicate.sql()})"

    def _children(self) -> list[PlanNode]:
        return [self.child]


def _compile_key(exprs: list[Expression], scope: Scope) -> Callable[[ExecContext], Callable]:
    """Compile join keys to ``bind(ctx) -> key(row)``: one ``itemgetter``
    for column keys, else closures.  One key is the bare value (it hashes
    and compares as its 1-tuple would), several a tuple, none ``()``."""
    if not exprs:
        return lambda ctx: lambda row: ()
    if all(isinstance(e, ColumnRef) for e in exprs):
        getter = operator.itemgetter(*(scope.resolve(e.qualifier, e.name) for e in exprs))
        return lambda ctx: getter
    fns = [e.compile(scope) for e in exprs]
    if len(fns) == 1:
        fn = fns[0]
        return lambda ctx: lambda row: fn(row, ctx)
    return lambda ctx: lambda row: tuple([fn(row, ctx) for fn in fns])


class HashJoinNode(PlanNode):
    """Equi-join: the right input is hashed on its key, the left probes.
    Build rows with a NULL key part are dropped (NULL never equi-joins),
    so probe keys need no NULL check."""

    def __init__(
        self,
        left: PlanNode,
        right: PlanNode,
        left_keys: list[Expression],
        right_keys: list[Expression],
        kind: str,
        residual: Expression | None,
    ):
        self.left = left
        self.right = right
        self.kind = kind
        self.columns = left.columns + right.columns
        self._composite = len(left_keys) > 1
        self._left_key = _compile_key(left_keys, left.scope())
        self._right_key = _compile_key(right_keys, right.scope())
        self._residual_fn = residual.compile(self.scope()) if residual is not None else None

    def rows(self, ctx: ExecContext) -> Iterable[tuple]:
        right_key = self._right_key(ctx)
        composite = self._composite
        table: dict[Any, list[tuple]] = {}
        for rrow in self.right.rows(ctx):
            key = right_key(rrow)
            if not (key is None or composite and None in key):
                table.setdefault(key, []).append(rrow)
        get = table.get
        left_key = self._left_key(ctx)
        left_rows = self.left.rows(ctx)
        if self.kind == "INNER" and self._residual_fn is None:
            return (lrow + rrow for lrow in left_rows for rrow in get(left_key(lrow), ()))
        return self._probe(left_rows, left_key, get, ctx)

    def _probe(self, left_rows: Iterable[tuple], left_key: Callable, get: Callable, ctx: ExecContext) -> Iterator[tuple]:
        residual = self._residual_fn
        pad = (None,) * len(self.right.columns) if self.kind == "LEFT" else None
        for lrow in left_rows:
            matched = False
            for rrow in get(left_key(lrow), ()):
                combined = lrow + rrow
                if residual is None or residual(combined, ctx) is True:
                    matched = True
                    yield combined
            if pad is not None and not matched:
                yield lrow + pad

    def _describe(self) -> str:
        return f"{type(self).__name__.removesuffix('Node')}({self.kind})"

    def _children(self) -> list[PlanNode]:
        return [self.left, self.right]


class NestedLoopJoinNode(HashJoinNode):
    """A join without equi-join keys: every right row shares one bucket."""

    def __init__(self, left: PlanNode, right: PlanNode, kind: str, on: Expression | None):
        super().__init__(left, right, [], [], kind, on)


class ProjectNode(PlanNode):
    def __init__(self, child: PlanNode, items: list[tuple[Expression, str]]):
        self.child = child
        self.columns = [(None, name) for _e, name in items]
        scope = child.scope()
        self._fns = [expr.compile(scope) for expr, _name in items]
        # All-column projections pick tuple slots in C; a slice keeps a
        # one-column result a tuple.
        self._getter: Callable[[tuple], tuple] | None = None
        if items and all(isinstance(expr, ColumnRef) for expr, _name in items):
            positions = [scope.resolve(e.qualifier, e.name) for e, _n in items]
            if len(positions) == 1:
                self._getter = operator.itemgetter(slice(positions[0], positions[0] + 1))
            else:
                self._getter = operator.itemgetter(*positions)

    def rows(self, ctx: ExecContext) -> Iterable[tuple]:
        if self._getter is not None:
            return map(self._getter, self.child.rows(ctx))
        fns = self._fns
        return (tuple(fn(row, ctx) for fn in fns) for row in self.child.rows(ctx))

    def _describe(self) -> str:
        return f"Project({[n for _q, n in self.columns]})"

    def _children(self) -> list[PlanNode]:
        return [self.child]


class AggregateNode(PlanNode):
    """Hash aggregation producing the final select-item outputs.

    The input is bucketed by group key, then each aggregate reduces each
    bucket in one call.  Group keys and arguments are ``itemgetter``s;
    expressions among them are evaluated once per row into extra columns.
    If any of that fails, :meth:`_raise_first_error` replays the input in
    row order to raise the error a running aggregation would meet first.

    Select items and HAVING are rewritten so group expressions and
    aggregate calls become references into the per-group result row.
    """

    def __init__(
        self,
        child: PlanNode,
        group_exprs: list[Expression],
        items: list[tuple[Expression, str]],
        having: Expression | None,
    ):
        self.child = child
        self.group_exprs = group_exprs
        child_scope = child.scope()
        width = len(child.columns)
        self._computed: list[Callable] = []

        def position(expr: Expression, fn: Callable) -> int:
            if isinstance(expr, ColumnRef):
                return child_scope.resolve(expr.qualifier, expr.name)
            self._computed.append(fn)
            return width + len(self._computed) - 1

        self._group_fns = [g.compile(child_scope) for g in group_exprs]
        group_positions = [position(g, fn) for g, fn in zip(group_exprs, self._group_fns)]
        self._group_key = operator.itemgetter(*group_positions) if group_positions else None
        self._bare_key = len(group_positions) == 1

        # Discover aggregate calls across select items and HAVING: each is
        # (argument getter, or None for COUNT(*), and its reducer).  _args
        # keeps each argument's compiled form for the replay.
        self._aggs: list[tuple[Callable | None, Callable]] = []
        self._args: list[tuple[str, Callable]] = []
        self._numeric: list[Callable] = []
        agg_index: dict[str, int] = {}

        def register(call: FunctionCall) -> int:
            key = call.sql()
            if key not in agg_index:
                getter = None
                if not call.star or call.name.upper() != "COUNT":
                    if not call.star and len(call.args) != 1:
                        raise SqlSyntaxError(
                            f"aggregate {call.name.upper()} expects one argument"
                        )
                    # SUM(*) and the like aggregate TRUE once per row
                    arg = Literal(True) if call.star else call.args[0]
                    fn = arg.compile(child_scope)
                    getter = operator.itemgetter(position(arg, fn))
                    self._args.append((call.name, fn))
                    if call.name.upper() in ("SUM", "AVG"):
                        self._numeric.append(getter)
                agg_index[key] = len(self._aggs)
                self._aggs.append((getter, reducer(call.name, getter is None)))
            return agg_index[key]

        group_sql = {g.sql(): i for i, g in enumerate(group_exprs)}
        n_groups = len(group_exprs)

        def rewrite(expr: Expression) -> Expression:
            if expr.sql() in group_sql:
                return ColumnRef(None, f"__g{group_sql[expr.sql()]}")
            if isinstance(expr, FunctionCall) and expr.is_aggregate:
                return ColumnRef(None, f"__a{register(expr)}")
            if isinstance(expr, BinaryOp):
                return BinaryOp(expr.op, rewrite(expr.left), rewrite(expr.right))
            if isinstance(expr, UnaryOp):
                return UnaryOp(expr.op, rewrite(expr.operand))
            if isinstance(expr, FunctionCall):
                return FunctionCall(expr.name, tuple(rewrite(a) for a in expr.args))
            if isinstance(expr, InList):
                return InList(rewrite(expr.expr), tuple(rewrite(i) for i in expr.items), expr.negated)
            if isinstance(expr, Between):
                return Between(rewrite(expr.expr), rewrite(expr.low), rewrite(expr.high), expr.negated)
            if isinstance(expr, IsNull):
                return IsNull(rewrite(expr.expr), expr.negated)
            if isinstance(expr, (Literal, Param)):
                return expr
            if isinstance(expr, ColumnRef):
                raise SqlSyntaxError(
                    f"column {expr.sql()!r} must appear in GROUP BY or an aggregate"
                )
            return expr

        rewritten_items = [(rewrite(e), name) for e, name in items]
        rewritten_having = rewrite(having) if having is not None else None

        internal_columns: ColumnList = [(None, f"__g{i}") for i in range(n_groups)]
        internal_columns += [(None, f"__a{i}") for i in range(len(self._aggs))]
        internal_scope = Scope(internal_columns)
        self._item_fns = [e.compile(internal_scope) for e, _n in rewritten_items]
        self._having_fn = (
            rewritten_having.compile(internal_scope) if rewritten_having is not None else None
        )
        self.columns = [(None, name) for _e, name in items]

    def rows(self, ctx: ExecContext) -> Iterator[tuple]:
        rows = self.child.rows(ctx)
        if not isinstance(rows, list):
            rows = list(rows)
        try:
            groups = self._reduce(rows, ctx)
        except ExecutionError:
            self._raise_first_error(rows, ctx)
            raise
        for internal in groups:
            if self._having_fn is not None and self._having_fn(internal, ctx) is not True:
                continue
            yield tuple(fn(internal, ctx) for fn in self._item_fns)

    def _reduce(self, rows: list[tuple], ctx: ExecContext) -> list[tuple]:
        """One row of group keys and aggregate results per group."""
        if self._computed:
            fns = self._computed
            rows = [row + tuple([fn(row, ctx) for fn in fns]) for row in rows]
        if not all(numeric(rows, get) for get in self._numeric):
            raise ExecutionError("SUM/AVG requires numeric input")
        group_key = self._group_key
        if group_key is None:
            groups: dict[Any, list[tuple]] = {(): rows}
        else:
            groups = defaultdict(list)
            for row in rows:
                groups[group_key(row)].append(row)
        return [
            ((key,) if self._bare_key else key) + tuple([
                reduce_group(bucket if get is None else map(get, bucket))
                for get, reduce_group in self._aggs
            ])
            for key, bucket in groups.items()
        ]

    def _raise_first_error(self, rows: list[tuple], ctx: ExecContext) -> None:
        """Replay ``rows`` one at a time and raise the first error met.

        The batch stages (computed columns, type check, per-group
        reducers) do not fail in input order.  Here each row evaluates
        its group keys, then each aggregate's argument and its running
        check, leftmost aggregate first."""
        extremes: dict[tuple, Any] = {}
        for row in rows:
            key = tuple([fn(row, ctx) for fn in self._group_fns])
            for index, (name, fn) in enumerate(self._args):
                value = fn(row, ctx)
                if value is not None:
                    extremes[key, index] = step(name, extremes.get((key, index)), value)

    def _describe(self) -> str:
        return f"Aggregate(groups={len(self.group_exprs)}, aggs={len(self._aggs)})"

    def _children(self) -> list[PlanNode]:
        return [self.child]


class SortNode(PlanNode):
    def __init__(self, child: PlanNode, order_items: list[A.OrderItem]):
        self.child = child
        self.columns = child.columns
        scope = child.scope()
        self._keys = [(item.expr.compile(scope), item.descending) for item in order_items]

    def rows(self, ctx: ExecContext) -> Iterator[tuple]:
        materialized = list(self.child.rows(ctx))
        keys = self._keys

        def compare(a: tuple, b: tuple) -> int:
            for fn, descending in keys:
                va, vb = fn(a, ctx), fn(b, ctx)
                if va is None and vb is None:
                    continue
                if va is None:
                    result = -1
                elif vb is None:
                    result = 1
                else:
                    result = _compare(va, vb)
                if result:
                    return -result if descending else result
            return 0

        materialized.sort(key=functools.cmp_to_key(compare))
        return iter(materialized)

    def _describe(self) -> str:
        return f"Sort({len(self._keys)} keys)"

    def _children(self) -> list[PlanNode]:
        return [self.child]


class DistinctNode(PlanNode):
    def __init__(self, child: PlanNode):
        self.child = child
        self.columns = child.columns

    def rows(self, ctx: ExecContext) -> Iterator[tuple]:
        return _distinct(self.child.rows(ctx))

    def _children(self) -> list[PlanNode]:
        return [self.child]


def _distinct(rows: Iterable[tuple]) -> Iterator[tuple]:
    """``rows`` without repeats, in first-seen order."""
    seen: set[tuple] = set()
    for row in rows:
        if row not in seen:
            seen.add(row)
            yield row


class LimitNode(PlanNode):
    def __init__(self, child: PlanNode, limit: int):
        self.child = child
        self.limit = limit
        self.columns = child.columns

    def rows(self, ctx: ExecContext) -> Iterator[tuple]:
        return itertools.islice(self.child.rows(ctx), self.limit)

    def _describe(self) -> str:
        return f"Limit({self.limit})"

    def _children(self) -> list[PlanNode]:
        return [self.child]


# ---------------------------------------------------------------------------
# Planner
# ---------------------------------------------------------------------------


@dataclass
class PlannedSelect:
    root: PlanNode
    output_names: list[str]
    # Relations touched, as (name, privilege) — checked per execution so
    # cached prepared plans still honour GRANT/REVOKE changes.
    accessed: list[tuple[str, str]] = field(default_factory=list)
    scanned_tables: list[str] = field(default_factory=list)


class UnionNode(PlanNode):
    """Concatenate branch outputs; branch arity must match (column
    names come from the first branch).  UNION (without ALL) dedups."""

    def __init__(self, branches: list[PlanNode], all_flags: list[bool]):
        widths = {len(b.columns) for b in branches}
        if len(widths) != 1:
            raise SqlSyntaxError(
                f"UNION branches have different column counts: {sorted(widths)}"
            )
        self.branches = branches
        # SQL semantics: a single non-ALL UNION anywhere dedups the result
        self.dedup = not all(all_flags)
        self.columns = [(None, name) for _q, name in branches[0].columns]

    def rows(self, ctx: ExecContext) -> Iterator[tuple]:
        rows = itertools.chain.from_iterable(branch.rows(ctx) for branch in self.branches)
        return _distinct(rows) if self.dedup else rows

    def _describe(self) -> str:
        return f"Union({'DISTINCT' if self.dedup else 'ALL'}, {len(self.branches)})"

    def _children(self) -> list[PlanNode]:
        return list(self.branches)


class Planner:
    def __init__(self, database: Any):
        self.database = database

    def plan_select(self, stmt: "A.SelectStmt | A.UnionStmt") -> PlannedSelect:
        accessed: list[tuple[str, str]] = []
        scanned: list[str] = []
        root = self._plan_select_or_union(stmt, accessed, scanned)
        return PlannedSelect(root, [name for _q, name in root.columns], accessed, scanned)

    def _plan_select_or_union(
        self, stmt: "A.SelectStmt | A.UnionStmt", accessed: list, scanned: list
    ) -> PlanNode:
        if isinstance(stmt, A.UnionStmt):
            return self._plan_union(stmt, accessed, scanned)
        return self._plan_query(stmt, accessed, scanned)

    def _plan_union(
        self, stmt: A.UnionStmt, accessed: list[tuple[str, str]], scanned: list[str]
    ) -> PlanNode:
        branches = [self._plan_query(s, accessed, scanned) for s in stmt.selects]
        node: PlanNode = UnionNode(branches, stmt.all_flags)
        if stmt.order_by:
            node = SortNode(node, stmt.order_by)
        if stmt.limit is not None:
            node = LimitNode(node, stmt.limit)
        return node

    # -- query block --------------------------------------------------------

    def _plan_query(
        self, stmt: A.SelectStmt, accessed: list[tuple[str, str]], scanned: list[str]
    ) -> PlanNode:
        where_conjuncts = split_conjuncts(stmt.where)

        if stmt.from_first is None:
            node: PlanNode = ConstantRowNode()
            remaining = list(where_conjuncts)
        else:
            node, remaining = self._plan_from_tree(stmt, where_conjuncts, accessed, scanned)

        for conjunct in remaining:
            node = FilterNode(node, conjunct)

        has_aggregates = bool(stmt.group_by) or any(
            isinstance(item, A.SelectItem) and contains_aggregate(item.expr)
            for item in stmt.items
        ) or (stmt.having is not None and contains_aggregate(stmt.having))

        pre_projection = node
        if has_aggregates:
            items = self._named_items(stmt.items, node, allow_star=False)
            node = AggregateNode(node, stmt.group_by, items, stmt.having)
        else:
            if stmt.having is not None:
                raise SqlSyntaxError("HAVING requires GROUP BY or aggregates")
            items = self._named_items(stmt.items, node, allow_star=True)
            node = ProjectNode(node, items)

        if stmt.distinct:
            node = DistinctNode(node)
        if stmt.order_by:
            try:
                node = self._plan_order(node, stmt.order_by, stmt.items, items)
            except CatalogError:
                # ORDER BY references an input column not in the select
                # list (legal SQL): sort before projecting instead
                if has_aggregates or stmt.distinct:
                    raise
                node = ProjectNode(SortNode(pre_projection, stmt.order_by), items)
        if stmt.limit is not None:
            node = LimitNode(node, stmt.limit)
        return node

    def _plan_order(
        self,
        node: PlanNode,
        order_by: list[A.OrderItem],
        raw_items: list[A.SelectItem | A.StarItem],
        named_items: list[tuple[Expression, str]],
    ) -> PlanNode:
        """Sort on the projected output.  ORDER BY may reference output
        aliases or repeat a select-item expression (e.g. an aggregate);
        both resolve to the output column."""
        by_sql = {expr.sql().lower(): name for expr, name in named_items}
        rewritten: list[A.OrderItem] = []
        for item in order_by:
            target = by_sql.get(item.expr.sql().lower())
            if target is not None:
                rewritten.append(A.OrderItem(ColumnRef(None, target), item.descending))
            else:
                rewritten.append(item)
        return SortNode(node, rewritten)

    def _named_items(
        self, items: list[A.SelectItem | A.StarItem], child: PlanNode, allow_star: bool
    ) -> list[tuple[Expression, str]]:
        named: list[tuple[Expression, str]] = []
        for item in items:
            if isinstance(item, A.StarItem):
                if not allow_star:
                    raise SqlSyntaxError("* not allowed with GROUP BY/aggregates")
                for qualifier, name in child.columns:
                    if item.qualifier is None or (
                        qualifier is not None
                        and qualifier.lower() == item.qualifier.lower()
                    ):
                        named.append((ColumnRef(qualifier, name), name))
                continue
            named.append((item.expr, self._output_name(item)))
        return named

    @staticmethod
    def _output_name(item: A.SelectItem) -> str:
        if item.alias:
            return item.alias
        if isinstance(item.expr, ColumnRef):
            return item.expr.name
        return item.expr.sql()

    # -- FROM clause ----------------------------------------------------------

    def _plan_from_tree(
        self,
        stmt: A.SelectStmt,
        where_conjuncts: list[Expression],
        accessed: list[tuple[str, str]],
        scanned: list[str],
    ) -> tuple[PlanNode, list[Expression]]:
        # Bucket WHERE conjuncts by the single alias they reference (for
        # scan pushdown); multi-alias conjuncts become join predicates.
        aliases = [stmt.from_first.alias.lower()]
        for join in stmt.joins:
            aliases.append(join.right.alias.lower())

        per_alias: dict[str, list[Expression]] = {a: [] for a in aliases}
        residual: list[Expression] = []
        for conjunct in where_conjuncts:
            owners = self._owning_aliases(conjunct, aliases, stmt)
            if len(owners) == 1:
                per_alias[next(iter(owners))].append(conjunct)
            else:
                residual.append(conjunct)

        node = self._plan_from_item(stmt.from_first, per_alias[aliases[0]], accessed, scanned)
        placed = {aliases[0]}

        for join in stmt.joins:
            alias = join.right.alias.lower()
            right_pushdown = per_alias[alias] if join.kind != "LEFT" else []
            right = self._plan_from_item(join.right, right_pushdown, accessed, scanned)
            on = join.on
            extra: list[Expression] = []
            if join.kind != "LEFT":
                # pull applicable residual conjuncts into this join
                still: list[Expression] = []
                for conjunct in residual:
                    owners = self._owning_aliases(conjunct, aliases, stmt)
                    if owners <= placed | {alias}:
                        extra.append(conjunct)
                    else:
                        still.append(conjunct)
                residual = still
            node = self._make_join(node, right, join.kind, on, extra)
            placed.add(alias)
            if join.kind == "LEFT" and per_alias[alias]:
                # post-join filters referencing the nullable side
                residual.extend(per_alias[alias])
        return node, residual

    def _owning_aliases(
        self, conjunct: Expression, aliases: list[str], stmt: A.SelectStmt
    ) -> set[str]:
        """Which FROM aliases a conjunct's column references belong to."""
        owners: set[str] = set()
        unqualified: set[str] = set()
        for qualifier, name in conjunct.references():
            if qualifier is not None:
                owners.add(qualifier)
            else:
                unqualified.add(name)
        if unqualified:
            # attribute unqualified columns to the alias that has them
            sources = [stmt.from_first] + [j.right for j in stmt.joins]
            for name in unqualified:
                holders = [
                    s.alias.lower() for s in sources if self._item_has_column(s, name)
                ]
                if len(holders) == 1:
                    owners.add(holders[0])
                else:
                    owners.update(aliases)  # ambiguous/unknown: keep residual
        return owners or set(aliases)

    def _item_has_column(self, item: A.FromItem, name: str) -> bool:
        if isinstance(item, A.FromTable):
            catalog = self.database.catalog
            if catalog.has_table(item.name):
                return catalog.get_table(item.name).schema.has_column(name)
            if catalog.has_view(item.name):
                view_plan = self._view_columns(catalog.get_view(item.name))
                return name.lower() in view_plan
            return False
        if isinstance(item, A.FromTableFunction):
            return name.lower() in {n.lower() for n, _t in item.columns}
        if isinstance(item, A.FromSubquery):
            inner = Planner(self.database).plan_select(item.select)
            return name.lower() in {n.lower() for n in inner.output_names}
        return False

    def _view_columns(self, view: View) -> set[str]:
        if view.columns is None:
            planned = Planner(self.database).plan_select(view.select)
            view.columns = planned.output_names
        return {c.lower() for c in view.columns}

    def _plan_from_item(
        self,
        item: A.FromItem,
        pushdown: list[Expression],
        accessed: list[tuple[str, str]],
        scanned: list[str],
    ) -> PlanNode:
        if isinstance(item, A.FromTable):
            catalog = self.database.catalog
            if catalog.has_table(item.name):
                table = catalog.get_table(item.name)
                accessed.append((table.name, "SELECT"))
                scanned.append(table.name)
                return TableScanNode(table, item.alias, pushdown, item.as_of)
            if not catalog.has_view(item.name):
                raise CatalogError(f"unknown relation {item.name!r}")
            view = catalog.get_view(item.name)
            accessed.append((view.name, "SELECT"))
            inner = self._plan_select_or_union(view.select, accessed, scanned)
            if view.columns is None:
                view.columns = [name for _q, name in inner.columns]
            node: PlanNode = AliasNode(inner, item.alias)
        elif isinstance(item, A.FromTableFunction):
            func = self.database.catalog.get_function(item.func_name)
            node = TableFunctionNode(func, item.args, item.alias, item.columns)
        elif isinstance(item, A.FromSubquery):
            node = AliasNode(self._plan_select_or_union(item.select, accessed, scanned), item.alias)
        else:
            raise SqlSyntaxError(f"unsupported FROM item {item!r}")
        for conjunct in pushdown:
            node = FilterNode(node, conjunct)
        return node

    def _make_join(
        self,
        left: PlanNode,
        right: PlanNode,
        kind: str,
        on: Expression | None,
        extra: list[Expression],
    ) -> PlanNode:
        predicates = split_conjuncts(on) + extra
        left_aliases = {q.lower() for q, _n in left.columns if q is not None}
        right_aliases = {q.lower() for q, _n in right.columns if q is not None}

        left_keys: list[Expression] = []
        right_keys: list[Expression] = []
        residual: list[Expression] = []
        for predicate in predicates:
            pair = self._equi_pair(predicate, left, right, left_aliases, right_aliases)
            if pair is not None:
                left_keys.append(pair[0])
                right_keys.append(pair[1])
            else:
                residual.append(predicate)

        kind = "LEFT" if kind == "LEFT" else "INNER"
        if left_keys:
            return HashJoinNode(left, right, left_keys, right_keys, kind, conjoin(residual))
        return NestedLoopJoinNode(left, right, kind, conjoin(residual))

    def _equi_pair(
        self,
        predicate: Expression,
        left: PlanNode,
        right: PlanNode,
        left_aliases: set[str],
        right_aliases: set[str],
    ) -> tuple[Expression, Expression] | None:
        if not (isinstance(predicate, BinaryOp) and predicate.op == "="):
            return None

        def side_of(expr: Expression) -> str | None:
            refs = expr.references()
            if not refs:
                return None
            owners = set()
            for qualifier, name in refs:
                if qualifier is not None:
                    owners.add(qualifier)
                else:
                    in_left = self._scope_has(left, name)
                    in_right = self._scope_has(right, name)
                    if in_left and not in_right:
                        owners.add("__left__")
                    elif in_right and not in_left:
                        owners.add("__right__")
                    else:
                        return None
            if owners <= (left_aliases | {"__left__"}):
                return "left"
            if owners <= (right_aliases | {"__right__"}):
                return "right"
            return None

        a = side_of(predicate.left)
        b = side_of(predicate.right)
        if a == "left" and b == "right":
            return predicate.left, predicate.right
        if a == "right" and b == "left":
            return predicate.right, predicate.left
        return None

    @staticmethod
    def _scope_has(node: PlanNode, name: str) -> bool:
        name = name.lower()
        return any(n.lower() == name for _q, n in node.columns)
