"""Expression AST and compilation.

Expressions appear in SELECT lists, WHERE/HAVING clauses, JOIN
conditions, and UPDATE assignments.  To keep the per-row cost low (the
graph layer funnels every traversal step through SQL, so this is the
hot path), expressions *compile* to Python closures against a
:class:`Scope` that maps column references to tuple positions once, at
plan time.  The compiled closure signature is ``fn(row, ctx)`` where
``row`` is the current input tuple and ``ctx`` is the statement's
:class:`~repro.relational.executor.ExecContext` (for parameter
markers).  Predicates pushed into a table scan compile instead, via
:meth:`Expression.compile_filter`, to batch filters ``fn(rows, ctx)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from . import values as V
from .errors import CatalogError, ExecutionError, SqlSyntaxError


class Scope:
    """Resolves column references to positions in a row tuple.

    ``columns`` is an ordered list of ``(qualifier, name)`` pairs; the
    qualifier is a table alias (lowercased) or ``None`` for computed
    columns.
    """

    def __init__(self, columns: Sequence[tuple[str | None, str]]):
        self.columns = [(q.lower() if q else None, n.lower()) for q, n in columns]

    def resolve(self, qualifier: str | None, name: str) -> int:
        name = name.lower()
        if qualifier is not None:
            qualifier = qualifier.lower()
            matches = [
                i for i, (q, n) in enumerate(self.columns) if q == qualifier and n == name
            ]
        else:
            matches = [i for i, (q, n) in enumerate(self.columns) if n == name]
        if not matches:
            target = f"{qualifier}.{name}" if qualifier else name
            raise CatalogError(f"unknown column {target!r}")
        if len(matches) > 1:
            raise CatalogError(f"ambiguous column reference {name!r}")
        return matches[0]

    def __len__(self) -> int:
        return len(self.columns)


CompiledExpr = Callable[[tuple, Any], Any]
# fn(rows, ctx) -> the rows for which the predicate is TRUE
BatchFilter = Callable[[list, Any], list]


class Expression:
    """Base class for expression AST nodes."""

    def compile(self, scope: Scope) -> CompiledExpr:
        raise NotImplementedError

    def compile_filter(self, scope: Scope) -> BatchFilter:
        """Compile this predicate into a batch filter.  A row survives
        only if the predicate ``is True``: FALSE and UNKNOWN both drop
        it, as in WHERE.  Subclasses override with set-at-a-time forms."""
        fn = self.compile(scope)
        return lambda rows, ctx: [row for row in rows if fn(row, ctx) is True]

    def references(self) -> set[tuple[str | None, str]]:
        """All (qualifier, column) pairs this expression reads."""
        return set()

    def is_constant(self) -> bool:
        """True when the expression needs neither rows nor parameters."""
        return False

    def sql(self) -> str:
        raise NotImplementedError

    def __repr__(self) -> str:
        return self.sql()

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Expression) and self.sql() == other.sql()

    def __hash__(self) -> int:
        return hash(self.sql())


@dataclass(frozen=True, eq=False)
class Literal(Expression):
    value: Any

    def compile(self, scope: Scope) -> CompiledExpr:
        value = self.value
        return lambda row, ctx: value

    def is_constant(self) -> bool:
        return True

    def sql(self) -> str:
        return format_literal(self.value)


@dataclass(frozen=True, eq=False)
class ColumnRef(Expression):
    qualifier: str | None
    name: str

    def compile(self, scope: Scope) -> CompiledExpr:
        pos = scope.resolve(self.qualifier, self.name)
        return lambda row, ctx: row[pos]

    def references(self) -> set[tuple[str | None, str]]:
        return {(self.qualifier.lower() if self.qualifier else None, self.name.lower())}

    def sql(self) -> str:
        return f"{self.qualifier}.{self.name}" if self.qualifier else self.name


@dataclass(frozen=True, eq=False)
class Param(Expression):
    """A positional parameter marker (``?``)."""

    index: int

    def compile(self, scope: Scope) -> CompiledExpr:
        index = self.index
        def run(row: tuple, ctx: Any) -> Any:
            try:
                return ctx.params[index]
            except IndexError:
                raise ExecutionError(
                    f"missing value for parameter {index + 1}"
                ) from None
        return run

    def is_constant(self) -> bool:
        return False

    def sql(self) -> str:
        return "?"


_BINARY_FUNCS: dict[str, Callable[[Any, Any], Any]] = {
    "=": V.sql_eq,
    "<>": V.sql_ne,
    "!=": V.sql_ne,
    "<": V.sql_lt,
    "<=": V.sql_le,
    ">": V.sql_gt,
    ">=": V.sql_ge,
    "+": V.sql_add,
    "-": V.sql_sub,
    "*": V.sql_mul,
    "/": V.sql_div,
    "||": V.sql_concat,
    "AND": V.sql_and,
    "OR": V.sql_or,
    "LIKE": V.sql_like,
}


@dataclass(frozen=True, eq=False)
class BinaryOp(Expression):
    op: str
    left: Expression
    right: Expression

    def compile(self, scope: Scope) -> CompiledExpr:
        func = _BINARY_FUNCS.get(self.op.upper())
        if func is None:
            raise SqlSyntaxError(f"unsupported operator {self.op!r}")
        lf = self.left.compile(scope)
        rf = self.right.compile(scope)
        if self.op.upper() == "AND":
            return lambda row, ctx: V.sql_and(lf(row, ctx), rf(row, ctx))
        if self.op.upper() == "OR":
            return lambda row, ctx: V.sql_or(lf(row, ctx), rf(row, ctx))
        return lambda row, ctx: func(lf(row, ctx), rf(row, ctx))

    def references(self) -> set[tuple[str | None, str]]:
        return self.left.references() | self.right.references()

    def is_constant(self) -> bool:
        return self.left.is_constant() and self.right.is_constant()

    def sql(self) -> str:
        return f"({self.left.sql()} {self.op.upper()} {self.right.sql()})"


@dataclass(frozen=True, eq=False)
class UnaryOp(Expression):
    op: str  # "NOT" or "-"
    operand: Expression

    def compile(self, scope: Scope) -> CompiledExpr:
        inner = self.operand.compile(scope)
        op = self.op.upper()
        if op == "NOT":
            return lambda row, ctx: V.sql_not(inner(row, ctx))
        if op == "-":
            def negate(row: tuple, ctx: Any) -> Any:
                value = inner(row, ctx)
                if value is None:
                    return None
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    raise ExecutionError(f"cannot negate {value!r}")
                return -value
            return negate
        raise SqlSyntaxError(f"unsupported unary operator {self.op!r}")

    def references(self) -> set[tuple[str | None, str]]:
        return self.operand.references()

    def is_constant(self) -> bool:
        return self.operand.is_constant()

    def sql(self) -> str:
        return f"({self.op.upper()} {self.operand.sql()})"


@dataclass(frozen=True, eq=False)
class InList(Expression):
    expr: Expression
    items: tuple[Expression, ...]
    negated: bool = False

    def compile(self, scope: Scope) -> CompiledExpr:
        ef = self.expr.compile(scope)
        item_fns = [item.compile(scope) for item in self.items]
        negated = self.negated

        if all(not item.references() for item in self.items):
            # Row-independent items (literals, parameters, pure function
            # calls) evaluate to the same values for every row of one
            # execution.  Materialize them once per ExecContext into a
            # hash set so the batched ``id IN (?, ?, ...)`` probes the
            # graph layer emits cost O(1) per scanned row instead of
            # O(items).  Python ``==``/``hash`` agree with sql_eq for
            # every storable scalar (bool==int, int==float included);
            # unhashable values fall back to the sql_eq scan.
            memo_key = id(self)

            def run(row: tuple, ctx: Any) -> bool | None:
                value = ef(row, ctx)
                if value is None:
                    return None
                memo = getattr(ctx, "inlist_memo", None)
                if memo is None:
                    memo = {}
                    ctx.inlist_memo = memo
                entry = memo.get(memo_key)
                if entry is None:
                    hashable: set = set()
                    unhashable: list = []
                    seen_null = False
                    for fn in item_fns:
                        candidate = fn(row, ctx)
                        if candidate is None:
                            seen_null = True
                        else:
                            try:
                                hashable.add(candidate)
                            except TypeError:
                                unhashable.append(candidate)
                    entry = (hashable, unhashable, seen_null)
                    memo[memo_key] = entry
                hashable, unhashable, seen_null = entry
                try:
                    hit = value in hashable
                except TypeError:
                    hit = any(V.sql_eq(value, c) for c in hashable)
                if not hit:
                    hit = any(V.sql_eq(value, c) for c in unhashable)
                if hit:
                    return not negated
                if seen_null:
                    return None
                return negated

            return run

        def run(row: tuple, ctx: Any) -> bool | None:
            value = ef(row, ctx)
            if value is None:
                return None
            seen_null = False
            for fn in item_fns:
                candidate = fn(row, ctx)
                if candidate is None:
                    seen_null = True
                elif V.sql_eq(value, candidate):
                    return not negated
            if seen_null:
                return None
            return negated

        return run

    def compile_filter(self, scope: Scope) -> BatchFilter:
        """``column IN (row-independent items)`` filters a batch with
        one hash-set comprehension.  A row is kept only when the IN is
        TRUE, so NULL items (which can only turn FALSE into UNKNOWN) are
        dropped from the set; Python ``==``/``hash`` agree with
        ``sql_eq`` on storable scalars.  Unhashable items or column
        values fall back to the row predicate for the whole batch."""
        fallback = super().compile_filter(scope)
        if (
            self.negated
            or not isinstance(self.expr, ColumnRef)
            or any(item.references() for item in self.items)
        ):
            return fallback
        pos = scope.resolve(self.expr.qualifier, self.expr.name)
        item_fns = [item.compile(scope) for item in self.items]

        def run(rows: list, ctx: Any) -> list:
            if not rows:
                return rows
            try:
                wanted = {fn((), ctx) for fn in item_fns}
                wanted.discard(None)
                return [row for row in rows if row[pos] in wanted]
            except TypeError:
                return fallback(rows, ctx)

        return run

    def references(self) -> set[tuple[str | None, str]]:
        refs = self.expr.references()
        for item in self.items:
            refs |= item.references()
        return refs

    def is_constant(self) -> bool:
        return self.expr.is_constant() and all(i.is_constant() for i in self.items)

    def sql(self) -> str:
        middle = ", ".join(i.sql() for i in self.items)
        word = "NOT IN" if self.negated else "IN"
        return f"({self.expr.sql()} {word} ({middle}))"


@dataclass(frozen=True, eq=False)
class Between(Expression):
    expr: Expression
    low: Expression
    high: Expression
    negated: bool = False

    def compile(self, scope: Scope) -> CompiledExpr:
        ef = self.expr.compile(scope)
        lf = self.low.compile(scope)
        hf = self.high.compile(scope)
        negated = self.negated

        def run(row: tuple, ctx: Any) -> bool | None:
            value = ef(row, ctx)
            result = V.sql_and(V.sql_ge(value, lf(row, ctx)), V.sql_le(value, hf(row, ctx)))
            return V.sql_not(result) if negated else result

        return run

    def references(self) -> set[tuple[str | None, str]]:
        return self.expr.references() | self.low.references() | self.high.references()

    def sql(self) -> str:
        word = "NOT BETWEEN" if self.negated else "BETWEEN"
        return f"({self.expr.sql()} {word} {self.low.sql()} AND {self.high.sql()})"


@dataclass(frozen=True, eq=False)
class IsNull(Expression):
    expr: Expression
    negated: bool = False

    def compile(self, scope: Scope) -> CompiledExpr:
        inner = self.expr.compile(scope)
        if self.negated:
            return lambda row, ctx: inner(row, ctx) is not None
        return lambda row, ctx: inner(row, ctx) is None

    def references(self) -> set[tuple[str | None, str]]:
        return self.expr.references()

    def sql(self) -> str:
        word = "IS NOT NULL" if self.negated else "IS NULL"
        return f"({self.expr.sql()} {word})"


class SubqueryMixin:
    """Shared machinery for uncorrelated subquery expressions: the inner
    SELECT is planned lazily (first execution) and re-planned when DDL
    changes; its rows are evaluated once per statement execution and
    cached on the ExecContext."""

    select: Any  # sql_ast.SelectStmt

    def _rows(self, ctx: Any) -> list[tuple]:
        cache = getattr(ctx, "_subquery_cache", None)
        if cache is None:
            cache = {}
            ctx._subquery_cache = cache
        key = id(self)
        if key not in cache:
            from .planner import Planner

            planned = Planner(ctx.database).plan_select(self.select)
            if hasattr(ctx.database, "executor"):
                ctx.database.executor._check_access(planned.accessed, ctx.session)
            cache[key] = list(planned.root.rows(ctx))
        return cache[key]


@dataclass(frozen=True, eq=False)
class InSubquery(Expression, SubqueryMixin):
    """``expr [NOT] IN (SELECT ...)`` — uncorrelated subqueries only."""

    expr: Expression
    select: Any
    negated: bool = False

    def compile(self, scope: Scope) -> CompiledExpr:
        ef = self.expr.compile(scope)
        negated = self.negated

        def run(row: tuple, ctx: Any) -> bool | None:
            value = ef(row, ctx)
            if value is None:
                return None
            rows = self._rows(ctx)
            if rows and len(rows[0]) != 1:
                raise ExecutionError("IN subquery must return exactly one column")
            seen_null = False
            for (candidate,) in rows:
                if candidate is None:
                    seen_null = True
                elif V.sql_eq(value, candidate):
                    return not negated
            if seen_null:
                return None
            return negated

        return run

    def references(self) -> set[tuple[str | None, str]]:
        return self.expr.references()

    def sql(self) -> str:
        word = "NOT IN" if self.negated else "IN"
        return f"({self.expr.sql()} {word} (<subquery:{id(self.select)}>))"


@dataclass(frozen=True, eq=False)
class Exists(Expression, SubqueryMixin):
    """``[NOT] EXISTS (SELECT ...)`` — uncorrelated subqueries only."""

    select: Any
    negated: bool = False

    def compile(self, scope: Scope) -> CompiledExpr:
        negated = self.negated

        def run(row: tuple, ctx: Any) -> bool:
            found = bool(self._rows(ctx))
            return (not found) if negated else found

        return run

    def sql(self) -> str:
        word = "NOT EXISTS" if self.negated else "EXISTS"
        return f"({word} (<subquery:{id(self.select)}>))"


AGGREGATE_NAMES = frozenset({"COUNT", "SUM", "AVG", "MIN", "MAX"})

_SCALAR_FUNCS: dict[str, Callable[..., Any]] = {
    "UPPER": lambda s: None if s is None else str(s).upper(),
    "LOWER": lambda s: None if s is None else str(s).lower(),
    "LENGTH": lambda s: None if s is None else len(str(s)),
    "ABS": lambda x: None if x is None else abs(x),
    "COALESCE": lambda *args: next((a for a in args if a is not None), None),
    "CONCAT": lambda *args: None if any(a is None for a in args) else "".join(map(str, args)),
}


@dataclass(frozen=True, eq=False)
class FunctionCall(Expression):
    name: str
    args: tuple[Expression, ...]
    star: bool = False  # COUNT(*)

    @property
    def is_aggregate(self) -> bool:
        return self.name.upper() in AGGREGATE_NAMES

    def compile(self, scope: Scope) -> CompiledExpr:
        if self.is_aggregate:
            raise ExecutionError(
                f"aggregate {self.name.upper()} used outside of aggregation context"
            )
        func = _SCALAR_FUNCS.get(self.name.upper())
        if func is None:
            raise SqlSyntaxError(f"unknown function {self.name!r}")
        arg_fns = [a.compile(scope) for a in self.args]
        return lambda row, ctx: func(*(fn(row, ctx) for fn in arg_fns))

    def references(self) -> set[tuple[str | None, str]]:
        refs: set[tuple[str | None, str]] = set()
        for arg in self.args:
            refs |= arg.references()
        return refs

    def contains_aggregate(self) -> bool:
        return self.is_aggregate

    def sql(self) -> str:
        inner = "*" if self.star else ", ".join(a.sql() for a in self.args)
        return f"{self.name.upper()}({inner})"


def contains_aggregate(expr: Expression) -> bool:
    """Recursively detect aggregate function calls."""
    if isinstance(expr, FunctionCall):
        if expr.is_aggregate:
            return True
        return any(contains_aggregate(a) for a in expr.args)
    if isinstance(expr, BinaryOp):
        return contains_aggregate(expr.left) or contains_aggregate(expr.right)
    if isinstance(expr, UnaryOp):
        return contains_aggregate(expr.operand)
    if isinstance(expr, (IsNull,)):
        return contains_aggregate(expr.expr)
    if isinstance(expr, Between):
        return any(contains_aggregate(e) for e in (expr.expr, expr.low, expr.high))
    if isinstance(expr, InList):
        return contains_aggregate(expr.expr) or any(contains_aggregate(i) for i in expr.items)
    return False


def split_conjuncts(expr: Expression | None) -> list[Expression]:
    """Flatten a predicate into its top-level AND-ed conjuncts."""
    if expr is None:
        return []
    if isinstance(expr, BinaryOp) and expr.op.upper() == "AND":
        return split_conjuncts(expr.left) + split_conjuncts(expr.right)
    return [expr]


def conjoin(conjuncts: Sequence[Expression]) -> Expression | None:
    """Rebuild a single predicate from conjuncts (inverse of split)."""
    result: Expression | None = None
    for conjunct in conjuncts:
        result = conjunct if result is None else BinaryOp("AND", result, conjunct)
    return result


def format_literal(value: Any) -> str:
    """Render a Python value as a SQL literal (used by the SQL dialect
    module when generating queries)."""
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    if isinstance(value, (int, float)):
        return repr(value)
    escaped = str(value).replace("'", "''")
    return f"'{escaped}'"
