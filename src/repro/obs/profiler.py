"""``profile()``: execute a traversal with per-step metering.

The traverser model is pull-based — each step's ``process`` is a
generator pulling from the step before it — so metering wraps every
step *boundary*: the time (and SQL-counter delta) observed at boundary
*k* is cumulative over steps ``1..k``, and a step's own cost is the
difference between its boundary and the previous one.  This costs two
clock reads per traverser per step, paid only when profiling.

Sub-traversals (``repeat`` bodies, ``union`` branches, filter probes,
``by()`` modulators…) run through the same ``run_steps`` entry point
with the profiler threaded through the :class:`TraversalContext`, so
their steps are metered too and appear as child nodes.  A parent
step's inclusive time is therefore always ≥ the sum of its children's
— the invariant the test suite checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import TYPE_CHECKING, Any, Iterator

from . import metrics as M

if TYPE_CHECKING:  # pragma: no cover
    from ..graph.steps import Step
    from ..graph.traversal import Traversal


class StepMetrics:
    """Cumulative cost observed at one step boundary."""

    __slots__ = ("seconds", "sql_queries", "sql_rows", "traversers")

    def __init__(self) -> None:
        self.seconds = 0.0
        self.sql_queries = 0
        self.sql_rows = 0
        self.traversers = 0


_ZERO = StepMetrics()


class TraversalProfiler:
    """Wraps step generators with boundary meters (keyed by step
    identity, so repeated invocations of a sub-traversal accumulate)."""

    def __init__(self, dialect: Any = None):
        # The dialect's statement and row counters; a provider without
        # a SQL dialect (the in-memory graph) meters time only.
        self._sql_counters = (
            None
            if dialect is None
            else (
                dialect.registry.counter(M.SQL_QUERIES),
                dialect.registry.counter(M.SQL_ROWS),
            )
        )
        self._metrics: dict[int, StepMetrics] = {}

    def _sql_counts(self) -> tuple[int, int]:
        if self._sql_counters is None:
            return (0, 0)
        queries, rows = self._sql_counters
        return (queries.value, rows.value)

    def metrics(self, step: "Step") -> StepMetrics:
        cell = self._metrics.get(id(step))
        if cell is None:
            cell = self._metrics[id(step)] = StepMetrics()
        return cell

    def wrap(self, step: "Step", inner: Iterator[Any]) -> Iterator[Any]:
        metrics = self.metrics(step)

        def metered() -> Iterator[Any]:
            while True:
                queries_before, rows_before = self._sql_counts()
                started = perf_counter()
                try:
                    item = next(inner)
                except StopIteration:
                    metrics.seconds += perf_counter() - started
                    queries_after, rows_after = self._sql_counts()
                    metrics.sql_queries += queries_after - queries_before
                    metrics.sql_rows += rows_after - rows_before
                    return
                metrics.seconds += perf_counter() - started
                queries_after, rows_after = self._sql_counts()
                metrics.sql_queries += queries_after - queries_before
                metrics.sql_rows += rows_after - rows_before
                metrics.traversers += 1
                yield item

        return metered()


@dataclass
class ProfileNode:
    """One node of the profile tree.

    ``seconds`` is *inclusive* for the node (a step's own boundary
    delta, which contains any sub-traversals it drives; a sub-traversal
    group node's total).  ``traversers`` is how many traversers the
    node emitted.
    """

    name: str
    seconds: float
    sql_queries: int
    sql_rows: int
    traversers: int
    children: list["ProfileNode"] = field(default_factory=list)

    def render(self, indent: int = 0) -> list[str]:
        pad = "  " * indent
        lines = [
            f"{pad}{self.name}  "
            f"[{self.seconds * 1e3:.3f}ms, sql={self.sql_queries}, "
            f"db_rows={self.sql_rows}, traversers={self.traversers}]"
        ]
        for child in self.children:
            lines.extend(child.render(indent + 1))
        return lines


@dataclass
class ProfileResult:
    """The output of ``traversal.profile()``: the executed results plus
    a per-step cost tree.  ``sql_queries`` is the global counter delta
    across the run — by construction equal to what ``stats()`` observed."""

    root: ProfileNode
    results: list[Any]
    wall_seconds: float
    sql_queries: int
    rows_fetched: int

    @property
    def children(self) -> list[ProfileNode]:
        return self.root.children

    def __str__(self) -> str:
        lines = self.root.render()
        lines.append(
            f"totals: {self.wall_seconds * 1e3:.3f}ms, "
            f"sql_queries={self.sql_queries}, rows_fetched={self.rows_fetched}, "
            f"results={len(self.results)}"
        )
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"ProfileResult({len(self.results)} results, "
            f"{self.sql_queries} queries, {self.wall_seconds * 1e3:.3f}ms)"
        )


def _chain_nodes(profiler: TraversalProfiler, steps: list["Step"]) -> list[ProfileNode]:
    """Turn one step chain's boundary meters into own-cost nodes."""
    nodes: list[ProfileNode] = []
    previous = _ZERO
    for step in steps:
        cumulative = profiler._metrics.get(id(step), _ZERO)
        node = ProfileNode(
            name=step.name(),
            seconds=max(0.0, cumulative.seconds - previous.seconds),
            sql_queries=max(0, cumulative.sql_queries - previous.sql_queries),
            sql_rows=max(0, cumulative.sql_rows - previous.sql_rows),
            traversers=cumulative.traversers,
        )
        for label, sub in step.sub_traversals():
            node.children.append(_traversal_node(profiler, label, sub.steps))
        nodes.append(node)
        previous = cumulative
    return nodes


def _traversal_node(
    profiler: TraversalProfiler, label: str, steps: list["Step"]
) -> ProfileNode:
    children = _chain_nodes(profiler, steps)
    tail = profiler._metrics.get(id(steps[-1]), _ZERO) if steps else _ZERO
    return ProfileNode(
        name=label,
        seconds=tail.seconds,
        sql_queries=tail.sql_queries,
        sql_rows=tail.sql_rows,
        traversers=tail.traversers,
        children=children,
    )


def run_profile(traversal: "Traversal") -> ProfileResult:
    """Execute ``traversal`` with metering and build the profile tree."""
    from ..graph.errors import TraversalError
    from ..graph.steps import run_steps

    if traversal.source is None:
        raise TraversalError("cannot profile an anonymous traversal")
    traversal.compile()
    ctx = traversal._execution_context()
    profiler = TraversalProfiler(getattr(ctx.provider, "dialect", None))
    ctx.profiler = profiler

    queries_before, rows_before = profiler._sql_counts()
    started = perf_counter()
    results = [t.obj for t in run_steps(traversal.steps, [], ctx)]
    wall = perf_counter() - started
    queries_after, rows_after = profiler._sql_counts()

    root = ProfileNode(
        name="Traversal",
        seconds=wall,
        sql_queries=queries_after - queries_before,
        sql_rows=rows_after - rows_before,
        traversers=len(results),
        children=_chain_nodes(profiler, traversal.steps),
    )
    return ProfileResult(
        root=root,
        results=results,
        wall_seconds=wall,
        sql_queries=queries_after - queries_before,
        rows_fetched=rows_after - rows_before,
    )
