"""The Traversal Strategy module (paper §6.2): Db2 Graph's four
compile-time, data-independent provider strategies.

Each strategy pattern-matches the step plan and mutates it so that GSA
steps carry more pushdown work (turning into fewer / cheaper SQL
queries at runtime):

1. **GraphStep::VertexStep mutation** (runs first): ``g.V(ids).outE()``
   and ``g.V(ids).out()`` lose the pointless vertex-table lookup — the
   edge table already stores the vertex ids as src/dst.  The pair
   becomes one ``GraphStep`` that makes a ``VertexStep``'s call over
   the ids: the strategy decides the shape, and §6.3 the rows read.
2. **Predicate pushdown**: filter steps after a GSA step fold into its
   SQL WHERE clause.  This includes the ``filter(inV().id() == x)``
   shape, which becomes a predicate on the edge's endpoint columns.
3. **Projection pushdown**: ``values(...)/valueMap(...)`` after a GSA
   step narrows the SQL SELECT list.
4. **Aggregate pushdown**: ``count()/sum()/mean()/min()/max()`` after a
   GSA step becomes SQL ``COUNT(*)/SUM(..)/...``.

All four compose; the paper's
``g.V(ids).outE().has('metIn','US').count()`` ends up as a single
``SELECT COUNT(*) FROM EdgeTable WHERE src_v IN (...) AND metIn='US'``.
"""

from __future__ import annotations

from ..graph.model import Direction
from ..graph.predicates import P
from ..graph.steps import (
    CountStep,
    EdgeVertexStep,
    FilterTraversalStep,
    GraphStep,
    HasStep,
    IdStep,
    IsStep,
    MaxStep,
    MeanStep,
    MinStep,
    PropertiesStep,
    Step,
    SumStep,
    ValueMapStep,
    ValueTupleStep,
    VertexStep,
)
from ..graph.strategy import TraversalStrategy
from ..graph.traversal import Traversal


class GraphStepVertexStepMutation(TraversalStrategy):
    priority = 10
    name = "GraphStepVertexStepMutation"

    def apply(self, traversal: Traversal) -> None:
        steps = traversal.steps
        i = 0
        while i < len(steps) - 1:
            graph_step = steps[i]
            vertex_step = steps[i + 1]
            if (
                isinstance(graph_step, GraphStep)
                and graph_step.return_type == "vertex"
                and graph_step.ids
                and graph_step.endpoint_filter is None
                and not graph_step.pushdown.predicates
                and isinstance(vertex_step, VertexStep)
                and self._mutable_direction(vertex_step)
            ):
                fold = (vertex_step.direction, vertex_step.edge_labels, tuple(graph_step.ids))
                steps[i : i + 2] = [GraphStep(vertex_step.return_type, endpoint_filter=fold)]
            i += 1

    @staticmethod
    def _mutable_direction(vertex_step: VertexStep) -> bool:
        if vertex_step.direction in (Direction.OUT, Direction.IN):
            return True
        # a folded both() probes both endpoint columns of every edge
        # table: for an id naming no vertex, twice the lookup the
        # stripped engine stops at (6 statements against 3 on 510-corpus
        # chain 467).  bothE() keeps the edge fold's by-design cost.
        return vertex_step.return_type == "edge"


class PredicatePushdown(TraversalStrategy):
    priority = 20
    name = "PredicatePushdown"

    def apply(self, traversal: Traversal) -> None:
        steps = traversal.steps
        i = 0
        while i < len(steps):
            step = steps[i]
            if not step.is_gsa:
                i += 1
                continue
            pushdown = step.pushdown  # type: ignore[attr-defined]
            j = i + 1
            while j < len(steps):
                candidate = steps[j]
                if isinstance(candidate, HasStep):
                    pushdown.predicates.extend(candidate.conditions)
                    del steps[j]
                    continue
                folded = self._endpoint_predicate(step, candidate)
                if folded is not None:
                    pushdown.predicates.append(folded)
                    del steps[j]
                    continue
                break
            i += 1

    @staticmethod
    def _endpoint_predicate(gsa_step: Step, candidate: Step) -> tuple[str, P] | None:
        """Recognize ``filter(outV().id() == x)`` / ``filter(inV().id()
        == x)`` after an edge-returning GSA step."""
        returns_edges = getattr(gsa_step, "return_type", None) == "edge"
        if not returns_edges or not isinstance(candidate, FilterTraversalStep):
            return None
        if candidate.negated:
            return None
        sub = candidate.sub.steps
        if len(sub) != 3:
            return None
        ev, id_step, is_step = sub
        if not (
            isinstance(ev, EdgeVertexStep)
            and ev.direction in (Direction.OUT, Direction.IN)
            and isinstance(id_step, IdStep)
            and isinstance(is_step, IsStep)
            and is_step.predicate.op in ("eq", "within")
        ):
            return None
        key = "~src_v" if ev.direction is Direction.OUT else "~dst_v"
        return (key, is_step.predicate)


class ProjectionPushdown(TraversalStrategy):
    priority = 30
    name = "ProjectionPushdown"

    def apply(self, traversal: Traversal) -> None:
        steps = traversal.steps
        for i, step in enumerate(steps):
            if not step.is_gsa or i + 1 >= len(steps):
                continue
            nxt = steps[i + 1]
            keys: tuple[str, ...] | None = None
            if isinstance(nxt, (PropertiesStep, ValueMapStep)) and nxt.keys:
                keys = nxt.keys
            elif isinstance(nxt, ValueTupleStep):
                keys = nxt.keys
            if keys:
                step.pushdown.projection = keys  # type: ignore[attr-defined]


_AGG_BY_STEP = {
    CountStep: "count",
    SumStep: "sum",
    MeanStep: "mean",
    MinStep: "min",
    MaxStep: "max",
}


class AggregatePushdown(TraversalStrategy):
    priority = 40
    name = "AggregatePushdown"

    def apply(self, traversal: Traversal) -> None:
        steps = traversal.steps
        i = 0
        while i < len(steps):
            step = steps[i]
            # only GraphStep, and not out()/in() folded from g.V(ids): a
            # scalar over lazy neighbours would first fetch every one
            if not isinstance(step, GraphStep) or (
                step.endpoint_filter is not None and step.return_type == "vertex"
            ):
                i += 1
                continue
            if i + 1 < len(steps) and isinstance(steps[i + 1], CountStep):
                step.pushdown.aggregate = "count"
                del steps[i + 1]
                i += 1
                continue
            if (
                i + 2 < len(steps)
                and isinstance(steps[i + 1], PropertiesStep)
                and len(steps[i + 1].keys) == 1
                and type(steps[i + 2]) in _AGG_BY_STEP
                and not isinstance(steps[i + 2], CountStep)
            ):
                step.pushdown.aggregate = _AGG_BY_STEP[type(steps[i + 2])]
                step.pushdown.aggregate_key = steps[i + 1].keys[0]
                del steps[i + 1 : i + 3]
            i += 1


def optimized_strategies() -> list[TraversalStrategy]:
    """The full Db2 Graph strategy set, in application order."""
    return [
        GraphStepVertexStepMutation(),
        PredicatePushdown(),
        ProjectionPushdown(),
        AggregatePushdown(),
    ]
