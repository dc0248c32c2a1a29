"""``explain()``: the original and strategy-mutated step plans plus the
SQL each GSA step would issue.

TinkerPop ships ``explain()`` as a first-class terminal step; here it
is reproduced over the Db2 Graph translation layer so the paper's §6.2
claims — *which SQL the strategies cause and avoid* — are directly
inspectable:

* the **original** plan (after repeat/until merging, before strategies),
* one :class:`PlanStage` per strategy whose application changed the
  plan (before/after step lists), and
* for every Graph-Structure-Accessing step of the final plan, the SQL
  statement(s) it would issue per surviving table — with table
  eliminations (§6.3) annotated inline.

Nothing here executes SQL.  The previews render, through
``SqlDialect.build_select``, the statements of the §6.3 planner
(``provider.planner``) that the Graph Structure module itself runs: the
same eliminations, id decoding, ``batch_size`` chunking, column lists
and aggregate pushdown.  Ids known only at run time — the vertex batch
of an ``out()``/``in()``-style step, and the neighbours that a folded
``has()`` or projection fetches — show as placeholders.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover
    from ..graph.steps import Step
    from ..graph.traversal import Traversal


@dataclass
class PlanStage:
    """One strategy application that changed the plan."""

    strategy: str
    before: list[str]
    after: list[str]


@dataclass
class StepSql:
    """SQL preview for one step of the final plan."""

    step: str
    statements: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)


@dataclass
class ExplainResult:
    """The output of ``traversal.explain()``.

    Supports ``"GraphStep" in result`` and ``str(result)`` so it can be
    read like the plain-text explain it replaced.
    """

    original: list[str]
    final: list[str]
    stages: list[PlanStage]
    step_sql: list[StepSql]
    strategies: list[str]

    def __contains__(self, item: str) -> bool:
        return item in str(self)

    def __str__(self) -> str:
        lines = ["=== Original plan ==="]
        lines += [f"  {s}" for s in self.original]
        for stage in self.stages:
            lines.append(f"=== After {stage.strategy} ===")
            lines += [f"  {s}" for s in stage.after]
        lines.append("=== Final plan ===")
        lines += [f"  {s}" for s in self.final]
        if any(entry.statements or entry.notes for entry in self.step_sql):
            lines.append("=== SQL per step ===")
            for entry in self.step_sql:
                if not entry.statements and not entry.notes:
                    continue
                lines.append(f"  {entry.step}")
                for note in entry.notes:
                    lines.append(f"    -- {note}")
                for sql in entry.statements:
                    lines.append(f"    {sql}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"ExplainResult({len(self.original)} -> {len(self.final)} steps)"


def describe_plan(steps: list["Step"]) -> list[str]:
    return [step.name() for step in steps]


def build_explain(traversal: "Traversal") -> ExplainResult:
    """Compute an explain plan without executing or mutating
    ``traversal`` (strategies run on a deep-copied plan)."""
    from ..graph.traversal import Traversal

    working = Traversal(traversal.source)
    working.steps = copy.deepcopy(traversal.steps)
    working._merge_pending_repeats()
    original = describe_plan(working.steps)

    stages: list[PlanStage] = []
    strategy_names: list[str] = []
    if traversal.source is not None:
        for strategy in traversal.source.strategies.in_order():
            strategy_names.append(strategy.name)
            before = describe_plan(working.steps)
            strategy.apply(working)
            after = describe_plan(working.steps)
            if before != after:
                stages.append(PlanStage(strategy.name, before, after))
    final = describe_plan(working.steps)

    provider = traversal.source.provider if traversal.source is not None else None
    step_sql = [preview_step_sql(provider, step) for step in working.steps]
    return ExplainResult(original, final, stages, step_sql, strategy_names)


# ---------------------------------------------------------------------------
# SQL previews (OverlayGraph only; other providers issue no SQL)
# ---------------------------------------------------------------------------


def preview_step_sql(provider: Any, step: "Step") -> StepSql:
    """Render the planner's statements for ``step``, with its table
    eliminations as notes.  Planning is pure, so nothing is counted,
    traced or run."""
    from ..core.planning import RUNTIME_IDS, fills
    from ..graph.model import Vertex
    from ..graph.steps import GraphStep, VertexStep

    entry = StepSql(step.name())
    planner = getattr(provider, "planner", None)
    if planner is None or not isinstance(step, (GraphStep, VertexStep)):
        return entry
    pushdown = step.pushdown
    if isinstance(step, GraphStep) and step.endpoint_filter is None:
        eliminated, statements = planner.plan(step.return_type, step.ids, pushdown)
    else:
        if isinstance(step, GraphStep):
            # g.V(ids).out()/outE() folded (§6.2): the batch is the ids
            direction, edge_labels, ids = step.endpoint_filter
            vertices = [Vertex(v, provider=provider) for v in ids]
        else:
            # out()/outE()/...: a placeholder for the run-time batch
            vertices, direction, edge_labels = None, step.direction, step.edge_labels
        eliminated, adjacency = planner.adjacent_plan(
            vertices, direction, edge_labels, pushdown, step.return_type
        )
        statements = [s for a in adjacency for s in a.statements]
        if step.return_type == "vertex" and fills(pushdown):
            # the fetch of the lazy neighbours a folded has() or
            # projection needs, per table hint; their ids come at run time
            lazy = [side.hint for a in adjacency for side in a.sides if side.row_vertex is None]
            for hint in dict.fromkeys(lazy):
                fill = planner.plan("vertex", RUNTIME_IDS, pushdown, planner.hint_tables(hint))
                eliminated, statements = eliminated + fill[0], statements + fill[1]
    entry.notes = [f"table {table} eliminated ({rule})" for table, rule in eliminated]
    for s in statements:
        sql, params = provider.dialect.build_select(s.table, s.columns, s.predicates, s.aggregate)
        rendered = f"{sql}  [params: {', '.join(repr(p) for p in params)}]" if params else sql
        entry.statements.append(rendered)
    return entry
