"""explain() and profile() unit + snapshot tests.

One test per §6.2 compile-time strategy shows the before/after plan
diff that explain() records when the strategy rewrites the chain, and
the SQL preview attached to each final step.  The profile() tests pin
the timing-tree invariants: a parent's inclusive time bounds its
children's, and the SQL total equals what stats() counted.
"""

from __future__ import annotations

import re

import pytest

from repro.graph import P, __


# ---------------------------------------------------------------------------
# explain(): one before/after diff per strategy
# ---------------------------------------------------------------------------


def stage_by_name(explain, strategy):
    for stage in explain.stages:
        if stage.strategy == strategy:
            return stage
    raise AssertionError(
        f"no {strategy} stage; applied: {[s.strategy for s in explain.stages]}"
    )


def test_predicate_pushdown_plan_diff(paper_graph):
    ex = paper_graph.traversal().V().has("name", "Alice").explain()
    stage = stage_by_name(ex, "PredicatePushdown")
    # before: a separate in-memory Has filter step after the scan
    assert any("Has(" in step for step in stage.before)
    # after: folded into the GraphStep pushdown, Has step gone
    assert not any(step.startswith("Has(") for step in stage.after)
    assert any("P.eq('Alice')" in step and "GraphStep" in step for step in stage.after)
    assert ex.original != ex.final


def test_projection_pushdown_plan_diff(paper_graph):
    ex = paper_graph.traversal().V().hasLabel("patient").values("name").explain()
    stage = stage_by_name(ex, "ProjectionPushdown")
    assert any("projection=None" in step for step in stage.before)
    assert any("projection=" in step and "name" in step for step in stage.after)


def test_aggregate_pushdown_plan_diff(paper_graph):
    ex = paper_graph.traversal().V().count().explain()
    stage = stage_by_name(ex, "AggregatePushdown")
    assert any("Count" in step for step in stage.before)
    # the count moved into SQL: no Count step survives, the GraphStep
    # carries aggregate='count' and the preview is a COUNT(*) query
    assert not any("Count(" in step for step in stage.after)
    assert any("aggregate='count'" in step for step in stage.after)
    sql = "\n".join(stmt for s in ex.step_sql for stmt in s.statements)
    assert "COUNT" in sql.upper()


def test_graphstep_vertexstep_mutation_plan_diff(paper_graph):
    ex = paper_graph.traversal().V("patient::1").out("hasDisease").explain()
    stage = stage_by_name(ex, "GraphStepVertexStepMutation")
    assert any("VertexStep(out" in step for step in stage.before)
    # rewritten to one step: patient 1's out('hasDisease') neighbours,
    # with no vertex lookup and no endpoint hop
    assert stage.after == [
        "GraphStep(V(ids=['patient::1']).out(labels=('hasDisease',)), pushdown="
        "Pushdown(labels=None, predicates=[], projection=None, aggregate=None, "
        "aggregate_key=None))"
    ]
    sql = "\n".join(stmt for s in ex.step_sql for stmt in s.statements)
    # the neighbour path's columns: the endpoints, no edge property
    assert "SELECT patientID, diseaseID FROM HasDisease" in sql and "patientID = ?" in sql


def test_explain_snapshot_sections(paper_graph):
    text = str(paper_graph.traversal().V().has("name", "Alice").explain())
    for section in (
        "=== Original plan ===",
        "=== After PredicatePushdown ===",
        "=== Final plan ===",
        "=== SQL per step ===",
    ):
        assert section in text, text
    assert "SELECT" in text
    assert "table Disease eliminated (property_names)" in text


def test_explain_without_strategies_has_no_stages(paper_db):
    from repro.core import Db2Graph

    from ..conftest import HEALTHCARE_TINY_OVERLAY

    plain = Db2Graph.open(paper_db, HEALTHCARE_TINY_OVERLAY, optimized=False)
    ex = plain.traversal().V().has("name", "Alice").explain()
    assert ex.stages == []
    assert ex.original == ex.final
    assert any("Has(" in step for step in ex.final)


def test_explain_is_side_effect_free(paper_graph):
    paper_graph.reset_stats()
    recorder = paper_graph.enable_tracing()
    paper_graph.traversal().V().hasLabel("patient").out("hasDisease").explain()
    # previews must not issue SQL, bump counters, or emit table events
    stats = paper_graph.stats()
    assert stats["sql_queries"] == 0
    assert stats["tables_eliminated"] == 0
    assert not recorder.count("table.eliminated")
    assert not recorder.count("sql.issued")
    paper_graph.disable_tracing()


_SELECT = re.compile(r"^SELECT (.*?) FROM (\w+)")


def _select_lists(sqls) -> set[tuple[str, str]]:
    """``(table, column list)`` of each SELECT."""
    return {(m.group(2), m.group(1)) for m in map(_SELECT.match, sqls)}


@pytest.mark.parametrize(
    "build",
    [
        lambda g: g.V().out(),
        lambda g: g.V().in_("hasDisease"),
        lambda g: g.V().both(),
        # folded by the GraphStep::VertexStep mutation into one step
        lambda g: g.V(10, 11, 12, 13).in_("hasDisease"),
    ],
    ids=["out", "in_hasDisease", "both", "V_ids_in_hasDisease"],
)
def test_vertex_step_preview_selects_the_runtime_columns(paper_db, build):
    """An out()/in()/both() preview lists exactly the columns the
    runtime fetches per edge table: the endpoints, plus the label column
    a step label is re-checked on, and no edge property."""
    from repro.core import Db2Graph
    from repro.obs import tracing

    from ..conftest import HEALTHCARE_TINY_OVERLAY

    graph = Db2Graph.open(paper_db, HEALTHCARE_TINY_OVERLAY, cache=False)
    edge_tables = {etop.table_name for etop in graph.provider.topology.edge_tables}
    previewed = _select_lists(
        sql for entry in build(graph.traversal()).explain().step_sql for sql in entry.statements
    )
    previewed = {(table, columns) for table, columns in previewed if table in edge_tables}
    recorder = graph.enable_tracing()
    try:
        build(graph.traversal()).toList()
    finally:
        graph.disable_tracing()
    issued = _select_lists(e.get("sql") for e in recorder.named(tracing.SQL_ISSUED))
    issued = {(table, columns) for table, columns in issued if table in edge_tables}
    assert previewed == issued
    assert {table for table, _columns in issued} == edge_tables
    assert not any("description" in columns for _table, columns in issued)


def test_explain_contains_keeps_string_protocol(paper_graph):
    ex = paper_graph.traversal().V().explain()
    assert "GraphStep" in ex  # ExplainResult.__contains__ delegates to str


# ---------------------------------------------------------------------------
# profile(): timing tree invariants
# ---------------------------------------------------------------------------


def test_profile_parent_time_bounds_children(paper_graph):
    p = (
        paper_graph.traversal()
        .V()
        .hasLabel("patient")
        .filter_(__.out("hasDisease"))
        .profile()
    )
    eps = 1e-6

    def check(node):
        assert node.seconds + eps >= sum(c.seconds for c in node.children), node.name
        for child in node.children:
            check(child)

    check(p.root)
    assert p.wall_seconds + eps >= sum(c.seconds for c in p.children)


def test_profile_sql_total_matches_stats(paper_graph):
    paper_graph.reset_stats()
    p = paper_graph.traversal().V().hasLabel("patient").out("hasDisease").profile()
    stats = paper_graph.stats()
    assert p.sql_queries == stats["sql_queries"] > 0
    assert p.rows_fetched == stats["rows_fetched"]
    # per-step sql counts sum to the total (no step double-counts)
    assert sum(c.sql_queries for c in p.children) == p.sql_queries


def test_profile_reports_traversers_and_results(paper_graph):
    p = paper_graph.traversal().V().hasLabel("patient").profile()
    assert len(p.children) == 1 and "GraphStep" in p.children[0].name
    n_patients = paper_graph.traversal().V().hasLabel("patient").count().next()
    assert p.children[-1].traversers == len(p.results) == n_patients > 0


def test_profile_renders_tree(paper_graph):
    p = (
        paper_graph.traversal()
        .V()
        .hasLabel("patient")
        .filter_(__.out("hasDisease"))
        .profile()
    )
    text = str(p)
    assert "GraphStep" in text
    assert "Filter" in text
    assert "sql=" in text and "traversers=" in text
    # nested sub-traversal is indented under its parent step
    assert "\n    filter" in text


def test_profile_has_step_and_subtraversal_nodes(paper_graph):
    p = (
        paper_graph.traversal()
        .V()
        .hasLabel("patient")
        .filter_(__.out("hasDisease"))
        .profile()
    )
    assert len(p.children) == 2
    filter_node = p.children[1]
    assert filter_node.children and filter_node.children[0].name == "filter"
    sub_steps = filter_node.children[0].children
    assert sub_steps and "VertexStep" in sub_steps[0].name


def test_explain_previews_the_fill_after_out():
    """A ``values()`` folded into ``out()`` fetches the neighbours after
    the edge read: explain() lists that fill, with placeholder ids, so
    it shows as many statements as profile() counts."""
    from repro.core import Db2Graph
    from repro.relational import Database

    db = Database()
    db.execute("CREATE TABLE Person (id BIGINT PRIMARY KEY, name VARCHAR)")
    db.execute("CREATE TABLE Knows (src BIGINT, dst BIGINT, since INT)")
    for row in ("Person VALUES (1, 'ada')", "Person VALUES (2, 'grace')",
                "Knows VALUES (1, 2, 1950)"):
        db.execute(f"INSERT INTO {row}")
    overlay = {
        "v_tables": [{"table_name": "Person", "id": "id", "fix_label": True,
                      "label": "'person'", "properties": ["name"]}],
        "e_tables": [{"table_name": "Knows", "src_v_table": "Person", "src_v": "src",
                      "dst_v_table": "Person", "dst_v": "dst", "implicit_edge_id": True,
                      "fix_label": True, "label": "'knows'"}],
    }
    graph = Db2Graph.open(db, overlay, cache=False)
    build = lambda g: g.V(1).out("knows").values("name")  # noqa: E731
    statements = [sql for entry in build(graph.traversal()).explain().step_sql
                  for sql in entry.statements]
    assert statements == [
        "SELECT src, dst FROM Knows WHERE src = ?  [params: 1]",
        "SELECT id, name FROM Person WHERE id IN (?)  [params: '<neighbour ids>']",
    ]
    profile = build(graph.traversal()).profile()
    assert profile.sql_queries == len(statements) == 2
