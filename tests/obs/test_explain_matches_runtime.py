"""``explain()`` previews the plan the runtime runs.

For each traversal below, the SQL that ``explain()`` prints for the
GraphStep — text and bound parameters, in order — must equal the
``sql.issued`` stream of actually running the traversal, and its
elimination notes must name the same ``(table, rule)`` pairs, in the
same order, as the runtime's ``table.eliminated`` events.  Each case
runs with traverser batches of 1 and 256 and the read cache off, so
every statement the plan contains is really issued.
"""

from __future__ import annotations

import re

import pytest

from repro.core import Db2Graph
from repro.obs import tracing

from ..conftest import HEALTHCARE_TINY_OVERLAY

CASES = {
    # 'x' cannot inhabit Patient's prefixed id nor Disease's BIGINT
    # column: both tables are eliminated and nothing is issued.
    "V('x')": lambda g: g.V("x"),
    # two constant ids: one IN probe per batch, or one `=` each
    "V(10, 11)": lambda g: g.V(10, 11),
    # an implicit edge id pins HasDisease and decomposes into columns
    "E('patient::1::hasDisease::11')": lambda g: g.E("patient::1::hasDisease::11"),
    "V()": lambda g: g.V(),
    "V().count()": lambda g: g.V().count(),
    "V('patient::1')": lambda g: g.V("patient::1"),
    # GraphStep::VertexStep mutation: edges fetched by endpoint id
    "V('patient::1').out('hasDisease')": lambda g: g.V("patient::1").out("hasDisease"),
}

_ELIMINATED = re.compile(r"^table (\S+) eliminated \((\w+)\)$")


def _rendered(sql: str, params: list) -> str:
    if params:
        return f"{sql}  [params: {', '.join(repr(p) for p in params)}]"
    return sql


def _explained(traversal) -> tuple[list[str], list]:
    statements: list[str] = []
    eliminations: list = []
    for entry in traversal.explain().step_sql:
        if not entry.step.startswith("GraphStep"):
            assert not entry.statements, entry
            continue
        statements.extend(entry.statements)
        for note in entry.notes:
            match = _ELIMINATED.match(note)
            eliminations.append(match.groups() if match else note)
    return statements, eliminations


@pytest.mark.parametrize("batch_size", [1, 256])
@pytest.mark.parametrize("case", list(CASES))
def test_explain_matches_runtime(paper_db, case, batch_size):
    graph = Db2Graph.open(
        paper_db, HEALTHCARE_TINY_OVERLAY, batch_size=batch_size, cache=False
    )
    build = CASES[case]
    statements, eliminations = _explained(build(graph.traversal()))

    recorder = graph.enable_tracing()
    try:
        build(graph.traversal()).toList()
    finally:
        graph.disable_tracing()
    issued = [
        _rendered(e.get("sql"), list(e.get("params")))
        for e in recorder.named(tracing.SQL_ISSUED)
    ]
    eliminated = [
        (e.get("table"), e.get("rule")) for e in recorder.named(tracing.TABLE_ELIMINATED)
    ]
    assert statements == issued
    assert eliminations == eliminated
