"""Golden statement stream: the exact, ordered SQL the Graph Structure
module issues for a fixed set of traversals.

For the differential harness's handwritten traversals plus the first 40
corpus chains, under {batch_size 1, 8} × {runtime optimizations on,
off} with the read cache off, the ordered ``table.eliminated``
``(table, rule)``, ``table.queried`` ``(table, kind)`` and
``sql.issued`` ``(sql, params)`` events must equal the committed
fixture ``golden/statement_stream.json``.  Results are checked by the
differential harness; this test pins *how* they are fetched, so a
refactor of the planner cannot silently add, drop, reorder or reshape
a statement or an elimination.

Regenerate the fixture (only when a change to the statement stream is
intended) with::

    PYTHONPATH=src python -m tests.core.test_statement_stream_golden

It prints, per config, every case whose stream differs from the fixture
it replaces, with the case's statement count before -> after.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core import Db2Graph, RuntimeOptimizations
from repro.obs import tracing

from .test_differential_equivalence import (
    CORPUS,
    HANDWRITTEN_TRAVERSALS,
    apply_chain,
    build_dataset,
)

FIXTURE = Path(__file__).parent / "golden" / "statement_stream.json"
N_CHAINS = 40
CONFIGS = [
    (f"batch{batch}/{'opts' if opts_on else 'noopts'}", batch, opts_on)
    for batch in (1, 8)
    for opts_on in (True, False)
]


def _cases():
    for name, build in HANDWRITTEN_TRAVERSALS:
        yield f"handwritten/{name}", lambda g, build=build: build(g).toList()
    for index, recipe in enumerate(CORPUS[:N_CHAINS]):
        yield f"chain/{index}", lambda g, recipe=recipe: apply_chain(g, recipe)


def _stream(recorder) -> list[list]:
    stream: list[list] = []
    for event in recorder.events:
        if event.name == tracing.TABLE_ELIMINATED:
            stream.append(["E", event.get("table"), event.get("rule")])
        elif event.name == tracing.TABLE_QUERIED:
            stream.append(["Q", event.get("table"), event.get("kind")])
        elif event.name == tracing.SQL_ISSUED:
            stream.append(["S", event.get("sql"), list(event.get("params"))])
    return stream


def record_streams() -> dict[str, dict[str, list[list]]]:
    _memory, db, overlay = build_dataset()
    streams: dict[str, dict[str, list[list]]] = {}
    for config, batch, opts_on in CONFIGS:
        graph = Db2Graph.open(
            db,
            overlay,
            batch_size=batch,
            runtime_opts=None if opts_on else RuntimeOptimizations.all_off(),
            cache=False,
        )
        per_case: dict[str, list[list]] = {}
        for case, run in _cases():
            recorder = graph.enable_tracing()
            try:
                run(graph.traversal())
                assert recorder.dropped == 0
                per_case[case] = _stream(recorder)
            finally:
                graph.disable_tracing()
        streams[config] = per_case
    return streams


def encode(streams: dict[str, dict[str, list[list]]]) -> dict:
    """Fixture form: SQL texts are listed once under ``"sql"`` and an
    ``sql.issued`` event becomes ``["S", <index>, params]``."""
    texts: dict[str, int] = {}
    encoded = {
        config: {
            case: [
                ["S", texts.setdefault(e[1], len(texts)), e[2]] if e[0] == "S" else e
                for e in events
            ]
            for case, events in per_case.items()
        }
        for config, per_case in streams.items()
    }
    return {"sql": list(texts), "streams": encoded}


def decode(fixture: dict) -> dict[str, dict[str, list[list]]]:
    texts = fixture["sql"]
    return {
        config: {
            case: [["S", texts[e[1]], e[2]] if e[0] == "S" else e for e in events]
            for case, events in per_case.items()
        }
        for config, per_case in fixture["streams"].items()
    }


@pytest.fixture(scope="module")
def recorded():
    return record_streams()


@pytest.fixture(scope="module")
def golden():
    return decode(json.loads(FIXTURE.read_text()))


@pytest.mark.parametrize("config", [name for name, _b, _o in CONFIGS])
def test_statement_stream_matches_golden(recorded, golden, config):
    expected = golden[config]
    actual = recorded[config]
    assert sorted(actual) == sorted(expected)
    for case, events in expected.items():
        assert actual[case] == events, f"{config} {case}"


def test_golden_fixture_is_not_trivial(golden):
    events = [e for per_case in golden.values() for es in per_case.values() for e in es]
    assert {e[0] for e in events} == {"E", "Q", "S"}
    assert any(e[0] == "S" and " IN (" in e[1] for e in events)


def _statements(events: list[list]) -> int:
    return sum(1 for e in events if e[0] == "S")


def report_changes(before: dict, after: dict) -> list[str]:
    """One line per config, then one per case whose stream changed from
    ``before`` to ``after`` (both decoded), with its statement counts."""
    lines: list[str] = []
    for config in dict.fromkeys([*after, *before]):
        old, new = before.get(config, {}), after.get(config, {})
        changed = [c for c in dict.fromkeys([*new, *old]) if old.get(c) != new.get(c)]
        lines.append(
            f"{config}: {len(changed)} of {len(new)} streams changed, statements "
            f"{sum(map(_statements, old.values()))} -> {sum(map(_statements, new.values()))}"
        )
        lines += [
            f"  {case}: {_statements(old.get(case, []))} -> {_statements(new.get(case, []))}"
            for case in changed
        ]
    return lines


def test_report_lists_changed_streams_with_statement_counts():
    select = ["S", "SELECT a, b FROM t", []]
    narrow = ["S", "SELECT a FROM t", []]
    before = {"cfg": {"same": [select], "moved": [["Q", "t", "edge"], select, select]}}
    after = {"cfg": {"same": [select], "moved": [["Q", "t", "edge"], narrow], "new": [narrow]}}
    assert report_changes(before, after) == [
        "cfg: 2 of 3 streams changed, statements 3 -> 3",
        "  moved: 2 -> 1",
        "  new: 0 -> 1",
    ]


def _write_fixture(streams: dict) -> None:
    fixture = encode(streams)
    lines = ['{"sql": [']
    lines += [f"  {json.dumps(text)}," for text in fixture["sql"]]
    lines[-1] = lines[-1].rstrip(",")
    lines.append('], "streams": {')
    configs = list(fixture["streams"].items())
    for i, (config, per_case) in enumerate(configs):
        lines.append(f"{json.dumps(config)}: {{")
        cases = list(per_case.items())
        for j, (case, events) in enumerate(cases):
            comma = "," if j < len(cases) - 1 else ""
            stream = json.dumps(events, separators=(",", ":"))
            lines.append(f"  {json.dumps(case)}: {stream}{comma}")
        lines.append("}," if i < len(configs) - 1 else "}")
    lines.append("}}")
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text("\n".join(lines) + "\n")


if __name__ == "__main__":
    previous = decode(json.loads(FIXTURE.read_text())) if FIXTURE.exists() else {}
    streams = record_streams()
    _write_fixture(streams)
    print("\n".join(report_changes(previous, streams)))
