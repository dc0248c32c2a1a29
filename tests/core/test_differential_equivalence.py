"""Seeded differential harness: a deterministic corpus of 500+ traversal
chains runs under all four optimization configurations — compile-time
strategies (§6.2) on/off × runtime data-dependent optimizations (§6.3)
on/off — plus the in-memory reference graph.  Every configuration must
return identical (normalized) results, and the fully optimized engine
must never issue *more* SQL than the stripped one (checked through
``sql.issued`` trace events, not wall time, so it is deterministic).

A second, orthogonal matrix locks in traverser batching:
{batch_size 1, 8, 64} × {strategies on, off} must all return the same
result multiset as the in-memory reference, and the batched engines
must issue *strictly fewer* SQL statements than batch_size=1 over the
corpus (again counted from ``sql.issued`` trace events, so
deterministic).

Unlike the hypothesis fuzzers (test_fuzz_traversals.py), the corpus
here is generated with a fixed ``random.Random`` seed so every CI run
exercises exactly the same 510 chains — a regression in any one of
them reproduces locally with no shrinking step.  The hand-written
corpus from test_equivalence.py is folded in as well.
"""

from __future__ import annotations

import random

import pytest

from repro.core import Db2Graph, RuntimeOptimizations
from repro.graph import Edge, GraphTraversalSource, InMemoryGraph, P, TextP, Vertex, __
from repro.obs import tracing
from repro.relational import Database

from .test_equivalence import TRAVERSALS as HANDWRITTEN_TRAVERSALS

SEED = 20260806
CORPUS_SIZE = 510
N_LABELS = 3
LABELS = [f"L{i}" for i in range(N_LABELS)]
EDGE_LABELS = [f"E{i}" for i in range(N_LABELS)]


# ---------------------------------------------------------------------------
# One fixed dataset, five engines over it
# ---------------------------------------------------------------------------


def build_dataset():
    memory = InMemoryGraph()
    db = Database(enforce_foreign_keys=False)
    for label in LABELS:
        db.execute(f"CREATE TABLE v_{label} (id INT PRIMARY KEY, score INT, word VARCHAR)")
    for label in EDGE_LABELS:
        db.execute(f"CREATE TABLE e_{label} (src INT, dst INT, weight INT)")

    n = 18
    for i in range(n):
        label = LABELS[i % N_LABELS]
        word = f"w{i % 5}x" if i % 3 else f"q{i}"
        score = i % 7 if i % 4 else None
        memory.add_vertex(i, label, {"score": score, "word": word})
        db.execute(f"INSERT INTO v_{label} VALUES (?, ?, ?)", [i, score, word])

    edges = [(i, (i * 5 + 2) % n, EDGE_LABELS[i % N_LABELS], i % 4) for i in range(n)]
    edges += [
        (i, (i * 3 + 7) % n, EDGE_LABELS[(i + 1) % N_LABELS], (i + 2) % 4)
        for i in range(0, n, 2)
    ]
    for src, dst, label, weight in edges:
        memory.add_edge(label, src, dst, {"weight": weight})
        db.execute(f"INSERT INTO e_{label} VALUES (?, ?, ?)", [src, dst, weight])

    overlay = {
        "v_tables": [
            {"table_name": f"v_{label}", "id": "id", "fix_label": True,
             "label": f"'{label}'", "properties": ["score", "word"]}
            for label in LABELS
        ],
        "e_tables": [
            {"table_name": f"e_{label}", "src_v": "src", "dst_v": "dst",
             "implicit_edge_id": True, "fix_label": True, "label": f"'{label}'",
             "properties": ["weight"]}
            for label in EDGE_LABELS
        ],
    }
    return memory, db, overlay


# The four corners of the (strategies on/off, runtime opts on/off) grid.
CONFIG_GRID = [
    ("strategies+runtime", True, None),
    ("strategies-only", True, RuntimeOptimizations.all_off()),
    ("runtime-only", False, None),
    ("stripped", False, RuntimeOptimizations.all_off()),
]

# The batching matrix: {batch_size 1, 8, 64} × {strategies on, off}.
# Every cell must agree with the in-memory reference; within a
# strategies row the batched cells must issue strictly fewer SQL
# statements than batch=1.
BATCH_MATRIX = [
    (f"batch{batch}/{'opt' if optimized else 'raw'}", batch, optimized)
    for batch in (1, 8, 64)
    for optimized in (True, False)
]


@pytest.fixture(scope="module")
def engines():
    memory, db, overlay = build_dataset()
    graphs = {
        # cache=False: this module counts sql.issued events exactly;
        # read-cache hits (REPRO_CACHE_ENABLED=1 CI leg) skip statements.
        name: Db2Graph.open(
            db, overlay, optimized=optimized, runtime_opts=opts, cache=False
        )
        for name, optimized, opts in CONFIG_GRID
    }
    return GraphTraversalSource(memory), graphs


@pytest.fixture(scope="module")
def matrix_engines():
    memory, db, overlay = build_dataset()
    graphs = {
        name: Db2Graph.open(
            db, overlay, optimized=optimized, batch_size=batch, cache=False
        )
        for name, batch, optimized in BATCH_MATRIX
    }
    return GraphTraversalSource(memory), graphs


# ---------------------------------------------------------------------------
# Deterministic chain generator (same shape as the hypothesis fuzzer's
# move pools, but operands are drawn from a seeded random.Random)
# ---------------------------------------------------------------------------

VERTEX_MOVES = [
    ("vertex", lambda t, v: t.out(v), lambda r: r.choice(EDGE_LABELS)),
    ("vertex", lambda t, v: t.in_(v), lambda r: r.choice(EDGE_LABELS)),
    ("vertex", lambda t, v: t.out(), None),
    ("vertex", lambda t, v: t.both(), None),
    ("edge", lambda t, v: t.outE(v), lambda r: r.choice(EDGE_LABELS)),
    ("edge", lambda t, v: t.inE(), None),
    ("vertex", lambda t, v: t.hasLabel(v), lambda r: r.choice(LABELS)),
    ("vertex", lambda t, v: t.has("score", P.gte(v)), lambda r: r.randint(0, 6)),
    ("vertex", lambda t, v: t.has("score", P.within(v, v + 2)), lambda r: r.randint(0, 5)),
    ("vertex", lambda t, v: t.has("word", TextP.startingWith(v)),
     lambda r: r.choice(["w", "q", "w1"])),
    ("vertex", lambda t, v: t.has("word", TextP.containing(v)),
     lambda r: r.choice(["x", "1", "zz"])),
    ("vertex", lambda t, v: t.hasNot("score"), None),
    ("vertex", lambda t, v: t.dedup(), None),
    ("vertex", lambda t, v: t.filter_(__.out()), None),
    ("vertex", lambda t, v: t.not_(__.outE(v)), lambda r: r.choice(EDGE_LABELS)),
    ("value", lambda t, v: t.values(v), lambda r: r.choice(["score", "word"])),
    ("value", lambda t, v: t.id_(), None),
    ("value", lambda t, v: t.label(), None),
    ("vertex", lambda t, v: t.union(__.out(), __.in_()), None),
    ("vertex", lambda t, v: t.repeat(__.out().dedup()).times(v), lambda r: r.randint(1, 2)),
    ("vertex", lambda t, v: t.optional(__.out(v)), lambda r: r.choice(EDGE_LABELS)),
]

EDGE_MOVES = [
    ("vertex", lambda t, v: t.inV(), None),
    ("vertex", lambda t, v: t.outV(), None),
    ("edge", lambda t, v: t.has("weight", P.lt(v)), lambda r: r.randint(0, 4)),
    ("edge", lambda t, v: t.hasLabel(v), lambda r: r.choice(EDGE_LABELS)),
    ("edge", lambda t, v: t.dedup(), None),
    ("value", lambda t, v: t.values("weight"), None),
    ("value", lambda t, v: t.label(), None),
    ("edge", lambda t, v: t.filter_(__.inV().has("score", P.gte(v))), lambda r: r.randint(0, 5)),
]

VALUE_MOVES = [
    ("value", lambda t, v: t.dedup(), None),
]

TERMINALS = {
    "vertex": [lambda t: t.count(), lambda t: t.id_(), None],
    "edge": [lambda t: t.count(), None],
    "value": [lambda t: t.count(), None],
}

POOLS = {"vertex": VERTEX_MOVES, "edge": EDGE_MOVES, "value": VALUE_MOVES}


def generate_corpus(size: int, seed: int):
    rng = random.Random(seed)
    corpus = []
    for _ in range(size):
        if rng.random() < 0.25:
            start_ids = tuple(
                rng.randint(0, 19) for _ in range(rng.randint(1, 3))
            )
        else:
            start_ids = None
        moves = []
        current = "vertex"
        for _ in range(rng.randint(0, 5)):
            pool = POOLS[current]
            index = rng.randrange(len(pool))
            sampler = pool[index][2]
            operand = sampler(rng) if sampler is not None else None
            moves.append((current, index, operand))
            current = pool[index][0]
        terminal_index = rng.randrange(len(TERMINALS[current]))
        corpus.append((start_ids, moves, current, terminal_index))
    return corpus


CORPUS = generate_corpus(CORPUS_SIZE, SEED)


def apply_chain(g, recipe):
    start_ids, moves, final_type, terminal_index = recipe
    traversal = g.V() if start_ids is None else g.V(*start_ids)
    for current, index, operand in moves:
        traversal = POOLS[current][index][1](traversal, operand)
    terminal = TERMINALS[final_type][terminal_index]
    if terminal is not None:
        traversal = terminal(traversal)
    return traversal.toList()


def normalize(results):
    out = []
    for item in results:
        if isinstance(item, Edge):
            out.append(("edge", item.label, str(item.out_v_id), str(item.in_v_id)))
        elif isinstance(item, Vertex):
            out.append(("vertex", str(item.id)))
        elif isinstance(item, dict):
            out.append(tuple(sorted((k, str(v)) for k, v in item.items())))
        else:
            out.append(item)
    return sorted(out, key=repr)


# ---------------------------------------------------------------------------
# The differential checks
# ---------------------------------------------------------------------------


def test_corpus_is_large_and_deterministic():
    assert len(CORPUS) >= 500
    assert generate_corpus(CORPUS_SIZE, SEED) == CORPUS


@pytest.mark.parametrize("index", range(CORPUS_SIZE))
def test_all_configs_agree_with_reference(engines, index):
    g_memory, graphs = engines
    recipe = CORPUS[index]
    expected = normalize(apply_chain(g_memory, recipe))
    for name, graph in graphs.items():
        actual = normalize(apply_chain(graph.traversal(), recipe))
        assert actual == expected, (
            f"config {name!r} diverged on chain #{index} {recipe}: "
            f"overlay={actual} memory={expected}"
        )


@pytest.mark.parametrize("name,build", HANDWRITTEN_TRAVERSALS, ids=[n for n, _ in HANDWRITTEN_TRAVERSALS])
def test_handwritten_corpus_all_configs(engines, name, build):
    g_memory, graphs = engines
    expected = normalize(build(g_memory).toList())
    for config, graph in graphs.items():
        actual = normalize(build(graph.traversal()).toList())
        assert actual == expected, f"{name} under {config}: {actual} != {expected}"


def _sql_issued(graph, recipe) -> int:
    recorder = graph.enable_tracing()
    try:
        apply_chain(graph.traversal(), recipe)
        return recorder.count(tracing.SQL_ISSUED)
    finally:
        graph.disable_tracing()


# ---------------------------------------------------------------------------
# Batching matrix (traverser batching × strategies)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("index", range(CORPUS_SIZE))
def test_parallel_matrix_agrees_with_reference(matrix_engines, index):
    """All 6 (batch_size, strategies) cells return the same result
    multiset as the in-memory graph for every chain — batched results
    demultiplex back to their traversers exactly."""
    g_memory, graphs = matrix_engines
    recipe = CORPUS[index]
    expected = normalize(apply_chain(g_memory, recipe))
    for name, graph in graphs.items():
        actual = normalize(apply_chain(graph.traversal(), recipe))
        assert actual == expected, (
            f"matrix cell {name!r} diverged on chain #{index} {recipe}: "
            f"overlay={actual} memory={expected}"
        )


@pytest.mark.parametrize("optimized", [True, False])
def test_batched_issues_strictly_fewer_sql(matrix_engines, optimized):
    """Traverser batching is not free-floating configuration: within a
    strategies row, coalescing ids into ``IN (...)`` lists must
    *strictly* reduce the number of SQL statements issued over the
    corpus, and monotonically so (64 ≤ 8 < 1)."""
    _, graphs = matrix_engines
    flavor = "opt" if optimized else "raw"
    totals = {}
    for batch in (1, 8, 64):
        graph = graphs[f"batch{batch}/{flavor}"]
        totals[batch] = sum(_sql_issued(graph, recipe) for recipe in CORPUS)
    assert totals[64] <= totals[8] < totals[1], totals
    assert totals[64] < totals[1]


def test_batched_statement_counts_reconcile(matrix_engines):
    """``batch.size`` (total coalesced ids) must equal the sum of the
    ``size`` attributes on ``sql.batched`` trace events, and the
    ``sql.batched`` counter the number of those events — the 1:1
    counter/event invariant extended to the new instrumentation."""
    _, graphs = matrix_engines
    graph = graphs["batch8/opt"]
    recorder = graph.enable_tracing()
    before = graph.stats()
    try:
        for recipe in CORPUS[:40]:
            apply_chain(graph.traversal(), recipe)
        events = recorder.named(tracing.SQL_BATCHED)
        after = graph.stats()
    finally:
        graph.disable_tracing()
    assert after["batched_statements"] - before["batched_statements"] == len(events)
    assert after["batched_ids"] - before["batched_ids"] == sum(
        e.attributes["size"] for e in events
    )
    assert all(e.attributes["size"] > 1 for e in events)
    assert all("statement_id" in e.attributes for e in events)


def test_optimized_never_issues_more_sql(engines):
    """The whole point of §6.2+§6.3: the optimized engine answers the
    same question with at most as many SQL round trips.  Counted from
    ``sql.issued`` trace events so the check is exact, not a timing."""
    _, graphs = engines
    fast = graphs["strategies+runtime"]
    slow = graphs["stripped"]
    regressions = []
    savings = 0
    for index, recipe in enumerate(CORPUS):
        n_fast = _sql_issued(fast, recipe)
        n_slow = _sql_issued(slow, recipe)
        if n_fast > n_slow:
            regressions.append((index, recipe, n_fast, n_slow))
        savings += n_slow - n_fast
    assert not regressions, (
        f"optimized engine issued MORE sql on {len(regressions)} chains: "
        f"{regressions[:3]}"
    )
    # and the optimizations must actually bite somewhere in the corpus
    assert savings > 0
