"""Trace events and stats() counters are two views of the same program
points — every counter increment emits a matching event at the same
site.  These tests pin that 1:1 invariant on the paper's §6.3
data-dependent optimizations using the Figure 2 healthcare graph:
fixed-label elimination (``label_values``), prefixed-id table pinning
(``prefixed_ids``), and vertex-from-edge materialization.

Also the reset_stats() regression: after a reset, *every* counter —
including the prepared-statement cache counters that the pre-registry
implementation missed — reads zero and the trace buffer is empty.
"""

from __future__ import annotations

import pytest

from repro.obs import tracing


@pytest.fixture()
def traced(paper_graph):
    paper_graph.reset_stats()
    recorder = paper_graph.enable_tracing()
    yield paper_graph, recorder
    paper_graph.disable_tracing()


def assert_counters_match_events(graph, recorder):
    stats = graph.stats()
    assert stats["tables_eliminated"] == recorder.count(tracing.TABLE_ELIMINATED)
    # sql_queries counts every issued statement — selects AND the
    # inserts that addV/addE translate to — so match all kinds.
    assert stats["sql_queries"] == recorder.count(tracing.SQL_ISSUED)
    assert stats["vertex_table_queries"] == recorder.count(tracing.TABLE_QUERIED, kind="vertex")
    assert stats["edge_table_queries"] == recorder.count(tracing.TABLE_QUERIED, kind="edge")
    assert stats["vertices_from_edges"] == recorder.count(tracing.VERTEX_FROM_EDGE)
    assert stats["lazy_vertices"] == recorder.count(tracing.VERTEX_LAZY)
    assert_batch_counters_match_events(graph, recorder)
    assert_resilience_counters_match_events(graph, recorder)
    assert_cache_counters_match_events(graph, recorder)
    assert_durability_counters_match_events(graph, recorder)
    assert_service_counters_match_events(graph, recorder)
    assert_analytics_counters_match_events(graph, recorder)
    assert_replication_counters_match_events(graph, recorder)


def assert_batch_counters_match_events(graph, recorder):
    """The traverser-batching counters keep the 1:1 invariant: one
    ``sql.batched`` event per batched statement, and ``batch.size`` is
    the sum of the events' ``size`` attributes."""
    stats = graph.stats()
    batched = recorder.named(tracing.SQL_BATCHED)
    assert stats["batched_statements"] == len(batched)
    assert stats["batched_ids"] == sum(e.get("size", 0) for e in batched)


def assert_resilience_counters_match_events(graph, recorder):
    """Every resilience counter has a trace event at the same site."""
    stats = graph.stats()
    assert stats["sql_errors"] == recorder.count(tracing.SQL_ERROR)
    assert stats["lock_waits"] == recorder.count(tracing.LOCK_WAIT)
    assert stats["deadlocks"] == recorder.count(tracing.DEADLOCK_DETECTED)
    assert stats["retry_attempts"] == recorder.count(tracing.RETRY_ATTEMPT)
    assert stats["retry_exhausted"] == recorder.count(tracing.RETRY_EXHAUSTED)
    assert stats["budget_exceeded"] == recorder.count(tracing.BUDGET_EXCEEDED)
    assert stats["faults_injected"] == recorder.count(tracing.FAULT_INJECTED)


def assert_cache_counters_match_events(graph, recorder):
    """The graph read cache keeps the 1:1 invariant too — with the
    cache off every counter and event count is identically zero, so
    the same assertions pin both configurations."""
    stats = graph.stats()
    assert stats["cache_hits"] == recorder.count(tracing.CACHE_HIT)
    assert stats["cache_misses"] == recorder.count(tracing.CACHE_MISS)
    assert stats["cache_evictions"] == recorder.count(tracing.CACHE_EVICT)
    assert stats["cache_invalidations"] == recorder.count(tracing.CACHE_INVALIDATE)
    assert stats["cache_bypass_txn"] == recorder.count(tracing.CACHE_BYPASS_TXN)


def assert_durability_counters_match_events(graph, recorder):
    """The WAL and recovery counters keep the 1:1 invariant — with no
    durability attached every pair is identically zero, so the same
    assertions pin both configurations."""
    stats = graph.stats()
    assert stats["wal_appends"] == recorder.count(tracing.WAL_APPEND)
    assert stats["wal_flushes"] == recorder.count(tracing.WAL_FLUSH)
    assert stats["checkpoints_written"] == recorder.count(tracing.CHECKPOINT_WRITTEN)
    assert stats["recovery_replayed"] == recorder.count(tracing.RECOVERY_REPLAYED)
    assert stats["recovery_discarded"] == recorder.count(tracing.RECOVERY_DISCARDED)


def assert_service_counters_match_events(graph, recorder):
    """The service-layer admission counters keep the 1:1 invariant —
    outside a GraphService every pair is identically zero, so the same
    assertions pin standalone graphs and multiplexed sessions alike.
    ``service.queue_depth`` is a histogram whose every observation is
    mirrored by one ``service.queued`` event."""
    stats = graph.stats()
    assert stats["service_admitted"] == recorder.count(tracing.SERVICE_ADMITTED)
    assert stats["service_rejected"] == recorder.count(tracing.SERVICE_REJECTED)
    assert stats["service_shed"] == recorder.count(tracing.SERVICE_SHED)
    assert stats["service_sessions_opened"] == recorder.count(
        tracing.SERVICE_SESSION_OPEN
    )
    assert stats["service_sessions_closed"] == recorder.count(
        tracing.SERVICE_SESSION_CLOSE
    )
    from repro.obs import metrics as M

    depth = graph.registry.histogram(M.SERVICE_QUEUE_DEPTH)
    assert depth.count == recorder.count(tracing.SERVICE_QUEUED)


def assert_analytics_counters_match_events(graph, recorder):
    """The bulk-analytics counters keep the 1:1 invariant — one
    ``analytics.step`` event per step counter increment, one
    ``analytics.converged`` event per natural convergence, and the
    ``frontier.size`` histogram mirrored observation-for-event (the
    same shape as ``service.queue_depth``).  Outside analytics runs
    every pair is identically zero."""
    stats = graph.stats()
    assert stats["analytics_steps"] == recorder.count(tracing.ANALYTICS_STEP)
    assert stats["analytics_converged"] == recorder.count(
        tracing.ANALYTICS_CONVERGED
    )
    from repro.obs import metrics as M

    frontier = graph.registry.histogram(M.FRONTIER_SIZE)
    assert frontier.count == recorder.count(tracing.FRONTIER_SIZE)
    sizes = [e.get("size") for e in recorder.named(tracing.FRONTIER_SIZE)]
    if sizes:
        assert frontier.max == max(sizes)


def assert_replication_counters_match_events(graph, recorder):
    """The replication / failover counters keep the 1:1 invariant —
    one ``repl.ship`` event per shipped-batch counter increment, one
    ``repl.apply``/``repl.ack``/``repl.fenced``/``repl.retransmit``/
    ``repl.read.fallthrough``/``failover.promote`` event per counter,
    and the ``repl.lag`` histogram mirrored observation-for-event.
    Outside a replicated cluster every pair is identically zero."""
    stats = graph.stats()
    assert stats["repl_shipped"] == recorder.count(tracing.REPL_SHIP)
    assert stats["repl_applied"] == recorder.count(tracing.REPL_APPLY)
    assert stats["repl_acked"] == recorder.count(tracing.REPL_ACK)
    assert stats["repl_fenced"] == recorder.count(tracing.REPL_FENCED)
    assert stats["repl_retransmits"] == recorder.count(tracing.REPL_RETRANSMIT)
    assert stats["repl_read_fallthrough"] == recorder.count(
        tracing.REPL_READ_FALLTHROUGH
    )
    assert stats["failover_promotions"] == recorder.count(
        tracing.FAILOVER_PROMOTE
    )
    assert stats["repl_lag_samples"] == recorder.count(tracing.REPL_LAG)


def test_analytics_counters_match_events(traced):
    graph, recorder = traced
    an = graph.analytics()
    an.bfs("patient::1", direction="both")
    an.wcc()
    an.pagerank(max_iterations=3)
    stats = graph.stats()
    assert stats["analytics_steps"] > 0
    assert stats["analytics_converged"] == 2  # bfs + wcc; pagerank was cut off
    assert stats["frontier_samples"] == stats["analytics_steps"]
    assert_counters_match_events(graph, recorder)


def test_fixed_label_elimination_counters_match_events(traced):
    graph, recorder = traced
    g = graph.traversal()
    patients = g.V().hasLabel("patient").toList()
    assert patients
    # hasLabel('patient') prunes Disease via its fixed label — the
    # rule-tagged event and the per-rule counter must agree.
    by_rule = recorder.count(tracing.TABLE_ELIMINATED, rule="label_values")
    assert by_rule > 0
    assert graph.metrics()["structure.eliminated.label_values"] == by_rule
    assert_counters_match_events(graph, recorder)


def test_prefixed_id_pinning_counters_match_events(traced):
    graph, recorder = traced
    g = graph.traversal()
    # 'patient::1' decodes to the Patient table only — every other
    # vertex table is eliminated by the prefixed-id rule before any SQL.
    assert [v.id for v in g.V("patient::1").toList()] == ["patient::1"]
    assert recorder.count(tracing.TABLE_ELIMINATED, rule="prefixed_ids") > 0
    assert recorder.count(tracing.TABLE_QUERIED, kind="vertex") == 1
    assert_counters_match_events(graph, recorder)


def test_repeated_ids_eliminate_each_table_once(traced):
    # g.V(10, 10).count() fetches and counts in memory (the IN list
    # dedups), but it prunes Patient once, as g.V(10).count() does
    graph, recorder = traced
    g = graph.traversal()
    eliminations = []
    for ids in ((10,), (10, 10)):
        graph.reset_stats()
        recorder.clear()
        assert g.V(*ids).hasLabel("disease").count().next() == len(ids)
        eliminations.append(recorder.named(tracing.TABLE_ELIMINATED))
        assert graph.stats()["tables_eliminated"] == len(eliminations[-1])
    single, repeated = ([(e.get("table"), e.get("rule")) for e in es] for es in eliminations)
    assert repeated == single == [("Patient", "label_values")]
    assert_counters_match_events(graph, recorder)


def test_vertex_from_edge_counters_match_events(traced):
    graph, recorder = traced
    g = graph.traversal()
    diseases = g.V().hasLabel("patient").out("hasDisease").toList()
    assert diseases
    stats = graph.stats()
    assert stats["vertices_from_edges"] + stats["lazy_vertices"] > 0
    assert_counters_match_events(graph, recorder)


def test_every_event_rule_has_a_matching_counter(traced):
    graph, recorder = traced
    g = graph.traversal()
    g.V().hasLabel("patient").out("hasDisease").values("conceptName").toList()
    g.E().toList()
    metrics = graph.metrics()
    rules = {e.get("rule") for e in recorder.named(tracing.TABLE_ELIMINATED)}
    for rule in rules:
        assert metrics[f"structure.eliminated.{rule}"] == recorder.count(
            tracing.TABLE_ELIMINATED, rule=rule
        ), rule
    assert_counters_match_events(graph, recorder)


def test_sql_error_counters_match_events(traced):
    graph, recorder = traced
    from repro.relational import CatalogError

    with pytest.raises(CatalogError):
        graph.connection.execute("INSERT INTO NoSuchTable VALUES (1)")
    assert graph.stats()["sql_errors"] == 1
    event = recorder.named(tracing.SQL_ERROR)[0]
    assert event.get("error") == "CatalogError"
    assert event.get("statement") == "insert"
    assert_counters_match_events(graph, recorder)


def test_retry_and_fault_counters_match_events(paper_db):
    import random

    from repro.core import Db2Graph
    from repro.resilience import FaultInjector, RetryPolicy
    from tests.conftest import HEALTHCARE_TINY_OVERLAY

    graph = Db2Graph.open(
        paper_db,
        HEALTHCARE_TINY_OVERLAY,
        retry_policy=RetryPolicy(
            max_attempts=3, sleep=lambda _s: None, rng=random.Random(0)
        ),
    )
    graph.reset_stats()
    recorder = graph.enable_tracing()
    injector = FaultInjector(seed=9)
    injector.add("lock_timeout", table="HasDisease", times=2)
    paper_db.fault_injector = injector
    try:
        graph.traversal().V().hasLabel("patient").out("hasDisease").toList()
    finally:
        paper_db.fault_injector = None
    stats = graph.stats()
    assert stats["faults_injected"] == 2
    assert stats["retry_attempts"] == 2
    assert stats["sql_errors"] == 2  # each injected fault surfaced once
    assert_counters_match_events(graph, recorder)
    graph.disable_tracing()


def test_deadlock_counters_match_events(paper_graph):
    """Lock waits and deadlocks flow through the graph's registry too —
    one registry spans the graph layer and the engine under it."""
    import threading
    import time as _time

    graph = paper_graph
    database = graph.connection.database
    graph.reset_stats()
    recorder = graph.enable_tracing()

    c1, c2 = database.connect(), database.connect()
    c1.execute("BEGIN")
    c2.execute("BEGIN")
    c1.execute("INSERT INTO Patient VALUES (90, 'x', 'a', 1)")
    c2.execute("INSERT INTO Disease VALUES (90, 'X90', 'x')")
    txn1_id = c1.current_txn.txn_id

    thread = threading.Thread(
        target=lambda: c1.execute("INSERT INTO Disease VALUES (91, 'X91', 'y')")
    )
    thread.start()
    deadline = _time.monotonic() + 5.0
    while txn1_id not in database.lock_manager.waiting_owners():
        assert _time.monotonic() < deadline
        _time.sleep(0.001)
    from repro.relational import DeadlockError

    with pytest.raises(DeadlockError):
        c2.execute("INSERT INTO Patient VALUES (91, 'y', 'b', 2)")
    c2.rollback()
    thread.join(timeout=5.0)
    c1.rollback()

    stats = graph.stats()
    assert stats["deadlocks"] == 1
    assert stats["lock_waits"] >= 2
    assert_resilience_counters_match_events(graph, recorder)
    graph.disable_tracing()


def test_cache_counters_match_events(paper_db):
    """With the read cache on, hits/misses/invalidations/bypasses all
    reconcile 1:1 with their trace events across repeated traversals,
    DML-driven invalidation, and an explicit-transaction bypass."""
    from repro.core import Db2Graph
    from tests.conftest import HEALTHCARE_TINY_OVERLAY

    graph = Db2Graph.open(paper_db, HEALTHCARE_TINY_OVERLAY, cache=True)
    graph.reset_stats()
    recorder = graph.enable_tracing()
    try:
        g = graph.traversal()
        g.V().hasLabel("patient").out("hasDisease").toList()
        g.V().hasLabel("patient").out("hasDisease").toList()  # hits
        stats = graph.stats()
        assert stats["cache_hits"] > 0
        assert stats["cache_misses"] > 0

        # DML commit bumps epochs: one invalidation counter increment
        # and one cache.invalidate event per written table.
        paper_db.execute("INSERT INTO Patient VALUES (80, 'new', 'addr', 1)")
        assert graph.stats()["cache_invalidations"] == 1

        # An explicit transaction bypasses lookup and fill.
        conn = graph.connection
        conn.begin()
        try:
            graph.traversal().V().hasLabel("patient").toList()
            assert graph.stats()["cache_bypass_txn"] > 0
        finally:
            conn.rollback()

        assert_counters_match_events(graph, recorder)
    finally:
        graph.disable_tracing()
        graph.close()


def test_durability_counters_match_events(tmp_path):
    """A WAL-backed graph keeps the 1:1 invariant across DML commits
    (appends + flushes) and an explicit checkpoint.  Recovery counters
    are exercised at the Database level in tests/durability — Db2Graph
    binds a fresh registry at open, after recovery already ran."""
    from repro.core import Db2Graph
    from repro.durability import SimulatedCrash
    from tests.conftest import HEALTHCARE_TINY_OVERLAY

    sim = SimulatedCrash(dir=str(tmp_path / "wal"))
    database = sim.open()
    database.execute(
        "CREATE TABLE Patient (patientID BIGINT PRIMARY KEY, name VARCHAR, "
        "address VARCHAR, subscriptionID BIGINT)"
    )
    database.execute(
        "CREATE TABLE Disease (diseaseID BIGINT PRIMARY KEY, conceptCode VARCHAR, "
        "conceptName VARCHAR)"
    )
    database.execute(
        "CREATE TABLE HasDisease (patientID BIGINT, diseaseID BIGINT, description VARCHAR)"
    )
    database.execute(
        "CREATE TABLE DiseaseOntology (sourceID BIGINT, targetID BIGINT, type VARCHAR)"
    )
    graph = Db2Graph.open(database, HEALTHCARE_TINY_OVERLAY)
    graph.reset_stats()
    recorder = graph.enable_tracing()
    try:
        g = graph.traversal()
        g.addV("patient").property("patientID", 1).property("name", "ada").property(
            "address", "x"
        ).property("subscriptionID", 100).toList()
        database.execute("INSERT INTO Disease VALUES (1, 'A00', 'cholera')")
        database.execute("INSERT INTO HasDisease VALUES (1, 1, 'acute')")
        database.checkpoint()
        database.execute("DELETE FROM HasDisease WHERE diseaseID = 1")

        stats = graph.stats()
        assert stats["wal_appends"] > 0
        assert stats["wal_flushes"] > 0
        assert stats["checkpoints_written"] == 1
        assert_counters_match_events(graph, recorder)
    finally:
        graph.disable_tracing()
        graph.close()
        database.close()


def test_reset_stats_zeroes_everything(paper_graph):
    graph = paper_graph
    recorder = graph.enable_tracing()
    g = graph.traversal()
    g.V().hasLabel("patient").out("hasDisease").toList()
    g.V("patient::1").values("name").toList()
    before = graph.stats()
    assert before["sql_queries"] > 0
    assert len(recorder) > 0

    graph.reset_stats()
    after = graph.stats()
    # Every int counter reads zero; the structured sub-reports
    # (recovery_report, replication topology) are state, not counters,
    # and are None here (unreplicated in-memory graph).
    ints = {k: v for k, v in after.items() if isinstance(v, int)}
    assert ints == {k: 0 for k in ints}, after
    assert after["recovery_report"] is None
    assert after["replication"] is None
    assert len(recorder) == 0
    # the per-rule breakdown resets too
    assert all(v == 0 for v in graph.metrics().values() if isinstance(v, int))
    graph.disable_tracing()


def test_counters_still_count_after_reset(paper_graph):
    graph = paper_graph
    graph.reset_stats()
    recorder = graph.enable_tracing()
    graph.traversal().V().hasLabel("patient").toList()
    assert graph.stats()["sql_queries"] > 0
    assert_counters_match_events(graph, recorder)
    graph.disable_tracing()


def test_parallel_fanout_counters_match_events(paper_db):
    """A multi-table fan-out's batched statements keep the 1:1
    counter/event invariant, and every batched statement event carries
    a stable statement id that also appears on ``sql.issued`` (so
    explain()/profile() can stitch events that concurrent traversals
    interleave)."""
    from repro.core import Db2Graph
    from tests.conftest import HEALTHCARE_TINY_OVERLAY

    graph = Db2Graph.open(paper_db, HEALTHCARE_TINY_OVERLAY, batch_size=2)
    recorder = graph.enable_tracing()
    try:
        g = graph.traversal()
        g.V().hasLabel("patient").out("hasDisease").toList()
        g.V().both().toList()
        stats = graph.stats()
        assert stats["batched_statements"] > 0
        assert_counters_match_events(graph, recorder)
        issued_ids = {e.get("statement_id") for e in recorder.named(tracing.SQL_ISSUED)}
        for event in recorder.named(tracing.SQL_BATCHED):
            assert event.get("statement_id") in issued_ids
    finally:
        graph.disable_tracing()
        graph.close()


# ---------------------------------------------------------------------------
# Concurrency stress: mixed traversals + writers against one Database
# ---------------------------------------------------------------------------


@pytest.mark.stress
@pytest.mark.timeout(120)
def test_concurrent_traversals_and_writers_reconcile(paper_db):
    """N reader threads run multi-table fan-out traversals while M writer
    threads increment a tally and insert rows on the same Database.
    Afterwards: no lost updates, a clean lock table, no dropped trace
    events, and every counter still reconciles 1:1 with its events."""
    import threading

    from repro.core import Db2Graph
    from repro.relational import DeadlockError, LockTimeoutError
    from tests.conftest import HEALTHCARE_TINY_OVERLAY

    database = paper_db
    database.execute("CREATE TABLE tally (id INT PRIMARY KEY, n INT)")
    database.execute("INSERT INTO tally VALUES (1, 0)")
    initial_patients = database.execute("SELECT COUNT(*) FROM Patient").rows[0][0]

    graph = Db2Graph.open(database, HEALTHCARE_TINY_OVERLAY, batch_size=4)
    recorder = graph.enable_tracing()

    n_readers, n_writers, rounds = 4, 3, 20
    errors: list[BaseException] = []
    barrier = threading.Barrier(n_readers + n_writers)

    def reader():
        try:
            barrier.wait()
            for _ in range(rounds):
                g = graph.traversal()
                names = g.V().hasLabel("patient").out("hasDisease").values("conceptName").toList()
                assert names
                assert g.V().hasLabel("patient").outE().count().next() >= 3
                # both() fans out over every edge table in both
                # directions.
                assert g.V().both().count().next() > 0
        except BaseException as exc:  # noqa: BLE001 — surfaced after join
            errors.append(exc)

    def writer(offset):
        try:
            conn = database.connect()
            barrier.wait()
            for i in range(rounds):
                for _attempt in range(50):
                    try:
                        conn.execute("BEGIN")
                        conn.execute("UPDATE tally SET n = n + 1 WHERE id = 1")
                        conn.execute(
                            "INSERT INTO Patient VALUES (?, 'p', 'addr', 1)",
                            [1000 + offset * rounds + i],
                        )
                        conn.commit()
                        break
                    except (DeadlockError, LockTimeoutError):
                        conn.rollback()
                else:
                    raise AssertionError("writer starved after 50 retries")
        except BaseException as exc:  # noqa: BLE001 — surfaced after join
            errors.append(exc)

    threads = [threading.Thread(target=reader) for _ in range(n_readers)]
    threads += [threading.Thread(target=writer, args=(k,)) for k in range(n_writers)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=90.0)
        assert not thread.is_alive(), "stress thread wedged"
    try:
        assert not errors, errors[:3]

        # No lost updates: every increment and every insert landed.
        assert database.execute("SELECT n FROM tally").rows[0][0] == n_writers * rounds
        patients = database.execute("SELECT COUNT(*) FROM Patient").rows[0][0]
        assert patients == initial_patients + n_writers * rounds

        # Clean lock table: nothing waiting, nothing held.
        assert database.lock_manager.is_clean()

        # Counter/event reconciliation survives the interleaving.
        assert recorder.dropped == 0
        assert_counters_match_events(graph, recorder)
    finally:
        graph.disable_tracing()
        graph.close()


@pytest.mark.stress
@pytest.mark.timeout(60)
def test_prepared_cache_counters_exact_under_hammer(paper_db):
    """Regression for the racy prepared-hit check: hammer one query
    from many threads; hits must equal executions minus the single
    compile, and the statement-cache hit/miss tally must equal the
    number of lookups — no increments lost to races."""
    import threading

    from repro.core import Db2Graph
    from tests.conftest import HEALTHCARE_TINY_OVERLAY

    # cache=False: the hammer arithmetic requires every round to issue
    # SQL; read-cache hits would serve rounds without a statement.
    graph = Db2Graph.open(paper_db, HEALTHCARE_TINY_OVERLAY, batch_size=8, cache=False)
    # Prewarm so the hammer sees a fully-populated cache: every lookup
    # after this is a hit and the arithmetic below is exact.
    graph.traversal().V().hasLabel("patient").toList()
    graph.reset_stats()
    recorder = graph.enable_tracing()

    n_threads, rounds = 8, 25
    errors: list[BaseException] = []
    barrier = threading.Barrier(n_threads)

    def hammer():
        try:
            barrier.wait()
            for _ in range(rounds):
                assert graph.traversal().V().hasLabel("patient").toList()
        except BaseException as exc:  # noqa: BLE001 — surfaced after join
            errors.append(exc)

    threads = [threading.Thread(target=hammer) for _ in range(n_threads)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=45.0)
        assert not thread.is_alive(), "hammer thread wedged"
    try:
        assert not errors, errors[:3]
        stats = graph.stats()
        issued = recorder.count(tracing.SQL_ISSUED, kind="select")
        assert issued == n_threads * rounds
        # Prewarmed: every execution reuses the compiled plan.
        assert stats["prepared_hits"] == issued
        assert stats["statement_cache_hits"] == issued
        assert stats["statement_cache_misses"] == 0
        assert_counters_match_events(graph, recorder)
    finally:
        graph.disable_tracing()
        graph.close()


@pytest.mark.stress
@pytest.mark.timeout(60)
def test_structure_counters_exact_under_fanout_lookups():
    """Regression for lost ``structure.*`` updates: the Graph Structure
    counters are bumped from every client thread, so a read-then-store
    ``+= 1`` dropped increments.  Eight client threads run LinkBench
    point lookups as Gremlin text on one shared graph; every counter
    must equal its trace-event count exactly."""
    import sys
    import threading

    from repro.core import Db2Graph
    from repro.relational import Database
    from repro.workloads.linkbench import LinkBenchConfig, LinkBenchDataset, LinkBenchWorkload

    dataset = LinkBenchDataset(LinkBenchConfig(n_vertices=200, seed=5))
    database = Database()
    dataset.install_relational(database)
    graph = Db2Graph.open(database, dataset.overlay_config(), batch_size=8, cache=False)
    recorder = graph.enable_tracing()
    scripts = {
        "getNode": ("g.V(id).hasLabel(lbl)", ("id", "lbl")),
        "countLinks": ("g.V(id1).outE(lbl).count()", ("id1", "lbl")),
        "getLink": ("g.V(id1).outE(lbl).filter(inV().id() == id2)", ("id1", "lbl", "id2")),
        "getLinkList": ("g.V(id1).outE(lbl)", ("id1", "lbl")),
    }
    n_threads, rounds = 8, 30
    errors: list[BaseException] = []
    barrier = threading.Barrier(n_threads)

    def client(seed):
        try:
            calls = list(LinkBenchWorkload(dataset, seed=seed).mixed_stream(rounds))
            barrier.wait()
            for call in calls:
                script, names = scripts[call.kind]
                assert graph.execute(script, dict(zip(names, call.args))) is not None
                # unlabelled: the lookup fans out over all ten node tables
                assert graph.execute("g.V(vid)", {"vid": call.args[0]})
        except BaseException as exc:  # noqa: BLE001 — surfaced after join
            errors.append(exc)

    threads = [threading.Thread(target=client, args=(k,)) for k in range(n_threads)]
    # switch threads as often as the interpreter allows, so a
    # read-then-store increment is likely to be interleaved
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=45.0)
            assert not thread.is_alive(), "client thread wedged"
    finally:
        sys.setswitchinterval(interval)
    try:
        assert not errors, errors[:3]
        assert recorder.dropped == 0
        counters = graph.provider.registry.counter_values()
        eliminated = recorder.named(tracing.TABLE_ELIMINATED)
        assert counters["structure.tables_eliminated"] == len(eliminated) > 0
        for rule in {e.get("rule") for e in eliminated}:
            assert counters[f"structure.eliminated.{rule}"] == sum(
                1 for e in eliminated if e.get("rule") == rule
            )
        for kind in ("vertex", "edge"):
            assert counters[f"structure.{kind}_table_queries"] == recorder.count(
                tracing.TABLE_QUERIED, kind=kind
            )
        assert counters.get("structure.lazy_vertices", 0) == recorder.count(tracing.VERTEX_LAZY)
        assert counters.get("structure.vertices_from_edges", 0) == recorder.count(
            tracing.VERTEX_FROM_EDGE
        )
    finally:
        graph.disable_tracing()
        graph.close()


@pytest.mark.service
@pytest.mark.stress
@pytest.mark.timeout(120)
def test_service_counters_reconcile_under_multiplexing(paper_db):
    """The service.* counters keep the 1:1 invariant under real
    multiplexing: several sessions submitting concurrently, forced
    rejections (tiny queue), and deliberate failures, all reconciled
    through a session's graph handle (the registry and recorder are
    shared service-wide, so any handle sees the service totals)."""
    import threading

    from repro.service import (
        AdmissionRejectedError,
        GraphService,
        ServiceConfig,
    )
    from tests.conftest import HEALTHCARE_TINY_OVERLAY

    service = GraphService(
        paper_db, HEALTHCARE_TINY_OVERLAY, ServiceConfig(workers=2, queue_depth=4)
    )
    try:
        recorder = service.enable_tracing()
        sessions = [service.open_session() for _ in range(4)]
        errors: list[BaseException] = []
        rejections = [0]
        lock = threading.Lock()

        def client(session, rounds=25):
            try:
                for i in range(rounds):
                    try:
                        assert session.run(
                            lambda s: s.g.V().hasLabel("patient").count().next(),
                            timeout=30,
                        ) >= 3
                    except AdmissionRejectedError:
                        with lock:
                            rejections[0] += 1
            except BaseException as exc:  # noqa: BLE001 — surfaced after join
                errors.append(exc)

        threads = [
            threading.Thread(target=client, args=(s,)) for s in sessions
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive(), "client thread wedged"
        assert not errors, errors[:3]
        for session in sessions[:2]:
            session.close(timeout=10)
        graph = sessions[2].graph
        stats = graph.stats()
        assert stats["service_sessions_opened"] == 4
        assert stats["service_sessions_closed"] == 2
        assert stats["service_admitted"] + rejections[0] == 4 * 25
        assert stats["service_rejected"] == rejections[0]
        assert_counters_match_events(graph, recorder)
    finally:
        service.shutdown(timeout=15)
