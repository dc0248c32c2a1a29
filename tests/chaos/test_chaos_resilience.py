"""The chaos suite: deterministic fault injection against real queries.

Everything here is seeded and clock-injected — no real sleeps, no
timing-sensitive assertions:

* injected transient faults are masked by retries and the query returns
  results **identical** to a fault-free run (the differential check);
* budgets abort runaway traversals promptly, with accurate
  partial-progress counts in the raised error;
* a failed statement always leaves the transaction rollback-able and
  the lock table clean;
* LinkBench reads from 8 client threads under 5 % and 15 % transient
  fault rates complete every query through retries.
"""

from __future__ import annotations

import random
import threading

import pytest

from repro.core import Db2Graph
from repro.relational import Database, LockTimeoutError
from repro.resilience import (
    BudgetExceededError,
    FaultInjector,
    QueryBudget,
    QueryTimeoutError,
    RetryPolicy,
)
from repro.workloads.linkbench import LinkBenchConfig, LinkBenchDataset, LinkBenchWorkload
from tests.conftest import HEALTHCARE_TINY_OVERLAY

pytestmark = pytest.mark.chaos


def no_sleep_retry(max_attempts: int = 3) -> RetryPolicy:
    return RetryPolicy(
        max_attempts=max_attempts, sleep=lambda _s: None, rng=random.Random(0)
    )


class TickClock:
    def __init__(self, start: float = 0.0):
        self.now = start

    def __call__(self) -> float:
        return self.now


QUERIES = [
    lambda g: sorted(v.id for v in g.V().hasLabel("patient").toList()),
    lambda g: sorted(g.V().hasLabel("patient").out("hasDisease").values("conceptName")),
    lambda g: g.V().hasLabel("patient").out("hasDisease").count().next(),
    lambda g: sorted(e.label for e in g.E().toList()),
]


class TestRetriesMaskFaults:
    def test_identical_results_under_injected_transient_faults(self, paper_db):
        # cache=False on both engines: the at_statement fault below needs
        # deterministic statement numbering, and read-cache hits
        # (REPRO_CACHE_ENABLED=1 CI leg) compress it.  The cached variant
        # of this test lives in tests/chaos/test_cache_chaos.py.
        graph = Db2Graph.open(paper_db, HEALTHCARE_TINY_OVERLAY, cache=False)
        baseline = [query(graph.traversal()) for query in QUERIES]
        graph.reset_stats()

        chaotic = Db2Graph.open(
            paper_db,
            HEALTHCARE_TINY_OVERLAY,
            retry_policy=no_sleep_retry(3),
            cache=False,
        )
        injector = FaultInjector(seed=11)
        # transient faults on both hot tables, plus a one-shot at a
        # fixed statement number — all masked by per-statement retry
        injector.add("lock_timeout", table="HasDisease", times=2)
        injector.add("deadlock", table="Patient", times=1)
        injector.add("error", at_statement=5, times=1)
        paper_db.fault_injector = injector
        try:
            chaotic_results = [query(chaotic.traversal()) for query in QUERIES]
        finally:
            paper_db.fault_injector = None

        assert chaotic_results == baseline
        stats = chaotic.stats()
        assert stats["faults_injected"] == injector.fires > 0
        assert stats["retry_attempts"] >= injector.fires  # every fault retried
        assert stats["sql_errors"] == injector.fires  # each fault surfaced once

    def test_chaos_schedule_is_reproducible(self, paper_db):
        def run():
            graph = Db2Graph.open(
                paper_db, HEALTHCARE_TINY_OVERLAY, retry_policy=no_sleep_retry(4)
            )
            injector = FaultInjector(seed=23)
            injector.add("error", probability=0.2, times=None)
            paper_db.fault_injector = injector
            try:
                results = [query(graph.traversal()) for query in QUERIES]
            finally:
                paper_db.fault_injector = None
            return results, injector.fires, injector.statements_seen

        first = run()
        second = run()
        assert first == second

    def test_exhausted_retries_surface_the_transient_error(self, paper_db):
        graph = Db2Graph.open(
            paper_db, HEALTHCARE_TINY_OVERLAY, retry_policy=no_sleep_retry(2)
        )
        injector = FaultInjector(seed=3)
        injector.add("lock_timeout", table="Patient", times=None)  # never heals
        paper_db.fault_injector = injector
        try:
            with pytest.raises(LockTimeoutError):
                graph.traversal().V().hasLabel("patient").toList()
        finally:
            paper_db.fault_injector = None
        assert graph.stats()["retry_exhausted"] == 1


class TestBudgetsAbortRunaways:
    def test_traverser_budget_aborts_unbounded_repeat(self, paper_graph):
        g = paper_graph.traversal().with_budget(max_traversers=25)
        from repro.graph.traversal import __

        with pytest.raises(BudgetExceededError) as info:
            # 64-loop repeat over the ontology — far more expansions
            # than the budget allows
            g.V().hasLabel("disease").repeat(__.both()).times(50).toList()
        assert info.value.reason == "max_traversers"
        assert info.value.progress["traversers_spawned"] == 26
        assert info.value.progress["sql_issued"] > 0

    def test_sql_statement_budget(self, paper_graph):
        g = paper_graph.traversal().with_budget(max_sql_statements=2)
        with pytest.raises(BudgetExceededError) as info:
            g.V().out("hasDisease").out("isa").toList()
        assert info.value.reason == "max_sql_statements"
        assert info.value.progress["sql_issued"] == 3

    def test_rows_budget(self, paper_graph):
        g = paper_graph.traversal().with_budget(max_rows=3)
        with pytest.raises(BudgetExceededError) as info:
            g.V().toList()
        assert info.value.reason == "max_rows"
        assert info.value.progress["rows_fetched"] > 3

    def test_deadline_with_injected_clock_no_sleeping(self, paper_db):
        clock = TickClock()
        budget = QueryBudget(deadline_seconds=1.0, clock=clock)
        graph = Db2Graph.open(paper_db, HEALTHCARE_TINY_OVERLAY, budget=budget)
        g = graph.traversal()
        stream = iter(g.V().hasLabel("patient").out("hasDisease"))
        next(stream)  # starts inside the deadline
        clock.now = 2.0  # time "passes" without sleeping
        with pytest.raises(QueryTimeoutError) as info:
            list(stream)
        assert info.value.reason == "deadline"
        assert info.value.progress["elapsed_seconds"] == pytest.approx(2.0)
        assert info.value.progress["traversers_spawned"] > 0

    def test_budget_exceeded_counter_matches_events(self, paper_graph):
        paper_graph.reset_stats()
        recorder = paper_graph.enable_tracing()
        g = paper_graph.traversal().with_budget(max_sql_statements=1)
        with pytest.raises(BudgetExceededError):
            g.V().out("hasDisease").toList()
        from repro.obs import tracing

        assert paper_graph.stats()["budget_exceeded"] == 1
        assert recorder.count(tracing.BUDGET_EXCEEDED) == 1
        paper_graph.disable_tracing()

    def test_within_budget_query_is_unaffected(self, paper_graph):
        unlimited = sorted((str(v.id) for v in paper_graph.traversal().V().toList()))
        g = paper_graph.traversal().with_budget(
            max_sql_statements=100, max_rows=10_000, max_traversers=10_000
        )
        assert sorted(str(v.id) for v in g.V().toList()) == unlimited


class TestFailedStatementsLeaveCleanState:
    def test_txn_rollbackable_and_lock_table_clean_after_fault(self, db):
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, v VARCHAR)")
        conn = db.connect()
        conn.execute("BEGIN")
        conn.execute("INSERT INTO t VALUES (1, 'kept-out-by-rollback')")

        injector = FaultInjector(seed=2)
        injector.add("lock_timeout", at_statement=1)
        conn.fault_injector = injector
        with pytest.raises(LockTimeoutError):
            conn.execute("INSERT INTO t VALUES (2, 'never')")
        conn.fault_injector = None

        # transaction is still open and rollback-able; locks clean up
        assert conn.current_txn is not None and conn.current_txn.is_active
        conn.rollback()
        assert db.lock_manager.is_clean()
        assert db.catalog.get_table("t").lock.is_idle
        assert db.execute("SELECT COUNT(*) FROM t").scalar() == 0

        # and the connection keeps working afterwards
        conn.execute("INSERT INTO t VALUES (3, 'after')")
        assert db.execute("SELECT COUNT(*) FROM t").scalar() == 1

    def test_session_injector_does_not_affect_other_sessions(self, db):
        db.execute("CREATE TABLE t (id INT)")
        chaotic, healthy = db.connect(), db.connect()
        injector = FaultInjector(seed=4)
        injector.add("error", times=None)
        chaotic.fault_injector = injector

        from repro.resilience import InjectedTransientError

        with pytest.raises(InjectedTransientError):
            chaotic.execute("INSERT INTO t VALUES (1)")
        healthy.execute("INSERT INTO t VALUES (2)")  # unaffected
        assert db.execute("SELECT COUNT(*) FROM t").scalar() == 1

    def test_graph_mutation_fault_keeps_relational_state_consistent(self, paper_db):
        graph = Db2Graph.open(paper_db, HEALTHCARE_TINY_OVERLAY)
        before = paper_db.execute("SELECT COUNT(*) FROM Patient").scalar()
        injector = FaultInjector(seed=6)
        injector.add("lock_timeout", table="Patient", times=None)
        paper_db.fault_injector = injector
        try:
            with pytest.raises(LockTimeoutError):
                graph.traversal().addV("patient").property("patientID", 99).property(
                    "name", "Zed"
                ).toList()
        finally:
            paper_db.fault_injector = None
        assert paper_db.execute("SELECT COUNT(*) FROM Patient").scalar() == before
        assert paper_db.lock_manager.is_clean()


class TestChaosUnderParallelism:
    """Faults and budgets inside one multi-statement fan-out (one SQL
    statement per surviving table and id batch, run in plan order)."""

    def test_chaos_under_parallel_fanout_masks_sub_statement_faults(self, paper_db):
        """A transient fault on ONE sub-statement of a batched fan-out
        is retried at the statement boundary without duplicating or
        dropping rows: the result multiset is identical to a fault-free
        run."""
        baseline_graph = Db2Graph.open(paper_db, HEALTHCARE_TINY_OVERLAY)
        queries = QUERIES + [
            lambda g: sorted(str(v.id) for v in g.V().both().toList()),
            lambda g: sorted(str(v.id) for v in g.V().both().both().toList()),
        ]
        baseline = [query(baseline_graph.traversal()) for query in queries]

        chaotic = Db2Graph.open(
            paper_db,
            HEALTHCARE_TINY_OVERLAY,
            retry_policy=no_sleep_retry(3),
            batch_size=2,
        )
        injector = FaultInjector(seed=17)
        injector.add("lock_timeout", table="DiseaseOntology", times=2)
        injector.add("deadlock", table="HasDisease", times=1)
        paper_db.fault_injector = injector
        try:
            chaotic_results = [query(chaotic.traversal()) for query in queries]
        finally:
            paper_db.fault_injector = None

        assert chaotic_results == baseline
        stats = chaotic.stats()
        assert stats["faults_injected"] == injector.fires > 0
        assert stats["retry_attempts"] >= injector.fires
        assert paper_db.lock_manager.is_clean()

    def test_budget_trip_mid_fanout_cancels_outstanding_work(self, paper_db):
        """A budget exceeded on one sub-statement trips ONCE, no later
        statement of the fan-out is issued, and the error reports an
        accurate partial-progress payload."""
        from repro.obs import tracing

        # cache=False: the budget-trip arithmetic compares exact issued
        # statement counts, which read-cache hits would skip.
        graph = Db2Graph.open(
            paper_db, HEALTHCARE_TINY_OVERLAY, batch_size=2, cache=False
        )
        # Fault-free statement count of the same two-hop query: the
        # aborted run must issue strictly fewer.
        recorder = graph.enable_tracing()
        graph.traversal().V().both().both().toList()
        full_run_sql = recorder.count(tracing.SQL_ISSUED)
        graph.reset_stats()

        limit = 2
        g = graph.traversal().with_budget(max_sql_statements=limit)
        with pytest.raises(BudgetExceededError) as info:
            g.V().both().both().toList()

        assert info.value.reason == "max_sql_statements"
        # The payload counts statements *attempted* at trip time: every
        # issued one plus the attempt that tripped (it never ran).
        issued = recorder.count(tracing.SQL_ISSUED)
        assert issued == limit
        assert info.value.progress["sql_issued"] == issued + 1
        assert graph.stats()["budget_exceeded"] == 1
        assert recorder.count(tracing.BUDGET_EXCEEDED) == 1
        # The rest of the fan-out never ran.
        assert issued < full_run_sql
        assert paper_db.lock_manager.is_clean()

        # The graph stays usable after the abort.
        assert graph.traversal().V().hasLabel("patient").count().next() > 0
        graph.disable_tracing()

    def test_retry_exhaustion_on_one_sub_statement_fails_whole_fanout(self, paper_db):
        """When one sub-statement's fault never heals, the fan-out fails
        with that error — partial results are never returned."""
        graph = Db2Graph.open(
            paper_db,
            HEALTHCARE_TINY_OVERLAY,
            retry_policy=no_sleep_retry(2),
            batch_size=2,
        )
        injector = FaultInjector(seed=5)
        injector.add("lock_timeout", table="DiseaseOntology", times=None)
        paper_db.fault_injector = injector
        try:
            with pytest.raises(LockTimeoutError):
                graph.traversal().V().both().toList()
        finally:
            paper_db.fault_injector = None
        assert graph.stats()["retry_exhausted"] >= 1
        assert paper_db.lock_manager.is_clean()
        # Healed: the same query now runs clean on the same graph.
        assert graph.traversal().V().both().count().next() > 0


@pytest.fixture(scope="module")
def linkbench_db():
    dataset = LinkBenchDataset(LinkBenchConfig.small())
    database = Database(enforce_foreign_keys=False)
    dataset.install_relational(database)
    return dataset, database, LinkBenchWorkload(dataset)


class TestFaultRatesUnderConcurrentClients:
    """LinkBench ``getNode`` / ``getLinkList`` from 8 client threads, 25
    queries each, while a seeded injector fails each SQL statement with
    a transient error (lock timeout, deadlock or generic, a third of the
    rate each) at the given rate.  A 4-attempt no-sleep retry policy
    must mask every fault: the fault and retry counts are
    deterministic, the thread interleaving is not."""

    CLIENTS = 8
    QUERIES_PER_CLIENT = 25
    TRANSIENT_KINDS = ("lock_timeout", "deadlock", "error")

    @pytest.mark.parametrize("fault_rate", [0.0, 0.05, 0.15])
    @pytest.mark.parametrize("kind", ["getNode", "getLinkList"])
    def test_retries_mask_every_fault(self, linkbench_db, kind, fault_rate):
        dataset, database, workload = linkbench_db
        # cache=False: every query reaches SQL, where the faults fire.
        graph = Db2Graph.open(
            database,
            dataset.overlay_config(),
            retry_policy=RetryPolicy(
                max_attempts=4, sleep=lambda _s: None, rng=random.Random(17)
            ),
            cache=False,
        )
        injector = None
        if fault_rate:
            injector = FaultInjector(seed=17)
            for fault_kind in self.TRANSIENT_KINDS:
                injector.add(
                    fault_kind,
                    probability=fault_rate / len(self.TRANSIENT_KINDS),
                    times=None,
                )
        call_lists = [
            [workload.sample(kind) for _ in range(self.QUERIES_PER_CLIENT)]
            for _ in range(self.CLIENTS)
        ]
        completed = [0] * self.CLIENTS
        failed = [0] * self.CLIENTS

        def client(index, calls):
            for call in calls:
                try:
                    call.run(graph.traversal())
                except Exception:  # retry budget exhausted, or a bug
                    failed[index] += 1
                else:
                    completed[index] += 1

        threads = [
            threading.Thread(target=client, args=(i, calls), daemon=True)
            for i, calls in enumerate(call_lists)
        ]
        database.fault_injector = injector
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            database.fault_injector = None

        stats = graph.stats()
        graph.close()
        assert sum(completed) > 0
        if not fault_rate:
            assert stats["faults_injected"] == 0
            assert sum(failed) == 0
        else:
            assert stats["faults_injected"] > 0
            # every injected fault triggered a retry or exhausted the budget
            assert stats["retry_attempts"] + stats["retry_exhausted"] > 0
            # a 4-attempt budget masks these moderate fault rates
            assert sum(failed) == 0  # success ratio 1.0
