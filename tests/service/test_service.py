"""Tentpole tests for the multi-session graph service layer: admission
control and backpressure, deadline shedding, fair dispatch, graceful
drain/shutdown, session lifecycle (limits, close-time rollback),
config validation, observability reconciliation, and shared-cache / durability /
resilience compatibility under multiplexing.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.obs import metrics as M
from repro.obs import tracing
from repro.relational import Database
from repro.relational.transactions import Transaction
from repro.resilience.budget import QueryBudget
from repro.resilience.faults import FaultInjector
from repro.resilience.retry import RetryPolicy, is_transient
from repro.service import (
    AdmissionQueue,
    AdmissionRejectedError,
    GraphService,
    RequestShedError,
    ServiceConfig,
    ServiceDrainingError,
    ServiceError,
    SessionClosedError,
    SessionLimitError,
)
from tests.conftest import HEALTHCARE_TINY_OVERLAY

pytestmark = pytest.mark.service

OVERLAY = {
    "v_tables": [
        {"table_name": "item", "id": "id", "fix_label": True,
         "label": "'item'", "properties": ["id", "name"]},
    ],
    "e_tables": [
        {"table_name": "link", "src_v_table": "item", "src_v": "src",
         "dst_v_table": "item", "dst_v": "dst",
         "implicit_edge_id": True, "fix_label": True, "label": "'link'"},
    ],
}


def make_db() -> Database:
    db = Database()
    db.execute("CREATE TABLE item (id INT PRIMARY KEY, name VARCHAR)")
    db.execute("CREATE TABLE link (src INT, dst INT)")
    db.execute("INSERT INTO item VALUES (1, 'a'), (2, 'b'), (3, 'c')")
    db.execute("INSERT INTO link VALUES (1, 2), (2, 3)")
    return db


@pytest.fixture
def service():
    svc = GraphService(make_db(), OVERLAY, ServiceConfig(workers=2))
    yield svc
    svc.shutdown(timeout=10)


class ManualClock:
    def __init__(self, now: float = 0.0):
        self._now = now
        self._lock = threading.Lock()

    def __call__(self) -> float:
        with self._lock:
            return self._now

    def advance(self, seconds: float) -> None:
        with self._lock:
            self._now += seconds


# -- basic request flow ------------------------------------------------------


def test_sessions_execute_gremlin_and_sql(service):
    s1 = service.open_session()
    s2 = service.open_session()
    assert sorted(s1.execute("g.V().hasLabel('item').values('name')")) == [
        "a", "b", "c",
    ]
    assert s2.run(lambda s: s.g.V().count().next()) == 3
    # DML through one session is visible to the other (shared database)
    s1.run(lambda s: s.connection.execute("INSERT INTO item VALUES (4, 'd')"))
    assert s2.run(lambda s: s.g.V().count().next()) == 4


def test_sessions_have_independent_transaction_scopes(service):
    s1 = service.open_session()
    s2 = service.open_session()
    s1.run(lambda s: s.connection.begin())
    s1.run(lambda s: s.connection.execute("INSERT INTO item VALUES (9, 'x')"))
    # s2 does not see s1's uncommitted row, and holds no transaction
    assert s2.run(lambda s: s.g.V().count().next()) == 3
    assert s2.connection.current_txn is None
    s1.run(lambda s: s.connection.commit())
    assert s2.run(lambda s: s.g.V().count().next()) == 4


def test_submit_returns_future_and_propagates_errors(service):
    s = service.open_session()
    future = s.submit(lambda _s: 1 / 0)
    with pytest.raises(ZeroDivisionError):
        future.result(5)
    assert service.stats()["failed"] == 1


# -- admission control / backpressure ----------------------------------------


def test_full_queue_rejects_with_retry_after():
    svc = GraphService(
        make_db(), OVERLAY, ServiceConfig(workers=1, queue_depth=2)
    )
    try:
        s = svc.open_session()
        gate = threading.Event()
        blocker = s.submit(lambda _s: gate.wait(10))
        deadline = time.monotonic() + 5
        while svc.queue.depth() > 0 and time.monotonic() < deadline:
            time.sleep(0.005)  # wait for the blocker to dispatch
        queued = [s.submit(lambda _s: None) for _ in range(2)]
        with pytest.raises(AdmissionRejectedError) as excinfo:
            s.submit(lambda _s: None)
        assert excinfo.value.retry_after > 0
        assert excinfo.value.depth == 2
        assert is_transient(excinfo.value)  # callers may retry
        gate.set()
        for f in queued:
            f.result(5)
        blocker.result(5)
        stats = svc.stats()
        assert stats["rejected"] == 1
        assert stats["admitted"] == 3
    finally:
        svc.shutdown(timeout=10)


def test_retry_after_tracks_drain_rate():
    queue = AdmissionQueue(capacity=8, workers=2)
    assert queue.retry_after(4) == 0.05  # no completions yet: default
    queue.note_service_time(0.1)
    # 4 queued over 2 workers at 0.1s each -> ~0.2s
    assert queue.retry_after(4) == pytest.approx(0.2)
    # EMA converges toward faster service times
    for _ in range(50):
        queue.note_service_time(0.01)
    assert queue.retry_after(4) < 0.05


# -- deadline shedding --------------------------------------------------------


def test_expired_deadline_sheds_at_dispatch():
    clock = ManualClock()
    svc = GraphService(
        make_db(), OVERLAY,
        ServiceConfig(workers=1, queue_depth=8, clock=clock),
    )
    try:
        s = svc.open_session()
        gate = threading.Event()
        blocker = s.submit(lambda _s: gate.wait(10))
        deadline = time.monotonic() + 5
        while svc.queue.depth() > 0 and time.monotonic() < deadline:
            time.sleep(0.005)
        doomed = s.submit(
            lambda _s: "ran", budget=QueryBudget(deadline_seconds=1.0)
        )
        patient = s.submit(lambda _s: "ran")  # no deadline: never shed
        clock.advance(2.0)  # the deadline expires while queued
        gate.set()
        with pytest.raises(RequestShedError) as excinfo:
            doomed.result(5)
        assert excinfo.value.queued_seconds == pytest.approx(2.0)
        assert patient.result(5) == "ran"
        assert svc.stats()["shed"] == 1
    finally:
        svc.shutdown(timeout=10)


def test_fresh_deadline_is_not_shed(service):
    s = service.open_session()
    result = s.run(
        lambda _s: "ok", budget=QueryBudget(deadline_seconds=30.0)
    )
    assert result == "ok"
    assert service.stats()["shed"] == 0


# -- fairness -----------------------------------------------------------------


def test_round_robin_dispatch_is_session_fair():
    svc = GraphService(
        make_db(), OVERLAY, ServiceConfig(workers=1, queue_depth=64)
    )
    try:
        flooder = svc.open_session()
        victim = svc.open_session()
        order: list[int] = []
        lock = threading.Lock()

        def note(session):
            with lock:
                order.append(session.session_id)

        gate = threading.Event()
        blocker = flooder.submit(lambda _s: gate.wait(10))
        deadline = time.monotonic() + 5
        while svc.queue.depth() > 0 and time.monotonic() < deadline:
            time.sleep(0.005)
        flood = [flooder.submit(note) for _ in range(10)]
        stuck = [victim.submit(note) for _ in range(2)]
        gate.set()
        for f in flood + stuck:
            f.result(5)
        blocker.result(5)
        # Round-robin: the victim's 2 requests land interleaved at the
        # front, not behind the flooder's 10.
        assert order.index(victim.session_id) <= 1
        assert sorted(order[:4]).count(victim.session_id) == 2
    finally:
        svc.shutdown(timeout=10)


# -- dispatch -----------------------------------------------------------------


def test_freed_worker_takes_the_next_request_at_once(service):
    """A worker frees its permit before it resolves the future, so a
    request submitted right after ``run()`` returns is handed to it
    before ``submit()`` returns: it never sits queued behind the last."""
    s = service.open_session()
    for i in range(50):
        assert s.run(lambda _s, i=i: i) == i
        future = s.submit(lambda _s: None)
        assert service.queue.depth() == 0
        future.result(5)


def test_push_racing_a_permit_release_is_not_stranded():
    """Dispatch runs on submitters and on finishing workers.  A push
    that lands while a finishing worker still holds the only permit
    (its submitter's dispatch finds none free) must be picked up by the
    worker once it lets the permit go."""
    svc = GraphService(make_db(), OVERLAY, ServiceConfig(workers=1))
    try:
        s = svc.open_session()
        pop = svc.queue.pop
        raced: list = []

        def racing_pop(timeout=None):
            request = pop(timeout)
            if request is None and not raced:
                # the worker found the queue empty and holds the permit
                t = threading.Thread(
                    target=lambda: raced.append(s.submit(lambda _s: "raced"))
                )
                t.start()
                t.join(5)
            return request

        svc.queue.pop = racing_pop
        assert s.run(lambda _s: "first", timeout=5) == "first"
        assert raced[0].result(5) == "raced"
    finally:
        svc.shutdown(timeout=10)


def test_multi_worker_session_scans_lazily_under_limit(paper_db):
    """A request's fan-out runs table by table on its worker whatever
    the pool size, so ``limit(1)`` over two vertex tables stops after
    the first table's statement."""
    svc = GraphService(
        paper_db, HEALTHCARE_TINY_OVERLAY, ServiceConfig(workers=4), cache=False
    )
    try:
        trace = svc.enable_tracing()
        s = svc.open_session()
        assert len(s.run(lambda x: x.g.V().limit(1).toList(), timeout=10)) == 1
        assert trace.count(tracing.SQL_ISSUED) == 1
    finally:
        svc.shutdown(timeout=10)


# -- drain / shutdown ---------------------------------------------------------


def test_drain_finishes_queued_work_and_rejects_new(service):
    s = service.open_session()
    gate = threading.Event()
    blocker = s.submit(lambda _s: gate.wait(10))
    queued = [s.submit(lambda _s: "done") for _ in range(4)]
    drained = []
    t = threading.Thread(target=lambda: drained.append(service.drain(10)))
    t.start()
    time.sleep(0.05)
    with pytest.raises(ServiceDrainingError) as excinfo:
        s.submit(lambda _s: None)
    assert not is_transient(excinfo.value)  # draining is not retryable
    # a draining service refuses new sessions, not just new requests
    with pytest.raises(ServiceDrainingError):
        service.open_session()
    gate.set()
    t.join(10)
    assert drained == [True]
    assert [f.result(1) for f in queued] == ["done"] * 4


def test_shutdown_closes_sessions_and_pool():
    svc = GraphService(make_db(), OVERLAY, ServiceConfig(workers=2))
    s1 = svc.open_session()
    s2 = svc.open_session()
    s1.run(lambda s: s.connection.begin())  # abandoned transaction
    assert svc.shutdown(timeout=10)
    assert s1.closed and s2.closed
    assert s1.rolled_back_on_close
    assert not s2.rolled_back_on_close
    assert len(svc.sessions) == 0
    assert not any(t.is_alive() for t in svc.executor._threads)  # no worker outlives it
    stats = svc.stats()
    assert stats["sessions_closed"] == 2
    with pytest.raises(ServiceError):
        svc.open_session()


def test_context_managers_shut_down_cleanly():
    with GraphService(make_db(), OVERLAY, ServiceConfig(workers=1)) as svc:
        with svc.open_session() as s:
            assert s.run(lambda x: x.g.V().count().next()) == 3
        assert s.closed
    assert not any(t.is_alive() for t in svc.executor._threads)  # no worker outlives it


# -- session lifecycle --------------------------------------------------------


def test_close_session_rolls_back_abandoned_transaction():
    svc = GraphService(make_db(), OVERLAY, ServiceConfig(workers=1))
    try:
        s = svc.open_session()
        s.run(lambda x: x.connection.begin())
        s.run(
            lambda x: x.connection.execute("INSERT INTO item VALUES (7, 'z')")
        )
        txn = s.connection.current_txn
        assert txn is not None and txn.is_active
        s.close(timeout=5)
        assert s.rolled_back_on_close
        assert s.connection.current_txn is None
        # the uncommitted row is gone; the table is not locked
        assert svc.database.execute("SELECT COUNT(*) FROM item").scalar() == 3
        svc.database.execute("INSERT INTO item VALUES (8, 'w')")
    finally:
        svc.shutdown(timeout=10)


def test_closed_session_rejects_submit_and_fails_queued():
    svc = GraphService(
        make_db(), OVERLAY, ServiceConfig(workers=1, queue_depth=16)
    )
    try:
        victim = svc.open_session()
        other = svc.open_session()
        gate = threading.Event()
        blocker = other.submit(lambda _s: gate.wait(10))
        deadline = time.monotonic() + 5
        while svc.queue.depth() > 0 and time.monotonic() < deadline:
            time.sleep(0.005)
        queued = [victim.submit(lambda _s: "never") for _ in range(3)]
        victim.close(timeout=5)
        for f in queued:
            with pytest.raises(SessionClosedError):
                f.result(5)
        with pytest.raises(SessionClosedError):
            victim.submit(lambda _s: None)
        gate.set()
        blocker.result(5)
        # the other session is unaffected
        assert other.run(lambda s: s.g.V().count().next()) == 3
    finally:
        svc.shutdown(timeout=10)


def test_session_limit_enforced_and_freed_on_close():
    svc = GraphService(
        make_db(), OVERLAY, ServiceConfig(max_sessions=2, workers=1)
    )
    try:
        s1 = svc.open_session()
        s2 = svc.open_session()
        with pytest.raises(SessionLimitError):
            svc.open_session()
        s1.close(timeout=5)
        s3 = svc.open_session()  # slot freed
        assert s3.run(lambda s: s.g.V().count().next()) == 3
    finally:
        svc.shutdown(timeout=10)


# -- config -------------------------------------------------------------------


def test_config_defaults():
    config = ServiceConfig()
    assert (config.max_sessions, config.queue_depth, config.workers) == (64, 256, 4)
    config = ServiceConfig(max_sessions=5, queue_depth=11, workers=1)
    svc = GraphService(make_db(), OVERLAY, config)
    try:
        assert svc.max_sessions == 5
        assert svc.queue.capacity == 11
    finally:
        svc.shutdown(timeout=10)


@pytest.mark.parametrize("field", ["max_sessions", "queue_depth", "workers"])
@pytest.mark.parametrize("value", [0, -1])
def test_config_rejects_non_positive(field, value):
    with pytest.raises(ValueError, match=field):
        ServiceConfig(**{field: value})


# -- observability ------------------------------------------------------------


def test_service_counters_reconcile_with_events():
    svc = GraphService(
        make_db(), OVERLAY, ServiceConfig(workers=1, queue_depth=2)
    )
    try:
        svc.enable_tracing()
        s = svc.open_session()
        gate = threading.Event()
        blocker = s.submit(lambda _s: gate.wait(10))
        deadline = time.monotonic() + 5
        while svc.queue.depth() > 0 and time.monotonic() < deadline:
            time.sleep(0.005)
        queued = [s.submit(lambda _s: None) for _ in range(2)]
        with pytest.raises(AdmissionRejectedError):
            s.submit(lambda _s: None)
        gate.set()
        for f in queued:
            f.result(5)
        blocker.result(5)
        s.close(timeout=5)

        registry, trace = svc.registry, svc.trace
        assert registry.counter(M.SERVICE_ADMITTED).value == trace.count(
            "service.admitted"
        ) == 3
        assert registry.counter(M.SERVICE_REJECTED).value == trace.count(
            "service.rejected"
        ) == 1
        assert registry.histogram(M.SERVICE_QUEUE_DEPTH).count == trace.count(
            "service.queued"
        ) == 3
        assert registry.counter(M.SERVICE_SESSIONS_OPENED).value == trace.count(
            "service.session.open"
        ) == 1
        assert registry.counter(M.SERVICE_SESSIONS_CLOSED).value == trace.count(
            "service.session.close"
        ) == 1
    finally:
        svc.shutdown(timeout=10)


def test_graph_stats_expose_service_counters(service):
    s = service.open_session()
    s.run(lambda x: x.g.V().count().next())
    stats = s.graph.stats()
    assert stats["service_admitted"] == 1
    assert stats["service_sessions_opened"] == 1
    assert stats["service_rejected"] == 0


# -- shared cache coherence ---------------------------------------------------


def test_shared_cache_stays_coherent_across_sessions():
    svc = GraphService(
        make_db(), OVERLAY, ServiceConfig(workers=2), cache=True
    )
    try:
        reader = svc.open_session()
        writer = svc.open_session()
        assert svc.cache is not None
        assert reader.graph.cache is svc.cache  # one cache, all sessions
        assert reader.run(lambda s: s.g.V().count().next()) == 3
        assert reader.run(lambda s: s.g.V().count().next()) == 3  # cached
        writer.run(
            lambda s: s.connection.execute("INSERT INTO item VALUES (4, 'd')")
        )
        # the writer's commit bumped the shared epoch: no stale read
        assert reader.run(lambda s: s.g.V().count().next()) == 4
    finally:
        svc.shutdown(timeout=10)


# -- durability compatibility -------------------------------------------------


def test_service_over_durable_database_recovers(tmp_path):
    from repro.durability import DurabilityConfig

    wal_config = DurabilityConfig(dir=tmp_path / "wal", fsync=False)
    db = Database(durability=wal_config)
    db.execute("CREATE TABLE item (id INT PRIMARY KEY, name VARCHAR)")
    db.execute("CREATE TABLE link (src INT, dst INT)")
    db.execute("INSERT INTO item VALUES (1, 'a')")
    svc = GraphService(db, OVERLAY, ServiceConfig(workers=2))
    try:
        sessions = [svc.open_session() for _ in range(3)]
        futures = [
            s.submit(
                lambda _s, i=i: _s.connection.execute(
                    "INSERT INTO item VALUES (?, ?)", (10 + i, f"n{i}")
                )
            )
            for i, s in enumerate(sessions)
        ]
        for f in futures:
            f.result(10)
        # an abandoned transaction must not reach the WAL as committed
        sessions[0].run(lambda s: s.connection.begin())
        sessions[0].run(
            lambda s: s.connection.execute(
                "INSERT INTO item VALUES (99, 'uncommitted')"
            )
        )
    finally:
        svc.shutdown(timeout=10)
        db.close()
    recovered = Database.open(
        DurabilityConfig(dir=tmp_path / "wal", fsync=False)
    )
    ids = sorted(r[0] for r in recovered.execute("SELECT id FROM item").rows)
    assert ids == [1, 10, 11, 12]
    recovered.close()


# -- resilience integration ---------------------------------------------------


def test_per_session_retry_policy_survives_multiplexing():
    # cache=False: faults are injected at statement execution, and a
    # read-cache hit (REPRO_CACHE_ENABLED=1 CI leg) never reaches it.
    svc = GraphService(make_db(), OVERLAY, ServiceConfig(workers=2), cache=False)
    try:
        fragile = svc.open_session()  # no retry policy: fault surfaces
        sturdy_policy = RetryPolicy(max_attempts=4, base_delay=0.0, jitter=0.0)
        sturdy = svc.open_session(retry_policy=sturdy_policy)

        for session in (fragile, sturdy):
            injector = FaultInjector(seed=7)
            injector.add("lock_timeout", table="item", times=2)
            session.connection.fault_injector = injector

        # the sturdy session retries through its faults...
        assert sturdy.run(lambda s: s.g.V().count().next()) == 3
        # ...the fragile one surfaces them to its own caller only
        from repro.relational.errors import LockTimeoutError

        with pytest.raises(LockTimeoutError):
            fragile.run(lambda s: s.g.V().count().next())
        # and the failure never poisons the other session
        assert sturdy.run(lambda s: s.g.V().count().next()) == 3
    finally:
        svc.shutdown(timeout=10)


def test_per_session_budgets_are_independent():
    svc = GraphService(make_db(), OVERLAY, ServiceConfig(workers=2))
    try:
        tight = svc.open_session(budget=QueryBudget(max_rows=1))
        roomy = svc.open_session()
        from repro.resilience.budget import BudgetExceededError

        with pytest.raises(BudgetExceededError):
            tight.run(lambda s: s.g.V().valueMap("id", "name").toList())
        assert len(roomy.run(lambda s: s.g.V().valueMap("id", "name").toList())) == 3
    finally:
        svc.shutdown(timeout=10)
