"""Service-level replication: read-only sessions bound to hot
standbys, staleness-contract routing with primary fall-through,
read-your-writes tokens, heartbeat-driven automatic failover, the
stats/health surfaces, and the history checker's replica-read rules.
"""

from __future__ import annotations

import time

import pytest

from repro.core import Db2Graph
from repro.durability.config import DurabilityConfig
from repro.obs import tracing
from repro.relational import Database
from repro.replication import ReplicationConfig
from repro.service import GraphService, ServiceConfig
from repro.service.errors import ServiceError, SessionClosedError
from repro.service.history import (
    BEGIN,
    COMMIT,
    INCREMENT,
    READ,
    HistoryOp,
    HistoryRecorder,
    check_history,
)

pytestmark = [pytest.mark.service, pytest.mark.replication]

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


def make_durable_db(tmp_path) -> Database:
    db = Database(
        name="svc-primary",
        durability=DurabilityConfig(dir=str(tmp_path / "wal"), fsync=False),
    )
    db.execute("CREATE TABLE item (id INT PRIMARY KEY, name VARCHAR)")
    db.execute("CREATE TABLE link (src INT, dst INT)")
    db.execute("INSERT INTO item VALUES (1, 'a'), (2, 'b'), (3, 'c')")
    db.execute("INSERT INTO link VALUES (1, 2), (2, 3)")
    return db


def make_service(tmp_path, **repl_kwargs) -> GraphService:
    repl_kwargs.setdefault("replicas", 1)
    return GraphService(
        make_durable_db(tmp_path),
        OVERLAY,
        ServiceConfig(workers=2),
        replication=ReplicationConfig(**repl_kwargs),
    )


def _fallthrough_events(service):
    return [
        e for e in service.trace.events
        if e.name == tracing.REPL_READ_FALLTHROUGH
    ]


def test_read_only_session_is_served_by_a_standby(tmp_path):
    service = make_service(tmp_path)
    try:
        ro = service.open_session(read_only=True)
        assert ro.read_only and ro.replica_id == "replica-0"
        assert ro.run(lambda s: s.g.V().count().next()) == 3
        assert ro.replica_reads == 1 and ro.fallthrough_reads == 0
        # Outside a request the session's graph is the primary-bound
        # handle; routing happens only for the request's duration.
        assert ro.graph is ro._graph
    finally:
        service.shutdown(timeout=10)


def test_rw_sessions_never_route_to_replicas(tmp_path):
    service = make_service(tmp_path)
    try:
        rw = service.open_session()
        assert rw.replica_id is None and rw.replica_graph is None
        assert rw.run(lambda s: s.g.V().count().next()) == 3
        assert rw.replica_reads == 0
    finally:
        service.shutdown(timeout=10)


def test_dead_replica_falls_through_to_primary(tmp_path):
    service = make_service(tmp_path)
    service.enable_tracing()
    try:
        ro = service.open_session(read_only=True)
        service.replication.get_replica("replica-0").kill()
        assert ro.run(lambda s: s.g.V().count().next()) == 3
        assert ro.fallthrough_reads == 1 and ro.replica_reads == 0
        # 1:1 counter/event reconciliation for the fall-through stream.
        assert service.stats()["read_fallthrough"] == len(
            _fallthrough_events(service)
        ) == 1
    finally:
        service.shutdown(timeout=10)


def test_session_with_no_live_standby_at_open_always_falls_through(tmp_path):
    service = make_service(tmp_path)
    try:
        service.replication.get_replica("replica-0").kill()
        ro = service.open_session(read_only=True)
        assert ro.replica_id is None
        assert ro.run(lambda s: s.g.V().count().next()) == 3
        assert ro.fallthrough_reads == 1
    finally:
        service.shutdown(timeout=10)


def test_read_your_writes_token_is_honored(tmp_path):
    # Async ack: the standby genuinely lags the primary between pumps.
    service = make_service(tmp_path, ack="async")
    try:
        rw = service.open_session()
        ro = service.open_session(read_only=True)

        def write(s):
            s.connection.begin()
            s.connection.execute("INSERT INTO item VALUES (4, 'd')")
            return s.connection.commit()  # the CSN is the RYW token

        token = rw.run(write)
        assert token > 0
        # With the token the read must observe the write — served by
        # the standby once it catches up, or by primary fall-through.
        count = ro.run(lambda s: s.g.V().count().next(), min_csn=token)
        assert count == 4
        # Without a token a stale-but-consistent snapshot is allowed,
        # but the bound (default max_staleness_csn) still applies.
        assert ro.run(lambda s: s.g.V().count().next()) in (3, 4)
    finally:
        service.shutdown(timeout=10)


def test_heartbeat_auto_promotes_when_primary_dies(tmp_path):
    service = make_service(tmp_path, heartbeat_interval=0.01)
    try:
        old_db = service.database
        session = service.open_session(read_only=True)
        # Simulate a primary crash mid-flight (what SimulatedCrash does).
        old_db.durability.dead = True
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            if service.stats()["failover_promotions"] >= 1:
                break
            time.sleep(0.01)
        stats = service.stats()
        assert stats["failover_promotions"] == 1
        assert stats["heartbeats"] >= 1
        assert service.database is not old_db
        assert service.replication.last_failover["lost_commits"] == 0
        # Every session was bound to the deposed primary: closed.
        assert session.closed
        with pytest.raises(SessionClosedError):
            session.run(lambda s: s.g.V().count().next())
        # Fresh sessions serve traversals against the survivor.
        fresh = service.open_session()
        assert fresh.run(lambda s: s.g.V().count().next()) == 3
        fresh.run(
            lambda s: s.connection.execute("INSERT INTO item VALUES (9, 'z')")
        )
        assert fresh.run(lambda s: s.g.V().count().next()) == 4
    finally:
        service.shutdown(timeout=10)


def test_manual_promote_swaps_database_and_rebuilds_cache(tmp_path):
    service = GraphService(
        make_durable_db(tmp_path),
        OVERLAY,
        ServiceConfig(workers=2),
        cache=True,
        replication=ReplicationConfig(replicas=2),
    )
    try:
        old_db = service.database
        old_cache = service.cache
        ro = service.open_session(read_only=True)
        assert ro.run(lambda s: s.g.V().count().next()) == 3
        report = service.promote()
        assert report["lost_commits"] == 0
        assert service.database is not old_db
        assert service.cache is not old_cache
        assert ro.closed
        # One standby remains: a new read-only session binds it.
        ro2 = service.open_session(read_only=True)
        assert ro2.replica_id is not None
        assert ro2.run(lambda s: s.g.V().count().next()) == 3
        rw = service.open_session()
        rw.run(lambda s: s.connection.execute("INSERT INTO item VALUES (5, 'e')"))
        assert ro2.run(lambda s: s.g.V().count().next()) == 4
    finally:
        service.shutdown(timeout=10)


def test_promote_without_replication_raises(tmp_path):
    service = GraphService(make_durable_db(tmp_path), OVERLAY, ServiceConfig(workers=2))
    try:
        assert service.replication is None
        with pytest.raises(ServiceError):
            service.promote()
    finally:
        service.shutdown(timeout=10)


# -- stats / health shape pinning (the ops surface is a contract) ------------

SERVICE_STATS_KEYS = {
    "sessions_open", "admitted", "rejected", "shed", "sessions_opened",
    "sessions_closed", "completed", "failed", "queue_depth",
    "queue_depth_max", "queue_depth_samples", "read_fallthrough",
    "failover_promotions", "heartbeats", "replication",
}

SERVICE_HEALTH_KEYS = {
    "database", "durable", "alive", "last_logged_csn", "recovery_report",
    "sessions_open", "queue_depth", "draining", "heartbeats", "replication",
}

REPLICATION_STATUS_KEYS = {
    "epoch", "ack", "max_staleness_csn", "log_frames", "unacked_commits",
    "promotions", "ack_timeouts", "primary_dead", "last_failover",
    "replicas", "transport",
}


def test_service_stats_and_health_shapes_are_pinned(tmp_path):
    service = make_service(tmp_path)
    try:
        stats = service.stats()
        assert set(stats) == SERVICE_STATS_KEYS
        assert set(stats["replication"]) == REPLICATION_STATUS_KEYS
        health = service.health()
        assert set(health) == SERVICE_HEALTH_KEYS
        assert health["durable"] and health["alive"]
        assert health["recovery_report"] is None  # fresh WAL: no recovery
        assert health["replication"]["epoch"] == 1
    finally:
        service.shutdown(timeout=10)


def test_unreplicated_service_shapes_use_none(tmp_path):
    db = Database(durability=False)  # the shape under test is non-durable
    db.execute("CREATE TABLE item (id INT PRIMARY KEY, name VARCHAR)")
    db.execute("CREATE TABLE link (src INT, dst INT)")
    service = GraphService(db, OVERLAY, ServiceConfig(workers=2))
    try:
        stats = service.stats()
        assert set(stats) == SERVICE_STATS_KEYS
        assert stats["replication"] is None
        assert stats["read_fallthrough"] == 0
        health = service.health()
        assert set(health) == SERVICE_HEALTH_KEYS
        assert health["replication"] is None
        assert health["durable"] is False and health["alive"] is True
    finally:
        service.shutdown(timeout=10)


def test_recovery_report_surfaces_through_health(tmp_path):
    wal_dir = str(tmp_path / "wal")
    db = Database(durability=DurabilityConfig(dir=wal_dir, fsync=False))
    db.execute("CREATE TABLE item (id INT PRIMARY KEY, name VARCHAR)")
    db.execute("CREATE TABLE link (src INT, dst INT)")
    db.execute("INSERT INTO item VALUES (1, 'a')")
    db.close()
    reopened = Database.open(DurabilityConfig(dir=wal_dir, fsync=False))
    service = GraphService(reopened, OVERLAY, ServiceConfig(workers=2))
    try:
        report = service.health()["recovery_report"]
        assert report is not None
        assert report["replayed_txns"] >= 1  # a real dict, JSON-shaped
        graph_stats = Db2Graph.open(reopened, OVERLAY).stats()
        assert graph_stats["recovery_report"] == report
    finally:
        service.shutdown(timeout=10)


# -- history checker: replica reads are legal stale snapshots ----------------


def _history(*specs):
    recorder = HistoryRecorder()
    t = 0.0
    for session, txn, kind, kw in specs:
        t += 1.0
        recorder.record(
            HistoryOp(
                session=session, txn=txn, kind=kind,
                start=kw.pop("start", t), end=kw.pop("end", t + 0.5), **kw,
            )
        )
    return recorder.ops


def test_stale_replica_read_is_legal_but_same_primary_read_is_not():
    specs = (
        (1, 1, BEGIN, {"isolation": "read_committed"}),
        (1, 1, INCREMENT, {"key": 0}),
        (1, 1, COMMIT, {"value": 10}),
        # Starts well after commit 10 returned, yet observes the state
        # before it — exactly what a lagging standby serves.
        (2, None, READ, {"value": {0: 0}, "replica": True}),
    )
    stale = check_history(_history(*specs), {0: 1})
    assert stale.ok, stale.violations

    primary_specs = specs[:-1] + (
        (2, None, READ, {"value": {0: 0}}),  # same read, not a replica
    )
    fresh = check_history(_history(*primary_specs), {0: 1})
    assert not fresh.ok  # recency lower bound applies on the primary


def test_replica_read_must_cover_its_read_your_writes_token():
    ops = _history(
        (1, 1, BEGIN, {"isolation": "read_committed"}),
        (1, 1, INCREMENT, {"key": 0}),
        (1, 1, COMMIT, {"value": 10}),
        (2, None, READ, {"value": {0: 0}, "replica": True, "min_csn": 10}),
    )
    result = check_history(ops, {0: 1})
    assert any("read-your-writes violation" in v for v in result.violations)

    ok_ops = _history(
        (1, 1, BEGIN, {"isolation": "read_committed"}),
        (1, 1, INCREMENT, {"key": 0}),
        (1, 1, COMMIT, {"value": 10}),
        (2, None, READ, {"value": {0: 1}, "replica": True, "min_csn": 10}),
    )
    assert check_history(ok_ops, {0: 1}).ok


def test_replica_reads_are_exempt_from_session_monotonicity():
    specs = (
        (1, 1, BEGIN, {"isolation": "read_committed"}),
        (1, 1, INCREMENT, {"key": 0}),
        (1, 1, COMMIT, {"value": 10}),
        # One session: a fresh primary read, then a stale replica read
        # (fall-through then replica routing) — legal.
        (2, None, READ, {"value": {0: 1}}),
        (2, None, READ, {"value": {0: 0}, "replica": True}),
    )
    result = check_history(_history(*specs), {0: 1})
    assert result.ok, result.violations

    primary_specs = specs[:-1] + ((2, None, READ, {"value": {0: 0}}),)
    backwards = check_history(_history(*primary_specs), {0: 1})
    assert not backwards.ok  # primary reads must stay monotonic


def test_replica_read_may_never_observe_the_future():
    ops = _history(
        (1, 1, BEGIN, {"isolation": "read_committed"}),
        (1, 1, INCREMENT, {"key": 0}),
        # Replica read *ends* before the commit even starts, yet
        # observes it: stale is legal, clairvoyant is not.
        (2, None, READ, {"value": {0: 1}, "replica": True, "start": 1.0, "end": 1.2}),
        (1, 1, COMMIT, {"value": 10, "start": 5.0, "end": 5.5}),
    )
    result = check_history(ops, {0: 1})
    assert not result.ok
