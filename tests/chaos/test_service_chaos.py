"""Chaos under the service layer: seeded faults injected into ONE
session of a multiplexed :class:`GraphService` must stay inside that
session — other sessions' results never change, no locks leak, and the
shared worker pool and admission queue keep serving.

Fault injectors are per-connection (``connection.fault_injector``), so
a session's faults fire only for its own statements even though every
session's requests run on the same pool workers.
"""

from __future__ import annotations

import random
import threading

import pytest

from repro.relational import Database, LockTimeoutError
from repro.resilience import FaultInjector, RetryPolicy
from repro.resilience.faults import InjectedTransientError
from repro.service import GraphService, ServiceConfig
from tests.conftest import HEALTHCARE_TINY_OVERLAY

pytestmark = [pytest.mark.chaos, pytest.mark.service]


def no_sleep_retry(max_attempts: int = 4) -> RetryPolicy:
    return RetryPolicy(
        max_attempts=max_attempts, sleep=lambda _s: None, rng=random.Random(0)
    )


def paper_database() -> Database:
    db = Database()
    db.execute(
        "CREATE TABLE Patient (patientID BIGINT PRIMARY KEY, name VARCHAR, "
        "address VARCHAR, subscriptionID BIGINT)"
    )
    db.execute(
        "CREATE TABLE Disease (diseaseID BIGINT PRIMARY KEY, conceptCode VARCHAR, "
        "conceptName VARCHAR)"
    )
    db.execute("CREATE TABLE HasDisease (patientID BIGINT, diseaseID BIGINT, description VARCHAR)")
    db.execute("CREATE TABLE DiseaseOntology (sourceID BIGINT, targetID BIGINT, type VARCHAR)")
    db.execute(
        "INSERT INTO Patient VALUES (1, 'Alice', '1 Main St', 100), "
        "(2, 'Bob', '2 Oak Ave', 200), (3, 'Carol', '3 Elm St', 300)"
    )
    db.execute(
        "INSERT INTO Disease VALUES (10, 'D10', 'diabetes'), "
        "(11, 'D11', 'type 2 diabetes'), (13, 'D13', 'type 1 diabetes')"
    )
    db.execute(
        "INSERT INTO HasDisease VALUES (1, 11, 'dx 2019'), (2, 10, 'dx 2018'), "
        "(3, 13, 'dx 2020')"
    )
    db.execute("INSERT INTO DiseaseOntology VALUES (11, 10, 'isa'), (13, 10, 'isa')")
    return db


QUERY = "g.V().hasLabel('patient').out('hasDisease').values('conceptName')"


def test_faulty_session_never_poisons_its_neighbors():
    db = paper_database()
    # cache=False: faults are injected at statement execution, and a
    # read-cache hit (REPRO_CACHE_ENABLED=1 CI leg) never reaches it.
    service = GraphService(
        db, HEALTHCARE_TINY_OVERLAY, ServiceConfig(workers=2), cache=False
    )
    try:
        clean = service.open_session()
        baseline = sorted(clean.execute(QUERY))
        assert baseline  # the differential reference, fault-free

        faulty = service.open_session()  # no retry policy: faults surface
        injector = FaultInjector(seed=11)
        injector.add("error", probability=0.4, times=None)
        faulty.connection.fault_injector = injector

        failures = 0
        for _ in range(20):
            try:
                assert sorted(faulty.execute(QUERY)) == baseline
            except InjectedTransientError:
                failures += 1
            # after every faulty attempt the clean session still gets
            # exactly the fault-free answer
            assert sorted(clean.execute(QUERY)) == baseline
        assert failures > 0, "chaos session never failed — seed mismatch?"
        assert injector.fires == failures
        assert db.lock_manager.is_clean()
    finally:
        service.shutdown(timeout=10)
    assert db.lock_manager.is_clean()


def test_per_session_retries_mask_faults_under_concurrency():
    db = paper_database()
    # cache=False for the same reason as above: faults must be reachable.
    service = GraphService(
        db, HEALTHCARE_TINY_OVERLAY, ServiceConfig(workers=4), cache=False
    )
    try:
        baseline_session = service.open_session()
        baseline = sorted(baseline_session.execute(QUERY))

        sessions = []
        for i in range(3):
            session = service.open_session(retry_policy=no_sleep_retry(6))
            injector = FaultInjector(seed=100 + i)
            injector.add("lock_timeout", probability=0.15, times=None)
            session.connection.fault_injector = injector
            sessions.append(session)

        errors: list[BaseException] = []

        def hammer(session, rounds=15):
            try:
                for _ in range(rounds):
                    assert sorted(session.execute(QUERY)) == baseline
            except BaseException as exc:  # noqa: BLE001 — surfaced after join
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(s,)) for s in sessions]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive(), "hammer thread wedged"
        assert not errors, errors[:3]
        # faults really fired and were masked by each session's policy
        assert any(s.connection.fault_injector.fires > 0 for s in sessions)
        stats = service.stats()
        assert stats["failed"] == 0
        assert db.lock_manager.is_clean()
    finally:
        service.shutdown(timeout=10)


def test_fault_mid_transaction_leaves_only_that_session_rolled_back():
    db = paper_database()
    service = GraphService(db, HEALTHCARE_TINY_OVERLAY, ServiceConfig(workers=2))
    try:
        chaotic = service.open_session()
        bystander = service.open_session()

        def doomed_txn(s):
            s.connection.begin()
            s.connection.execute(
                "INSERT INTO Patient VALUES (4, 'Dave', '4 Pine', 400)"
            )
            injector = FaultInjector(seed=5)
            injector.add("lock_timeout", at_statement=1, times=1)
            s.connection.fault_injector = injector
            try:
                s.connection.execute("UPDATE Patient SET name = 'X' WHERE patientID = 4")
            finally:
                s.connection.fault_injector = None

        with pytest.raises(LockTimeoutError):
            chaotic.run(doomed_txn)
        # the transaction is still open on the chaotic session; the
        # bystander neither sees the uncommitted row nor blocks
        assert bystander.run(lambda s: s.g.V().hasLabel("patient").count().next()) == 3
        chaotic.close(timeout=5)  # close rolls the abandoned txn back
        assert chaotic.rolled_back_on_close
        assert db.lock_manager.is_clean()
        assert bystander.run(lambda s: s.g.V().hasLabel("patient").count().next()) == 3
        # the table is writable again — no leaked write lock
        bystander.run(
            lambda s: s.connection.execute(
                "INSERT INTO Patient VALUES (5, 'Eve', '5 Elm', 500)"
            )
        )
        assert bystander.run(lambda s: s.g.V().hasLabel("patient").count().next()) == 4
    finally:
        service.shutdown(timeout=10)
