"""Replication serving bounds: standby read rate, async lag, failover loss.

Three behaviours of WAL-shipping replication on a 200-item durable
database:

* **Read throughput with 0, 1 and 2 standbys.** The same closed-loop
  read-only traversal (150 reads over two read-only sessions, one
  primary write every 15 reads) runs through ``GraphService``.  The
  best of three timed rounds, after one warmup, is compared.  With
  standbys, reads must actually be routed to them, and the read rate
  must stay at or above a third of the unreplicated rate.
* **Async lag vs burst size.** Bursts of 8, 32 and 128 autocommit writes
  go to an async standby behind a seeded delaying network.  The peak
  unacked window must rise with the burst, and pumping must drain it to
  zero.
* **Sync failover.** After 50 or 200 writes the primary is cut off and
  the standby promoted: no acked commit may be lost, and a fresh
  session must count every item.
"""

from __future__ import annotations

import time

import pytest

from repro.durability import DurabilityConfig
from repro.relational.database import Database
from repro.replication import (
    NetworkFaultInjector,
    ReplicationCluster,
    ReplicationConfig,
)
from repro.service import GraphService, ServiceConfig

pytestmark = pytest.mark.replication

N_ITEMS = 200
READS = 150  # closed-loop read requests per throughput round
WRITE_EVERY = 15  # one primary write interleaved per this many reads
TIMED_ROUNDS = 3  # after one warmup round; the best round counts
FAILOVER_ROUNDS = 4  # every round is checked
LAG_BURSTS = [8, 32, 128]
FAILOVER_WRITES = [50, 200]

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


def durable_db(tmp_path_factory, label: str) -> Database:
    db = Database(
        name=f"bounds-{label}",
        durability=DurabilityConfig(
            dir=tmp_path_factory.mktemp(f"repl-{label}"), fsync=False
        ),
    )
    db.execute("CREATE TABLE item (id INT PRIMARY KEY, name VARCHAR)")
    db.execute("CREATE TABLE link (src INT, dst INT)")
    connection = db.connect()
    connection.insert_rows("item", [(i, f"item-{i}") for i in range(1, N_ITEMS + 1)])
    connection.insert_rows("link", [(i, i + 1) for i in range(1, N_ITEMS)])
    return db


def read_round(tmp_path_factory, replicas: int) -> tuple[float, int]:
    """One closed-loop round: (seconds for READS reads, standby reads)."""
    db = durable_db(tmp_path_factory, f"read-{replicas}")
    replication = ReplicationConfig(replicas=replicas) if replicas else None
    service = GraphService(
        db, OVERLAY, ServiceConfig(workers=2), replication=replication
    )
    try:
        sessions = [service.open_session(read_only=True) for _ in range(2)]
        next_id = N_ITEMS + 1
        start = time.perf_counter()
        for i in range(READS):
            sessions[i % len(sessions)].run(lambda s: s.g.V().count().next())
            if i % WRITE_EVERY == WRITE_EVERY - 1:
                # A trickle of primary writes keeps the ship + sync-ack
                # path on the clock, as in real serving.
                db.execute(f"INSERT INTO item VALUES ({next_id}, 'w{next_id}')")
                next_id += 1
        elapsed = time.perf_counter() - start
        return elapsed, sum(s.replica_reads for s in sessions)
    finally:
        service.shutdown(timeout=5.0)
        db.close()


def test_standby_reads_keep_a_third_of_the_unreplicated_rate(tmp_path_factory):
    best: dict[int, tuple[float, int]] = {}
    for replicas in (0, 1, 2):
        read_round(tmp_path_factory, replicas)  # warmup
        rounds = [read_round(tmp_path_factory, replicas) for _ in range(TIMED_ROUNDS)]
        best[replicas] = min(rounds)
    baseline = READS / best[0][0]
    for replicas in (1, 2):
        seconds, replica_reads = best[replicas]
        assert replica_reads > 0
        # Standby routing adds per-request overhead; it must stay
        # within 3x of the unreplicated read path.
        assert (READS / seconds) * 3 >= baseline, (replicas, READS / seconds, baseline)


def test_async_lag_rises_with_the_burst_and_drains(tmp_path_factory):
    peaks = []
    for burst in LAG_BURSTS:
        db = durable_db(tmp_path_factory, f"lag-{burst}")
        cluster = ReplicationCluster(
            db,
            ReplicationConfig(replicas=1, ack="async"),
            injector=NetworkFaultInjector(delay=1.0, max_delay=6, seed=11),
        )
        try:
            peak = 0
            for i in range(burst):
                db.execute(f"INSERT INTO item VALUES ({N_ITEMS + 1 + i}, 'b{i}')")
                peak = max(peak, cluster.unacked_window())
            drain_rounds = 0
            while cluster.unacked_window() and drain_rounds < 10_000:
                cluster.pump(1)
                drain_rounds += 1
            assert cluster.unacked_window() == 0
            peaks.append(peak)
        finally:
            db.close()
    assert peaks == sorted(peaks)  # lag grows with the burst


@pytest.mark.parametrize("writes", FAILOVER_WRITES)
def test_sync_failover_loses_no_acked_commit(tmp_path_factory, writes):
    for _ in range(FAILOVER_ROUNDS):
        db = durable_db(tmp_path_factory, f"fo-{writes}")
        service = GraphService(
            db,
            OVERLAY,
            ServiceConfig(workers=2),
            replication=ReplicationConfig(replicas=1),
        )
        try:
            for i in range(writes):
                db.execute(f"INSERT INTO item VALUES ({N_ITEMS + 1 + i}, 'f{i}')")
            db.durability.dead = True  # simulated primary power cut
            report = service.promote()
            session = service.open_session()
            count = session.run(lambda s: s.g.V().count().next())
            assert report["lost_commits"] == 0  # sync ack: zero loss
            assert count == N_ITEMS + writes
        finally:
            service.shutdown(timeout=5.0)
