"""Core WAL-shipping behavior: continuous redo apply, sync-ack loss
guarantees, the async loss window, DDL/rollback replication, divergence
detection (CRC chains + state digests), late-joining bootstrap, the
staleness contract, and the ``Db2Graph.open(replication=...)`` entry
point.
"""

from __future__ import annotations

import pytest

from repro.core import Db2Graph
from repro.durability.config import DurabilityConfig
from repro.relational import ConstraintViolationError, Database
from repro.replication import (
    ACK_ASYNC,
    ACK_SYNC,
    DivergenceError,
    ReplicationCluster,
    ReplicationConfig,
    ReplicationError,
    StaleReadError,
    check_divergence,
    resolve_replication_config,
    state_digest,
)

from .index_check import assert_indexes_match_chains, live_index_contents

pytestmark = pytest.mark.replication

OVERLAY = {
    "v_tables": [
        {"table_name": "person", "id": "id", "fix_label": True,
         "label": "'person'", "properties": ["id", "name"]},
    ],
    "e_tables": [
        {"table_name": "knows", "src_v_table": "person", "src_v": "src",
         "dst_v_table": "person", "dst_v": "dst", "implicit_edge_id": True,
         "fix_label": True, "label": "'knows'"},
    ],
}


def durable_db(tmp_path, name="primary") -> Database:
    return Database(
        name=name,
        durability=DurabilityConfig(dir=str(tmp_path / name), fsync=False),
    )


def seeded(db):
    db.execute("CREATE TABLE person (id INT PRIMARY KEY, name VARCHAR)")
    db.execute("CREATE TABLE knows (src INT, dst INT)")
    db.execute("INSERT INTO person VALUES (1, 'ada'), (2, 'grace')")
    db.execute("INSERT INTO knows VALUES (1, 2)")
    return db


# -- shipping & apply ---------------------------------------------------------


def test_sync_commit_is_on_every_replica_before_returning(tmp_path):
    db = seeded(durable_db(tmp_path))
    cluster = ReplicationCluster(db, ReplicationConfig(replicas=2))
    db.execute("INSERT INTO person VALUES (3, 'alan')")
    # The commit returned, so in sync mode no pump is needed: every
    # live replica has already applied it.
    for replica in cluster.live_replicas():
        rows = replica.database.execute("SELECT name FROM person WHERE id = 3").rows
        assert rows == [("alan",)]
    report = check_divergence(cluster)
    assert sorted(report["replicas"]) == ["replica-0", "replica-1"]
    assert cluster.unacked_window() == 0


def test_update_delete_and_explicit_txn_replicate(tmp_path):
    db = seeded(durable_db(tmp_path))
    cluster = ReplicationCluster(db, ReplicationConfig(replicas=1))
    conn = db.connect("admin")
    conn.begin()
    conn.execute("INSERT INTO person VALUES (3, 'alan')")
    conn.execute("UPDATE person SET name = 'sir alan' WHERE id = 3")
    conn.execute("DELETE FROM knows WHERE src = 1")
    conn.commit()
    replica_db = cluster.live_replicas()[0].database
    assert replica_db.execute("SELECT name FROM person WHERE id = 3").rows == [
        ("sir alan",)
    ]
    assert replica_db.execute("SELECT * FROM knows").rows == []
    check_divergence(cluster)


def test_rollback_groups_have_no_replica_effect(tmp_path):
    db = seeded(durable_db(tmp_path))
    cluster = ReplicationCluster(db, ReplicationConfig(replicas=1))
    conn = db.connect("admin")
    conn.begin()
    conn.execute("INSERT INTO person VALUES (99, 'ghost')")
    conn.rollback()
    db.execute("INSERT INTO person VALUES (4, 'edsger')")  # flush carries group
    replica_db = cluster.live_replicas()[0].database
    assert replica_db.execute("SELECT * FROM person WHERE id = 99").rows == []
    assert replica_db.execute("SELECT name FROM person WHERE id = 4").rows == [
        ("edsger",)
    ]
    check_divergence(cluster)


def test_ddl_replicates_eagerly(tmp_path):
    db = seeded(durable_db(tmp_path))
    cluster = ReplicationCluster(db, ReplicationConfig(replicas=1))
    db.execute("CREATE INDEX idx_name ON person (name)")
    db.execute("ALTER TABLE person ADD COLUMN age INT")
    db.execute("CREATE VIEW names AS SELECT name FROM person")
    db.execute("GRANT SELECT ON person TO carol")
    db.execute("INSERT INTO person VALUES (5, 'tony', 44)")
    replica_db = cluster.live_replicas()[0].database
    assert "idx_name" in replica_db.catalog.get_table("person").storage.indexes
    assert replica_db.execute("SELECT age FROM person WHERE id = 5").rows == [(44,)]
    assert ("tony",) in replica_db.execute("SELECT * FROM names").rows
    check_divergence(cluster)


def _person_index_probes(db):
    """``{index name: {key: sorted rowids}}`` probed through ``lookup``."""
    storage = db.catalog.get_table("person").storage
    return {
        name: {key: sorted(index.lookup(key)) for key in live_index_contents(index)}
        for name, index in storage.indexes.items()
    }


def test_replica_redo_maintains_indexes_per_commit(tmp_path):
    db = durable_db(tmp_path)
    cluster = ReplicationCluster(db, ReplicationConfig(replicas=1))
    replica_db = cluster.live_replicas()[0].database
    conn = db.connect("admin")
    stream = [
        "CREATE TABLE person (id INT PRIMARY KEY, name VARCHAR, age INT)",
        "INSERT INTO person VALUES (1, 'ada', 36), (2, 'grace', 29), (3, 'alan', 41)",
        "UPDATE person SET name = 'countess' WHERE id = 1",  # keeps the key
        "UPDATE person SET id = 20 WHERE id = 2",  # changes the PK key
        "DELETE FROM person WHERE id = 3",
        "BEGIN",
        "INSERT INTO person VALUES (99, 'ghost', 1)",
        "ROLLBACK",
        # Must cover every version replayed before it, deleted ones too.
        "CREATE SORTED INDEX idx_age ON person (age)",
        "UPDATE person SET age = 37 WHERE id = 1",
        "ALTER TABLE person ADD COLUMN city VARCHAR",
        "INSERT INTO person VALUES (4, 'edsger', 72, 'austin')",
        "UPDATE person SET city = 'york', age = 30 WHERE id = 20",
    ]
    for sql in stream:
        conn.execute(sql)
        if sql in ("BEGIN", "INSERT INTO person VALUES (99, 'ghost', 1)"):
            continue  # nothing shipped until the group ends
        assert_indexes_match_chains(replica_db)
        assert _person_index_probes(replica_db) == _person_index_probes(db)

    storage = replica_db.catalog.get_table("person").storage
    assert set(storage.indexes) == {"pk_person", "idx_age"}
    # idx_age was created after the row-3 delete but still covers it.
    assert 3 in set(storage.indexes["idx_age"].lookup((41,)))
    assert (99,) not in live_index_contents(storage.indexes["pk_person"])
    probe = "SELECT id, name FROM person WHERE age = 30"
    assert sorted(replica_db.execute(probe).rows) == sorted(db.execute(probe).rows)
    assert sorted(replica_db.execute(probe).rows) == [(20, "grace")]
    check_divergence(cluster)


def test_index_check_detects_a_missing_entry(tmp_path):
    db = seeded(Database(durability=False))
    index = db.catalog.get_table("person").storage.indexes["pk_person"]
    index.discard((2,), next(iter(index.lookup((2,)))))
    with pytest.raises(AssertionError):
        assert_indexes_match_chains(db)


def test_promoted_standby_enforces_primary_key(tmp_path):
    db = seeded(durable_db(tmp_path))
    cluster = ReplicationCluster(db, ReplicationConfig(replicas=1))
    db.execute("INSERT INTO person VALUES (3, 'alan')")  # replayed, not bootstrapped
    cluster.promote()
    survivor = cluster.database
    assert survivor is not db
    for dup in (1, 3):  # one row from the bootstrap, one from redo
        with pytest.raises(ConstraintViolationError):
            survivor.execute(f"INSERT INTO person VALUES ({dup}, 'dup')")
    survivor.execute("INSERT INTO person VALUES (4, 'edsger')")
    assert len(survivor.execute("SELECT * FROM person").rows) == 4


def test_async_mode_has_bounded_advertised_window(tmp_path):
    db = seeded(durable_db(tmp_path))
    cluster = ReplicationCluster(
        db, ReplicationConfig(replicas=1, ack=ACK_ASYNC)
    )
    for i in range(10, 15):
        db.execute(f"INSERT INTO person VALUES ({i}, 'p{i}')")
    # Async: commits did not wait; the loss bound is advertised.
    window = cluster.unacked_window()
    assert 0 <= window <= 5
    check_divergence(cluster)  # pumps to convergence, then proves equality
    cluster.pump(2)  # the final cumulative ack rides the next fetch
    assert cluster.unacked_window() == 0


def test_late_joining_replica_bootstraps_from_checkpoint(tmp_path):
    db = seeded(durable_db(tmp_path))
    cluster = ReplicationCluster(db, ReplicationConfig(replicas=0))
    db.execute("INSERT INTO person VALUES (7, 'late')")
    assert cluster.live_replicas() == []
    replica = cluster.attach_replica()
    # Bootstrapped state is already identical — no frames to replay.
    assert replica.next_seq == len(cluster.log)
    assert replica.chain == cluster.ship_chain
    assert state_digest(replica.database) == state_digest(db)
    # ...and it follows subsequent writes.
    db.execute("INSERT INTO person VALUES (8, 'after')")
    check_divergence(cluster)


def test_commit_history_and_as_of_replicate(tmp_path):
    db = seeded(durable_db(tmp_path))
    cluster = ReplicationCluster(db, ReplicationConfig(replicas=1))
    db.execute("INSERT INTO person VALUES (6, 'barbara')")
    replica_db = cluster.live_replicas()[0].database
    assert (
        replica_db.txn_manager.commit_history()
        == db.txn_manager.commit_history()
    )


def test_divergence_detector_catches_tampering(tmp_path):
    db = seeded(durable_db(tmp_path))
    cluster = ReplicationCluster(db, ReplicationConfig(replicas=1))
    replica_db = cluster.live_replicas()[0].database
    # Corrupt the replica behind the protocol's back.
    replica_db.execute("UPDATE person SET name = 'evil' WHERE id = 1")
    with pytest.raises(DivergenceError):
        check_divergence(cluster)


def test_replication_requires_durability(tmp_path):
    with pytest.raises(ReplicationError):
        ReplicationCluster(Database(durability=False), ReplicationConfig())


# -- staleness contract -------------------------------------------------------


def test_staleness_contract_and_read_your_writes(tmp_path):
    db = seeded(durable_db(tmp_path))
    cluster = ReplicationCluster(
        db, ReplicationConfig(replicas=1, ack=ACK_ASYNC)
    )
    replica = cluster.live_replicas()[0]
    check_divergence(cluster)
    primary_csn = db.durability.last_logged_csn
    replica.check_staleness(primary_csn, 0)  # caught up: serves

    db.execute("INSERT INTO person VALUES (20, 'new')")  # async: not applied
    token = db.durability.last_logged_csn
    assert replica.applied_csn < token
    with pytest.raises(StaleReadError):
        replica.check_staleness(token, 0, min_csn=token)
    assert not replica.can_serve(token, 0)
    assert replica.can_serve(token, 10_000)  # generous bound: stale ok
    cluster.pump(8)
    replica.check_staleness(db.durability.last_logged_csn, 0, min_csn=token)


# -- entry points -------------------------------------------------------------


def test_db2graph_open_attaches_cluster_and_serves_stats(tmp_path):
    db = seeded(durable_db(tmp_path))
    graph = Db2Graph.open(db, OVERLAY, replication=1)
    assert isinstance(graph.replication, ReplicationCluster)
    db.execute("INSERT INTO person VALUES (3, 'alan'), (4, 'tim')")
    db.execute("INSERT INTO knows VALUES (3, 4)")
    assert graph.traversal().V().count().next() == 4
    stats = graph.stats()
    assert stats["repl_shipped"] > 0
    assert stats["repl_applied"] > 0
    assert stats["repl_acked"] > 0
    assert stats["replication"]["epoch"] == 1
    assert stats["replication"]["replicas"][0]["applied_txns"] > 0
    health = graph.health()
    assert health["alive"] and health["durable"]
    assert health["replication"]["log_frames"] == len(graph.replication.log)
    check_divergence(graph.replication)


def test_db2graph_open_reuses_attached_cluster(tmp_path):
    db = seeded(durable_db(tmp_path))
    cluster = ReplicationCluster(db, ReplicationConfig(replicas=1))
    graph = Db2Graph.open(db, OVERLAY, replication=None)
    assert graph.replication is cluster
    graph2 = Db2Graph.open(db, OVERLAY, replication=cluster)
    assert graph2.replication is cluster


def test_replication_none_is_off(tmp_path):
    assert resolve_replication_config(None) is None
    assert resolve_replication_config(False) is None
    assert resolve_replication_config(0) is None
    config = resolve_replication_config(2)
    assert (config.replicas, config.ack) == (2, ACK_SYNC)
    with pytest.raises(TypeError):
        resolve_replication_config(True)

    db = seeded(durable_db(tmp_path))
    assert Db2Graph.open(db, OVERLAY).replication is None
    assert Db2Graph.open(db, OVERLAY, replication=None).replication is None
    assert db.durability.replication is None


def test_explicit_replication_requires_durable_database():
    db = Database(durability=False)
    db.execute("CREATE TABLE person (id INT PRIMARY KEY, name VARCHAR)")
    db.execute("CREATE TABLE knows (src INT, dst INT)")
    assert Db2Graph.open(db, OVERLAY).replication is None
    with pytest.raises(ReplicationError):
        Db2Graph.open(db, OVERLAY, replication=1)
