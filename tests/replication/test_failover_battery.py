"""The kill-primary-mid-txn failover battery.

One scripted workload runs against a sync-ack replicated primary under
:class:`~repro.durability.sim.SimulatedCrash`, once per case with
exactly one crash point armed — ``(point, occurrence)`` sweeping WAL
flushes (before / torn mid-record / after) and checkpoint writes.  When
the primary dies the battery *promotes the standby* instead of
recovering the dead node, then replays the §5 oracle and analytics
against the survivor.

The shadow rule is uniform in sync mode: **the crashing step's effects
never reach the survivor.**  All three WAL crash points fire before the
frames ship into the stream, and a crash inside an auto-checkpoint
fires after the ship but before any pump round, so the shipped frames
sit unfetched and are truncated at promotion.  Either way the dying
step was never acked — a commit that *returned* is on the standby
(sync-ack), so zero acked commits are ever lost:

* every table on the promoted node is row-identical to the shadow,
* every index on the promoted node equals a rebuild from its chains,
* the §5 overlay maps the survivor to the shadow's graph,
* analytics (WCC) on the survivor equals analytics on the shadow,
* the deposed primary's next write raises ``FencedWriteError``,
* the survivor accepts new writes after the failover.
"""

from __future__ import annotations

import pytest

from repro.core import Db2Graph
from repro.durability import SimulatedCrash
from repro.relational import Database
from repro.replication import (
    FencedWriteError,
    ReplicationCluster,
    ReplicationConfig,
)
from repro.testing import graphs_equal, materialize_oracle

from .index_check import assert_indexes_match_chains

pytestmark = [pytest.mark.replication, pytest.mark.crash, pytest.mark.timeout(600)]

CHECKPOINT_EVERY = 3

# Flush-bearing steps (autocommit DML, DDL, explicit COMMITs) host the
# WAL crash points; explicit + auto checkpoints host checkpoint.mid_write.
WORKLOAD = (
    ("sql", "CREATE TABLE person (id INT PRIMARY KEY, name VARCHAR, age INT)"),
    ("sql", "CREATE TABLE knows (src INT, dst INT, since INT)"),
    ("sql", "INSERT INTO person VALUES (1, 'ada', 36)"),
    ("sql", "INSERT INTO person VALUES (2, 'grace', 29)"),
    ("sql", "INSERT INTO person VALUES (3, 'alan', 41)"),
    ("sql", "INSERT INTO knows VALUES (1, 2, 2001)"),
    ("sql", "INSERT INTO knows VALUES (2, 3, 2002)"),
    ("sql", "CREATE INDEX idx_person_age ON person (age)"),
    ("sql", "UPDATE person SET age = 30 WHERE id = 2"),
    ("begin", None),
    ("sql", "INSERT INTO person VALUES (4, 'edsger', 72)"),
    ("sql", "INSERT INTO knows VALUES (3, 4, 2003)"),
    ("commit", None),
    ("begin", None),
    ("sql", "INSERT INTO person VALUES (99, 'ghost', 1)"),
    ("rollback", None),
    ("checkpoint", None),
    ("sql", "ALTER TABLE person ADD COLUMN city VARCHAR"),
    ("sql", "UPDATE person SET city = 'york' WHERE id = 1"),
    ("sql", "CREATE VIEW adults AS SELECT id, name FROM person WHERE age >= 30"),
    ("sql", "GRANT SELECT ON person TO carol"),
    ("sql", "INSERT INTO person VALUES (5, 'barbara', 71, 'boston')"),
    ("sql", "INSERT INTO knows VALUES (4, 5, 2004)"),
    ("sql", "DELETE FROM knows WHERE since = 2002"),
    ("sql", "UPDATE person SET age = age + 1 WHERE id = 3"),
    ("begin", None),
    ("sql", "INSERT INTO person VALUES (6, 'tony', 44, NULL)"),
    ("sql", "INSERT INTO knows VALUES (5, 6, 2005)"),
    ("commit", None),
    ("checkpoint", None),
    ("sql", "INSERT INTO person VALUES (7, 'leslie', 83, NULL)"),
    ("sql", "UPDATE person SET city = 'clarkson' WHERE id = 7"),
    ("sql", "INSERT INTO knows VALUES (7, 6, 2006)"),
    ("sql", "CREATE INDEX idx_knows_since ON knows (since)"),
    ("sql", "DELETE FROM knows WHERE since = 2006"),
)

# Sweep bounds validated against the dry run by the meta-test below.
CASES = (
    [("wal.before_flush", k) for k in range(1, 17)]
    + [("wal.mid_record", k) for k in range(1, 17)]
    + [("wal.after_flush", k) for k in range(1, 17)]
    + [("checkpoint.mid_write", k) for k in range(1, 7)]
)

OVERLAY = {
    "v_tables": [
        {"table_name": "person", "id": "id", "fix_label": True,
         "label": "'person'", "properties": ["id", "name", "age"]},
    ],
    "e_tables": [
        {"table_name": "knows", "src_v_table": "person", "src_v": "src",
         "dst_v_table": "person", "dst_v": "dst", "implicit_edge_id": True,
         "fix_label": True, "label": "'knows'"},
    ],
}


def _open_replicated(sim):
    """Open the durable primary and attach a one-standby sync cluster."""
    db = sim.open()
    cluster = ReplicationCluster(db, ReplicationConfig(replicas=1))
    return db, cluster


def _run_workload(sim, cluster_box, shadow, arm=None):
    """Replay WORKLOAD, mirroring every *completed* step into ``shadow``.

    Returns the crash point that fired, or None on clean completion.
    The crashing step is never mirrored: in sync mode its effects never
    reach the survivor (see module docstring).
    """
    db, cluster = _open_replicated(sim)
    cluster_box.append(cluster)
    if arm is not None:
        sim.arm_crash(arm[0], occurrence=arm[1])
    conn = db.connect("admin")
    mirror = shadow.connect("admin")
    in_txn = False
    for kind, payload in WORKLOAD:

        def step(d, kind=kind, payload=payload):
            if kind == "sql":
                conn.execute(payload)
            elif kind == "begin":
                conn.execute("BEGIN")
            elif kind == "commit":
                conn.execute("COMMIT")
            elif kind == "rollback":
                conn.execute("ROLLBACK")
            else:  # checkpoint
                d.checkpoint()

        if sim.run_to_crash(step):
            rule = sim.injector.crash_points[0]
            assert rule.fired, "workload crashed at an unarmed point"
            if in_txn:
                mirror.execute("ROLLBACK")
            return rule.point
        _mirror(mirror, kind, payload)
        if kind == "begin":
            in_txn = True
        elif kind in ("commit", "rollback"):
            in_txn = False
    return None


def _mirror(mirror, kind, payload):
    if kind == "sql":
        mirror.execute(payload)
    elif kind == "begin":
        mirror.execute("BEGIN")
    elif kind == "commit":
        mirror.execute("COMMIT")
    elif kind == "rollback":
        mirror.execute("ROLLBACK")
    # checkpoint: no logical effect to mirror


def _overlay_for(db):
    overlay = dict(OVERLAY)
    tables = {t.lower() for t in db.catalog.table_names()}
    if "knows" not in tables:
        overlay["e_tables"] = []
    return overlay if "person" in tables else None


def _assert_matches_shadow(survivor, shadow):
    assert survivor.lock_manager.is_clean()
    assert_indexes_match_chains(survivor)
    tables = set(shadow.catalog.table_names())
    assert tables == set(survivor.catalog.table_names())
    for table in tables:
        got = sorted(survivor.execute(f"SELECT * FROM {table}").rows, key=repr)
        want = sorted(shadow.execute(f"SELECT * FROM {table}").rows, key=repr)
        assert got == want, f"table {table!r} diverged on the promoted node"
    overlay = _overlay_for(shadow)
    if overlay is not None:
        assert graphs_equal(
            materialize_oracle(survivor, overlay),
            materialize_oracle(shadow, overlay),
        )


def _assert_serves_graph_queries(survivor, shadow):
    """Traversals AND analytics on the promoted node match the shadow."""
    overlay = _overlay_for(shadow)
    if overlay is None:
        return
    graph = Db2Graph.open(survivor, overlay)
    expected = Db2Graph.open(shadow, overlay)
    assert (
        graph.traversal().V().count().next()
        == expected.traversal().V().count().next()
    )
    got = graph.analytics().wcc()
    want = expected.analytics().wcc()
    assert got.converged and want.converged
    assert got.component == want.component


@pytest.mark.parametrize(
    "point,occurrence", CASES, ids=[f"{p.split('.')[1]}-{o}" for p, o in CASES]
)
def test_failover_point(tmp_path, point, occurrence):
    sim = SimulatedCrash(dir=str(tmp_path / "wal"), checkpoint_every=CHECKPOINT_EVERY)
    shadow = Database(name="shadow", durability=False)
    cluster_box = []
    try:
        fired = _run_workload(
            sim, cluster_box, shadow, arm=(point, occurrence)
        )
        assert fired == point, (
            f"case ({point}, {occurrence}) never fired — workload too short"
        )
        cluster = cluster_box[0]
        old_primary = sim.db
        assert cluster.primary_dead

        report = cluster.promote()
        # Zero acked-commit loss.  A crash inside an auto-checkpoint
        # happens after the ship but before any pump: that one unacked
        # commit is lawfully truncated; WAL crash points ship nothing.
        if point == "checkpoint.mid_write":
            assert report["lost_commits"] <= 1
        else:
            assert report["lost_commits"] == 0
        survivor = cluster.database
        assert survivor is not old_primary
        _assert_matches_shadow(survivor, shadow)
        _assert_serves_graph_queries(survivor, shadow)

        # STONITH: the deposed primary's write path is fenced at its
        # very first hook (commit calls this before allocating a CSN;
        # the crashed node may still hold locks, so probe the hook
        # directly rather than queueing a doomed SQL write behind them).
        with pytest.raises(FencedWriteError):
            old_primary.txn_manager.replication.ensure_primary()

        # The survivor accepts new writes post-failover.
        if "person" not in {t.lower() for t in survivor.catalog.table_names()}:
            ddl = "CREATE TABLE person (id INT PRIMARY KEY, name VARCHAR, age INT)"
            survivor.execute(ddl)
            shadow.execute(ddl)
        post = "INSERT INTO person (id, name, age) VALUES (99, 'post', 1)"
        survivor.execute(post)
        shadow.execute(post)
        _assert_matches_shadow(survivor, shadow)
    finally:
        if sim.db is not None:
            sim.db.close()
        if cluster_box:
            cluster_box[0].database.close()
        shadow.close()


def test_case_list_covers_every_occurrence(tmp_path):
    """Meta-check: every (point, occurrence) case is distinct and
    actually fires (its occurrence is within the dry-run hit count)."""
    sim = SimulatedCrash(dir=str(tmp_path / "dry"), checkpoint_every=CHECKPOINT_EVERY)
    shadow = Database(name="dry-shadow", durability=False)
    cluster_box = []
    try:
        assert _run_workload(sim, cluster_box, shadow) is None
        hits = dict(sim.injector.point_hits)
    finally:
        sim.db.close()
        shadow.close()

    assert len(CASES) == len(set(CASES))
    by_point = {}
    for point, occurrence in CASES:
        by_point.setdefault(point, []).append(occurrence)
    for point, occurrences in by_point.items():
        assert hits.get(point, 0) >= max(occurrences), (
            f"{point}: workload only reaches {hits.get(point, 0)} hits, "
            f"sweep asks for {max(occurrences)}"
        )


def test_workload_completes_cleanly_with_replication(tmp_path):
    """Baseline: unarmed, the replicated run matches the shadow on both
    the primary and (after promotion without a crash) the standby."""
    sim = SimulatedCrash(dir=str(tmp_path / "clean"), checkpoint_every=CHECKPOINT_EVERY)
    shadow = Database(name="clean-shadow", durability=False)
    cluster_box = []
    try:
        assert _run_workload(sim, cluster_box, shadow) is None
        cluster = cluster_box[0]
        _assert_matches_shadow(sim.db, shadow)
        report = cluster.promote()
        assert report["lost_commits"] == 0
        _assert_matches_shadow(cluster.database, shadow)
        _assert_serves_graph_queries(cluster.database, shadow)
    finally:
        sim.db.close()
        if cluster_box:
            cluster_box[0].database.close()
        shadow.close()
