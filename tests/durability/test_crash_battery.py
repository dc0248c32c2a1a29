"""The seeded crash battery: ≥100 distinct deterministic crash points.

One scripted workload — DDL, autocommit DML, explicit transactions, a
rollback, explicit checkpoints, and ``checkpoint_every`` auto
checkpoints — is run to completion once per case with exactly one
crash point armed: ``(point, occurrence)`` sweeping every WAL flush
and checkpoint write the workload performs, including the torn-tail
(``wal.mid_record``) and half-written-checkpoint variants.

A *shadow* in-memory database mirrors every step whose effect must be
durable at the crash instant:

* ``wal.before_flush`` / ``wal.mid_record`` — the flush did not
  complete, so the step that triggered it is lost (an open shadow
  transaction rolls back: no committed-work loss, no uncommitted leak).
* ``wal.after_flush`` / ``checkpoint.mid_write`` — the WAL flush (and
  for auto-checkpoints, the commit stamping before it) completed, so
  the step's effect must survive even though the process died before
  acknowledging it.

After crash+recovery the battery asserts the recovered store is
row-identical to the shadow on every table, the lock table is clean,
every index holds exactly what a rebuild from the version chains would,
the §5 graph mapped over the recovered tables equals the shadow's
graph, and that the recovered instance accepts new writes that survive
a second crash (recovery-of-recovery).
"""

from __future__ import annotations

import pytest

from repro.durability import SimulatedCrash
from repro.relational import Database
from repro.testing import graphs_equal, materialize_oracle
from tests.replication.index_check import assert_indexes_match_chains

pytestmark = [pytest.mark.crash, pytest.mark.timeout(600)]

CHECKPOINT_EVERY = 3

# (kind, payload).  Only steps that flush — autocommit DML commits, DDL,
# explicit COMMITs, checkpoints — can host a crash; in-transaction DML
# buffers and BEGIN/ROLLBACK never touch the log file.
WORKLOAD = (
    ("sql", "CREATE TABLE person (id INT PRIMARY KEY, name VARCHAR, age INT)"),
    ("sql", "CREATE TABLE knows (src INT, dst INT, since INT)"),
    ("sql", "INSERT INTO person VALUES (1, 'ada', 36)"),
    ("sql", "INSERT INTO person VALUES (2, 'grace', 29)"),
    ("sql", "INSERT INTO person VALUES (3, 'alan', 41)"),
    ("sql", "INSERT INTO person VALUES (4, 'edsger', 72)"),
    ("sql", "INSERT INTO person VALUES (5, 'barbara', 71)"),
    ("sql", "INSERT INTO person VALUES (6, 'loner', 18)"),
    ("sql", "INSERT INTO knows VALUES (1, 2, 2001)"),
    ("sql", "INSERT INTO knows VALUES (2, 3, 2002)"),
    ("sql", "INSERT INTO knows VALUES (3, 4, 2003)"),
    ("sql", "CREATE INDEX idx_person_age ON person (age)"),
    ("sql", "UPDATE person SET age = 30 WHERE id = 2"),
    ("sql", "DELETE FROM person WHERE id = 6"),
    ("begin", None),
    ("sql", "INSERT INTO person VALUES (7, 'tony', 44)"),
    ("sql", "INSERT INTO knows VALUES (7, 1, 2004)"),
    ("sql", "UPDATE person SET name = 'sir tony' WHERE id = 7"),
    ("commit", None),
    ("begin", None),
    ("sql", "INSERT INTO person VALUES (8, 'ghost', 1)"),
    ("sql", "DELETE FROM knows WHERE src = 1"),
    ("rollback", None),
    ("checkpoint", None),
    ("sql", "ALTER TABLE person ADD COLUMN city VARCHAR"),
    ("sql", "UPDATE person SET city = 'york' WHERE id = 1"),
    ("sql", "CREATE VIEW adults AS SELECT id, name FROM person WHERE age >= 30"),
    ("sql", "GRANT SELECT ON person TO carol"),
    ("sql", "INSERT INTO person VALUES (9, 'lynn', 67, 'boston')"),
    ("sql", "INSERT INTO knows VALUES (9, 5, 2005)"),
    ("sql", "UPDATE person SET age = age + 1 WHERE id = 3"),
    ("begin", None),
    ("sql", "DELETE FROM knows WHERE since = 2002"),
    ("sql", "INSERT INTO knows VALUES (2, 5, 2006)"),
    ("commit", None),
    ("checkpoint", None),
    ("sql", "INSERT INTO person VALUES (10, 'leslie', 83, NULL)"),
    ("sql", "UPDATE person SET city = 'clarkson' WHERE id = 10"),
    # Edge-first: the §5 oracle check runs at every crash point, so no
    # step may open a dangling-edge window.
    ("sql", "DELETE FROM knows WHERE dst = 5"),
    ("sql", "DELETE FROM person WHERE id = 5"),
    ("sql", "INSERT INTO knows VALUES (10, 7, 2007)"),
    ("sql", "CREATE INDEX idx_knows_since ON knows (since)"),
    ("sql", "INSERT INTO person VALUES (11, 'donald', 86, NULL)"),
    ("sql", "INSERT INTO knows VALUES (11, 10, 2008)"),
    ("sql", "UPDATE person SET age = 87 WHERE id = 11"),
    ("begin", None),
    ("sql", "INSERT INTO person VALUES (12, 'frances', 92, 'phila')"),
    ("sql", "INSERT INTO knows VALUES (12, 11, 2009)"),
    ("commit", None),
    ("checkpoint", None),
    ("sql", "DELETE FROM knows WHERE since = 2008"),
    ("sql", "UPDATE person SET city = 'navy' WHERE id = 12"),
)

# Sweep bounds come from the dry run (the meta-test below re-derives
# them and fails if the workload ever stops reaching an occurrence).
CASES = (
    [("wal.before_flush", k) for k in range(1, 33)]
    + [("wal.mid_record", k) for k in range(1, 33)]
    + [("wal.after_flush", k) for k in range(1, 33)]
    + [("checkpoint.mid_write", k) for k in range(1, 11)]
)

# The flush did not complete at these points: the triggering step is lost.
LOSSY_POINTS = frozenset({"wal.before_flush", "wal.mid_record"})

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


def _run_workload(sim, shadow):
    """Replay WORKLOAD against the durable db, mirroring durable effects
    into ``shadow``.  Returns the armed point that fired, or None if the
    workload ran to completion."""
    db = sim.open()
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
            if rule.point in LOSSY_POINTS:
                # The step never became durable; an open shadow txn
                # must vanish with it.
                if in_txn:
                    mirror.execute("ROLLBACK")
            else:
                # Durable crash: the effect survives the process death.
                _mirror(mirror, kind, payload)
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


def _assert_matches_shadow(recovered, shadow):
    assert recovered.lock_manager.is_clean()
    assert_indexes_match_chains(recovered)
    tables = set(shadow.catalog.table_names())
    assert tables == set(recovered.catalog.table_names())
    for table in tables:
        got = sorted(
            recovered.execute(f"SELECT * FROM {table}").rows, key=repr
        )
        want = sorted(shadow.execute(f"SELECT * FROM {table}").rows, key=repr)
        assert got == want, f"table {table!r} diverged after crash recovery"
    # The §5 overlay maps the recovered tables to the same graph.  An
    # early crash may predate CREATE TABLE: only map what exists.
    overlay = dict(OVERLAY)
    if "knows" not in tables:
        overlay["e_tables"] = []
    if "person" in tables:
        assert graphs_equal(
            materialize_oracle(recovered, overlay),
            materialize_oracle(shadow, overlay),
        )


@pytest.mark.parametrize(
    "point,occurrence", CASES, ids=[f"{p.split('.')[1]}-{o}" for p, o in CASES]
)
def test_crash_point(tmp_path, point, occurrence):
    sim = SimulatedCrash(dir=str(tmp_path / "wal"), checkpoint_every=CHECKPOINT_EVERY)
    shadow = Database(name="shadow", durability=False)
    try:
        fired = _run_with_armed_point(sim, shadow, point, occurrence)
        assert fired == point, (
            f"case ({point}, {occurrence}) never fired — workload too short"
        )

        recovered = sim.reopen()
        _assert_matches_shadow(recovered, shadow)
        assert recovered.recovery_report is not None

        # Recovery-of-recovery: the recovered instance accepts writes
        # that survive a further (clean) crash.  The earliest crash
        # points predate CREATE TABLE — recreate it on both sides.
        if "person" not in {t.lower() for t in recovered.catalog.table_names()}:
            ddl = "CREATE TABLE person (id INT PRIMARY KEY, name VARCHAR, age INT)"
            recovered.execute(ddl)
            shadow.execute(ddl)
        post = "INSERT INTO person (id, name, age) VALUES (99, 'post', 1)"
        recovered.execute(post)
        shadow.execute(post)
        final = sim.reopen()
        _assert_matches_shadow(final, shadow)
    finally:
        if sim.db is not None:
            sim.db.close()
        shadow.close()


def _run_with_armed_point(sim, shadow, point, occurrence):
    """Open, arm (point, occurrence), then replay the workload."""
    original_open = sim.open

    def open_and_arm(**kwargs):
        db = original_open(**kwargs)
        sim.arm_crash(point, occurrence=occurrence)
        return db

    sim.open = open_and_arm
    try:
        return _run_workload(sim, shadow)
    finally:
        sim.open = original_open


def test_case_list_covers_at_least_100_firing_points(tmp_path):
    """Meta-check for the acceptance bar: the parametrized sweep holds
    ≥100 *distinct* cases and every one of them actually fires (its
    occurrence is within the dry-run hit count for its point)."""
    sim = SimulatedCrash(dir=str(tmp_path / "dry"), checkpoint_every=CHECKPOINT_EVERY)
    shadow = Database(name="dry-shadow", durability=False)
    try:
        assert _run_workload(sim, shadow) is None  # nothing armed: completes
        hits = dict(sim.injector.point_hits)
    finally:
        sim.db.close()
        shadow.close()

    assert len(CASES) == len(set(CASES)) >= 100
    by_point = {}
    for point, occurrence in CASES:
        by_point.setdefault(point, []).append(occurrence)
    assert set(by_point) == {
        "wal.before_flush",
        "wal.mid_record",
        "wal.after_flush",
        "checkpoint.mid_write",
    }
    for point, occurrences in by_point.items():
        assert hits.get(point, 0) >= max(occurrences), (
            f"{point}: workload only reaches {hits.get(point, 0)} hits, "
            f"sweep asks for {max(occurrences)}"
        )


def test_workload_completes_cleanly_without_armed_points(tmp_path):
    """Baseline: with no crash armed, the durable replay matches the
    shadow exactly (the mirror itself introduces no skew)."""
    sim = SimulatedCrash(dir=str(tmp_path / "clean"), checkpoint_every=CHECKPOINT_EVERY)
    shadow = Database(name="clean-shadow", durability=False)
    try:
        assert _run_workload(sim, shadow) is None
        _assert_matches_shadow(sim.db, shadow)
        recovered = sim.reopen()
        _assert_matches_shadow(recovered, shadow)
    finally:
        sim.db.close()
        shadow.close()
