"""Unit tests for the WAL / checkpoint / recovery path.

The crash *battery* (test_crash_battery.py) sweeps seeded crash points;
this module pins the individual mechanisms: round-trip recovery of
every catalog object, checkpoint rotation and pruning, torn-checkpoint
fallback, retrofittable attach, counter restoration, temporal (``AS
OF``) history across a crash, cache poisoning, and the env knobs.
"""

from __future__ import annotations

import os
import shutil

import pytest

from repro.common.clock import ManualClock
from repro.durability import (
    WAL_DIR_ENV,
    WAL_FSYNC_ENV,
    DurabilityConfig,
    DurabilityError,
    SimulatedCrash,
    resolve_durability_config,
)
from repro.obs import metrics as M
from repro.obs import tracing as T
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import TraceRecorder
from repro.relational import ConstraintViolationError, Database


@pytest.fixture
def sim(tmp_path):
    harness = SimulatedCrash(dir=str(tmp_path / "log"))
    yield harness
    if harness.db is not None:
        harness.db.close()


def _people(db):
    db.execute("CREATE TABLE person (id INT PRIMARY KEY, name VARCHAR, age INT)")
    db.execute("INSERT INTO person VALUES (1, 'ada', 36), (2, 'grace', 85)")


class TestRoundTrip:
    def test_committed_state_survives_reopen(self, sim):
        db = sim.open()
        _people(db)
        db.execute("UPDATE person SET age = 37 WHERE id = 1")
        db.execute("DELETE FROM person WHERE id = 2")
        db.execute("INSERT INTO person VALUES (3, 'alan', 41)")

        recovered = sim.reopen()
        assert sorted(recovered.execute("SELECT id, name, age FROM person").rows) == [
            (1, "ada", 37),
            (3, "alan", 41),
        ]
        report = recovered.recovery_report
        assert not report.fresh
        assert report.discarded_txns == 0
        assert recovered.lock_manager.is_clean()

    def test_explicit_transaction_commits_atomically(self, sim):
        db = sim.open()
        _people(db)
        conn = db.connect()
        conn.execute("BEGIN")
        conn.execute("INSERT INTO person VALUES (4, 'edsger', 72)")
        conn.execute("UPDATE person SET age = 86 WHERE id = 2")
        conn.execute("COMMIT")

        recovered = sim.reopen()
        assert sorted(recovered.execute("SELECT id, age FROM person").rows) == [
            (1, 36),
            (2, 86),
            (4, 72),
        ]

    def test_rolled_back_transaction_leaves_no_trace(self, sim):
        db = sim.open()
        _people(db)
        conn = db.connect()
        conn.execute("BEGIN")
        conn.execute("INSERT INTO person VALUES (9, 'ghost', 1)")
        conn.execute("ROLLBACK")
        db.execute("INSERT INTO person VALUES (5, 'barbara', 71)")

        recovered = sim.reopen()
        ids = {row[0] for row in recovered.execute("SELECT id FROM person").rows}
        assert ids == {1, 2, 5}
        assert recovered.recovery_report.discarded_txns == 0

    def test_views_indexes_grants_and_columns_recover(self, sim):
        db = sim.open()
        _people(db)
        db.execute("CREATE VIEW elders AS SELECT id, name FROM person WHERE age >= 50")
        db.execute("CREATE INDEX idx_age ON person (age)")
        db.execute("ALTER TABLE person ADD COLUMN city VARCHAR")
        db.execute("UPDATE person SET city = 'london' WHERE id = 1")
        db.execute("GRANT SELECT ON person TO bob")

        recovered = sim.reopen()
        assert recovered.execute("SELECT name FROM elders").rows == [("grace",)]
        assert "idx_age" in {
            i.name for i in recovered.catalog.get_table("person").storage.indexes.values()
        }
        assert sorted(recovered.execute("SELECT id, city FROM person").rows) == [
            (1, "london"),
            (2, None),
        ]
        # The grant survived: bob can read, but not write.
        bob = recovered.connect("bob")
        assert len(bob.execute("SELECT * FROM person").rows) == 2
        from repro.relational.errors import AccessDeniedError

        with pytest.raises(AccessDeniedError):
            bob.execute("DELETE FROM person WHERE id = 1")

    def test_drop_table_replays(self, sim):
        db = sim.open()
        _people(db)
        db.execute("CREATE TABLE scratch (id INT)")
        db.execute("DROP TABLE scratch")
        recovered = sim.reopen()
        assert "scratch" not in {t.lower() for t in recovered.catalog.table_names()}

    def test_secondary_indexes_rebuilt_consistent(self, sim):
        db = sim.open()
        _people(db)
        db.execute("CREATE INDEX idx_age ON person (age)")
        db.execute("INSERT INTO person VALUES (3, 'alan', 36)")
        db.execute("DELETE FROM person WHERE id = 2")

        recovered = sim.reopen()
        # An index probe must agree with a full scan after redo.
        assert sorted(
            recovered.execute("SELECT id FROM person WHERE age = 36").rows
        ) == [(1,), (3,)]

    def test_primary_key_enforced_after_checkpoint_plus_suffix(self, tmp_path):
        # Uniqueness probes the PK index, which restore and redo fill.
        db = Database.open(str(tmp_path / "pk"))
        _people(db)
        db.checkpoint()
        db.execute("INSERT INTO person VALUES (3, 'alan', 41)")  # WAL suffix
        db.close()

        recovered = Database.open(str(tmp_path / "pk"))
        assert recovered.recovery_report.replayed_txns == 1
        for dup in (1, 3):  # one row from the checkpoint, one from the suffix
            with pytest.raises(ConstraintViolationError):
                recovered.execute(f"INSERT INTO person VALUES ({dup}, 'dup', 0)")
        assert len(recovered.execute("SELECT * FROM person").rows) == 3
        recovered.close()


class TestTemporalHistory:
    def test_as_of_queries_survive_crash(self, sim):
        clock = ManualClock(1000.0)
        db = sim.open(clock=clock)
        db.execute("CREATE TABLE doc (id INT PRIMARY KEY, body VARCHAR)")
        db.execute("INSERT INTO doc VALUES (1, 'v1')")
        clock.advance(10)
        db.execute("UPDATE doc SET body = 'v2' WHERE id = 1")
        clock.advance(10)
        db.execute("UPDATE doc SET body = 'v3' WHERE id = 1")

        recovered = sim.reopen(clock=ManualClock(2000.0))
        q = "SELECT body FROM doc FOR SYSTEM_TIME AS OF {}"
        assert recovered.execute(q.format(1005.0)).rows == [("v1",)]
        assert recovered.execute(q.format(1015.0)).rows == [("v2",)]
        assert recovered.execute(q.format(1999.0)).rows == [("v3",)]

    def test_as_of_survives_checkpoint_then_crash(self, sim):
        clock = ManualClock(1000.0)
        db = sim.open(clock=clock)
        db.execute("CREATE TABLE doc (id INT PRIMARY KEY, body VARCHAR)")
        db.execute("INSERT INTO doc VALUES (1, 'v1')")
        clock.advance(10)
        db.checkpoint()  # history before the checkpoint must survive too
        db.execute("UPDATE doc SET body = 'v2' WHERE id = 1")

        recovered = sim.reopen(clock=ManualClock(2000.0))
        q = "SELECT body FROM doc FOR SYSTEM_TIME AS OF {}"
        assert recovered.execute(q.format(1005.0)).rows == [("v1",)]
        assert recovered.execute(q.format(1999.0)).rows == [("v2",)]


class TestCheckpoints:
    def test_checkpoint_rotates_and_prunes(self, sim):
        db = sim.open()
        _people(db)
        first = db.durability.segment
        new_segment = db.checkpoint()
        assert new_segment == first + 1
        names = sorted(os.listdir(sim.dir))
        assert names == [
            f"checkpoint-{new_segment:08d}.ckpt",
        ] or names == [
            f"checkpoint-{new_segment:08d}.ckpt",
            f"wal-{new_segment:08d}.log",
        ]

    def test_recovery_prefers_newest_checkpoint_plus_suffix(self, sim):
        db = sim.open()
        _people(db)
        db.checkpoint()
        db.execute("INSERT INTO person VALUES (3, 'alan', 41)")  # WAL suffix

        recovered = sim.reopen()
        assert recovered.recovery_report.replayed_txns == 1  # only the suffix
        assert len(recovered.execute("SELECT * FROM person").rows) == 3

    def test_torn_checkpoint_falls_back_to_previous_segment(self, sim):
        db = sim.open()
        _people(db)
        db.checkpoint()
        db.execute("INSERT INTO person VALUES (3, 'alan', 41)")
        # A crash mid-checkpoint leaves a higher-numbered garbage file.
        seg = db.durability.segment + 1
        with open(os.path.join(sim.dir, f"checkpoint-{seg:08d}.ckpt"), "wb") as f:
            f.write(b"torn garbage that is not a checkpoint")

        recovered = sim.reopen()
        assert len(recovered.execute("SELECT * FROM person").rows) == 3
        # The recovered instance starts a segment past every on-disk one.
        assert recovered.durability.segment > seg

    def test_auto_checkpoint_every_n_commits(self, tmp_path):
        sim = SimulatedCrash(dir=str(tmp_path / "auto"), checkpoint_every=2)
        db = sim.open()
        _people(db)  # CREATE + one multi-row INSERT commit
        before = db.durability.checkpoints_written
        db.execute("INSERT INTO person VALUES (3, 'a', 1)")
        db.execute("INSERT INTO person VALUES (4, 'b', 2)")
        assert db.durability.checkpoints_written > before
        db.close()

    def test_replay_grows_with_the_log_and_checkpoints_cut_it(self, tmp_path):
        """Recovery replays the committed suffix: more commits, more
        replay, until auto checkpoints truncate the suffix to under a
        quarter of the longest log's."""

        def replayed(writes, checkpoint_every):
            sim = SimulatedCrash(
                dir=str(tmp_path / f"w{writes}-c{checkpoint_every}"),
                checkpoint_every=checkpoint_every,
            )
            db = sim.open()
            _people(db)
            for i in range(writes):
                db.execute(f"INSERT INTO person VALUES ({i + 3}, 'p{i}', {i % 90})")
            recovered = sim.reopen()
            count = recovered.execute("SELECT COUNT(*) FROM person").scalar()
            assert count == writes + 2
            replayed_txns = recovered.recovery_report.replayed_txns
            recovered.close()
            return replayed_txns

        no_checkpoint = [replayed(writes, 0) for writes in (25, 100, 400)]
        assert no_checkpoint == sorted(no_checkpoint)
        assert replayed(400, 20) * 4 <= no_checkpoint[-1]


class TestRetrofitAndLifecycle:
    def test_attach_to_populated_database_then_recover(self, tmp_path):
        db = Database(durability=False)
        _people(db)  # pure in-memory history
        db.attach_durability(DurabilityConfig(dir=tmp_path / "retro", fsync=False))
        db.execute("INSERT INTO person VALUES (3, 'alan', 41)")
        db.close()

        recovered = Database.open(DurabilityConfig(dir=tmp_path / "retro", fsync=False))
        assert len(recovered.execute("SELECT * FROM person").rows) == 3
        recovered.close()

    def test_double_attach_rejected(self, tmp_path):
        db = Database(durability=str(tmp_path / "d1"))
        with pytest.raises(DurabilityError):
            db.attach_durability(DurabilityConfig(dir=tmp_path / "d2"))
        db.close()

    def test_open_fresh_directory_reports_fresh(self, tmp_path):
        db = Database.open(str(tmp_path / "fresh"))
        assert db.recovery_report.fresh
        assert db.durability is not None
        db.close()

    def test_checkpoint_requires_durability(self):
        with pytest.raises(DurabilityError):
            Database(durability=False).checkpoint()

    def test_dead_manager_refuses_writes(self, sim):
        db = sim.open()
        _people(db)
        db.durability.dead = True
        from repro.resilience import SimulatedCrashError  # noqa: F401 — sanity import

        with pytest.raises(DurabilityError):
            db.durability.log_ddl({"op": "drop", "kind": "TABLE", "name": "person"})


class TestCachePoisoning:
    def test_recovered_generation_and_epochs_move_past_precrash(self, sim):
        db = sim.open()
        _people(db)
        db.execute("CREATE VIEW v AS SELECT id FROM person")  # bump DDL gen
        pre_generation = db.ddl_generation

        recovered = sim.reopen()
        # Any cached plan or read keyed on the pre-crash generation or
        # epoch vector must miss against the recovered instance.
        assert recovered.ddl_generation > pre_generation
        assert recovered.epochs.epoch("person") >= 1


class TestCountersAndReport:
    def test_recovery_counters_reconcile_with_events(self, sim):
        db = sim.open()
        _people(db)
        db.execute("INSERT INTO person VALUES (3, 'alan', 41)")
        sim.arm_crash("wal.mid_record")
        assert sim.run_to_crash(
            lambda d: d.execute("INSERT INTO person VALUES (4, 'doomed', 0)")
        )

        registry = MetricsRegistry()
        trace = TraceRecorder(enabled=True)
        recovered = sim.reopen(registry=registry, trace=trace)
        report = recovered.recovery_report
        assert report.discarded_txns == 1
        assert report.torn_bytes > 0

        # 1:1 counter/event pairs, and both agree with the report.
        for counter, event in (
            (M.RECOVERY_REPLAYED, T.RECOVERY_REPLAYED),
            (M.RECOVERY_DISCARDED, T.RECOVERY_DISCARDED),
            (M.WAL_APPENDS, T.WAL_APPEND),
            (M.WAL_FLUSHES, T.WAL_FLUSH),
            (M.CHECKPOINTS_WRITTEN, T.CHECKPOINT_WRITTEN),
        ):
            assert registry.counter(counter).value == trace.count(event), counter
        assert registry.counter(M.RECOVERY_REPLAYED).value == (
            report.replayed_txns + report.replayed_ddl
        )
        assert registry.counter(M.RECOVERY_DISCARDED).value == report.discarded_txns

        # Post-recovery DML keeps emitting into the same sinks.
        recovered.execute("INSERT INTO person VALUES (4, 'alive', 9)")
        assert registry.counter(M.WAL_APPENDS).value == trace.count(T.WAL_APPEND)
        assert registry.counter(M.WAL_FLUSHES).value == trace.count(T.WAL_FLUSH)

    def test_wal_append_events_carry_kind_and_table(self, sim):
        registry = MetricsRegistry()
        trace = TraceRecorder(enabled=True)
        db = sim.open(registry=registry, trace=trace)
        _people(db)
        kinds = {e.get("kind") for e in trace.named(T.WAL_APPEND)}
        assert {"ddl", "begin", "insert", "commit"} <= kinds
        assert "person" in {e.get("table") for e in trace.named(T.WAL_APPEND)}


class TestEnvKnobs:
    def test_wal_dir_env_enables_durability(self, tmp_path, monkeypatch):
        monkeypatch.setenv(WAL_DIR_ENV, str(tmp_path / "env-parent"))
        db = Database(name="envdb")
        assert db.durability is not None
        assert str(db.durability.dir).startswith(str(tmp_path / "env-parent"))
        db.execute("CREATE TABLE t (id INT)")
        db.execute("INSERT INTO t VALUES (1)")
        db.close()
        # Two env-enabled databases never share a directory.
        other = Database(name="envdb")
        assert other.durability.dir != db.durability.dir
        other.close()

    def test_explicit_false_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(WAL_DIR_ENV, str(tmp_path / "env-parent"))
        assert Database(durability=False).durability is None

    def test_fsync_env_falsy_disables(self, monkeypatch):
        monkeypatch.setenv(WAL_FSYNC_ENV, "0")
        assert DurabilityConfig(dir="x").fsync is False
        monkeypatch.setenv(WAL_FSYNC_ENV, "off")
        assert DurabilityConfig(dir="x").fsync is False
        monkeypatch.delenv(WAL_FSYNC_ENV)
        assert DurabilityConfig(dir="x").fsync is True

    def test_durability_true_is_rejected(self):
        with pytest.raises(TypeError):
            resolve_durability_config(True)

    def test_pluggable_fsync_callable_receives_fd(self, tmp_path):
        fds = []
        config = DurabilityConfig(dir=tmp_path / "plug", fsync=fds.append)
        db = Database(durability=config)
        db.execute("CREATE TABLE t (id INT)")
        assert fds, "fsync callable was never invoked at the flush boundary"
        db.close()


class TestGraphLayerIntegration:
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

    def test_db2graph_open_wires_durability(self, tmp_path):
        from repro.core import Db2Graph

        db = Database(durability=False)
        _people(db)
        db.execute("CREATE TABLE knows (src INT, dst INT)")
        db.execute("INSERT INTO knows VALUES (1, 2)")
        db.attach_durability(DurabilityConfig(dir=tmp_path / "g"))
        graph = Db2Graph.open(db, self.OVERLAY)
        assert db.durability is not None
        graph.traversal().addV("person").property("id", 7).property(
            "name", "new"
        ).property("age", 1).toList()
        stats = graph.stats()
        assert stats["wal_appends"] > 0
        assert stats["wal_flushes"] > 0
        graph.close()
        db.close()

        recovered = Database.open(str(tmp_path / "g"))
        graph2 = Db2Graph.open(recovered, self.OVERLAY)
        names = set(
            graph2.traversal().V().hasLabel("person").values("name").toList()
        )
        assert "new" in names
        assert graph2.traversal().V(1).out("knows").count().next() == 1
        graph2.close()
        recovered.close()
