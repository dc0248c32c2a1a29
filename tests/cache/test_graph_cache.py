"""The cache-coherence battery: the read cache must be invisible except
in the statement counts.

Every test here compares cached behavior against the uncached
semantics the rest of the suite already pins: repeated reads hit
without issuing SQL, any committed DML (insert/update/delete, explicit
or autocommit) makes the next read fresh, rollbacks invalidate
nothing, explicit transactions bypass the cache entirely
(read-your-writes), and DDL flips the generation so every entry
re-validates.
"""

from __future__ import annotations

import threading

import pytest

from repro.cache import CacheConfig, GraphCache
from repro.core import Db2Graph
from repro.graph.model import Vertex
from repro.relational.database import Database

PERSON_OVERLAY = {
    "v_tables": [
        {"table_name": "person", "id": "id", "fix_label": True,
         "label": "'person'", "properties": ["id", "name"]},
    ],
    "e_tables": [
        {"table_name": "knows", "src_v_table": "person", "src_v": "src",
         "dst_v_table": "person", "dst_v": "dst",
         "implicit_edge_id": True, "fix_label": True, "label": "'knows'"},
    ],
}


def make_db() -> Database:
    db = Database()
    db.execute("CREATE TABLE person (id INT PRIMARY KEY, name VARCHAR(20))")
    db.execute("CREATE TABLE knows (src INT, dst INT)")
    db.execute("INSERT INTO person VALUES (1, 'ada'), (2, 'grace'), (3, 'alan')")
    db.execute("INSERT INTO knows VALUES (1, 2), (1, 3)")
    return db


@pytest.fixture()
def db():
    return make_db()


@pytest.fixture()
def cached(db):
    graph = Db2Graph.open(db, PERSON_OVERLAY, cache=True)
    yield graph
    graph.close()


def out_names(graph):
    return sorted(graph.traversal().V().out().values("name").toList())


# ---------------------------------------------------------------------------
# Hits, misses, and statement savings
# ---------------------------------------------------------------------------


def test_repeat_traversal_hits_without_sql(cached):
    first = out_names(cached)
    after_first = cached.stats()
    second = out_names(cached)
    after_second = cached.stats()
    assert first == second == ["alan", "grace"]
    assert after_first["cache_misses"] > 0
    assert after_second["cache_hits"] >= after_first["cache_misses"]
    assert after_second["sql_queries"] == after_first["sql_queries"]


def test_cache_off_by_default(db, monkeypatch):
    # The CI cache leg exports REPRO_CACHE_ENABLED=1; clear it so this
    # test pins the out-of-the-box default, not the leg's override.
    monkeypatch.delenv("REPRO_CACHE_ENABLED", raising=False)
    graph = Db2Graph.open(db, PERSON_OVERLAY)
    try:
        assert graph.cache is None
        out_names(graph)
        stats = graph.stats()
        assert stats["cache_hits"] == stats["cache_misses"] == 0
        assert "cache=off" in repr(graph)
    finally:
        graph.close()


def test_cached_results_are_not_aliased(cached):
    """Mutating a returned row dict must not corrupt the cache."""
    g = cached.traversal()
    rows = g.V().hasLabel("person").toList()
    rows[0].properties["name"] = "mutated!"
    again = cached.traversal().V().hasLabel("person").toList()
    assert sorted(v.properties["name"] for v in again) == ["ada", "alan", "grace"]


# ---------------------------------------------------------------------------
# Invalidation on committed DML
# ---------------------------------------------------------------------------


def test_autocommit_insert_invalidates(cached, db):
    assert out_names(cached) == ["alan", "grace"]
    out_names(cached)  # warm
    db.execute("INSERT INTO knows VALUES (2, 3)")
    assert cached.stats()["cache_invalidations"] == 1
    assert out_names(cached) == ["alan", "alan", "grace"]


def test_autocommit_update_invalidates(cached, db):
    out_names(cached)
    db.execute("UPDATE person SET name = 'grace2' WHERE id = 2")
    assert out_names(cached) == ["alan", "grace2"]
    names = sorted(
        cached.traversal().V().hasLabel("person").values("name").toList()
    )
    assert names == ["ada", "alan", "grace2"]


def test_autocommit_delete_invalidates(cached, db):
    out_names(cached)
    db.execute("DELETE FROM knows WHERE dst = 3")
    assert out_names(cached) == ["grace"]


def test_explicit_commit_invalidates_only_written_tables(cached, db):
    out_names(cached)
    epochs = db.epochs
    before_person = epochs.epoch("person")
    before_knows = epochs.epoch("knows")
    writer = db.connect()
    writer.begin()
    writer.execute("INSERT INTO knows VALUES (3, 1)")
    # Uncommitted: the cached reader must NOT see the new edge.
    assert out_names(cached) == ["alan", "grace"]
    writer.commit()
    assert epochs.epoch("knows") == before_knows + 1
    assert epochs.epoch("person") == before_person  # untouched table
    assert out_names(cached) == ["ada", "alan", "grace"]


def test_rollback_never_invalidates(cached, db):
    out_names(cached)
    invalidations = cached.stats()["cache_invalidations"]
    bumps = db.epochs.total_bumps
    writer = db.connect()
    writer.begin()
    writer.execute("INSERT INTO knows VALUES (3, 1)")
    writer.execute("INSERT INTO person VALUES (9, 'ghost')")
    writer.rollback()
    assert db.epochs.total_bumps == bumps
    assert cached.stats()["cache_invalidations"] == invalidations
    # The warm entries are still served, and still correct.
    before = cached.stats()["sql_queries"]
    assert out_names(cached) == ["alan", "grace"]
    assert cached.stats()["sql_queries"] == before


# ---------------------------------------------------------------------------
# Explicit-transaction bypass (read-your-writes)
# ---------------------------------------------------------------------------


def test_transaction_bypasses_lookup_and_fill(cached, db):
    out_names(cached)  # warm the cache
    entries_before = cached.cache.entry_counts()
    conn = cached.connection
    conn.begin()
    try:
        conn.execute("INSERT INTO person VALUES (4, 'edsger')")
        conn.execute("INSERT INTO knows VALUES (1, 4)")
        # Read-your-writes: the uncommitted edge is visible in-txn.
        assert out_names(cached) == ["alan", "edsger", "grace"]
        stats = cached.stats()
        assert stats["cache_bypass_txn"] > 0
        # Nothing was filled from inside the transaction.
        assert cached.cache.entry_counts() == entries_before
    finally:
        conn.rollback()
    # After rollback the cached state never saw the aborted writes.
    assert out_names(cached) == ["alan", "grace"]


def test_transaction_commit_then_fresh_reads(cached):
    out_names(cached)
    conn = cached.connection
    conn.begin()
    conn.execute("INSERT INTO knows VALUES (2, 1)")
    conn.commit()
    assert out_names(cached) == ["ada", "alan", "grace"]


# ---------------------------------------------------------------------------
# Negative caching
# ---------------------------------------------------------------------------


def test_negative_lookup_cached_until_insert(cached, db):
    provider = cached.provider
    assert provider.load_vertex(999) is None
    before = cached.stats()
    assert provider.load_vertex(999) is None  # served from cache
    after = cached.stats()
    assert after["cache_hits"] == before["cache_hits"] + 1
    assert after["sql_queries"] == before["sql_queries"]
    db.execute("INSERT INTO person VALUES (999, 'new')")
    vertex = provider.load_vertex(999)
    assert vertex is not None and vertex.properties["name"] == "new"


def test_bulk_materialize_group_is_the_cache_unit(cached, db):
    provider = cached.provider

    def batch(ids):
        vertices = [Vertex(i, provider=provider, source_table="person") for i in ids]
        provider.bulk_materialize(vertices)
        return sorted(v.properties.get("name") for v in vertices if v.is_materialized)

    assert batch([1, 2, 3]) == ["ada", "alan", "grace"]
    before = cached.stats()
    assert batch([1, 2, 3]) == ["ada", "alan", "grace"]
    assert cached.stats()["sql_queries"] == before["sql_queries"]
    # A different id-set is a different unit of work — not a hit.
    assert batch([1, 2]) == ["ada", "grace"]
    db.execute("UPDATE person SET name = 'ada2' WHERE id = 1")
    assert batch([1, 2, 3]) == ["ada2", "alan", "grace"]


# ---------------------------------------------------------------------------
# Eviction and capacity
# ---------------------------------------------------------------------------


def test_eviction_counted_and_capacity_respected(db):
    graph = Db2Graph.open(
        db,
        PERSON_OVERLAY,
        cache=CacheConfig(statement_capacity=2, row_capacity=2, stripes=1),
    )
    try:
        for vid in (1, 2, 3, 1, 2):
            graph.traversal().V(vid).values("name").toList()
        stats = graph.stats()
        assert stats["cache_evictions"] > 0
        counts = graph.cache.entry_counts()
        assert counts["statement"] <= 2
        assert counts["row"] <= 2
    finally:
        graph.close()


def test_stale_drop_is_not_an_eviction(cached, db):
    out_names(cached)
    db.execute("INSERT INTO knows VALUES (2, 3)")
    out_names(cached)  # stale entries re-validated and replaced
    assert cached.stats()["cache_evictions"] == 0


# ---------------------------------------------------------------------------
# DDL and view dependencies
# ---------------------------------------------------------------------------


def test_ddl_generation_invalidates_everything(cached, db):
    assert out_names(cached) == ["alan", "grace"]
    hits_before = cached.stats()["cache_hits"]
    db.execute("CREATE TABLE unrelated (id INT PRIMARY KEY)")
    # Conservative: the generation flipped, so the warm entries miss —
    # but the answers stay correct.
    assert out_names(cached) == ["alan", "grace"]
    assert cached.stats()["cache_hits"] == hits_before


def test_view_dependencies_resolve_to_base_tables():
    db = make_db()
    db.execute("CREATE VIEW vip AS SELECT id, name FROM person")
    graph = Db2Graph.open(db, PERSON_OVERLAY, cache=True)
    try:
        assert graph.cache.dependencies(["vip"]) == ("person",)
        assert graph.cache.dependencies(["vip", "knows"]) == ("person", "knows")
        assert graph.cache.dependencies(["no_such_rel"]) is None
    finally:
        graph.close()


def test_view_backed_overlay_invalidated_by_base_table_dml():
    db = make_db()
    db.execute("CREATE VIEW vperson AS SELECT id, name FROM person")
    overlay = {
        "v_tables": [
            {"table_name": "vperson", "id": "id", "fix_label": True,
             "label": "'person'", "properties": ["id", "name"]},
        ],
        "e_tables": [
            {"table_name": "knows", "src_v_table": "vperson", "src_v": "src",
             "dst_v_table": "vperson", "dst_v": "dst",
             "implicit_edge_id": True, "fix_label": True, "label": "'knows'"},
        ],
    }
    graph = Db2Graph.open(db, overlay, cache=True)
    try:
        names = sorted(graph.traversal().V().values("name").toList())
        assert names == ["ada", "alan", "grace"]
        sorted(graph.traversal().V().values("name").toList())  # warm
        # DML against the *base* table must invalidate view-keyed entries.
        db.execute("UPDATE person SET name = 'ada2' WHERE id = 1")
        names = sorted(graph.traversal().V().values("name").toList())
        assert names == ["ada2", "alan", "grace"]
    finally:
        graph.close()


# ---------------------------------------------------------------------------
# Budget interaction
# ---------------------------------------------------------------------------


def test_cache_hits_do_not_consume_statement_budget(cached):
    out_names(cached)  # warm: everything below is served from cache
    baseline = cached.stats()["sql_queries"]
    g = cached.traversal().with_budget(max_sql_statements=1)
    assert sorted(g.V().out().values("name").toList()) == ["alan", "grace"]
    assert cached.stats()["sql_queries"] == baseline


def test_cache_hits_still_count_rows(cached):
    from repro.resilience import BudgetExceededError

    cached.traversal().V().hasLabel("person").toList()  # warm
    g = cached.traversal().with_budget(max_rows=1)
    with pytest.raises(BudgetExceededError):
        g.V().hasLabel("person").toList()


# ---------------------------------------------------------------------------
# Batched multi-table fan-out + concurrent writers
# ---------------------------------------------------------------------------


def test_parallel_fanout_with_cache_matches_serial(db):
    """A cached graph batching two ids per statement answers repeated
    multi-table fan-outs exactly as an uncached default graph does."""
    cached = Db2Graph.open(db, PERSON_OVERLAY, cache=True, batch_size=2)
    uncached = Db2Graph.open(db, PERSON_OVERLAY, cache=False)
    for _ in range(3):
        assert sorted(cached.traversal().V().both().count().toList()) == sorted(
            uncached.traversal().V().both().count().toList()
        )
        assert out_names(cached) == out_names(uncached)
    assert cached.stats()["cache_hits"] > 0


@pytest.mark.stress
@pytest.mark.timeout(60)
def test_concurrent_readers_and_writers_stay_coherent(db):
    """Readers on a shared cached graph race committed writers; every
    read must equal what an uncached graph on the same database says
    immediately afterwards (the epoch protocol's only promise is
    never-stale, so we check reads are drawn from committed states)."""
    graph = Db2Graph.open(db, PERSON_OVERLAY, cache=True)
    errors: list[BaseException] = []
    stop = threading.Event()

    universe = {"grace", "grace2", "alan"}

    def reader():
        try:
            while not stop.is_set():
                names = out_names(graph)
                # Race-free invariant: id 2's name only ever takes the
                # writer's two values, and out(1) only reaches ids 2+3,
                # so any read drawn from a committed state stays inside
                # the closed universe with at most one name per endpoint.
                assert set(names) <= universe
                assert len(names) <= 2
                assert not {"grace", "grace2"} <= set(names)
        except BaseException as exc:  # noqa: BLE001 — surfaced after join
            errors.append(exc)

    def writer():
        try:
            for i in range(25):
                db.execute(
                    "UPDATE person SET name = ? WHERE id = 2",
                    ["grace2" if i % 2 else "grace"],
                )
        except BaseException as exc:  # noqa: BLE001 — surfaced after join
            errors.append(exc)
        finally:
            stop.set()

    threads = [threading.Thread(target=reader) for _ in range(3)]
    threads.append(threading.Thread(target=writer))
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=45.0)
        assert not t.is_alive(), "cache coherence thread wedged"
    graph.close()
    assert not errors, errors[:3]


# ---------------------------------------------------------------------------
# Management surface
# ---------------------------------------------------------------------------


def test_stats_keys_and_repr(cached):
    out_names(cached)
    stats = cached.stats()
    for key in (
        "cache_hits",
        "cache_misses",
        "cache_evictions",
        "cache_invalidations",
        "cache_bypass_txn",
    ):
        assert key in stats
    assert "cache=on" in repr(cached)
    assert "GraphCache(" in repr(cached.cache)


def test_clear_empties_both_segments(cached):
    out_names(cached)
    cached.provider.load_vertex(1)
    assert sum(cached.cache.entry_counts().values()) > 0
    cached.cache.clear()
    assert cached.cache.entry_counts() == {"statement": 0, "row": 0}
    # Still correct afterwards (repopulates on the next read).
    assert out_names(cached) == ["alan", "grace"]


def test_graph_cache_requires_database_epochs(db):
    cache = GraphCache(db, CacheConfig(stripes=1))
    assert cache.epochs is db.epochs
    assert cache.dependencies(["person"]) == ("person",)
    assert cache.dependencies(["PERSON", "person"]) == ("person",)
