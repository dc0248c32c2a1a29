"""Access control, views, prepared statements, and table functions."""

import pytest

from repro.relational import (
    AccessDeniedError,
    CatalogError,
    Database,
    DatabaseError,
)


class TestAccessControl:
    def test_admin_can_do_everything(self, people_db):
        people_db.connect("admin").execute("SELECT * FROM person")

    def test_other_user_denied_by_default(self, people_db):
        with pytest.raises(AccessDeniedError):
            people_db.connect("eve").execute("SELECT * FROM person")

    def test_grant_select(self, people_db):
        people_db.execute("GRANT SELECT ON person TO eve")
        rows = people_db.connect("eve").execute("SELECT name FROM person").rows
        assert len(rows) == 5

    def test_select_grant_does_not_allow_writes(self, people_db):
        people_db.execute("GRANT SELECT ON person TO eve")
        eve = people_db.connect("eve")
        with pytest.raises(AccessDeniedError):
            eve.execute("INSERT INTO person VALUES (9, 'x', 1, 'y')")
        with pytest.raises(AccessDeniedError):
            eve.execute("UPDATE person SET age = 0")
        with pytest.raises(AccessDeniedError):
            eve.execute("DELETE FROM person")

    def test_grant_all(self, people_db):
        people_db.execute("GRANT ALL ON person TO eve")
        eve = people_db.connect("eve")
        eve.execute("UPDATE person SET age = 1 WHERE id = 5")

    def test_revoke(self, people_db):
        people_db.execute("GRANT SELECT ON person TO eve")
        people_db.execute("REVOKE SELECT ON person FROM eve")
        with pytest.raises(AccessDeniedError):
            people_db.connect("eve").execute("SELECT * FROM person")

    def test_owner_has_implicit_rights(self, db):
        bob = db.connect("bob")
        db.access.grant(["ALL"], "own", "bob")  # allow creation-by-proxy
        bob.execute("CREATE TABLE own (a INT)")
        bob.execute("INSERT INTO own VALUES (1)")
        assert bob.execute("SELECT * FROM own").rows == [(1,)]

    def test_join_requires_grants_on_all_tables(self, people_db):
        people_db.execute("GRANT SELECT ON person TO eve")
        with pytest.raises(AccessDeniedError):
            people_db.connect("eve").execute(
                "SELECT * FROM person p JOIN knows k ON p.id = k.src"
            )

    def test_unknown_privilege_rejected(self, people_db):
        with pytest.raises(DatabaseError):
            people_db.execute("GRANT FLY ON person TO eve")


class TestViews:
    def test_view_query(self, people_db):
        people_db.execute(
            "CREATE VIEW londoners AS SELECT id, name FROM person WHERE city = 'london'"
        )
        rows = people_db.execute("SELECT name FROM londoners ORDER BY name").rows
        assert rows == [("ada",), ("alan",)]

    def test_view_reflects_base_changes(self, people_db):
        people_db.execute(
            "CREATE VIEW londoners AS SELECT id, name FROM person WHERE city = 'london'"
        )
        people_db.execute("UPDATE person SET city = 'london' WHERE id = 2")
        assert people_db.execute("SELECT COUNT(*) FROM londoners").scalar() == 3

    def test_view_with_join(self, people_db):
        people_db.execute(
            "CREATE VIEW friendships AS "
            "SELECT p.name AS a, q.name AS b FROM knows k "
            "JOIN person p ON k.src = p.id JOIN person q ON k.dst = q.id"
        )
        rows = people_db.execute("SELECT * FROM friendships WHERE a = 'ada'").rows
        assert sorted(rows) == [("ada", "alan"), ("ada", "grace")]

    def test_view_over_view(self, people_db):
        people_db.execute("CREATE VIEW v1 AS SELECT id, age FROM person")
        people_db.execute("CREATE VIEW v2 AS SELECT id FROM v1 WHERE age > 50")
        assert people_db.execute("SELECT COUNT(*) FROM v2").scalar() == 2

    def test_or_replace(self, people_db):
        people_db.execute("CREATE VIEW v AS SELECT id FROM person")
        with pytest.raises(CatalogError):
            people_db.execute("CREATE VIEW v AS SELECT name FROM person")
        people_db.execute("CREATE OR REPLACE VIEW v AS SELECT name FROM person")
        assert people_db.execute("SELECT * FROM v").columns == ["name"]

    def test_invalid_view_body_rejected_at_creation(self, people_db):
        with pytest.raises(CatalogError):
            people_db.execute("CREATE VIEW broken AS SELECT nope FROM person")

    def test_view_name_collision_with_table(self, people_db):
        with pytest.raises(CatalogError):
            people_db.execute("CREATE VIEW person AS SELECT 1")

    def test_drop_view(self, people_db):
        people_db.execute("CREATE VIEW v AS SELECT id FROM person")
        people_db.execute("DROP VIEW v")
        with pytest.raises(CatalogError):
            people_db.execute("SELECT * FROM v")


class TestPreparedStatements:
    def test_prepare_execute_with_params(self, people_db):
        conn = people_db.connect()
        ps = conn.prepare("SELECT name FROM person WHERE id = ?")
        assert ps.execute(conn, [1]).rows == [("ada",)]
        assert ps.execute(conn, [2]).rows == [("grace",)]

    def test_statement_cache_hits(self, people_db):
        conn = people_db.connect()
        cache = people_db.statement_cache
        before = cache.hits
        conn.prepare("SELECT * FROM person WHERE id = ?")
        conn.prepare("SELECT * FROM person WHERE id = ?")
        assert cache.hits == before + 1

    def test_plan_invalidated_by_ddl(self, people_db):
        conn = people_db.connect()
        ps = conn.prepare("SELECT * FROM person WHERE city = ?")
        ps.execute(conn, ["london"])
        plan_before = ps._plan
        people_db.execute("CREATE INDEX idx_city ON person (city)")
        ps.execute(conn, ["london"])
        assert ps._plan is not plan_before, "DDL must invalidate cached plans"
        assert "index_eq" in ps._plan.root.explain()

    def test_prepared_dml(self, people_db):
        conn = people_db.connect()
        ps = conn.prepare("UPDATE person SET age = ? WHERE id = ?")
        ps.execute(conn, [50, 1])
        assert people_db.execute("SELECT age FROM person WHERE id = 1").scalar() == 50

    def test_missing_parameter_raises(self, people_db):
        conn = people_db.connect()
        ps = conn.prepare("SELECT * FROM person WHERE id = ?")
        with pytest.raises(DatabaseError):
            ps.execute(conn, [])

    def test_cache_eviction(self, people_db):
        people_db.statement_cache.capacity = 2
        conn = people_db.connect()
        conn.prepare("SELECT 1")
        conn.prepare("SELECT 2")
        conn.prepare("SELECT 3")
        assert len(people_db.statement_cache) <= 2

    def test_cache_evicts_least_recently_used(self, people_db):
        cache = people_db.statement_cache
        cache.capacity = 2
        conn = people_db.connect()
        first = conn.prepare("SELECT 1")
        second = conn.prepare("SELECT 2")
        assert conn.prepare("SELECT 1") is first  # hit: SELECT 1 is now newest
        conn.prepare("SELECT 3")  # evicts SELECT 2, the least recently used
        assert len(cache) == 2
        hits, misses = cache.hits, cache.misses
        assert conn.prepare("SELECT 1") is first
        assert conn.prepare("SELECT 2") is not second
        assert (cache.hits, cache.misses) == (hits + 1, misses + 1)

    def test_grants_checked_per_execution(self, people_db):
        people_db.execute("GRANT SELECT ON person TO eve")
        eve = people_db.connect("eve")
        ps = eve.prepare("SELECT name FROM person WHERE id = ?")
        ps.execute(eve, [1])
        people_db.execute("REVOKE SELECT ON person FROM eve")
        with pytest.raises(AccessDeniedError):
            ps.execute(eve, [1])


class TestTableFunctions:
    def test_basic_table_function(self, db):
        db.register_table_function("gen", lambda session, n: ((i,) for i in range(n)))
        rows = db.execute("SELECT a FROM TABLE(gen(3)) AS g (a INT)").rows
        assert rows == [(0,), (1,), (2,)]

    def test_declared_types_coerce(self, db):
        db.register_table_function("strs", lambda session: [("1",), ("2",)])
        rows = db.execute("SELECT a FROM TABLE(strs()) AS g (a INT)").rows
        assert rows == [(1,), (2,)]

    def test_wrong_width_rejected(self, db):
        db.register_table_function("bad", lambda session: [(1, 2)])
        from repro.relational import ExecutionError

        with pytest.raises(ExecutionError):
            db.execute("SELECT a FROM TABLE(bad()) AS g (a INT)")

    def test_join_with_base_table(self, people_db):
        people_db.register_table_function(
            "ids", lambda session: [(1,), (3,)]
        )
        rows = people_db.execute(
            "SELECT p.name FROM person p, TABLE(ids()) AS t (pid INT) "
            "WHERE p.id = t.pid ORDER BY p.name"
        ).rows
        assert rows == [("ada",), ("alan",)]

    def test_aggregation_over_table_function(self, db):
        db.register_table_function("gen", lambda session, n: ((i,) for i in range(n)))
        assert db.execute("SELECT SUM(a) FROM TABLE(gen(5)) AS g (a INT)").scalar() == 10

    def test_unknown_function(self, db):
        with pytest.raises(CatalogError):
            db.execute("SELECT * FROM TABLE(nope()) AS g (a INT)")
