"""Hash join and GROUP BY against a naive reference, over seeded tables.

The reference joins with a nested loop and aggregates with a running
total per group, left to right, under SQL NULL rules.  Results compare
as multisets of ``repr``s, so floats must match bit for bit and ``1``,
``1.0`` and ``TRUE`` stay distinct.  Float columns mix magnitudes
(``1e16`` beside ``1.0``), so AVG and SUM depend on addition order; the
engine must add in its input order, the join's output order.
"""

import random

import pytest

from repro.relational import Database, ExecutionError

SEEDS = range(25)
# L(id, ki, kd, kb, ks, v, f) and R(id, ki, kd, kb, ks, w); EL and E are
# empty tables with the schemas of L and R.
L_COLUMNS = "id INTEGER, ki INTEGER, kd DOUBLE, kb BOOLEAN, ks VARCHAR, v INTEGER, f DOUBLE"
R_COLUMNS = "id INTEGER, ki INTEGER, kd DOUBLE, kb BOOLEAN, ks VARCHAR, w INTEGER"
ID, KI, KD, KB, KS, V, F = range(7)
W = 5
R_WIDTH = 6


def make_db(seed):
    rng = random.Random(seed)

    def row(i, last):
        return (
            i,
            rng.choice([None, 0, 1, 2, 3]),
            rng.choice([None, 0.0, 1.0, 2.0, 2.5]),
            rng.choice([None, True, False]),
            rng.choice([None, "a", "b"]),
            last(),
        )

    db = Database()
    for name, columns in (("L", L_COLUMNS), ("R", R_COLUMNS), ("EL", L_COLUMNS), ("E", R_COLUMNS)):
        db.execute(f"CREATE TABLE {name} ({columns})")
    db.connect().insert_rows("L", [
        row(i, lambda: rng.choice([None, -3, 0, 2, 7, 9]))
        + (rng.choice([None, 0.1, 0.2, 1.0, 3.5, 1e16, -1e16]),)
        for i in range(rng.randint(1, 30))
    ])
    db.connect().insert_rows("R", [
        row(i, lambda: rng.choice([None, 0, 1, 4, 8])) for i in range(rng.randint(1, 30))
    ])
    return db


# -- reference ---------------------------------------------------------------


def eq(a, b):
    """SQL ``=`` is TRUE: neither side NULL and the values equal."""
    return a is not None and b is not None and a == b


def add(a, b):
    return None if a is None or b is None else a + b


def ref_join(left, right, on, kind="INNER"):
    out = []
    for lrow in left:
        matched = False
        for rrow in right:
            if on(lrow, rrow):
                matched = True
                out.append(lrow + rrow)
        if kind == "LEFT" and not matched:
            out.append(lrow + (None,) * R_WIDTH)
    return out


def running(name, values):
    present = [value for value in values if value is not None]
    if name == "COUNT":
        return len(present)
    if not present:
        return None
    if name == "AVG":
        total = 0.0
        for value in present:
            total += value
        return total / len(present)
    result = present[0]
    for value in present[1:]:
        if name == "SUM":
            result = result + value
        elif (value < result) if name == "MIN" else (value > result):
            result = value
    return result


def ref_group(rows, key, aggs, having=None):
    """``aggs`` are (name, argument) pairs; argument None is COUNT(*)."""
    groups = {}
    for row in rows:
        groups.setdefault(key(row), []).append(row)
    out = []
    for group_key, bucket in groups.items():
        results = tuple(
            len(bucket) if arg is None else running(name, [arg(row) for row in bucket])
            for name, arg in aggs
        )
        if having is None or having(bucket):
            out.append(group_key + results)
    return out


def col(i):
    return lambda row: row[i]


JOINS = [
    ("L JOIN R ON L.ki = R.ki", lambda l, r: eq(l[KI], r[KI]), "INNER"),
    ("L JOIN R ON L.ki = R.kd", lambda l, r: eq(l[KI], r[KD]), "INNER"),
    ("L JOIN R ON L.kb = R.ki", lambda l, r: eq(l[KB], r[KI]), "INNER"),
    ("L JOIN R ON L.kd = R.kb", lambda l, r: eq(l[KD], r[KB]), "INNER"),
    ("L JOIN R ON L.ki = R.ki AND L.ks = R.ks",
     lambda l, r: eq(l[KI], r[KI]) and eq(l[KS], r[KS]), "INNER"),
    ("L JOIN R ON L.ks = R.ks AND L.kb = R.kb AND L.kd = R.ki",
     lambda l, r: eq(l[KS], r[KS]) and eq(l[KB], r[KB]) and eq(l[KD], r[KI]), "INNER"),
    ("L JOIN R ON L.ki + 1 = R.ki", lambda l, r: eq(add(l[KI], 1), r[KI]), "INNER"),
    ("L JOIN R ON L.ki * 2 = R.kd AND L.ks = R.ks",
     lambda l, r: eq(None if l[KI] is None else l[KI] * 2, r[KD]) and eq(l[KS], r[KS]), "INNER"),
    ("L JOIN R ON L.ki = R.ki AND L.v > R.w",
     lambda l, r: eq(l[KI], r[KI]) and None not in (l[V], r[W]) and l[V] > r[W], "INNER"),
    ("L LEFT JOIN R ON L.ki = R.ki AND L.v > R.w",
     lambda l, r: eq(l[KI], r[KI]) and None not in (l[V], r[W]) and l[V] > r[W], "LEFT"),
    ("L LEFT JOIN R ON L.ki = R.ki AND L.ks = R.ks",
     lambda l, r: eq(l[KI], r[KI]) and eq(l[KS], r[KS]), "LEFT"),
    ("L LEFT JOIN R ON L.kd = R.kb", lambda l, r: eq(l[KD], r[KB]), "LEFT"),
    ("L JOIN R ON L.ki < R.ki", lambda l, r: None not in (l[KI], r[KI]) and l[KI] < r[KI], "INNER"),
    ("L LEFT JOIN R ON L.v < R.w", lambda l, r: None not in (l[V], r[W]) and l[V] < r[W], "LEFT"),
    ("L, R", lambda l, r: True, "INNER"),
]


def table(db, name):
    return db.execute(f"SELECT * FROM {name}").rows


def assert_same(actual, expected):
    assert sorted(map(repr, actual)) == sorted(map(repr, expected))


@pytest.mark.parametrize("seed", SEEDS)
def test_joins_match_nested_loop_reference(seed):
    db = make_db(seed)
    left, right = table(db, "L"), table(db, "R")
    for from_clause, on, kind in JOINS:
        rows = db.execute(f"SELECT * FROM {from_clause}").rows
        assert_same(rows, ref_join(left, right, on, kind))
        if "L," in from_clause:
            continue
        # an empty build side, then an empty probe side
        for sql, probe, build in (
            (from_clause.replace(" R ", " E AS R "), left, []),
            (from_clause.replace("L ", "EL AS L ", 1), [], right),
        ):
            assert_same(db.execute(f"SELECT * FROM {sql}").rows, ref_join(probe, build, on, kind))


def aggregate_cases(left, joined):
    """(SQL, reference rows) pairs; select lists put group keys first."""
    by_ki = lambda row: (row[KI],)
    return [
        ("SELECT ki, COUNT(*), COUNT(v), SUM(v), AVG(f), MIN(ks), MAX(kd), SUM(f) FROM L GROUP BY ki",
         ref_group(left, by_ki, [("COUNT", None), ("COUNT", col(V)), ("SUM", col(V)), ("AVG", col(F)),
                                 ("MIN", col(KS)), ("MAX", col(KD)), ("SUM", col(F))])),
        ("SELECT ki, kb, COUNT(*), AVG(v), MIN(f), MAX(ks) FROM L GROUP BY ki, kb",
         ref_group(left, lambda row: (row[KI], row[KB]),
                   [("COUNT", None), ("AVG", col(V)), ("MIN", col(F)), ("MAX", col(KS))])),
        ("SELECT ks, SUM(v * 2), AVG(f + v), COUNT(kd) FROM L GROUP BY ks",
         ref_group(left, lambda row: (row[KS],),
                   [("SUM", lambda row: None if row[V] is None else row[V] * 2),
                    ("AVG", lambda row: add(row[F], row[V])), ("COUNT", col(KD))])),
        ("SELECT ki + 1, COUNT(*), SUM(v) FROM L GROUP BY ki + 1",
         ref_group(left, lambda row: (add(row[KI], 1),), [("COUNT", None), ("SUM", col(V))])),
        ("SELECT kb, MIN(kb), MAX(kb), COUNT(kb) FROM L GROUP BY kb",
         ref_group(left, lambda row: (row[KB],), [("MIN", col(KB)), ("MAX", col(KB)), ("COUNT", col(KB))])),
        ("SELECT ki, SUM(v) FROM L GROUP BY ki HAVING COUNT(*) > 1",
         ref_group(left, by_ki, [("SUM", col(V))], having=lambda bucket: len(bucket) > 1)),
        ("SELECT COUNT(*), COUNT(v), SUM(v), AVG(f), MIN(v), MAX(ks) FROM L",
         ref_group(left, lambda row: (), [("COUNT", None), ("COUNT", col(V)), ("SUM", col(V)),
                                          ("AVG", col(F)), ("MIN", col(V)), ("MAX", col(KS))])),
        ("SELECT COUNT(*), COUNT(v), SUM(v), AVG(f), MIN(v), MAX(ks) FROM EL",
         [(0, 0, None, None, None, None)]),
        ("SELECT ki, COUNT(*) FROM EL GROUP BY ki", []),
        ("SELECT L.ki, COUNT(*), SUM(R.w), AVG(L.f) FROM L JOIN R ON L.ki = R.ki GROUP BY L.ki",
         ref_group(joined["L JOIN R ON L.ki = R.ki"], by_ki,
                   [("COUNT", None), ("SUM", col(7 + W)), ("AVG", col(F))])),
        ("SELECT L.ks, AVG(R.kd), MAX(R.w), COUNT(R.id) FROM L LEFT JOIN R "
         "ON L.ki = R.ki AND L.v > R.w GROUP BY L.ks",
         ref_group(joined["L LEFT JOIN R ON L.ki = R.ki AND L.v > R.w"], lambda row: (row[KS],),
                   [("AVG", col(7 + KD)), ("MAX", col(7 + W)), ("COUNT", col(7 + ID))])),
    ]


@pytest.mark.parametrize("seed", SEEDS)
def test_aggregates_match_running_total_reference(seed):
    db = make_db(seed)
    left, right = table(db, "L"), table(db, "R")
    joined = {sql: ref_join(left, right, on, kind) for sql, on, kind in JOINS}
    for sql, expected in aggregate_cases(left, joined):
        assert_same(db.execute(sql).rows, expected)


def test_avg_adds_left_to_right():
    """Builtin ``sum`` on Python 3.12+ would return 1.0 / 3 here."""
    db = Database()
    db.execute("CREATE TABLE t (g INTEGER, f DOUBLE)")
    db.connect().insert_rows("t", [(1, 1e16), (1, 1.0), (1, -1e16)])
    assert repr(db.execute("SELECT AVG(f), SUM(f) FROM t").rows) == "[(0.0, 0.0)]"
    assert repr(db.execute("SELECT g, AVG(f) FROM t GROUP BY g").rows) == "[(1, 0.0)]"


def type_error_db():
    db = Database()
    db.execute("CREATE TABLE t (g INTEGER, a VARCHAR, b VARCHAR, flag BOOLEAN)")
    # group 1 comes first, but the first non-numeric value is group 2's
    db.connect().insert_rows("t", [(1, None, None, True), (2, "x", None, None), (1, "y", "z", None)])
    # MIN(COALESCE(flag, s)) by g: group 1 comes first, group 2 fails first
    db.execute("CREATE TABLE u (g INTEGER, s VARCHAR, flag BOOLEAN)")
    db.connect().insert_rows("u", [(1, "a", None), (2, "b", None), (2, None, True), (1, None, False)])
    return db


PLUS_ERROR = "operator + requires numeric operands, got 'z', 1"


@pytest.mark.parametrize("sql, message", [
    ("SELECT g, SUM(a) FROM t GROUP BY g", "SUM requires numeric input, got 'x'"),
    ("SELECT g, AVG(a) FROM t GROUP BY g", "AVG requires numeric input, got 'x'"),
    # row order first, then the leftmost aggregate within the row
    ("SELECT g, SUM(b), AVG(a) FROM t GROUP BY g", "AVG requires numeric input, got 'x'"),
    ("SELECT g, AVG(a), SUM(b) FROM t GROUP BY g", "AVG requires numeric input, got 'x'"),
    ("SELECT SUM(flag) FROM t", "SUM requires numeric input, got True"),
    ("SELECT SUM(*) FROM t", "SUM requires numeric input, got True"),
    ("SELECT MIN(COALESCE(a, g)) FROM t", "cannot compare str with int"),
    # an argument expression that fails in a later row than a SUM error
    ("SELECT SUM(a), SUM(b + 1) FROM t", "SUM requires numeric input, got 'x'"),
    ("SELECT SUM(b + 1), SUM(a) FROM t", "SUM requires numeric input, got 'x'"),
    # both fail in the same row: the leftmost aggregate's error wins
    ("SELECT SUM(b + 1), SUM(a) FROM t WHERE g = 1", PLUS_ERROR),
    ("SELECT SUM(a), SUM(b + 1) FROM t WHERE g = 1", "SUM requires numeric input, got 'y'"),
    # a MIN compare error in an earlier row than a SUM error, or the same row
    ("SELECT SUM(b), MIN(COALESCE(a, g)) FROM t", "cannot compare str with int"),
    ("SELECT MIN(COALESCE(a, g)), SUM(a) FROM t", "cannot compare str with int"),
    ("SELECT SUM(a), MIN(COALESCE(a, g)) FROM t", "SUM requires numeric input, got 'x'"),
    # group keys are evaluated before the row's aggregates
    ("SELECT SUM(a) FROM t GROUP BY b + 1", "SUM requires numeric input, got 'x'"),
    ("SELECT SUM(b) FROM t GROUP BY b + 1", PLUS_ERROR),
    # MIN/MAX errors in row order, not group order
    ("SELECT g, MIN(COALESCE(flag, s)) FROM u GROUP BY g", "cannot compare True with 'b'"),
    ("SELECT g, MAX(COALESCE(flag, s)) FROM u GROUP BY g", "cannot compare True with 'b'"),
])
def test_type_errors_name_first_value_in_input_order(sql, message):
    with pytest.raises(ExecutionError) as excinfo:
        type_error_db().execute(sql)
    assert str(excinfo.value) == message


def test_star_aggregates_count_true_per_row():
    db = type_error_db()
    assert db.execute("SELECT COUNT(*), MIN(*), MAX(*) FROM t").rows == [(3, True, True)]
