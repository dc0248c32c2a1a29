"""Load-generator soak: throughput vs session count, and backpressure.

Closed-loop clients (one per logical session, 4 ms think time between
requests) drive a mixed 80/20 read/DML workload through one
:class:`~repro.service.GraphService` with 4 workers for 1.5 s at each of
1, 2, 4 and 8 sessions.  With one session the service is
think-time-bound and its workers idle; as sessions multiply, requests
overlap on the shared worker pool.  Every request must succeed, none
may be shed, and 8 sessions must at least double the throughput of 1.

An open-loop run then offers 4,000 qps into a queue of 8 with 2
workers: admission control must reject the overflow, fail nothing, and
complete what it admitted.
"""

from __future__ import annotations

import pytest

from repro.relational import Database
from repro.service import GraphService, ServiceConfig

from .loadgen import run_closed_loop, run_open_loop

pytestmark = pytest.mark.service

SESSION_COUNTS = [1, 2, 4, 8]
N_ITEMS = 64
THINK_SECONDS = 0.004
DURATION_SECONDS = 1.5

OVERLAY = {
    "v_tables": [
        {"table_name": "Item", "id": "itemID", "fix_label": True,
         "label": "'item'", "properties": ["itemID", "name", "score"]},
    ],
    "e_tables": [
        {"table_name": "Link", "src_v_table": "Item", "src_v": "srcID",
         "dst_v_table": "Item", "dst_v": "dstID",
         "implicit_edge_id": True, "fix_label": True, "label": "'link'"},
    ],
}


def build_item_db() -> Database:
    db = Database()
    db.execute(
        "CREATE TABLE Item (itemID BIGINT PRIMARY KEY, name VARCHAR, score BIGINT)"
    )
    db.execute("CREATE TABLE Link (srcID BIGINT, dstID BIGINT)")
    items = ", ".join(f"({i}, 'item{i}', {i % 7})" for i in range(1, N_ITEMS + 1))
    db.execute(f"INSERT INTO Item VALUES {items}")
    links = ", ".join(f"({i}, {i % N_ITEMS + 1})" for i in range(1, N_ITEMS + 1))
    db.execute(f"INSERT INTO Link VALUES {links}")
    return db


def mixed_work(session):
    """One request of the 80/20 read/DML mix.

    A per-session request counter picks the key and the operation, so
    the mix is deterministic and sessions touch mostly disjoint keys
    (less write-write conflict noise in a throughput measurement).
    """
    n = session._soak_counter = getattr(session, "_soak_counter", -1) + 1
    key = (n * 7 + session.session_id) % N_ITEMS + 1
    if n % 5 == 4:
        session.connection.execute(
            "UPDATE Item SET score = score + 1 WHERE itemID = ?", (key,)
        )
        return None
    return (
        session.g.V()
        .has("item", "itemID", key)
        .out("link")
        .values("score")
        .toList()
    )


def test_closed_loop_throughput_scales_with_sessions():
    throughput = {}
    for n_sessions in SESSION_COUNTS:
        service = GraphService(
            build_item_db(), OVERLAY, ServiceConfig(workers=4, queue_depth=256)
        )
        try:
            result = run_closed_loop(
                service,
                mixed_work,
                n_sessions=n_sessions,
                duration_seconds=DURATION_SECONDS,
                think_seconds=THINK_SECONDS,
            )
        finally:
            service.shutdown(timeout=10)
        assert result.failed == 0, f"{result.failed} requests failed"
        assert result.shed == 0  # no deadlines in this workload
        assert result.completed > 0
        assert service.stats()["failed"] == 0
        throughput[n_sessions] = result.throughput_qps

    one, eight = throughput[1], throughput[8]
    assert eight >= 2.0 * one, (
        f"8 sessions should at least double 1-session throughput "
        f"({eight:,.0f} vs {one:,.0f} qps)"
    )


def test_open_loop_overload_is_rejected_not_failed():
    service = GraphService(
        build_item_db(), OVERLAY, ServiceConfig(workers=2, queue_depth=8)
    )
    try:
        result = run_open_loop(
            service,
            mixed_work,
            n_sessions=4,
            arrival_rate_qps=4000.0,
            duration_seconds=1.0,
        )
    finally:
        service.shutdown(timeout=10)
    assert result.rejected > 0, "overload never hit the queue bound"
    assert result.failed == 0
    assert result.completed > 0
