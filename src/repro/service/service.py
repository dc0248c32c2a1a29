"""The multi-session graph service (admission control + dispatch).

Db2 Graph runs *inside* the DBMS process, where many SQL and Gremlin
sessions hit the graph layer at once.  :class:`GraphService` is that
shape: one shared :class:`~repro.relational.database.Database`, many
logical :class:`~repro.service.session.GraphSession` handles, and a
single bounded admission queue feeding one thread pool of workers.

Request lifecycle::

    submit ──► AdmissionQueue (bounded; full ⇒ reject + retry_after)
                  │  round-robin across sessions (fair dispatch)
                  ▼
            free worker permit? ──► deadline expired while queued?
                  │                     yes ⇒ shed (never executes)
                  ▼ no
            pool worker runs fn(session) ──► Future resolves

Dispatch has no thread of its own: the submitting thread dispatches
right after its push, and a worker dispatches the next queued request
as it frees its permit.  A request therefore costs two thread wake-ups
(client to worker and back), not four.

Guarantees:

* **Backpressure** — a full queue rejects *immediately* with an
  :class:`~repro.service.errors.AdmissionRejectedError` carrying a
  drain-rate-based ``retry_after`` hint; queued latency stays bounded.
* **Deadline shedding** — a request whose ``QueryBudget`` deadline
  elapsed while it sat queued is dropped at dispatch time (a worker is
  never spent on a query its caller already abandoned).
* **Fairness** — one FIFO per session, popped round-robin; a flooding
  session cannot starve the rest.
* **Graceful drain** — ``drain()`` stops admission and finishes every
  queued and in-flight request; ``shutdown()`` additionally closes all
  sessions, rolling back any abandoned open transaction so no lock or
  transaction outlives the service.

One metrics registry and trace recorder span the service, every
session's graph handle, and the relational engine underneath, so
``service.*`` counters reconcile 1:1 with their trace events alongside
every existing pair.

With ``replication=`` the service additionally fronts a
:class:`~repro.replication.ReplicationCluster`: ``open_session(
read_only=True)`` binds the session to a hot standby and each of its
requests is routed there when the staleness contract holds (the
replica has applied the request's ``min_csn`` read-your-writes token
and its lag is within ``max_staleness_csn``), falling through to the
primary otherwise (``repl.read.fallthrough``).  A heartbeat monitor
watches the primary's durability state and, on death, performs a
fenced promotion: the most caught-up standby becomes the primary, all
sessions close (every one is bound to the deposed node), the shared
database handle swaps to the survivor, and the shared read cache is
rebuilt so no pre-failover entry can serve.
"""

from __future__ import annotations

import itertools
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import asdict
from pathlib import Path
from typing import Any, Callable

from ..cache import CacheConfig, GraphCache, resolve_cache_config
from ..core.db2graph import Db2Graph
from ..core.overlay import OverlayConfig
from ..obs import metrics as M
from ..obs import tracing
from ..obs.metrics import MetricsRegistry
from ..obs.tracing import TraceRecorder
from ..relational.database import Database
from ..replication.config import CATCHUP_ROUNDS
from ..replication.errors import ReplicationError
from .admission import AdmissionQueue, Request
from .config import ServiceConfig
from .errors import (
    RequestShedError,
    ServiceDrainingError,
    ServiceError,
    SessionClosedError,
    SessionLimitError,
)
from .session import GraphSession


class GraphService:
    """Multiplexes logical graph sessions over one shared database."""

    def __init__(
        self,
        database: Database,
        overlay: OverlayConfig | dict | str | Path,
        config: ServiceConfig | None = None,
        *,
        cache: CacheConfig | bool | None = None,
        optimized: bool = True,
        replication: Any = None,
    ):
        self.database = database
        self.overlay = OverlayConfig.load(overlay)
        self.config = config or ServiceConfig()
        self.optimized = optimized
        self.clock = self.config.clock
        self.max_sessions = self.config.max_sessions

        self.registry = MetricsRegistry()
        self.trace = TraceRecorder()
        database.bind_observability(self.registry, self.trace)

        # One worker pool serves every session; a request runs start to
        # finish on the worker it was dispatched to.
        self.executor = ThreadPoolExecutor(
            max_workers=self.config.workers, thread_name_prefix="repro-service"
        )
        self.queue = AdmissionQueue(
            self.config.queue_depth,
            self.config.workers,
            registry=self.registry,
            trace=self.trace,
        )
        # Shared read cache: one GraphCache for all sessions, so a DML
        # commit in any session invalidates every session's cached
        # reads (the epoch registry lives on the shared database).
        cache_config = resolve_cache_config(cache)
        self._cache_config = cache_config  # kept: rebuilt on failover
        self.cache: GraphCache | None = (
            GraphCache(
                database, cache_config, registry=self.registry, recorder=self.trace
            )
            if cache_config is not None
            else None
        )

        # Replication: attach (or reuse) a cluster on the shared
        # database.  Same resolution as Db2Graph.open(replication=...):
        # pass-through cluster > already-attached cluster > explicit
        # config/count > off.
        self.replication = Db2Graph._resolve_replication(database, replication)
        self._replica_rr = itertools.count()  # round-robin standby pick

        self.sessions: dict[int, GraphSession] = {}
        self._sessions_lock = threading.Lock()
        self._session_ids = itertools.count(1)

        self.completed = 0
        self.failed = 0
        self.shed = 0
        self._accounting_lock = threading.Lock()

        self._permits = threading.Semaphore(self.config.workers)
        self._stopping = False

        # Heartbeat monitor: watches the primary's durability state and
        # auto-promotes a standby when the primary dies.
        self.heartbeats = 0
        self._stop_heartbeat = threading.Event()
        self._heartbeat: threading.Thread | None = None
        if self.replication is not None:
            self._heartbeat = threading.Thread(
                target=self._heartbeat_loop,
                name="repro-service-heartbeat",
                daemon=True,
            )
            self._heartbeat.start()

    # -- observability -------------------------------------------------------

    def enable_tracing(self, max_events: int | None = None) -> TraceRecorder:
        if max_events is not None:
            self.trace.max_events = max_events
        self.trace.clear()
        self.trace.enabled = True
        return self.trace

    def disable_tracing(self) -> None:
        self.trace.enabled = False

    def stats(self) -> dict[str, Any]:
        depth_hist = self.registry.histogram(M.SERVICE_QUEUE_DEPTH)
        return {
            "sessions_open": len(self.sessions),
            "admitted": self.registry.counter(M.SERVICE_ADMITTED).value,
            "rejected": self.registry.counter(M.SERVICE_REJECTED).value,
            "shed": self.registry.counter(M.SERVICE_SHED).value,
            "sessions_opened": self.registry.counter(M.SERVICE_SESSIONS_OPENED).value,
            "sessions_closed": self.registry.counter(M.SERVICE_SESSIONS_CLOSED).value,
            "completed": self.completed,
            "failed": self.failed,
            "queue_depth": self.queue.depth(),
            "queue_depth_max": depth_hist.max if depth_hist.count else 0,
            "queue_depth_samples": depth_hist.count,
            # replication / failover (zero / None when not replicated)
            "read_fallthrough": self.registry.counter(
                M.REPL_READ_FALLTHROUGH
            ).value,
            "failover_promotions": self.registry.counter(
                M.FAILOVER_PROMOTIONS
            ).value,
            "heartbeats": self.heartbeats,
            "replication": self.replication.status() if self.replication else None,
        }

    def health(self) -> dict[str, Any]:
        """Liveness/topology summary, mirroring ``Db2Graph.health()``:
        the (current) primary's durability state and recovery report,
        the service's load, and — when replicated — the cluster's
        epoch, per-replica apply state, and failover history."""
        database = self.database
        durability = database.durability
        report = database.recovery_report
        return {
            "database": database.name,
            "durable": durability is not None,
            "alive": durability is None or not durability.dead,
            "last_logged_csn": durability.last_logged_csn if durability else None,
            "recovery_report": asdict(report) if report is not None else None,
            "sessions_open": len(self.sessions),
            "queue_depth": self.queue.depth(),
            "draining": self.queue.closed,
            "heartbeats": self.heartbeats,
            "replication": self.replication.status() if self.replication else None,
        }

    # -- session lifecycle ---------------------------------------------------

    def open_session(
        self,
        user: str = "admin",
        budget: Any = None,
        retry_policy: Any = None,
        batch_size: int | None = None,
        read_only: bool = False,
    ) -> GraphSession:
        """Open a logical session: its own connection and graph handle
        (independent transaction/budget/retry scopes) over the shared
        database, registry, and cache.

        ``read_only=True`` on a replicated service binds the session to
        a hot standby (round-robin across live replicas); its requests
        are served there whenever the staleness contract holds and fall
        through to the primary otherwise.  Without replication the flag
        is a no-op — every request runs on the primary."""
        with self._sessions_lock:
            if self._stopping:
                raise ServiceError("service is shut down")
            if self.queue.closed:
                raise ServiceDrainingError(
                    "service is draining; no new sessions"
                )
            if len(self.sessions) >= self.max_sessions:
                raise SessionLimitError(
                    f"session limit reached ({self.max_sessions})"
                )
            session_id = next(self._session_ids)
            connection = self.database.connect(user)
            graph = Db2Graph.open(
                connection,
                self.overlay,
                optimized=self.optimized,
                budget=budget,
                retry_policy=retry_policy,
                batch_size=batch_size,
                cache=self.cache if self.cache is not None else False,
                registry=self.registry,
                recorder=self.trace,
            )
            replica_id = replica_connection = replica_graph = None
            if read_only and self.replication is not None:
                replica_id, replica_connection, replica_graph = (
                    self._bind_replica(user, budget, retry_policy, batch_size)
                )
            session = GraphSession(
                self,
                session_id,
                user,
                connection,
                graph,
                budget=budget,
                read_only=read_only,
                replica_id=replica_id,
                replica_connection=replica_connection,
                replica_graph=replica_graph,
            )
            self.sessions[session_id] = session
        self.registry.counter(M.SERVICE_SESSIONS_OPENED).increment()
        self.trace.emit(
            tracing.SERVICE_SESSION_OPEN,
            session=session_id,
            user=user,
            read_only=read_only,
        )
        return session

    def _bind_replica(
        self,
        user: str,
        budget: Any,
        retry_policy: Any,
        batch_size: int | None,
    ) -> tuple[str | None, Any, Any]:
        """Pick a live standby round-robin and open a graph handle over
        its database.  The handle shares the service's registry and
        trace (replica-served reads count in the same 1:1 counter/event
        streams) but never the primary-bound read cache —
        cache epochs live per database.  Returns ``(None, None, None)``
        when no standby is live (the session just always falls
        through)."""
        cluster = self.replication
        with cluster._lock:
            live = cluster.live_replicas()
            if not live:
                return None, None, None
            replica = live[next(self._replica_rr) % len(live)]
        connection = replica.database.connect(user)
        graph = Db2Graph.open(
            connection,
            self.overlay,
            optimized=self.optimized,
            budget=budget,
            retry_policy=retry_policy,
            batch_size=batch_size,
            cache=False,
            registry=self.registry,
            recorder=self.trace,
        )
        return replica.replica_id, connection, graph

    def close_session(self, session: GraphSession, timeout: float | None = None) -> None:
        """Close one session: fail its queued requests, let the
        in-flight one finish, roll back an abandoned transaction."""
        with self._sessions_lock:
            if session.closed:
                return
            session.closed = True
            self.sessions.pop(session.session_id, None)
        for request in self.queue.remove_session(session.session_id):
            request.future.set_exception(
                SessionClosedError(
                    f"session {session.session_id} closed before dispatch"
                )
            )
        session._wait_idle(timeout)
        rolled_back = False
        txn = session.connection.current_txn
        if txn is not None and txn.is_active:
            # Abandoned explicit transaction: roll it back so its write
            # locks and undo state don't outlive the session.
            session.connection.rollback()
            rolled_back = True
        if session.replica_connection is not None:
            replica_txn = session.replica_connection.current_txn
            if replica_txn is not None and replica_txn.is_active:
                session.replica_connection.rollback()
                rolled_back = True
        session.rolled_back_on_close = rolled_back
        self.registry.counter(M.SERVICE_SESSIONS_CLOSED).increment()
        self.trace.emit(
            tracing.SERVICE_SESSION_CLOSE,
            session=session.session_id,
            rolled_back=rolled_back,
        )

    # -- submission ----------------------------------------------------------

    def _submit(
        self,
        session: GraphSession,
        fn: Callable[[GraphSession], Any],
        budget: Any = None,
        label: str = "",
        min_csn: int | None = None,
    ) -> Future:
        effective_budget = budget if budget is not None else session.budget
        future: Future = Future()
        enqueued_at = self.clock()
        deadline = getattr(effective_budget, "deadline_seconds", None)

        def shed_check(now: float) -> float | None:
            """Queue seconds if the deadline expired while queued."""
            if deadline is None:
                return None
            queued = now - enqueued_at
            return queued if queued > deadline else None

        if session.read_only and self.replication is not None:

            def invoke() -> Any:
                # Route at execution time (not submit time): the
                # replica's apply position when the request actually
                # runs is what the staleness contract judges.
                graph = self._route_read(session, min_csn)
                session._set_routed_graph(graph)
                try:
                    return fn(session)
                finally:
                    session._set_routed_graph(None)

        else:

            def invoke() -> Any:
                return fn(session)

        request = Request(
            session_id=session.session_id,
            fn=invoke,
            future=future,
            budget=effective_budget,
            enqueued_at=enqueued_at,
            label=label,
            shed_check=shed_check,
            session=session,
        )
        self.queue.push(request)
        self._dispatch()
        return future

    def _route_read(self, session: GraphSession, min_csn: int | None):
        """Pick the graph handle a read-only request runs against.

        The bound replica serves when it has applied the request's
        ``min_csn`` read-your-writes token and its lag against the
        primary's last logged CSN is within ``max_staleness_csn``; the
        replica gets a short catch-up window (``CATCHUP_ROUNDS`` pump
        rounds) to qualify first.  Anything else — no live replica, the
        replica was promoted away, the contract cannot be met — falls
        through to the primary-bound handle (counted 1:1 as
        ``repl.read.fallthrough``)."""
        cluster = self.replication
        token = min_csn or 0
        replica = None
        if session.replica_graph is not None and session.replica_id is not None:
            try:
                replica = cluster.get_replica(session.replica_id)
            except ReplicationError:
                replica = None  # promoted away or detached
        if replica is not None and replica.alive:
            config = cluster.config
            durability = cluster.database.durability
            for attempt in range(CATCHUP_ROUNDS + 1):
                primary_csn = (
                    durability.last_logged_csn if durability is not None else 0
                )
                if replica.can_serve(
                    primary_csn, config.max_staleness_csn, token
                ):
                    session.replica_reads += 1
                    return session.replica_graph
                if attempt < CATCHUP_ROUNDS:
                    cluster.pump(1)
        session.fallthrough_reads += 1
        self.registry.counter(M.REPL_READ_FALLTHROUGH).increment()
        self.trace.emit(
            tracing.REPL_READ_FALLTHROUGH,
            session=session.session_id,
            replica=session.replica_id,
            min_csn=token,
        )
        return session._graph

    # -- dispatch ------------------------------------------------------------

    def _dispatch(self) -> None:
        """Hand queued requests to free workers.

        Called after every push and every permit release, so a request
        never waits while a worker is free.  The permit is taken first:
        the shed decision is made when a worker is genuinely available,
        so queue time — not dispatch bookkeeping — is what's judged.
        """
        while self._permits.acquire(blocking=False):
            request = self.queue.pop(timeout=0)
            if request is None:
                self._permits.release()
                # a push that found every permit taken may have landed
                # between the pop and the release: look once more
                if self.queue.depth() == 0:
                    return
                continue
            queued_seconds = request.shed_check(self.clock())
            if queued_seconds is not None:
                self._permits.release()
                self._shed(request, queued_seconds)
                continue
            session: GraphSession = request.session
            session._begin_request()
            self.executor.submit(self._make_runner(request, session))

    def _shed(self, request: Request, queued_seconds: float) -> None:
        with self._accounting_lock:
            self.shed += 1
        retry_after = self.queue.retry_after(self.queue.depth())
        self.registry.counter(M.SERVICE_SHED).increment()
        self.trace.emit(
            tracing.SERVICE_SHED,
            session=request.session_id,
            queued_seconds=queued_seconds,
            retry_after=retry_after,
        )
        request.future.set_exception(
            RequestShedError(
                f"request shed: deadline expired after {queued_seconds:.3f}s "
                "in the admission queue",
                queued_seconds=queued_seconds,
                retry_after=retry_after,
            )
        )

    def _make_runner(self, request: Request, session: GraphSession) -> Callable[[], None]:
        def run() -> None:
            started = self.clock()
            error: BaseException | None = None
            try:
                result = request.fn()
            except BaseException as exc:  # noqa: BLE001 — delivered via future
                error = exc
            with self._accounting_lock:
                if error is None:
                    self.completed += 1
                else:
                    self.failed += 1
            try:
                self.queue.note_service_time(max(0.0, self.clock() - started))
                session._end_request()
                self._permits.release()
                self._dispatch()
            finally:
                # resolved last: the waiting client wakes to a worker with
                # nothing left to do but block for its next task
                if error is None:
                    request.future.set_result(result)
                else:
                    request.future.set_exception(error)

        return run

    # -- failover ------------------------------------------------------------

    def promote(self, replica_id: str | None = None) -> dict[str, Any]:
        """Fenced failover at the service level.

        The cluster promotes the named (default: most caught-up)
        standby under a new epoch; the service then closes every open
        session — each one is bound, through its connection, graph
        handle, and cache epochs, to the deposed primary — swaps the
        shared database to the survivor, and rebuilds the shared read
        cache against it so no pre-failover entry can serve.  Clients
        reconnect by opening fresh sessions, exactly like clients of a
        real HADR takeover.
        """
        cluster = self.replication
        if cluster is None:
            raise ServiceError("service is not replicated; nothing to promote")
        report = cluster.promote(replica_id)
        with self._sessions_lock:
            sessions = list(self.sessions.values())
        for session in sessions:
            try:
                self.close_session(session, timeout=1.0)
            except Exception:  # noqa: BLE001 — session dies either way
                # A session bound to a crashed primary can fail its
                # close-time rollback; it is unusable regardless.
                pass
        self.database = cluster.database
        if self._cache_config is not None:
            self.cache = GraphCache(
                self.database,
                self._cache_config,
                registry=self.registry,
                recorder=self.trace,
            )
        return report

    def _heartbeat_loop(self) -> None:
        """Health monitor: each beat checks the primary's durability
        state; on death (with a live standby) it triggers
        :meth:`promote`."""
        cluster = self.replication
        interval = cluster.config.heartbeat_interval
        while not self._stop_heartbeat.wait(interval):
            self.heartbeats += 1
            if not cluster.primary_dead:
                continue
            if not cluster.live_replicas():
                continue
            try:
                self.promote()
            except ReplicationError:
                continue  # nothing promotable this beat; try the next

    # -- drain / shutdown ----------------------------------------------------

    def drain(self, timeout: float | None = None) -> bool:
        """Stop admitting, finish every queued and in-flight request.

        Returns True when fully drained within ``timeout``.
        """
        self.queue.close()
        if not self.queue.wait_empty(timeout):
            return False
        with self._sessions_lock:
            sessions = list(self.sessions.values())
        return all(session._wait_idle(timeout) for session in sessions)

    def shutdown(self, timeout: float | None = None) -> bool:
        """Drain, close every session (rolling back abandoned
        transactions), and release the worker pool."""
        self._stop_heartbeat.set()
        if self._heartbeat is not None:
            self._heartbeat.join(timeout)
        drained = self.drain(timeout)
        self._stopping = True
        self.queue.close()
        with self._sessions_lock:
            sessions = list(self.sessions.values())
        for session in sessions:
            self.close_session(session, timeout=timeout)
        self.executor.shutdown()
        return drained

    def __enter__(self) -> "GraphService":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown()

    def __repr__(self) -> str:
        return (
            f"GraphService(sessions={len(self.sessions)}/{self.max_sessions}, "
            f"queue={self.queue.depth()}/{self.queue.capacity}, "
            f"workers={self.config.workers})"
        )
