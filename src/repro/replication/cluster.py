"""The replication cluster: stream log, ack tracking, fenced failover.

One :class:`ReplicationCluster` coordinates one primary
:class:`~repro.relational.database.Database` and N hot standbys over a
:class:`~repro.replication.transport.SimulatedTransport`:

* The primary's durability manager ships every durable WAL flush into
  the cluster's **stream log** (``seq`` = position; the rolling CRC32
  ``ship_chain`` fingerprints the byte sequence).
* Replicas **pull**: each pump round every live replica sends a
  ``fetch`` carrying its resume position (which doubles as a cumulative
  ack) and its ``applied_csn`` (which feeds the replication-lag
  histogram); the primary replies with a bounded batch of frames
  stamped with the current **replication epoch**.
* **Sync-ack** commits pump the transport until every live replica's
  ack covers the commit's frames — a commit that returns without
  raising is therefore on every standby and can never be lost by a
  failover.  **Async** commits pump once, opportunistically; the
  ``unacked_window()`` is the advertised loss bound.
* **Promotion is fenced**: ``promote()`` bumps the epoch, marks the old
  primary's node handle fenced (its next write raises
  :class:`~repro.replication.errors.FencedWriteError` *before any local
  effect*, and anything it still manages to flush is dropped at the
  ship boundary), truncates the stream to the promoted replica's
  position, attaches a fresh WAL to the promoted database, and poisons
  its cache coherence state (ddl generation + every table epoch) so no
  pre-failover cache entry can validate against the new primary.
  In-flight frames stamped with the old epoch are rejected by replicas
  on append — the split-brain write path is *rejected*, not merged.

All ``repl.*`` / ``failover.*`` counters and trace events are emitted
1:1 through the *current* primary database's observability sinks, so
``Db2Graph.stats()`` keeps one coherent view across a failover.
"""

from __future__ import annotations

import tempfile
import threading
import zlib
from typing import Any

from ..durability.codec import decode_record
from ..durability.config import DurabilityConfig
from ..obs import metrics as obs_metrics
from ..obs import tracing as obs_tracing
from ..relational.database import Database
from .config import ACK_ROUNDS, ReplicationConfig
from .errors import FencedWriteError, ReplicationAckTimeout, ReplicationError
from .replica import Replica, bootstrap_database
from .transport import NetworkFaultInjector, SimulatedTransport

#: Transport address of whoever is currently primary (the cluster
#: coordinator owns it across failovers, like a floating VIP).
PRIMARY_ADDRESS = "primary"

#: Frames per fetch reply; small enough that catch-up after a partition
#: exercises multi-batch retransmission.
FETCH_BATCH = 32


class _NodeHandle:
    """The hook a primary database holds into the cluster.

    Installed as ``durability.replication`` and
    ``txn_manager.replication``.  Each incarnation of "being primary"
    gets a fresh handle stamped with the epoch at installation; fencing
    flips one bool and every write path of the deposed node starts
    rejecting before local effects, while its late flushes (e.g. the
    ``close()`` rollback-group flush) are silently dropped at the ship
    boundary rather than corrupting the stream.
    """

    def __init__(self, cluster: "ReplicationCluster", epoch: int):
        self.cluster = cluster
        self.epoch = epoch
        self.fenced = False

    def ensure_primary(self) -> None:
        if self.fenced:
            self.cluster.note_fenced(
                where="primary.write",
                seen_epoch=self.epoch,
                local_epoch=self.cluster.epoch,
            )
            raise FencedWriteError(
                f"node deposed at epoch {self.epoch} (cluster is at epoch "
                f"{self.cluster.epoch}); write rejected",
                epoch=self.epoch,
                current_epoch=self.cluster.epoch,
            )

    def ship(self, frames: list[bytes]) -> None:
        if self.fenced:
            return  # late flush from a deposed primary — dropped
        self.cluster.ship(frames, self)

    def on_commit(self, csn: int) -> None:
        if self.fenced:
            return
        self.cluster.await_acks(csn)

    def on_ddl_durable(self) -> None:
        if self.fenced:
            return
        self.cluster.await_acks(self.cluster.database.txn_manager.current_csn())


class ReplicationCluster:
    def __init__(
        self,
        database: Database,
        config: ReplicationConfig | None = None,
        injector: NetworkFaultInjector | None = None,
        transport: SimulatedTransport | None = None,
    ):
        if database.durability is None:
            raise ReplicationError(
                "replication requires a durable primary (the stream is the WAL)"
            )
        self.config = config or ReplicationConfig()
        self.transport = transport or SimulatedTransport(injector)
        self.epoch = 1
        # The stream: every shipped WAL frame, seq = index.
        self.log: list[bytes] = []
        self.ship_chain = 0
        self.database = database
        self.replicas: list[Replica] = []
        # Cumulative acks / highest position served, per replica id.
        self.acked: dict[str, int] = {}
        self.served_upto: dict[str, int] = {}
        self.promotions = 0
        self.last_failover: dict[str, Any] | None = None
        self.ack_timeouts = 0
        # Reentrant: pump() delivers fetches back into this cluster on
        # the same thread.
        self._lock = threading.RLock()
        self._replica_counter = 0
        self.transport.register(PRIMARY_ADDRESS, self._on_primary_message)
        self.handle = self._install_handle(database)
        for _ in range(self.config.replicas):
            self.attach_replica()

    # -- wiring --------------------------------------------------------------

    def _install_handle(self, database: Database) -> _NodeHandle:
        handle = _NodeHandle(self, self.epoch)
        database.durability.replication = handle
        database.txn_manager.replication = handle
        return handle

    def attach_replica(self) -> Replica:
        """Bootstrap a new standby from the primary's current state and
        join it to the stream at the current position."""
        durability = self.database.durability
        # Lock order: durability outer, cluster inner (ship() follows
        # the same order from inside a flush).  Holding both freezes
        # the (state, stream position) pair the bootstrap snapshots.
        with durability._lock:
            with self._lock:
                index = self._replica_counter
                self._replica_counter += 1
                replica_id = f"replica-{index}"
                db, _state = bootstrap_database(
                    self.database, f"{self.database.name}-{replica_id}"
                )
                replica = Replica(
                    replica_id,
                    db,
                    self,
                    epoch=self.epoch,
                    next_seq=len(self.log),
                    chain=self.ship_chain,
                    applied_csn=durability.last_logged_csn,
                )
                self.replicas.append(replica)
                self.acked[replica_id] = replica.next_seq
                self.served_upto[replica_id] = replica.next_seq
                self.transport.register(replica_id, replica.on_message)
                return replica

    def live_replicas(self) -> list[Replica]:
        return [r for r in self.replicas if r.alive]

    def get_replica(self, replica_id: str) -> Replica:
        for replica in self.replicas:
            if replica.replica_id == replica_id:
                return replica
        raise ReplicationError(f"unknown replica {replica_id!r}")

    # -- primary side --------------------------------------------------------

    def ship(self, frames: list[bytes], handle: _NodeHandle) -> None:
        with self._lock:
            if handle is not self.handle or handle.fenced:
                return  # deposed primary's flush — dropped at the boundary
            base = len(self.log)
            for frame in frames:
                self.log.append(frame)
                self.ship_chain = zlib.crc32(frame, self.ship_chain)
            self.emit(
                obs_metrics.REPL_SHIPPED,
                obs_tracing.REPL_SHIP,
                frames=len(frames),
                from_seq=base,
                epoch=self.epoch,
            )

    def _on_primary_message(self, src: str, msg: dict[str, Any]) -> None:
        if msg.get("kind") != "fetch":
            return
        with self._lock:
            replica_id = msg["replica"]
            from_seq = msg["from"]
            if from_seq > self.acked.get(replica_id, 0):
                # A fetch from N cumulatively acks every frame below N.
                self.acked[replica_id] = from_seq
                self.emit(
                    obs_metrics.REPL_ACKED,
                    obs_tracing.REPL_ACK,
                    replica=replica_id,
                    acked_seq=from_seq,
                )
                durability = self.database.durability
                primary_csn = durability.last_logged_csn if durability else 0
                lag = max(0, primary_csn - msg.get("applied_csn", 0))
                self.database.obs_registry.histogram(obs_metrics.REPL_LAG).observe(lag)
                self.database.obs_trace.emit(
                    obs_tracing.REPL_LAG, replica=replica_id, lag=lag
                )
            if from_seq >= len(self.log):
                return  # fully caught up — the fetch was pure ack
            if from_seq < self.served_upto.get(replica_id, 0):
                # Re-serving bytes already sent: the earlier reply was
                # lost, torn, or is still in flight.
                self.emit(
                    obs_metrics.REPL_RETRANSMITS,
                    obs_tracing.REPL_RETRANSMIT,
                    replica=replica_id,
                    from_seq=from_seq,
                )
            batch = self.log[from_seq : from_seq + FETCH_BATCH]
            self.served_upto[replica_id] = max(
                self.served_upto.get(replica_id, 0), from_seq + len(batch)
            )
            self.transport.send(
                PRIMARY_ADDRESS,
                replica_id,
                {
                    "kind": "frames",
                    "epoch": self.epoch,
                    "base": from_seq,
                    "frames": batch,
                },
            )

    # -- pumping & acks ------------------------------------------------------

    def pump(self, rounds: int = 1) -> int:
        """Drive ``rounds`` protocol rounds: every live replica sends a
        fetch, then the transport advances one tick and delivers due
        messages.  Returns the number of messages delivered."""
        delivered = 0
        with self._lock:
            for _ in range(rounds):
                for replica in self.replicas:
                    if replica.alive:
                        self.transport.send(
                            replica.replica_id, PRIMARY_ADDRESS, replica.make_fetch()
                        )
                delivered += self.transport.advance()
        return delivered

    def _all_acked(self, target: int) -> bool:
        live = self.live_replicas()
        return all(self.acked.get(r.replica_id, 0) >= target for r in live)

    def await_acks(self, csn: int) -> None:
        """Sync-ack wait (no-op beyond one pump in async mode)."""
        with self._lock:
            if not self.live_replicas():
                return  # degraded: no standbys to wait for
            if not self.config.sync:
                self.pump(1)
                return
            target = len(self.log)
            for _ in range(ACK_ROUNDS):
                if self._all_acked(target):
                    return
                self.pump(1)
            if self._all_acked(target):
                return
            self.ack_timeouts += 1
            acked = min(
                self.acked.get(r.replica_id, 0) for r in self.live_replicas()
            )
            raise ReplicationAckTimeout(
                f"commit csn={csn} uncertain: replicas acked {acked}/{target} "
                f"frames after {ACK_ROUNDS} pump rounds",
                csn=csn,
                acked=acked,
                needed=target,
            )

    def unacked_window(self) -> int:
        """Commits in the stream not yet acked by every live replica —
        the advertised async-mode loss bound."""
        with self._lock:
            live = self.live_replicas()
            if not live:
                return self._count_commits(self.log)
            floor = min(self.acked.get(r.replica_id, 0) for r in live)
            return self._count_commits(self.log[floor:])

    @staticmethod
    def _count_commits(frames: list[bytes]) -> int:
        return sum(1 for f in frames if decode_record(f).get("k") == "commit")

    # -- failover ------------------------------------------------------------

    @property
    def primary_dead(self) -> bool:
        durability = self.database.durability
        return durability is None or durability.dead

    def promote(self, replica_id: str | None = None) -> dict[str, Any]:
        """Fenced failover: depose the current primary, promote the
        named (default: most caught-up) replica under a new epoch.

        Returns a report including ``lost_commits`` — commits present in
        the deposed timeline but absent from the survivor (always 0 for
        commits that completed a sync-ack wait).
        """
        with self._lock:
            live = self.live_replicas()
            if not live:
                raise ReplicationError("no live replica to promote")
            if replica_id is not None:
                promoted = self.get_replica(replica_id)
                if not promoted.alive:
                    raise ReplicationError(f"cannot promote dead {replica_id!r}")
            else:
                promoted = max(live, key=lambda r: (r.applied_csn, r.next_seq))
            old_database = self.database
            self.handle.fenced = True
            new_epoch = self.epoch + 1
            # Truncate the stream to the survivor's position: frames
            # beyond it were never applied anywhere that survives.
            lost = self._count_commits(self.log[promoted.next_seq :])
            del self.log[promoted.next_seq :]
            self.ship_chain = promoted.chain
            self.replicas.remove(promoted)
            self.acked.pop(promoted.replica_id, None)
            self.served_upto.pop(promoted.replica_id, None)
            self.transport.unregister(promoted.replica_id)
            promoted.alive = False  # no longer a standby
            database = promoted.database
            # The new primary needs its own WAL so its commits are
            # durable and ship into the (truncated) stream.
            wal_dir = tempfile.mkdtemp(prefix=f"{database.name}-promoted-")
            database.attach_durability(DurabilityConfig(dir=wal_dir, fsync=False))
            self.epoch = new_epoch
            self.database = database
            self.handle = self._install_handle(database)
            for replica in self.replicas:
                replica.epoch = new_epoch
            # Cache poisoning: no cache entry captured against the old
            # primary may validate against the new one.
            database.bump_ddl_generation()
            database.epochs.bump(
                [t.name.lower() for t in database.catalog.tables()]
            )
            # Keep one coherent observability stream across the failover.
            database.bind_observability(
                old_database.obs_registry, old_database.obs_trace
            )
            self.promotions += 1
            self.last_failover = {
                "promoted": promoted.replica_id,
                "epoch": new_epoch,
                "applied_csn": promoted.applied_csn,
                "lost_commits": lost,
            }
            self.emit(
                obs_metrics.FAILOVER_PROMOTIONS,
                obs_tracing.FAILOVER_PROMOTE,
                replica=promoted.replica_id,
                epoch=new_epoch,
                applied_csn=promoted.applied_csn,
            )
            return dict(self.last_failover)

    # -- observability -------------------------------------------------------

    def emit(self, counter: str, event: str, **attrs: Any) -> None:
        database = self.database
        database.obs_registry.counter(counter).increment()
        database.obs_trace.emit(event, **attrs)

    def note_fenced(self, where: str, seen_epoch: int, local_epoch: int) -> None:
        self.emit(
            obs_metrics.REPL_FENCED,
            obs_tracing.REPL_FENCED,
            where=where,
            seen_epoch=seen_epoch,
            local_epoch=local_epoch,
        )

    def status(self) -> dict[str, Any]:
        with self._lock:
            return {
                "epoch": self.epoch,
                "ack": self.config.ack,
                "max_staleness_csn": self.config.max_staleness_csn,
                "log_frames": len(self.log),
                "unacked_commits": self.unacked_window(),
                "promotions": self.promotions,
                "ack_timeouts": self.ack_timeouts,
                "primary_dead": self.primary_dead,
                "last_failover": dict(self.last_failover)
                if self.last_failover
                else None,
                "replicas": [r.status() for r in self.replicas],
                "transport": self.transport.stats(),
            }

    def __repr__(self) -> str:
        return (
            f"ReplicationCluster(epoch={self.epoch}, replicas="
            f"{len(self.replicas)}, frames={len(self.log)})"
        )
