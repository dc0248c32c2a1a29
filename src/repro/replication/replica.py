"""A hot standby: continuous redo apply onto its own ``Database``.

A :class:`Replica` is bootstrapped from a checkpoint of the primary
(the same serialization the durability layer uses) and then applies the
primary's WAL frames in strict sequence order.  The apply loop is the
recovery replay state machine (``begin … ops … commit`` group assembly,
rollback groups skipped, DDL applied eagerly) — deliberately reusing
:mod:`repro.durability.recovery`'s apply functions so replica state can
only diverge from crash-recovered state if those functions themselves
are wrong, which the durability battery already pins.

Three invariants make the protocol converge under any network-fault
schedule:

* **Sequence gating** — a frame is applied only when its stream
  sequence equals ``next_seq``; duplicates (``seq < next_seq``) are
  skipped, gaps (``seq > next_seq``) stop the batch and are healed by a
  later refetch.  Apply is therefore exactly-once and in-order no
  matter how the transport mangles delivery.
* **Epoch fencing** — frames stamped with an epoch below the replica's
  are rejected on append (a deposed primary's late flush), frames with
  a higher epoch advance it (the replica learns of a promotion from the
  stream itself).
* **CRC chaining** — every applied frame folds into a rolling CRC32
  chain (seeded from the bootstrap point); the divergence detector
  compares it against the primary's shipped chain, so applying the
  right records in the wrong order or from torn bytes is detectable
  even when the final row states happen to collide.

``applied_csn`` tracks the newest committed transaction the replica
has redone; replica reads are served only when the staleness contract
(``min_csn`` read-your-writes token + ``max_staleness_csn`` bound
against the primary's last logged CSN) holds.
"""

from __future__ import annotations

import zlib
from typing import TYPE_CHECKING, Any

from ..durability.checkpoint import CheckpointState, load_checkpoint
from ..durability.codec import decode_record
from ..durability.errors import TornLogError
from ..durability.recovery import _apply_ddl, _apply_group, _restore_checkpoint
from .errors import StaleReadError
from ..obs import metrics as obs_metrics
from ..obs import tracing as obs_tracing
from ..relational.database import Database

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .cluster import ReplicationCluster


def bootstrap_database(primary: Database, name: str) -> tuple[Database, CheckpointState]:
    """A fresh non-durable database populated with the primary's current
    durable state, via the checkpoint (de)serialization round trip.

    The caller must hold the primary's durability lock so the captured
    state and the WAL position it corresponds to cannot move apart.  The
    capture goes through the primary's durability manager and so reuses
    its checkpoint page cache.
    """
    assert primary.durability is not None, "replication requires a durable primary"
    frames = primary.durability.capture()
    state = load_checkpoint(b"".join(frames))
    database = Database(
        name=name,
        clock=primary.clock,
        enforce_foreign_keys=primary.enforce_foreign_keys,
        durability=False,
    )
    _restore_checkpoint(database, state)
    database.txn_manager.restore_state(
        csn=state.csn,
        next_txn_id=state.next_txn_id,
        history=list(state.commit_history),
    )
    database.ddl_generation = state.ddl_generation
    return database, state


class Replica:
    """One standby node: redo apply, ack state, staleness checks."""

    def __init__(
        self,
        replica_id: str,
        database: Database,
        cluster: "ReplicationCluster",
        epoch: int,
        next_seq: int,
        chain: int,
        applied_csn: int,
    ):
        self.replica_id = replica_id
        self.database = database
        self.cluster = cluster
        self.epoch = epoch
        # Next stream sequence this replica will apply; doubles as the
        # cumulative ack it advertises in every fetch.
        self.next_seq = next_seq
        # Rolling CRC32 over every applied frame (seeded at bootstrap
        # from the primary's shipped chain at the same position).
        self.chain = chain
        self.applied_csn = applied_csn
        self.alive = True
        # Open redo group carried across frame batches (a commit group
        # may arrive split over several fetch replies).
        self._group: tuple[int, list[dict[str, Any]]] | None = None
        # Local apply stats (surfaced through cluster.status()).
        self.applied_txns = 0
        self.applied_ddl = 0
        self.rejected_batches = 0
        self.torn_batches = 0

    # -- protocol ------------------------------------------------------------

    def make_fetch(self) -> dict[str, Any]:
        """The pull request this replica sends each pump round.  ``from``
        is both the resume point and the cumulative ack."""
        return {
            "kind": "fetch",
            "replica": self.replica_id,
            "from": self.next_seq,
            "epoch": self.epoch,
            "applied_csn": self.applied_csn,
        }

    def on_message(self, src: str, msg: dict[str, Any]) -> None:
        if not self.alive or msg.get("kind") != "frames":
            return
        epoch = msg["epoch"]
        if epoch < self.epoch:
            # A deposed primary's in-flight frames: reject on append.
            self.rejected_batches += 1
            self.cluster.note_fenced(
                where=f"{self.replica_id}.append",
                seen_epoch=epoch,
                local_epoch=self.epoch,
            )
            return
        if epoch > self.epoch:
            self.epoch = epoch
        base = msg["base"]
        for offset, frame in enumerate(msg["frames"]):
            seq = base + offset
            if seq < self.next_seq:
                continue  # duplicate delivery — already applied
            if seq > self.next_seq:
                break  # gap — wait for a refetch to fill it
            try:
                record = decode_record(frame)
            except TornLogError:
                # Torn in transit: stop at the intact prefix; the next
                # fetch re-states this sequence and gets clean bytes.
                self.torn_batches += 1
                break
            self._apply(record)
            self.chain = zlib.crc32(frame, self.chain)
            self.next_seq += 1

    # -- redo apply ----------------------------------------------------------

    def _apply(self, record: dict[str, Any]) -> None:
        kind = record["k"]
        if kind == "begin":
            self._group = (record["t"], [])
        elif kind in ("insert", "update", "delete"):
            if self._group is not None:
                self._group[1].append(record)
        elif kind == "commit":
            group = self._group
            self._group = None
            if group is None or group[0] != record["t"]:
                return
            self._apply_commit(group[1], record)
        elif kind == "rollback":
            # Lazily-flushed rollback group: forensics only, no effects.
            self._group = None
        elif kind == "ddl":
            self._apply_ddl_record(record)

    def _apply_commit(self, ops: list[dict[str, Any]], record: dict[str, Any]) -> None:
        csn, now = record["c"], record["w"]
        _apply_group(self.database, ops, csn, now)
        # Redo maintains indexes as it applies each version, so the
        # commit costs O(rows written) and replica reads see them at once.
        self.database.epochs.bump(sorted({op["tb"] for op in ops}))
        self.database.txn_manager.note_replicated_commit(csn, now, record["t"])
        self.applied_csn = csn
        self.applied_txns += 1
        self.cluster.emit(
            obs_metrics.REPL_APPLIED,
            obs_tracing.REPL_APPLY,
            replica=self.replica_id,
            kind="txn",
            csn=csn,
        )

    def _apply_ddl_record(self, record: dict[str, Any]) -> None:
        _apply_ddl(self.database, record)
        self.database.bump_ddl_generation()
        self.applied_ddl += 1
        self.cluster.emit(
            obs_metrics.REPL_APPLIED,
            obs_tracing.REPL_APPLY,
            replica=self.replica_id,
            kind="ddl",
            csn=self.applied_csn,
        )

    # -- staleness contract --------------------------------------------------

    def lag(self, primary_csn: int) -> int:
        return max(0, primary_csn - self.applied_csn)

    def check_staleness(
        self, primary_csn: int, max_staleness_csn: int, min_csn: int = 0
    ) -> None:
        """Raise :class:`StaleReadError` unless a read with
        read-your-writes token ``min_csn`` may be served here under the
        ``max_staleness_csn`` bound."""
        if self.applied_csn < min_csn:
            raise StaleReadError(
                f"{self.replica_id} has applied csn {self.applied_csn} < "
                f"read-your-writes token {min_csn}",
                needed_csn=min_csn,
                applied_csn=self.applied_csn,
            )
        lag = self.lag(primary_csn)
        if lag > max_staleness_csn:
            raise StaleReadError(
                f"{self.replica_id} lags {lag} CSNs behind the primary "
                f"(bound {max_staleness_csn})",
                needed_csn=primary_csn - max_staleness_csn,
                applied_csn=self.applied_csn,
            )

    def can_serve(
        self, primary_csn: int, max_staleness_csn: int, min_csn: int = 0
    ) -> bool:
        """Whether a read with read-your-writes token ``min_csn`` may be
        served here under the ``max_staleness_csn`` bound."""
        try:
            self.check_staleness(primary_csn, max_staleness_csn, min_csn)
        except StaleReadError:
            return False
        return True

    # -- lifecycle -----------------------------------------------------------

    def kill(self) -> None:
        self.alive = False

    def status(self) -> dict[str, Any]:
        return {
            "id": self.replica_id,
            "alive": self.alive,
            "epoch": self.epoch,
            "next_seq": self.next_seq,
            "applied_csn": self.applied_csn,
            "applied_txns": self.applied_txns,
            "applied_ddl": self.applied_ddl,
            "rejected_batches": self.rejected_batches,
            "torn_batches": self.torn_batches,
        }

    def __repr__(self) -> str:
        return (
            f"Replica({self.replica_id}, seq={self.next_seq}, "
            f"csn={self.applied_csn}, alive={self.alive})"
        )
