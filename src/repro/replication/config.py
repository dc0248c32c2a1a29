"""Replication configuration and the ``REPRO_REPL_*`` environment knobs.

Mirrors the WAL/cache/batching convention: an explicit argument wins,
then the environment, then off.  ``Db2Graph.open(replication=...)`` and
``GraphService(replication=...)`` accept:

* ``None``  — consult ``REPRO_REPL_REPLICAS``; when > 0 (and the
  database is durable — WAL shipping needs a WAL), a cluster with that
  many hot standbys attaches,
* ``False`` — force off regardless of environment,
* an ``int`` — shorthand for ``ReplicationConfig(replicas=n)``,
* a :class:`ReplicationConfig` — explicit settings.

Knobs:

==========================  =============================================
``REPRO_REPL_REPLICAS``     number of hot-standby replicas (0 = off)
``REPRO_REPL_ACK``          ``sync`` (commit waits for every replica to
                            redo-apply, zero acked-commit loss on
                            failover) or ``async`` (commit returns after
                            local flush; loss bounded by the advertised
                            window)
``REPRO_REPL_MAX_STALENESS`` default staleness bound for replica reads,
                            in CSNs behind the primary (0 = reads must
                            be fully caught up or fall through)
==========================  =============================================
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from ..common.env import env_int

REPLICAS_ENV = "REPRO_REPL_REPLICAS"
ACK_ENV = "REPRO_REPL_ACK"
MAX_STALENESS_ENV = "REPRO_REPL_MAX_STALENESS"

ACK_SYNC = "sync"
ACK_ASYNC = "async"

DEFAULT_MAX_STALENESS = 0


def _env_ack() -> str:
    raw = os.environ.get(ACK_ENV, "").strip().lower()
    return raw if raw in (ACK_SYNC, ACK_ASYNC) else ACK_SYNC


@dataclass
class ReplicationConfig:
    """Knobs for one :class:`~repro.replication.ReplicationCluster`.

    * ``replicas`` — hot standbys to bootstrap and keep in redo-apply.
    * ``ack`` — ``"sync"`` (commit pumps the transport until every
      attached replica's cumulative ack covers the commit's frames, or
      :class:`~repro.replication.errors.ReplicationAckTimeout`) or
      ``"async"`` (commit returns after the local flush; the unshipped
      tail is the advertised loss window).
    * ``max_staleness_csn`` — default replica-read staleness contract:
      a replica may serve a read while it is at most this many CSNs
      behind the primary; otherwise the read falls through.
    * ``ack_rounds`` — transport pump rounds a sync commit may spend
      waiting for acks before declaring the commit uncertain.
    * ``catchup_rounds`` — opportunistic pump rounds a stale replica
      read may spend catching up before falling through.
    * ``heartbeat_interval`` — seconds between primary health checks in
      the service layer's failover monitor.
    * ``auto_promote`` — whether the service monitor promotes a replica
      automatically when the primary is found dead.
    """

    replicas: int = 1
    ack: str = ACK_SYNC
    max_staleness_csn: int = DEFAULT_MAX_STALENESS
    ack_rounds: int = 200
    catchup_rounds: int = 8
    heartbeat_interval: float = 0.05
    auto_promote: bool = True

    def __post_init__(self) -> None:
        if self.replicas < 0:
            raise ValueError("replicas must be >= 0")
        if self.ack not in (ACK_SYNC, ACK_ASYNC):
            raise ValueError(f"ack must be {ACK_SYNC!r} or {ACK_ASYNC!r}, got {self.ack!r}")
        if self.max_staleness_csn < 0:
            raise ValueError("max_staleness_csn must be >= 0")

    @property
    def sync(self) -> bool:
        return self.ack == ACK_SYNC


def resolve_replication_config(
    replication: "ReplicationConfig | int | bool | None",
) -> ReplicationConfig | None:
    """``None`` return means "no replication"; see module docstring."""
    if replication is None:
        replicas = env_int(REPLICAS_ENV, 0)
        if replicas <= 0:
            return None
        return ReplicationConfig(
            replicas=replicas,
            ack=_env_ack(),
            max_staleness_csn=env_int(MAX_STALENESS_ENV, DEFAULT_MAX_STALENESS),
        )
    if replication is False:
        return None
    if replication is True:
        raise TypeError(
            "replication=True is ambiguous — pass a replica count, a "
            "ReplicationConfig, or set REPRO_REPL_REPLICAS and pass None"
        )
    if isinstance(replication, int):
        return ReplicationConfig(replicas=replication) if replication > 0 else None
    if isinstance(replication, ReplicationConfig):
        return replication
    raise TypeError(
        "replication must be None, False, an int, or ReplicationConfig, "
        f"got {replication!r}"
    )
