"""Replication configuration.

``Db2Graph.open(replication=...)`` and ``GraphService(replication=...)``
accept:

* ``None`` or ``False`` — no replication (a database that already ships
  its WAL keeps sharing its cluster),
* an ``int`` — shorthand for ``ReplicationConfig(replicas=n)``,
* a :class:`ReplicationConfig` — explicit settings.
"""

from __future__ import annotations

from dataclasses import dataclass

ACK_SYNC = "sync"
ACK_ASYNC = "async"

DEFAULT_MAX_STALENESS = 0

#: Transport pump rounds a sync commit may spend waiting for acks
#: before declaring the commit uncertain.
ACK_ROUNDS = 200

#: Opportunistic pump rounds a stale replica read may spend catching up
#: before falling through to the primary.
CATCHUP_ROUNDS = 8


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
    * ``heartbeat_interval`` — seconds between primary health checks in
      the service layer's failover monitor, which promotes a replica
      when the primary is found dead.
    """

    replicas: int = 1
    ack: str = ACK_SYNC
    max_staleness_csn: int = DEFAULT_MAX_STALENESS
    heartbeat_interval: float = 0.05

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
    if replication is None or replication is False:
        return None
    if replication is True:
        raise TypeError(
            "replication=True is ambiguous — pass a replica count or a "
            "ReplicationConfig"
        )
    if isinstance(replication, int):
        return ReplicationConfig(replicas=replication) if replication > 0 else None
    if isinstance(replication, ReplicationConfig):
        return replication
    raise TypeError(
        "replication must be None, False, an int, or ReplicationConfig, "
        f"got {replication!r}"
    )
