"""WAL-shipping hot-standby replication with fenced failover.

The paper positions Db2 Graph as a retrofittable layer that *inherits*
the host DBMS's enterprise machinery; in production Db2 that includes
HADR log-shipping standbys, not just single-node crash recovery.  This
package retrofits the same idea onto the repro: the primary tails its
own WAL (one hook at the durable-flush boundary), ships the identical
length+CRC-framed records to hot standbys over a simulated transport
with seeded network faults, and fails over under a fencing epoch so a
deposed primary can be rejected, never merged.

Layout::

    config.py     ReplicationConfig and its resolution
    errors.py     FencedWriteError, ReplicationAckTimeout, …
    transport.py  SimulatedTransport + NetworkFaultInjector
    replica.py    Replica (continuous redo apply, staleness contract)
    cluster.py    ReplicationCluster (stream log, acks, promotion)
    verify.py     state_digest / check_divergence

Entry points: ``Db2Graph.open(replication=...)`` attaches a cluster to
a durable graph; ``GraphService(replication=...)`` additionally routes
read-only sessions to replicas and auto-promotes on primary death.
"""

from .cluster import PRIMARY_ADDRESS, ReplicationCluster
from .config import (
    ACK_ASYNC,
    ACK_SYNC,
    ReplicationConfig,
    resolve_replication_config,
)
from .errors import (
    DivergenceError,
    FencedWriteError,
    NotPrimaryError,
    ReplicationAckTimeout,
    ReplicationError,
    StaleReadError,
)
from .replica import Replica, bootstrap_database
from .transport import (
    NetworkFaultInjector,
    PartitionWindow,
    SimulatedTransport,
    chaos_schedule,
)
from .verify import check_divergence, state_digest

__all__ = [
    "ACK_ASYNC",
    "ACK_SYNC",
    "DivergenceError",
    "FencedWriteError",
    "NetworkFaultInjector",
    "NotPrimaryError",
    "PartitionWindow",
    "PRIMARY_ADDRESS",
    "Replica",
    "ReplicationAckTimeout",
    "ReplicationCluster",
    "ReplicationConfig",
    "ReplicationError",
    "SimulatedTransport",
    "StaleReadError",
    "bootstrap_database",
    "chaos_schedule",
    "check_divergence",
    "resolve_replication_config",
    "state_digest",
]
