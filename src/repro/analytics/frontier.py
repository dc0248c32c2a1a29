"""The frontier executor (set-at-a-time traversal).

GRAPHITE-style bulk execution over the relational overlay: instead of
expanding one traverser at a time, :class:`FrontierExecutor` hands a
whole frontier of vertex ids to ``provider.adjacent_ids(...)`` in one
call.  The overlay provider chunks the ids into batched
``WHERE id IN (...)`` probes per edge table, or, on an unindexed
single-column endpoint of a base table, reads the table in one scan
(DESIGN.md §9), so one analytics step costs at most one statement per
unindexed edge table instead of O(frontier vertices).  Those
statements select only the endpoint columns (plus the weight column for
SSSP), and the neighbours come back as bare ids: no edge or vertex
element is built.  WCC's one step reads every edge's endpoints instead.

Every step emits the 1:1 counter/event pair ``analytics.step`` and
one ``frontier.size`` histogram observation mirrored by a
``frontier.size`` trace event — the same invariant every other
subsystem's counters obey (see :mod:`repro.obs.tracing`).  Budget
checkpoints run per frontier vertex (``note_traverser``) plus a
deadline check per step, so runaway expansions trip the same
first-wins :class:`~repro.resilience.budget.BudgetTracker` machinery
as Gremlin traversals.
"""

from __future__ import annotations

from typing import Any, Collection, Iterable

from ..graph.model import Direction, GraphProvider
from ..obs import metrics as M
from ..obs import tracing
from ..obs.tracing import NULL_RECORDER


def sort_key(vertex_id: Any) -> tuple[str, str]:
    """Total order over heterogeneous vertex ids (ints and strings mix
    freely across tables): compare by string form, tie-break by repr so
    ``1`` and ``'1'`` stay distinct and deterministic."""
    return (str(vertex_id), repr(vertex_id))


def resolve_direction(direction: "Direction | str") -> Direction:
    if isinstance(direction, Direction):
        return direction
    try:
        return Direction(str(direction).lower())
    except ValueError:
        raise ValueError(
            f"invalid direction {direction!r}; expected 'out', 'in', or 'both'"
        ) from None


class FrontierExecutor:
    """Expands whole vertex frontiers through a :class:`GraphProvider`.

    Works against any provider (``OverlayGraph`` for SQL execution,
    ``InMemoryGraph`` for tests); the observability hooks are picked up
    from the provider when it has them and skipped otherwise.
    """

    def __init__(
        self,
        provider: GraphProvider,
        *,
        tracker: Any = None,
    ):
        self.provider = provider
        self.registry = getattr(provider, "registry", None)
        self.trace = getattr(provider, "trace", NULL_RECORDER)
        # BudgetTracker (or None): per-vertex/deadline checkpoints.
        self.tracker = tracker
        self.steps_taken = 0

    # -- vertex enumeration --------------------------------------------------

    def all_vertex_ids(self) -> list[Any]:
        """Every vertex id in the graph, in canonical sort order."""
        return sorted(self.provider.vertex_ids(), key=sort_key)

    # -- frontier expansion --------------------------------------------------

    def expand(
        self,
        frontier: Iterable[Any],
        direction: Direction,
        edge_labels: tuple[str, ...] | None = None,
        *,
        weight: str | None = None,
        algorithm: str = "frontier",
    ) -> tuple[list[Any], dict[Any, list[Any]]]:
        """Expand one frontier level set-at-a-time.

        Returns ``(ordered_frontier, adjacency)`` where
        ``ordered_frontier`` is the frontier in canonical sort order
        (the iteration order every algorithm uses, so engine and oracle
        perform identical operation sequences) and ``adjacency`` maps
        each frontier vertex id to its neighbour ids, or to
        ``(neighbour id, weight value)`` pairs when ``weight`` is given.
        """
        ordered = sorted(set(frontier), key=sort_key)
        self._step(ordered, algorithm)
        adjacency = self.provider.adjacent_ids(
            ordered, direction, edge_labels or None, weight
        )
        return ordered, adjacency

    def edge_endpoints(
        self, vertices: Collection[Any], edge_labels: tuple[str, ...] | None, *, algorithm: str
    ) -> list[tuple[Any, Any]]:
        """One whole-graph step over ``vertices``: the checkpoints and
        counters of expanding them as one frontier, then every edge's
        ``(out id, in id)`` from one endpoint-only read per edge table."""
        self._step(vertices, algorithm)
        return self.provider.edge_endpoints(edge_labels or None)

    def _step(self, frontier: Collection[Any], algorithm: str) -> None:
        """A deadline check, one traverser per frontier vertex, one step."""
        tracker = self.tracker
        if tracker is not None:
            tracker.check_deadline()
            for _ in frontier:
                tracker.note_traverser()
        self.note_iteration(algorithm, len(frontier))

    def note_iteration(self, algorithm: str, size: int) -> None:
        """Emit one analytics step: counter + event, histogram + event.
        :meth:`expand` calls it per frontier; an in-memory iteration (one
        PageRank power step) calls it without touching SQL."""
        step = self.steps_taken
        if self.registry is not None:
            self.registry.counter(M.ANALYTICS_STEPS).increment()
            self.registry.histogram(M.FRONTIER_SIZE).observe(size)
        self.trace.emit(tracing.ANALYTICS_STEP, algorithm=algorithm, step=step, size=size)
        self.trace.emit(tracing.FRONTIER_SIZE, algorithm=algorithm, step=step, size=size)
        self.steps_taken += 1

    def converged(self, algorithm: str) -> None:
        """Emit natural convergence (never emitted on depth/iteration cutoffs)."""
        if self.registry is not None:
            self.registry.counter(M.ANALYTICS_CONVERGED).increment()
        self.trace.emit(
            tracing.ANALYTICS_CONVERGED, algorithm=algorithm, steps=self.steps_taken
        )
