"""The four bulk graph algorithms (BFS, SSSP, WCC, PageRank).

BFS and SSSP run level-synchronously on the :class:`FrontierExecutor`,
so one step costs one scan per unindexed edge table, or ⌈frontier /
batch_size⌉ probes per indexed one and direction; WCC is one union-find
step over one read of each table, and PageRank iterates in memory.
Determinism contract (the differential battery relies on it): loops
iterate vertices in canonical :func:`~repro.analytics.frontier.sort_key`
order, ties resolve to the sorted-first candidate, and a component is
named by its sorted-min member — so BFS/SSSP/WCC results are
bit-identical to the pure-Python oracle, while PageRank (whose
per-vertex accumulation order depends on SQL row order) is compared
within an L1 tolerance.

Budget semantics: algorithms run inside the dialect's thread-local
budget scope, so every SQL statement and frontier vertex checkpoints
against the same first-wins tracker Gremlin traversals use.  When a
budget trips mid-run the raised error carries the partial result on
``exc.partial`` (depths/distances/components/ranks computed so far).

``analytics.converged`` is emitted only on *natural* convergence —
frontier drained, WCC's pass done, or tolerance met — never when a
``max_depth``/``max_iterations`` cutoff stops the run early.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator

from ..graph.model import Direction, GraphProvider
from ..obs.tracing import NULL_RECORDER
from ..resilience.errors import BudgetError
from .errors import AnalyticsError
from .frontier import FrontierExecutor, resolve_direction, sort_key


def coerce_weight(value: Any, default: float) -> float:
    """Edge-weight coercion: real numbers pass through as float; bools,
    None, strings, and missing values fall back to ``default``.

    ``bool`` is explicitly excluded even though it subclasses ``int`` —
    a ``verified=True`` flag is not a distance of 1.0.
    """
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        weight = float(value)
        if weight < 0:
            raise AnalyticsError(f"negative edge weight {value!r} is not supported")
        return weight
    return default


# ---------------------------------------------------------------------------
# result types
# ---------------------------------------------------------------------------


@dataclass
class BfsResult:
    """Depth and predecessor per reached vertex.  ``parent[source]`` is
    None; ties pick the sorted-first discovering vertex."""

    source: Any
    depth: dict[Any, int]
    parent: dict[Any, Any]
    converged: bool
    steps: int
    frontier_sizes: list[int] = field(default_factory=list)

    def rows(self) -> list[tuple]:
        return [
            (v, self.depth[v], self.parent[v])
            for v in sorted(self.depth, key=sort_key)
        ]


@dataclass
class SsspResult:
    """Shortest distance and predecessor per reached vertex."""

    source: Any
    distance: dict[Any, float]
    parent: dict[Any, Any]
    converged: bool
    steps: int
    frontier_sizes: list[int] = field(default_factory=list)

    def rows(self) -> list[tuple]:
        return [
            (v, self.distance[v], self.parent[v])
            for v in sorted(self.distance, key=sort_key)
        ]


@dataclass
class WccResult:
    """Component id (the sorted-min member id) per vertex."""

    component: dict[Any, Any]
    converged: bool
    steps: int
    frontier_sizes: list[int] = field(default_factory=list)

    def component_count(self) -> int:
        return len(set(map(sort_key, self.component.values())))

    def rows(self) -> list[tuple]:
        return [
            (v, self.component[v]) for v in sorted(self.component, key=sort_key)
        ]


@dataclass
class PageRankResult:
    """Rank per vertex after power iteration."""

    rank: dict[Any, float]
    converged: bool
    iterations: int
    delta: float

    def rows(self) -> list[tuple]:
        return [(v, self.rank[v]) for v in sorted(self.rank, key=sort_key)]


# ---------------------------------------------------------------------------
# the engine facade
# ---------------------------------------------------------------------------


class GraphAnalytics:
    """Bulk analytics over one graph provider.

    Obtained from :meth:`Db2Graph.analytics`; also constructible over a
    bare provider (e.g. an ``InMemoryGraph``) for tests.
    """

    def __init__(self, provider: GraphProvider, *, budget: Any = None):
        self.provider = provider
        self.budget = budget
        self.registry = getattr(provider, "registry", None)
        self.trace = getattr(provider, "trace", NULL_RECORDER)

    # -- plumbing ------------------------------------------------------------

    @contextmanager
    def _execution(self) -> Iterator[FrontierExecutor]:
        """Mint a frontier executor, activating the budget on the SQL
        dialect (thread-locally) so statement/row checkpoints fire."""
        dialect = getattr(self.provider, "dialect", None)
        if self.budget is None:
            yield FrontierExecutor(self.provider)
            return
        if dialect is not None:
            tracker = self.budget.tracker(dialect.registry, dialect.trace)
            with dialect.budget_scope(tracker):
                yield FrontierExecutor(self.provider, tracker=tracker)
        else:
            tracker = self.budget.tracker(self.registry, self.trace)
            yield FrontierExecutor(self.provider, tracker=tracker)

    def _resolve_source(self, source: Any) -> Any:
        source_id = getattr(source, "id", source)
        vertex = self.provider.load_vertex(source_id)
        if vertex is None:
            raise AnalyticsError(f"source vertex {source_id!r} not found")
        return vertex.id

    # -- BFS -----------------------------------------------------------------

    def bfs(
        self,
        source: Any,
        *,
        direction: "Direction | str" = Direction.OUT,
        edge_labels: tuple[str, ...] = (),
        max_depth: int | None = None,
    ) -> BfsResult:
        """Level-synchronous BFS: depth and predecessor per vertex.

        ``parent[v]`` is the sorted-first frontier vertex that
        discovered ``v``; ``max_depth`` cuts the expansion off (the
        result is then marked not converged)."""
        direction = resolve_direction(direction)
        with self._execution() as executor:
            depth: dict[Any, int] = {}
            parent: dict[Any, Any] = {}
            level = 0
            sizes: list[int] = []
            try:
                source_id = self._resolve_source(source)
                depth[source_id] = 0
                parent[source_id] = None
                frontier: list[Any] = [source_id]
                while frontier:
                    if max_depth is not None and level >= max_depth:
                        return BfsResult(
                            source_id, depth, parent, False, level, sizes
                        )
                    ordered, adjacency = executor.expand(
                        frontier, direction, edge_labels, algorithm="bfs"
                    )
                    sizes.append(len(ordered))
                    next_frontier: list[Any] = []
                    for u in ordered:
                        for v in adjacency.get(u, ()):
                            if v not in depth:
                                depth[v] = level + 1
                                parent[v] = u
                                next_frontier.append(v)
                    frontier = next_frontier
                    level += 1
            except BudgetError as exc:
                exc.partial = BfsResult(
                    getattr(source, "id", source), depth, parent, False, level, sizes
                )
                raise
            executor.converged("bfs")
            return BfsResult(source_id, depth, parent, True, level, sizes)

    # -- SSSP ----------------------------------------------------------------

    def sssp(
        self,
        source: Any,
        *,
        weight: str,
        direction: "Direction | str" = Direction.OUT,
        edge_labels: tuple[str, ...] = (),
        default_weight: float = 1.0,
        max_steps: int | None = None,
    ) -> SsspResult:
        """Single-source shortest paths over a numeric edge property.

        Level-synchronous Bellman-Ford relaxation (not Dijkstra — no
        priority queue survives set-at-a-time execution): each step
        expands every vertex whose distance improved last step and
        relaxes its out-edges.  A strictly smaller distance replaces;
        an equal one keeps the incumbent, so ties resolve to the
        sorted-first relaxing vertex.  Non-numeric/missing weights take
        ``default_weight``; negative weights raise
        :class:`AnalyticsError`."""
        direction = resolve_direction(direction)
        with self._execution() as executor:
            distance: dict[Any, float] = {}
            parent: dict[Any, Any] = {}
            steps = 0
            sizes: list[int] = []
            try:
                source_id = self._resolve_source(source)
                distance[source_id] = 0.0
                parent[source_id] = None
                frontier: set[Any] = {source_id}
                while frontier:
                    if max_steps is not None and steps >= max_steps:
                        return SsspResult(
                            source_id, distance, parent, False, steps, sizes
                        )
                    ordered, adjacency = executor.expand(
                        frontier, direction, edge_labels, weight=weight, algorithm="sssp"
                    )
                    sizes.append(len(ordered))
                    improved: set[Any] = set()
                    for u in ordered:
                        base = distance[u]
                        for v, w in adjacency.get(u, ()):
                            candidate = base + coerce_weight(w, default_weight)
                            if v not in distance or candidate < distance[v]:
                                distance[v] = candidate
                                parent[v] = u
                                improved.add(v)
                    frontier = improved
                    steps += 1
            except BudgetError as exc:
                exc.partial = SsspResult(
                    getattr(source, "id", source), distance, parent, False, steps, sizes
                )
                raise
            executor.converged("sssp")
            return SsspResult(source_id, distance, parent, True, steps, sizes)

    # -- WCC -----------------------------------------------------------------

    def wcc(self, *, edge_labels: tuple[str, ...] = ()) -> WccResult:
        """Weakly-connected components by union-find over one id read of
        the vertices and one endpoint read of each edge table.

        A union keeps the sorted-smaller root, so each component is
        named by its sorted-min member id.  An endpoint outside the
        vertex read (a dangling id) joins its component but never names
        it, and a component with no vertex-read member is dropped: the
        fixpoint of min-label propagation, which any correct
        implementation reaches exactly."""
        with self._execution() as executor:
            component: dict[Any, Any] = {}
            sizes: list[int] = []
            try:
                # one sort key per vertex per run; an id without one is dangling
                key_of = {v: sort_key(v) for v in self.provider.vertex_ids()}
                component.update({v: v for v in key_of})
                pairs = executor.edge_endpoints(key_of, edge_labels, algorithm="wcc")
                sizes.append(len(key_of))
            except BudgetError as exc:
                exc.partial = WccResult(component, False, 0, sizes)
                raise
            parent = dict(component)

            def find(x: Any) -> Any:
                p = parent.setdefault(x, x)
                while p is not x:  # path splitting
                    grand = parent[p]
                    parent[x] = grand
                    x, p = p, grand
                return x

            for a, b in pairs:
                ra, rb = find(a), find(b)
                if ra is rb:
                    continue
                ka, kb = key_of.get(ra), key_of.get(rb)
                if kb is not None and (ka is None or kb < ka):
                    parent[ra] = rb
                else:
                    parent[rb] = ra
            for v in list(parent):
                root = find(v)
                if root in key_of:
                    component[v] = root
            executor.converged("wcc")
            return WccResult(component, True, 1, sizes)

    # -- PageRank ------------------------------------------------------------

    def pagerank(
        self,
        *,
        damping: float = 0.85,
        max_iterations: int = 20,
        tolerance: float | None = None,
        edge_labels: tuple[str, ...] = (),
    ) -> PageRankResult:
        """PageRank by power iteration.

        The graph is fetched once (one vertex scan + one bulk OUT
        expansion of every vertex); iterations then run in memory.
        Dangling mass is redistributed uniformly.  With ``tolerance``
        set, iteration stops (converged) when the L1 delta between
        successive rank vectors drops below it; otherwise exactly
        ``max_iterations`` run (a cutoff, not convergence)."""
        if not 0.0 <= damping <= 1.0:
            raise AnalyticsError(f"damping must be in [0, 1], got {damping!r}")
        if max_iterations <= 0:
            raise AnalyticsError(
                f"max_iterations must be positive, got {max_iterations!r}"
            )
        with self._execution() as executor:
            rank: dict[Any, float] = {}
            iterations = 0
            delta = 0.0
            converged = False
            tracker = executor.tracker
            try:
                vertices = executor.all_vertex_ids()
                if not vertices:
                    return PageRankResult({}, True, 0, 0.0)
                # successors per vertex (parallel edges count multiply)
                _ordered, successors = executor.expand(
                    vertices, Direction.OUT, edge_labels, algorithm="pagerank"
                )
                n = len(vertices)
                base = (1.0 - damping) / n
                rank = {v: 1.0 / n for v in vertices}
                for _ in range(max_iterations):
                    if tracker is not None:
                        tracker.check_deadline()
                    dangling = sum(
                        rank[u] for u in vertices if not successors.get(u)
                    )
                    contribution: dict[Any, float] = {v: 0.0 for v in vertices}
                    for u in vertices:
                        succ = successors.get(u)
                        if not succ:
                            continue
                        share = rank[u] / len(succ)
                        for v in succ:
                            if v in contribution:
                                contribution[v] += share
                    spread = damping * dangling / n
                    new_rank = {
                        v: base + spread + damping * contribution[v]
                        for v in vertices
                    }
                    delta = sum(abs(new_rank[v] - rank[v]) for v in vertices)
                    rank = new_rank
                    iterations += 1
                    executor.note_iteration("pagerank", n)
                    if tolerance is not None and delta < tolerance:
                        converged = True
                        break
            except BudgetError as exc:
                exc.partial = PageRankResult(rank, False, iterations, delta)
                raise
            if converged:
                executor.converged("pagerank")
            return PageRankResult(rank, converged, iterations, delta)
