"""Bulk graph analytics over the relational overlay (GRAPHITE-style).

Level-synchronous, set-at-a-time execution of whole-graph algorithms
— BFS, single-source shortest paths, weakly-connected components,
PageRank — on top of the existing batched SQL, read cache, and
budget/retry plumbing.  Two front doors:

* ``Db2Graph.analytics().bfs(...)`` — the Python API,
* ``graphQuery('analytics', 'bfs source=...')`` — table-function rows
  joining back into SQL (:mod:`repro.analytics.sqlbridge`).
"""

from .algorithms import (
    BfsResult,
    GraphAnalytics,
    PageRankResult,
    SsspResult,
    WccResult,
    coerce_weight,
)
from .errors import AnalyticsError
from .frontier import FrontierExecutor, sort_key

__all__ = [
    "AnalyticsError",
    "BfsResult",
    "FrontierExecutor",
    "GraphAnalytics",
    "PageRankResult",
    "SsspResult",
    "WccResult",
    "coerce_weight",
    "sort_key",
]
