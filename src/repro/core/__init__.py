"""``repro.core`` — the paper's contribution: Db2 Graph.

The graph overlay (paper §5), AutoOverlay generation (§5.1), and the
four-module architecture (§6): Traversal Strategy, Graph Structure,
Topology, and SQL Dialect, fronted by :class:`Db2Graph`.

Typical use::

    from repro.core import Db2Graph, OverlayConfig

    graph = Db2Graph.open(db, OverlayConfig.from_file("overlay.json"))
    g = graph.traversal()
    g.V().hasLabel("patient").out("hasDisease").values("conceptName").toList()
"""

from .auto_overlay import generate_overlay, identify_tables
from .db2graph import Db2Graph
from .graph_structure import OverlayGraph, RuntimeOptimizations, resolve_batch_size
from .ids import IdTemplate, ImplicitEdgeId
from .overlay import (
    EdgeTableConfig,
    LabelSpec,
    OverlayConfig,
    OverlayError,
    VertexTableConfig,
)
from .sql_dialect import SqlDialect, SqlPredicate, predicate_to_sql
from .strategies import (
    AggregatePushdown,
    GraphStepVertexStepMutation,
    PredicatePushdown,
    ProjectionPushdown,
    optimized_strategies,
)
from .table_function import make_graph_query_function, rows_from_result
from .topology import Topology

__all__ = [
    "Db2Graph",
    "OverlayConfig",
    "VertexTableConfig",
    "EdgeTableConfig",
    "LabelSpec",
    "OverlayError",
    "Topology",
    "OverlayGraph",
    "RuntimeOptimizations",
    "resolve_batch_size",
    "SqlDialect",
    "SqlPredicate",
    "predicate_to_sql",
    "IdTemplate",
    "ImplicitEdgeId",
    "generate_overlay",
    "identify_tables",
    "optimized_strategies",
    "GraphStepVertexStepMutation",
    "PredicatePushdown",
    "ProjectionPushdown",
    "AggregatePushdown",
    "make_graph_query_function",
    "rows_from_result",
]
