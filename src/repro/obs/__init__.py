"""Observability for the graph query path: metrics, trace events,
``explain()`` and ``profile()``.

Everything here is off-by-default and costs one branch when disabled —
Tier-1 latency is unchanged unless a caller opts in via
``Db2Graph.enable_tracing()`` or the ``explain()``/``profile()``
terminal steps.
"""

from .explain import ExplainResult, PlanStage, StepSql, build_explain
from .metrics import Counter, Histogram, MetricsRegistry
from .profiler import ProfileNode, ProfileResult, TraversalProfiler, run_profile
from .tracing import NULL_RECORDER, TraceEvent, TraceRecorder

__all__ = [
    "Counter",
    "ExplainResult",
    "Histogram",
    "MetricsRegistry",
    "NULL_RECORDER",
    "PlanStage",
    "ProfileNode",
    "ProfileResult",
    "StepSql",
    "TraceEvent",
    "TraceRecorder",
    "TraversalProfiler",
    "build_explain",
    "run_profile",
]
