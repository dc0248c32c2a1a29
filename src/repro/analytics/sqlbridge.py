"""Analytics specs for the ``graphQuery`` table function (paper §4).

``graphQuery('analytics', '<spec>')`` evaluates a whole-graph
algorithm and returns its result as rows that join back into SQL::

    SELECT * FROM TABLE(graphQuery('analytics',
        'bfs source=patient::1 direction=out'))
        AS T (vertex VARCHAR(64), depth INT, parent VARCHAR(64))

Spec grammar: ``<algorithm> key=value ...`` where the algorithm is one
of ``bfs``, ``sssp``, ``wcc``, ``pagerank``.  Values are coerced (int,
then float, then string); ``labels`` is a comma-separated edge-label
list.  Row shapes:

=============  ====================================
``bfs``        ``(vertex_id, depth, parent)``
``sssp``       ``(vertex_id, distance, parent)``
``wcc``        ``(vertex_id, component)``
``pagerank``   ``(vertex_id, rank)``
=============  ====================================

Rows come back in canonical vertex-id sort order so results are
deterministic for the SQL layer.
"""

from __future__ import annotations

import shlex
from typing import Any, Iterator

from .algorithms import GraphAnalytics
from .errors import AnalyticsError

_ALGORITHMS = ("bfs", "sssp", "wcc", "pagerank")


def _coerce(value: str) -> Any:
    try:
        return int(value)
    except ValueError:
        pass
    try:
        return float(value)
    except ValueError:
        pass
    return value


def parse_spec(spec: str) -> tuple[str, dict[str, Any]]:
    """Parse ``'bfs source=p::1 max_depth=3'`` into name + options."""
    tokens = shlex.split(str(spec))
    if not tokens:
        raise AnalyticsError("empty analytics spec")
    algorithm = tokens[0].lower()
    if algorithm not in _ALGORITHMS:
        raise AnalyticsError(
            f"unknown analytics algorithm {tokens[0]!r}; "
            f"expected one of {', '.join(_ALGORITHMS)}"
        )
    options: dict[str, Any] = {}
    for token in tokens[1:]:
        key, sep, raw = token.partition("=")
        if not sep or not key:
            raise AnalyticsError(
                f"malformed analytics option {token!r}; expected key=value"
            )
        options[key.lower()] = raw
    return algorithm, options


def evaluate_spec(analytics: GraphAnalytics, spec: str) -> Iterator[tuple]:
    """Run one parsed spec against a :class:`GraphAnalytics` handle."""
    algorithm, options = parse_spec(spec)
    labels = tuple(
        part for part in options.pop("labels", "").split(",") if part
    )
    if algorithm == "bfs":
        result = analytics.bfs(
            _required(options, "source", algorithm),
            direction=options.pop("direction", "out"),
            edge_labels=labels,
            max_depth=_int_opt(options, "max_depth"),
        )
    elif algorithm == "sssp":
        result = analytics.sssp(
            _required(options, "source", algorithm),
            weight=str(_required(options, "weight", algorithm)),
            direction=options.pop("direction", "out"),
            edge_labels=labels,
            default_weight=_float_opt(options, "default_weight", 1.0),
        )
    elif algorithm == "wcc":
        result = analytics.wcc(edge_labels=labels)
    else:  # pagerank
        result = analytics.pagerank(
            damping=_float_opt(options, "damping", 0.85),
            max_iterations=_int_opt(options, "max_iterations") or 20,
            tolerance=_float_opt(options, "tolerance", None),
            edge_labels=labels,
        )
    if options:
        raise AnalyticsError(
            f"unknown {algorithm} option(s): {', '.join(sorted(options))}"
        )
    yield from result.rows()


def _required(options: dict[str, Any], key: str, algorithm: str) -> Any:
    if key not in options:
        raise AnalyticsError(f"{algorithm} requires {key}=...")
    return _coerce(options.pop(key))


def _int_opt(options: dict[str, Any], key: str) -> int | None:
    raw = options.pop(key, None)
    if raw is None:
        return None
    try:
        return int(raw)
    except (TypeError, ValueError):
        raise AnalyticsError(f"{key} must be an integer, got {raw!r}") from None


def _float_opt(options: dict[str, Any], key: str, default: float | None) -> Any:
    raw = options.pop(key, None)
    if raw is None:
        return default
    try:
        return float(raw)
    except (TypeError, ValueError):
        raise AnalyticsError(f"{key} must be a number, got {raw!r}") from None
