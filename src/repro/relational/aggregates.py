"""Aggregate reducers (COUNT, SUM, AVG, MIN, MAX).

A reducer takes one group's argument values and returns the aggregate
in one call.  SQL NULL semantics: NULL inputs are skipped, and
SUM/AVG/MIN/MAX over an empty (or all-NULL) group yield NULL while
COUNT yields 0.  Sums add left to right in input order, as a running
total would; builtin ``sum`` compensates float error on Python 3.12+.
"""

from __future__ import annotations

import functools
import operator
from typing import Any, Callable, Iterable, Sequence

from .errors import ExecutionError
from .values import _compare  # total-order compare with type checking

Reducer = Callable[[Iterable[Any]], Any]

_PLAIN_NUMBERS = frozenset({int, float, type(None)})
_ORDER = functools.cmp_to_key(_compare)

# Each reduces a non-empty list of non-NULL values.  min/max with
# _ORDER call _compare(value, running extreme) for each value in turn,
# so they keep the first extreme and raise on incomparable types.
_REDUCERS: dict[str, Callable[[list], Any]] = {
    "COUNT": len,
    "SUM": lambda present: functools.reduce(operator.add, present),
    "AVG": lambda present: functools.reduce(operator.add, present, 0.0) / len(present),
    "MIN": lambda present: min(present, key=_ORDER),
    "MAX": lambda present: max(present, key=_ORDER),
}


def reducer(name: str, star: bool = False) -> Reducer:
    """The reducer for aggregate ``name``.  COUNT(*) is ``len`` and is
    given the group's rows as a list; SUM and AVG expect values that
    passed :func:`numeric`."""
    upper = name.upper()
    if upper == "COUNT" and star:
        return len
    if upper not in _REDUCERS:
        raise ExecutionError(f"unknown aggregate {name!r}")
    reduce_present = _REDUCERS[upper]
    empty = 0 if upper == "COUNT" else None

    def reduce_group(values: Iterable[Any]) -> Any:
        present = [value for value in values if value is not None]
        return reduce_present(present) if present else empty

    return reduce_group


def _is_number(value: Any) -> bool:
    return value is None or isinstance(value, (int, float)) and not isinstance(value, bool)


def numeric(rows: Sequence[tuple], get: Callable[[tuple], Any]) -> bool:
    """Whether every ``get(row)`` is NULL or a number: valid SUM/AVG
    input.  BOOLEAN is not numeric."""
    return frozenset(map(type, map(get, rows))) <= _PLAIN_NUMBERS or all(map(_is_number, map(get, rows)))


def step(name: str, extreme: Any, value: Any) -> Any:
    """Add one non-NULL ``value`` to a running aggregate ``name``: raise
    what a running total or MIN/MAX would raise on it, and return the
    new running extreme (``extreme`` is the previous one, or None).
    Used only to find which error a failed batch meets first."""
    upper = name.upper()
    if upper in ("SUM", "AVG") and not _is_number(value):
        raise ExecutionError(f"{upper} requires numeric input, got {value!r}")
    if upper in ("MIN", "MAX") and extreme is not None:
        return _REDUCERS[upper]([extreme, value])
    return value
