"""Deliberate engine-bug injection for validating the conformance loop.

Each named bug is a context manager that monkeypatches one §6.3
translation rule into a *plausible but wrong* variant — the classic
mutation-testing check that the oracle + shrinker actually catch and
minimize real translation bugs.  Used by the runner's ``--inject-bug``
mode and the acceptance tests.

* ``label-elimination`` — ``Planner.candidate_tables`` also
  eliminates column-label *vertex* tables under a label filter (the
  paper explicitly warns that tables *without* fixed labels must always
  be searched).
* ``implicit-id-swap`` — ``ImplicitEdgeId.render`` emits
  ``dst::label::src``, so every implicit edge id the engine
  materializes is reversed.
* ``property-elimination`` — ``Planner._eliminate_by_properties``
  eliminates any table with more than one property column, dropping
  valid result tables from ``has()`` fan-outs.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Callable, Iterator, Sequence

from ..core import ids as _ids
from ..core import planning as _planning


def _bug_label_elimination() -> tuple[Any, str, Callable]:
    original = _planning.Planner.candidate_tables

    def candidate_tables(self, kind, pushdown, *args, **kwargs):
        candidates, eliminated = original(self, kind, pushdown, *args, **kwargs)
        labels = _planning.label_values(pushdown)
        if kind == "vertex" and self.opts.use_label_values and labels is not None:
            # BUG: column-label tables (fixed_label None) are dropped
            # too — the paper warns they must always be searched
            candidates = [v for v in candidates if v.fixed_label is not None]
        return candidates, eliminated

    return _planning.Planner, "candidate_tables", candidate_tables


def _bug_implicit_id_swap() -> tuple[Any, str, Callable]:
    def render(self, row):
        src = _ids._segment(self.src_template.render(row))
        dst = _ids._segment(self.dst_template.render(row))
        # BUG: segments joined destination-first
        return _ids.SEPARATOR.join([dst, self.label, src])

    return _ids.ImplicitEdgeId, "render", render


def _bug_property_elimination() -> tuple[Any, str, Callable]:
    original = _planning.Planner._eliminate_by_properties

    def _eliminate_by_properties(self, candidates, pushdown):
        survivors = original(self, candidates, pushdown)
        required = {
            key.lower() for key, _p in pushdown.predicates if not key.startswith("~")
        }
        if required:
            # BUG: over-aggressive — multi-property tables are eliminated
            survivors = [s for s in survivors if len(s.property_columns) <= 1]
        return survivors

    return _planning.Planner, "_eliminate_by_properties", _eliminate_by_properties


BUGS: dict[str, Callable[[], tuple[Any, str, Callable]]] = {
    "label-elimination": _bug_label_elimination,
    "implicit-id-swap": _bug_implicit_id_swap,
    "property-elimination": _bug_property_elimination,
}


@contextmanager
def injected_bug(name: str) -> Iterator[None]:
    """Temporarily install the named translation bug."""
    try:
        target, attribute, replacement = BUGS[name]()
    except KeyError:
        raise KeyError(f"unknown bug {name!r}; known: {sorted(BUGS)}") from None
    original = getattr(target, attribute)
    setattr(target, attribute, replacement)
    try:
        yield
    finally:
        setattr(target, attribute, original)
