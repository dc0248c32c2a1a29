"""Traversal steps and the traverser execution model.

A compiled traversal is a list of :class:`Step` objects; execution
threads a stream of :class:`Traverser` objects through each step's
``process``.  Steps that call into the backend provider are
*Graph-Structure-Accessing* (GSA) steps (paper §6.1): ``GraphStep``
and ``VertexStep``.  Each carries a :class:`~repro.graph.model.Pushdown`
that the provider turns into SQL; the Traversal Strategy module mutates
plans by folding later steps into these pushdowns.

Step state that must persist across a single execution (dedup sets,
loop counters) lives in the :class:`TraversalContext`, keyed by step
identity, so step objects themselves stay reusable and cloneable.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Sequence

from .errors import TraversalError
from .model import Direction, Edge, Element, GraphProvider, Pushdown, Vertex
from .predicates import P

if TYPE_CHECKING:  # pragma: no cover
    from .traversal import Traversal

_BATCH_SIZE = 256
_MAX_LOOPS = 64


class Traverser:
    __slots__ = ("obj", "path", "labels", "loops")

    def __init__(
        self,
        obj: Any,
        path: tuple | None = None,
        labels: dict[str, Any] | None = None,
        loops: int = 0,
    ):
        self.obj = obj
        self.path = path
        self.labels = labels
        self.loops = loops

    def split(self, obj: Any, track_path: bool) -> "Traverser":
        """Child traverser at a new object, extending the path."""
        path = None
        if track_path:
            path = (self.path or ()) + (self.obj,) if self.obj is not None else (self.path or ())
        return Traverser(obj, path, dict(self.labels) if self.labels else None, self.loops)

    def with_label(self, label: str) -> "Traverser":
        labels = dict(self.labels) if self.labels else {}
        labels[label] = self.obj
        return Traverser(self.obj, self.path, labels, self.loops)

    def full_path(self) -> list[Any]:
        return list(self.path or ()) + [self.obj]

    def __repr__(self) -> str:
        return f"Traverser({self.obj!r})"


class TraversalContext:
    """Per-execution state: the backend, side effects, step state."""

    def __init__(self, provider: GraphProvider, track_paths: bool = False):
        self.provider = provider
        self.side_effects: dict[str, list] = {}
        self.track_paths = track_paths
        # How many distinct ids one out()/in() batch coalesces per
        # provider call (and so, per table, per SQL IN-list); the
        # materializing steps cut at this many traversers.  Overlay
        # providers expose their configured batch_size; others keep 256.
        self.batch_size = getattr(provider, "batch_size", _BATCH_SIZE)
        self._step_state: dict[int, dict] = {}
        # Set by profile(): a TraversalProfiler that meters every step
        # boundary — including sub-traversal chains, which all flow
        # through run_steps with this context.
        self.profiler: Any = None
        # Set when the traversal runs under a QueryBudget: a
        # BudgetTracker whose guard() checkpoints every traverser
        # expansion (sub-traversals included, same as the profiler).
        self.budget: Any = None

    def state(self, step: "Step") -> dict:
        return self._step_state.setdefault(id(step), {})


def run_steps(
    steps: Sequence["Step"], traversers: Iterable[Traverser], ctx: TraversalContext
) -> Iterator[Traverser]:
    stream: Iterator[Traverser] = iter(traversers)
    profiler = ctx.profiler
    budget = ctx.budget
    for step in steps:
        stream = step.process(stream, ctx)
        if budget is not None:
            stream = budget.guard(stream)
        if profiler is not None:
            stream = profiler.wrap(step, stream)
    return stream


def _materialize(batch: Sequence[Traverser], ctx: TraversalContext) -> None:
    """Fill every lazy element in ``batch`` with one provider call (the
    overlay chunks its distinct ids into ``IN`` lists)."""
    pending = [
        t.obj
        for t in batch
        if isinstance(t.obj, Element) and not t.obj.is_materialized
    ]
    if pending:
        ctx.provider.bulk_materialize(pending)


def _materializing_batches(
    incoming: Iterator[Traverser], ctx: TraversalContext
) -> Iterator[Traverser]:
    """Yield traversers in order, bulk-materializing lazy elements one
    batch at a time (avoids one backend round trip per element)."""
    while True:
        batch = list(itertools.islice(incoming, ctx.batch_size))
        if not batch:
            return
        _materialize(batch, ctx)
        yield from batch


class Step:
    """Base class.  ``is_gsa`` marks Graph-Structure-Accessing steps."""

    is_gsa = False
    is_filter = False

    def process(self, incoming: Iterator[Traverser], ctx: TraversalContext) -> Iterator[Traverser]:
        raise NotImplementedError

    def sub_traversals(self) -> tuple[tuple[str, "Traversal"], ...]:
        """(label, traversal) pairs for the sub-traversals this step
        drives — the profile tree and path-tracking detection walk
        these."""
        return ()

    def name(self) -> str:
        return type(self).__name__.removesuffix("Step")

    def __repr__(self) -> str:
        return self.name()


# ---------------------------------------------------------------------------
# GSA steps
# ---------------------------------------------------------------------------


class GraphStep(Step):
    """``g.V(ids)`` / ``g.E(ids)`` — and, after the GraphStep::VertexStep
    mutation (§6.2), ``g.V(ids).out(l)``/``outE(l)``-style steps with an
    ``endpoint_filter`` of ``(direction, edge labels, vertex ids)``: no
    vertex lookup, then the ``provider.adjacent`` call a ``VertexStep``
    over those ids makes, so both spellings share one row path."""

    is_gsa = True

    def __init__(
        self,
        return_type: str,
        ids: Sequence[Any] | None = None,
        pushdown: Pushdown | None = None,
        endpoint_filter: tuple[Direction, tuple[str, ...] | None, tuple[Any, ...]] | None = None,
    ):
        if return_type not in ("vertex", "edge"):
            raise TraversalError(f"invalid GraphStep return type {return_type!r}")
        self.return_type = return_type
        self.ids = list(ids) if ids else None
        self.pushdown = pushdown or Pushdown()
        self.endpoint_filter = endpoint_filter

    def process(self, incoming: Iterator[Traverser], ctx: TraversalContext) -> Iterator[Traverser]:
        started = False
        for traverser in incoming:
            started = True
            for element in self._emit(ctx):
                yield traverser.split(element, ctx.track_paths)
        if not started:
            for element in self._emit(ctx):
                yield Traverser(element, () if ctx.track_paths else None)

    def _emit(self, ctx: TraversalContext) -> Iterator[Any]:
        provider = ctx.provider
        if self.endpoint_filter is None:
            results: Iterable[Any] = provider.graph_step(self.return_type, self.ids, self.pushdown)
        else:
            direction, edge_labels, vertex_ids = self.endpoint_filter
            vertices = [Vertex(v, provider=provider) for v in vertex_ids]
            adjacency = provider.adjacent(
                vertices, direction, edge_labels, self.return_type, self.pushdown
            )
            # provider returns {None: [scalar]} for aggregates
            keys = vertex_ids if self.pushdown.aggregate is None else [None]
            results = (element for key in keys for element in adjacency.get(key, ()))
        if self.pushdown.aggregate not in (None, "count"):
            # Gremlin: sum()/mean()/min()/max() over an empty stream emit
            # nothing (count() emits 0)
            results = (scalar for scalar in results if scalar is not None)
        yield from results

    def name(self) -> str:
        target = "V" if self.return_type == "vertex" else "E"
        if self.endpoint_filter is None:
            return f"GraphStep({target}, ids={self.ids}, pushdown={self.pushdown})"
        direction, labels, ids = self.endpoint_filter
        step = direction.value + ("E" if target == "E" else "")
        return f"GraphStep(V(ids={list(ids)}).{step}(labels={labels}), pushdown={self.pushdown})"


class VertexStep(Step):
    """``out()/in()/both()`` (vertices) and ``outE()/inE()/bothE()``
    (edges) — batched through the provider."""

    is_gsa = True

    def __init__(
        self,
        direction: Direction,
        edge_labels: tuple[str, ...] = (),
        return_type: str = "vertex",
        pushdown: Pushdown | None = None,
    ):
        self.direction = direction
        self.edge_labels = tuple(edge_labels) or None
        self.return_type = return_type
        self.pushdown = pushdown or Pushdown()

    def process(self, incoming: Iterator[Traverser], ctx: TraversalContext) -> Iterator[Traverser]:
        for batch, vertices in self._batches(incoming, ctx.batch_size):
            adjacency = ctx.provider.adjacent(
                vertices, self.direction, self.edge_labels, self.return_type, self.pushdown
            )
            for traverser in batch:
                for element in adjacency.get(traverser.obj.id, ()):
                    yield traverser.split(element, ctx.track_paths)

    def _batches(
        self, incoming: Iterator[Traverser], size: int
    ) -> Iterator[tuple[list[Traverser], list[Vertex]]]:
        """Consecutive runs of traversers, each with the distinct vertices
        it stands at.  A run ends once it holds ``size`` distinct vertex
        ids, or when the input runs out.  A vertex is distinct by (id,
        table hint), so its hints' §6.3 narrowing stays a union."""
        batch: list[Traverser] = []
        vertices: dict[tuple[Any, Any], Vertex] = {}
        ids: set[Any] = set()
        for traverser in incoming:
            vertex = traverser.obj
            if not isinstance(vertex, Vertex):
                raise TraversalError(
                    f"{self.name()} requires vertices, got {type(vertex).__name__}"
                )
            batch.append(traverser)
            vertices.setdefault((vertex.id, vertex.source_table), vertex)
            ids.add(vertex.id)
            if len(ids) == size:
                yield batch, list(vertices.values())
                batch, vertices, ids = [], {}, set()
        if batch:
            yield batch, list(vertices.values())

    def name(self) -> str:
        suffix = "E" if self.return_type == "edge" else ""
        return f"VertexStep({self.direction.value}{suffix}, labels={self.edge_labels})"


class EdgeVertexStep(Step):
    """``outV()/inV()/bothV()/otherV()`` — endpoint(s) of an edge."""

    def __init__(self, direction: Direction):
        self.direction = direction

    def process(self, incoming: Iterator[Traverser], ctx: TraversalContext) -> Iterator[Traverser]:
        for traverser in incoming:
            edge = traverser.obj
            if not isinstance(edge, Edge):
                raise TraversalError(f"{self.name()} requires edges")
            if self.direction is Direction.OTHER:
                prior = traverser.path[-1] if traverser.path else None
                if isinstance(prior, Vertex) and prior.id == edge.out_v_id:
                    direction = Direction.IN
                else:
                    direction = Direction.OUT
            else:
                direction = self.direction
            for vertex in ctx.provider.edge_vertex(edge, direction):
                yield traverser.split(vertex, ctx.track_paths)

    def name(self) -> str:
        return f"EdgeVertexStep({self.direction.value}V)"


# ---------------------------------------------------------------------------
# Filters
# ---------------------------------------------------------------------------


class HasStep(Step):
    """``has(key, P)`` / ``hasLabel`` / ``hasId`` — a conjunction of
    conditions over an element.  Special keys: ``~label``, ``~id``."""

    is_filter = True

    def __init__(self, conditions: Sequence[tuple[str, P]]):
        self.conditions = list(conditions)

    def process(self, incoming: Iterator[Traverser], ctx: TraversalContext) -> Iterator[Traverser]:
        for traverser in _materializing_batches(incoming, ctx):
            if self.matches(traverser.obj):
                yield traverser

    def matches(self, obj: Any) -> bool:
        if not isinstance(obj, Element):
            raise TraversalError("has() requires vertices or edges")
        for key, predicate in self.conditions:
            if key == "~id":
                value: Any = obj.id
            elif key == "~label":
                value = obj.label
            else:
                if not obj.has_property(key):
                    return False
                value = obj.value(key)
            if not predicate.test(value):
                return False
        return True

    def name(self) -> str:
        return f"Has({self.conditions})"


class HasNotStep(Step):
    """``hasNot(key)`` — element lacks a property."""

    is_filter = True

    def __init__(self, key: str):
        self.key = key

    def process(self, incoming: Iterator[Traverser], ctx: TraversalContext) -> Iterator[Traverser]:
        for traverser in incoming:
            if isinstance(traverser.obj, Element) and not traverser.obj.has_property(self.key):
                yield traverser


class IsStep(Step):
    """``is_(P)`` — filter the current (scalar) object."""

    is_filter = True

    def __init__(self, predicate: P):
        self.predicate = predicate

    def process(self, incoming: Iterator[Traverser], ctx: TraversalContext) -> Iterator[Traverser]:
        for traverser in incoming:
            if self.predicate.test(traverser.obj):
                yield traverser


class FilterLambdaStep(Step):
    is_filter = True

    def __init__(self, fn: Callable[[Any], bool]):
        self.fn = fn

    def process(self, incoming: Iterator[Traverser], ctx: TraversalContext) -> Iterator[Traverser]:
        for traverser in incoming:
            if self.fn(traverser.obj):
                yield traverser


class FilterTraversalStep(Step):
    """``filter(sub)`` / ``not_(sub)`` — keep a traverser iff the
    sub-traversal produces at least one result (or none, when negated)."""

    is_filter = True

    def __init__(self, sub: "Traversal", negated: bool = False):
        self.sub = sub
        self.negated = negated

    def process(self, incoming: Iterator[Traverser], ctx: TraversalContext) -> Iterator[Traverser]:
        for traverser in incoming:
            probe = Traverser(traverser.obj, traverser.path, traverser.labels, traverser.loops)
            produced = next(iter(run_steps(self.sub.steps, [probe], ctx)), None) is not None
            if produced != self.negated:
                yield traverser

    def sub_traversals(self) -> tuple[tuple[str, "Traversal"], ...]:
        return (("not" if self.negated else "filter", self.sub),)

    def name(self) -> str:
        word = "Not" if self.negated else "Filter"
        return f"{word}({self.sub})"


class DedupStep(Step):
    is_filter = True

    def process(self, incoming: Iterator[Traverser], ctx: TraversalContext) -> Iterator[Traverser]:
        seen = ctx.state(self).setdefault("seen", set())
        for traverser in incoming:
            key = traverser.obj
            try:
                hash(key)
            except TypeError:
                key = repr(key)
            if key not in seen:
                seen.add(key)
                yield traverser


class LimitStep(Step):
    def __init__(self, low: int, high: int | None):
        self.low = low
        self.high = high

    def process(self, incoming: Iterator[Traverser], ctx: TraversalContext) -> Iterator[Traverser]:
        for position, traverser in enumerate(incoming):
            if self.high is not None and position >= self.high:
                return
            if position >= self.low:
                yield traverser

    def name(self) -> str:
        return f"Range({self.low}, {self.high})"


class SimplePathStep(Step):
    """``simplePath()`` — drop traversers that revisit an element."""

    is_filter = True

    def process(self, incoming: Iterator[Traverser], ctx: TraversalContext) -> Iterator[Traverser]:
        for traverser in incoming:
            full = traverser.full_path()
            if len(set(full)) == len(full):
                yield traverser


# ---------------------------------------------------------------------------
# Maps
# ---------------------------------------------------------------------------


class PropertiesStep(Step):
    """``values(keys...)`` — flatten to property values."""

    def __init__(self, keys: tuple[str, ...] = ()):
        self.keys = keys

    def process(self, incoming: Iterator[Traverser], ctx: TraversalContext) -> Iterator[Traverser]:
        for traverser in _materializing_batches(incoming, ctx):
            element = traverser.obj
            if not isinstance(element, Element):
                raise TraversalError("values() requires vertices or edges")
            keys = self.keys or tuple(element.keys())
            for key in keys:
                if element.has_property(key):
                    yield traverser.split(element.value(key), ctx.track_paths)

    def name(self) -> str:
        return f"Values({self.keys})"


class ValueTupleStep(Step):
    """Non-standard helper: emit a tuple of property values per element.

    Used by the ``graphQuery`` table function to produce rows — the
    paper's example returns ``values('patientID', 'subscriptionID')``
    as a two-column table, which requires keeping the values of one
    element together rather than flattening them.
    """

    def __init__(self, keys: tuple[str, ...]):
        if not keys:
            raise TraversalError("valueTuple() requires at least one key")
        self.keys = keys

    def process(self, incoming: Iterator[Traverser], ctx: TraversalContext) -> Iterator[Traverser]:
        for traverser in _materializing_batches(incoming, ctx):
            element = traverser.obj
            if not isinstance(element, Element):
                raise TraversalError("valueTuple() requires vertices or edges")
            yield traverser.split(
                tuple(element.value(k) for k in self.keys), ctx.track_paths
            )


class ValueMapStep(Step):
    def __init__(self, keys: tuple[str, ...] = (), with_tokens: bool = False):
        self.keys = keys
        self.with_tokens = with_tokens

    def process(self, incoming: Iterator[Traverser], ctx: TraversalContext) -> Iterator[Traverser]:
        for traverser in _materializing_batches(incoming, ctx):
            element = traverser.obj
            if not isinstance(element, Element):
                raise TraversalError("valueMap() requires vertices or edges")
            keys = self.keys or tuple(element.keys())
            mapping: dict[str, Any] = {}
            if self.with_tokens:
                mapping["id"] = element.id
                mapping["label"] = element.label
            for key in keys:
                if element.has_property(key):
                    mapping[key] = element.value(key)
            yield traverser.split(mapping, ctx.track_paths)


class IdStep(Step):
    def process(self, incoming: Iterator[Traverser], ctx: TraversalContext) -> Iterator[Traverser]:
        for traverser in incoming:
            element = traverser.obj
            if isinstance(element, Edge) or isinstance(element, Vertex):
                yield traverser.split(element.id, ctx.track_paths)
            else:
                raise TraversalError("id() requires vertices or edges")


class LabelStep(Step):
    def process(self, incoming: Iterator[Traverser], ctx: TraversalContext) -> Iterator[Traverser]:
        for traverser in incoming:
            element = traverser.obj
            if not isinstance(element, Element):
                raise TraversalError("label() requires vertices or edges")
            yield traverser.split(element.label, ctx.track_paths)


class MapLambdaStep(Step):
    def __init__(self, fn: Callable[[Any], Any]):
        self.fn = fn

    def process(self, incoming: Iterator[Traverser], ctx: TraversalContext) -> Iterator[Traverser]:
        for traverser in incoming:
            yield traverser.split(self.fn(traverser.obj), ctx.track_paths)


class PathStep(Step):
    def process(self, incoming: Iterator[Traverser], ctx: TraversalContext) -> Iterator[Traverser]:
        for traverser in incoming:
            yield traverser.split(traverser.full_path(), ctx.track_paths)


class SelectStep(Step):
    """``select(keys...)`` over ``as_`` labels."""

    def __init__(self, keys: tuple[str, ...]):
        if not keys:
            raise TraversalError("select() requires at least one key")
        self.keys = keys

    def process(self, incoming: Iterator[Traverser], ctx: TraversalContext) -> Iterator[Traverser]:
        for traverser in incoming:
            labels = traverser.labels or {}
            if any(key not in labels for key in self.keys):
                continue
            if len(self.keys) == 1:
                yield traverser.split(labels[self.keys[0]], ctx.track_paths)
            else:
                yield traverser.split(
                    {key: labels[key] for key in self.keys}, ctx.track_paths
                )


class AsStep(Step):
    def __init__(self, label: str):
        self.label = label

    def process(self, incoming: Iterator[Traverser], ctx: TraversalContext) -> Iterator[Traverser]:
        for traverser in incoming:
            yield traverser.with_label(self.label)

    def name(self) -> str:
        return f"As({self.label!r})"


# ---------------------------------------------------------------------------
# Side effects
# ---------------------------------------------------------------------------


class StoreStep(Step):
    def __init__(self, key: str):
        self.key = key

    def process(self, incoming: Iterator[Traverser], ctx: TraversalContext) -> Iterator[Traverser]:
        bucket = ctx.side_effects.setdefault(self.key, [])
        for traverser in incoming:
            bucket.append(traverser.obj)
            yield traverser

    def name(self) -> str:
        return f"Store({self.key!r})"


class CapStep(Step):
    def __init__(self, key: str):
        self.key = key

    def process(self, incoming: Iterator[Traverser], ctx: TraversalContext) -> Iterator[Traverser]:
        last: Traverser | None = None
        for traverser in incoming:  # drain to force side effects
            last = traverser
        value = ctx.side_effects.get(self.key, [])
        base = last or Traverser(None)
        yield base.split(list(value), ctx.track_paths)

    def name(self) -> str:
        return f"Cap({self.key!r})"


# ---------------------------------------------------------------------------
# Reducers (barriers)
# ---------------------------------------------------------------------------


class CountStep(Step):
    is_reducer = True

    def process(self, incoming: Iterator[Traverser], ctx: TraversalContext) -> Iterator[Traverser]:
        count = sum(1 for _ in incoming)
        yield Traverser(count)


class _NumericReducer(Step):
    is_reducer = True

    def _reduce(self, values: list[Any]) -> Any:
        raise NotImplementedError

    def process(self, incoming: Iterator[Traverser], ctx: TraversalContext) -> Iterator[Traverser]:
        values = [t.obj for t in incoming if t.obj is not None]
        if not values:
            return
        yield Traverser(self._reduce(values))


class SumStep(_NumericReducer):
    def _reduce(self, values: list[Any]) -> Any:
        return sum(values)


class MeanStep(_NumericReducer):
    def _reduce(self, values: list[Any]) -> Any:
        return sum(values) / len(values)


class MinStep(_NumericReducer):
    def _reduce(self, values: list[Any]) -> Any:
        return min(values)


class MaxStep(_NumericReducer):
    def _reduce(self, values: list[Any]) -> Any:
        return max(values)


class FoldStep(Step):
    is_reducer = True

    def process(self, incoming: Iterator[Traverser], ctx: TraversalContext) -> Iterator[Traverser]:
        yield Traverser([t.obj for t in incoming])


class UnfoldStep(Step):
    def process(self, incoming: Iterator[Traverser], ctx: TraversalContext) -> Iterator[Traverser]:
        for traverser in incoming:
            obj = traverser.obj
            if isinstance(obj, (list, tuple, set, frozenset)):
                for item in obj:
                    yield traverser.split(item, ctx.track_paths)
            elif isinstance(obj, dict):
                for item in obj.items():
                    yield traverser.split(item, ctx.track_paths)
            else:
                yield traverser


class GroupCountStep(Step):
    is_reducer = True

    def __init__(self, by_key: str | None = None):
        self.by_key = by_key

    def process(self, incoming: Iterator[Traverser], ctx: TraversalContext) -> Iterator[Traverser]:
        counts: dict[Any, int] = {}
        for traverser in incoming:
            obj = traverser.obj
            if self.by_key is not None:
                if not isinstance(obj, Element):
                    raise TraversalError("groupCount().by(key) requires elements")
                if self.by_key == "~label":
                    group: Any = obj.label
                elif self.by_key == "~id":
                    group = obj.id
                else:
                    group = obj.value(self.by_key)
            else:
                group = obj
            counts[group] = counts.get(group, 0) + 1
        yield Traverser(counts)


class OrderStep(Step):
    is_reducer = True

    def __init__(self) -> None:
        # (key | None for the object itself, descending)
        self.comparators: list[tuple[str | None, bool]] = []

    def process(self, incoming: Iterator[Traverser], ctx: TraversalContext) -> Iterator[Traverser]:
        materialized = list(_materializing_batches(incoming, ctx))
        comparators = self.comparators or [(None, False)]
        for key, descending in reversed(comparators):
            materialized.sort(
                key=lambda t: _order_key(t.obj, key), reverse=descending
            )
        yield from materialized


def _order_key(obj: Any, key: str | None) -> tuple:
    value = obj
    if key is not None:
        if not isinstance(obj, Element):
            raise TraversalError("order().by(key) requires elements")
        value = obj.value(key)
    if isinstance(value, Element):
        value = value.id
    # None sorts first; mixed types sort by type name then value
    return (value is not None, type(value).__name__, value)


# ---------------------------------------------------------------------------
# Branching
# ---------------------------------------------------------------------------


class IdentityStep(Step):
    def process(self, incoming: Iterator[Traverser], ctx: TraversalContext) -> Iterator[Traverser]:
        return incoming


class ConstantStep(Step):
    def __init__(self, value: Any):
        self.value = value

    def process(self, incoming: Iterator[Traverser], ctx: TraversalContext) -> Iterator[Traverser]:
        for traverser in incoming:
            yield traverser.split(self.value, ctx.track_paths)


class SideEffectStep(Step):
    """``sideEffect(sub)`` — run a sub-traversal (or callable) for its
    effects, passing the original traverser through unchanged."""

    def __init__(self, effect: "Traversal | Callable[[Any], None]"):
        self.effect = effect

    def process(self, incoming: Iterator[Traverser], ctx: TraversalContext) -> Iterator[Traverser]:
        for traverser in incoming:
            if callable(self.effect) and not hasattr(self.effect, "steps"):
                self.effect(traverser.obj)
            else:
                probe = Traverser(traverser.obj, traverser.path, traverser.labels, traverser.loops)
                for _ in run_steps(self.effect.steps, [probe], ctx):  # type: ignore[union-attr]
                    pass
            yield traverser

    def sub_traversals(self) -> tuple[tuple[str, "Traversal"], ...]:
        if hasattr(self.effect, "steps"):
            return (("sideEffect", self.effect),)  # type: ignore[return-value]
        return ()


class OptionalStep(Step):
    """``optional(sub)`` — sub results if any, else the original."""

    def __init__(self, sub: "Traversal"):
        self.sub = sub

    def process(self, incoming: Iterator[Traverser], ctx: TraversalContext) -> Iterator[Traverser]:
        for traverser in incoming:
            probe = Traverser(traverser.obj, traverser.path, traverser.labels, traverser.loops)
            produced = list(run_steps(self.sub.steps, [probe], ctx))
            if produced:
                yield from produced
            else:
                yield traverser

    def sub_traversals(self) -> tuple[tuple[str, "Traversal"], ...]:
        return (("optional", self.sub),)


class ChooseStep(Step):
    """``choose(cond, true_branch, false_branch)`` — if/then/else."""

    def __init__(
        self,
        condition: "Traversal",
        true_branch: "Traversal",
        false_branch: "Traversal | None" = None,
    ):
        self.condition = condition
        self.true_branch = true_branch
        self.false_branch = false_branch

    def process(self, incoming: Iterator[Traverser], ctx: TraversalContext) -> Iterator[Traverser]:
        for traverser in incoming:
            probe = Traverser(traverser.obj, traverser.path, traverser.labels, traverser.loops)
            matched = next(iter(run_steps(self.condition.steps, [probe], ctx)), None) is not None
            branch = self.true_branch if matched else self.false_branch
            if branch is None:
                yield traverser
                continue
            clone = Traverser(traverser.obj, traverser.path, traverser.labels, traverser.loops)
            yield from run_steps(branch.steps, [clone], ctx)

    def sub_traversals(self) -> tuple[tuple[str, "Traversal"], ...]:
        subs = [("condition", self.condition), ("true", self.true_branch)]
        if self.false_branch is not None:
            subs.append(("false", self.false_branch))
        return tuple(subs)


class GroupStep(Step):
    """``group().by(key).by(value_traversal)`` — dict of key -> values."""

    is_reducer = True

    def __init__(self) -> None:
        self.key_by: "str | Traversal | None" = None
        self.value_by: "Traversal | None" = None
        self._by_calls = 0

    def modulate(self, argument: "str | Traversal | None") -> None:
        if self._by_calls == 0:
            self.key_by = argument
        elif self._by_calls == 1:
            self.value_by = argument  # type: ignore[assignment]
        else:
            raise TraversalError("group() accepts at most two by() modulators")
        self._by_calls += 1

    def process(self, incoming: Iterator[Traverser], ctx: TraversalContext) -> Iterator[Traverser]:
        groups: dict[Any, list[Any]] = {}
        for traverser in incoming:
            key = self._apply_by(self.key_by, traverser, ctx, single=True)
            values = self._apply_by(self.value_by, traverser, ctx, single=False)
            groups.setdefault(key, []).extend(values)
        yield Traverser(groups)

    def sub_traversals(self) -> tuple[tuple[str, "Traversal"], ...]:
        subs = []
        if hasattr(self.key_by, "steps"):
            subs.append(("by(key)", self.key_by))
        if hasattr(self.value_by, "steps"):
            subs.append(("by(value)", self.value_by))
        return tuple(subs)

    @staticmethod
    def _apply_by(by: Any, traverser: Traverser, ctx: TraversalContext, single: bool) -> Any:
        obj = traverser.obj
        if by is None:
            return obj if single else [obj]
        if isinstance(by, str):
            if not isinstance(obj, Element):
                raise TraversalError("group().by(key) requires elements")
            value = obj.label if by == "~label" else obj.id if by == "~id" else obj.value(by)
            return value if single else [value]
        probe = Traverser(obj, traverser.path, traverser.labels, traverser.loops)
        results = [t.obj for t in run_steps(by.steps, [probe], ctx)]
        if single:
            return results[0] if results else None
        return results


class ProjectStep(Step):
    """``project('a','b').by(t1).by(t2)`` — per-traverser dict."""

    def __init__(self, names: tuple[str, ...]):
        if not names:
            raise TraversalError("project() requires at least one name")
        self.names = names
        self.by_traversals: list[Any] = []

    def modulate(self, argument: Any) -> None:
        if len(self.by_traversals) >= len(self.names):
            raise TraversalError("more by() modulators than projected names")
        self.by_traversals.append(argument)

    def process(self, incoming: Iterator[Traverser], ctx: TraversalContext) -> Iterator[Traverser]:
        for traverser in incoming:
            mapping: dict[str, Any] = {}
            for position, name in enumerate(self.names):
                by = (
                    self.by_traversals[position]
                    if position < len(self.by_traversals)
                    else None
                )
                mapping[name] = GroupStep._apply_by(by, traverser, ctx, single=True)
            yield traverser.split(mapping, ctx.track_paths)

    def sub_traversals(self) -> tuple[tuple[str, "Traversal"], ...]:
        return tuple(
            (f"by({name})", by)
            for name, by in zip(self.names, self.by_traversals)
            if hasattr(by, "steps")
        )


class AddVertexStep(Step):
    """``addV(label)`` + property() modulators — inserts through the
    provider (which, for Db2 Graph, issues a SQL INSERT)."""

    def __init__(self, label: str):
        self.label = label
        self.properties: dict[str, Any] = {}

    def process(self, incoming: Iterator[Traverser], ctx: TraversalContext) -> Iterator[Traverser]:
        insert = getattr(ctx.provider, "insert_vertex", None)
        if insert is None:
            raise TraversalError(
                f"{ctx.provider.describe()} does not support vertex insertion"
            )
        started = False
        for traverser in incoming:
            started = True
            yield traverser.split(insert(self.label, dict(self.properties)), ctx.track_paths)
        if not started:
            yield Traverser(insert(self.label, dict(self.properties)))


class AddEdgeStep(Step):
    """``addE(label).from_(v).to(v)`` + property() modulators."""

    def __init__(self, label: str):
        self.label = label
        self.from_vertex: Any = None  # Vertex | id | Traversal | as-label str
        self.to_vertex: Any = None
        self.properties: dict[str, Any] = {}

    def process(self, incoming: Iterator[Traverser], ctx: TraversalContext) -> Iterator[Traverser]:
        insert = getattr(ctx.provider, "insert_edge", None)
        if insert is None:
            raise TraversalError(
                f"{ctx.provider.describe()} does not support edge insertion"
            )
        started = False
        for traverser in incoming:
            started = True
            src = self._resolve(self.from_vertex, traverser, ctx)
            dst = self._resolve(self.to_vertex, traverser, ctx)
            yield traverser.split(insert(self.label, src, dst, dict(self.properties)), ctx.track_paths)
        if not started:
            if self.from_vertex is None or self.to_vertex is None:
                raise TraversalError("addE() at the start requires from_() and to()")
            src = self._resolve(self.from_vertex, None, ctx)
            dst = self._resolve(self.to_vertex, None, ctx)
            yield Traverser(insert(self.label, src, dst, dict(self.properties)))

    @staticmethod
    def _resolve(spec: Any, traverser: Traverser | None, ctx: TraversalContext) -> Any:
        if spec is None:
            if traverser is None or not isinstance(traverser.obj, Vertex):
                raise TraversalError("addE() endpoint unspecified")
            return traverser.obj.id
        if isinstance(spec, Element):
            return spec.id
        if isinstance(spec, str) and traverser is not None and traverser.labels and spec in traverser.labels:
            bound = traverser.labels[spec]
            return bound.id if isinstance(bound, Element) else bound
        if hasattr(spec, "steps"):
            probe = (
                Traverser(traverser.obj, traverser.path, traverser.labels, traverser.loops)
                if traverser is not None
                else Traverser(None)
            )
            result = next(iter(run_steps(spec.steps, [probe], ctx)), None)
            if result is None:
                raise TraversalError("addE() endpoint traversal produced nothing")
            return result.obj.id if isinstance(result.obj, Element) else result.obj
        return spec


class UnionStep(Step):
    def __init__(self, branches: Sequence["Traversal"]):
        self.branches = list(branches)

    def process(self, incoming: Iterator[Traverser], ctx: TraversalContext) -> Iterator[Traverser]:
        for traverser in incoming:
            for branch in self.branches:
                clone = Traverser(traverser.obj, traverser.path, traverser.labels, traverser.loops)
                yield from run_steps(branch.steps, [clone], ctx)

    def sub_traversals(self) -> tuple[tuple[str, "Traversal"], ...]:
        return tuple(
            (f"branch[{i}]", branch) for i, branch in enumerate(self.branches)
        )

    def name(self) -> str:
        return f"Union({len(self.branches)} branches)"


class CoalesceStep(Step):
    """``coalesce(t1, t2, ...)`` — first branch with results wins."""

    def __init__(self, branches: Sequence["Traversal"]):
        self.branches = list(branches)

    def process(self, incoming: Iterator[Traverser], ctx: TraversalContext) -> Iterator[Traverser]:
        for traverser in incoming:
            for branch in self.branches:
                clone = Traverser(traverser.obj, traverser.path, traverser.labels, traverser.loops)
                produced = list(run_steps(branch.steps, [clone], ctx))
                if produced:
                    yield from produced
                    break

    def sub_traversals(self) -> tuple[tuple[str, "Traversal"], ...]:
        return tuple(
            (f"branch[{i}]", branch) for i, branch in enumerate(self.branches)
        )


class RepeatStep(Step):
    """``repeat(body).times(n)`` / ``repeat(body).until(cond)`` with
    optional ``emit()``.  ``until_first`` models ``until().repeat()``
    (while-do) vs ``repeat().until()`` (do-while)."""

    def __init__(
        self,
        body: "Traversal",
        times: int | None = None,
        until: "Traversal | None" = None,
        emit: "bool | Traversal" = False,
        until_first: bool = False,
    ):
        self.body = body
        self.times = times
        self.until = until
        self.emit = emit
        self.until_first = until_first

    def process(self, incoming: Iterator[Traverser], ctx: TraversalContext) -> Iterator[Traverser]:
        current = list(incoming)
        if self.times is None and self.until is None:
            raise TraversalError("repeat() requires times() or until()")
        # A condition that reads element state gets the whole level
        # materialized in one call, not one lazy load per traverser.
        until_reads = _reads_state(self.until)
        checks_read = until_reads or _reads_state(self.emit)
        loop = 0
        while current:
            if self.until is not None and (loop > 0 or self.until_first):
                if until_reads:
                    _materialize(current, ctx)
                continuing: list[Traverser] = []
                for traverser in current:
                    if self._matches(self.until, traverser, ctx):
                        yield traverser
                    else:
                        continuing.append(traverser)
                current = continuing
                if not current:
                    return
            if self.times is not None and loop >= self.times:
                yield from current
                return
            if loop >= _MAX_LOOPS:
                raise TraversalError(f"repeat() exceeded {_MAX_LOOPS} iterations")
            produced = list(run_steps(self.body.steps, current, ctx))
            loop += 1
            for traverser in produced:
                traverser.loops = loop
            if self.emit:
                # emit intermediate traversers, but never ones the loop
                # is about to release anyway (no duplicates)
                final_release = self.until is None and self.times is not None and loop >= self.times
                if not final_release:
                    if checks_read:
                        _materialize(produced, ctx)
                    for traverser in produced:
                        if self.until is not None and self._matches(self.until, traverser, ctx):
                            continue  # the until check will release it
                        if self.emit is True or self._matches(self.emit, traverser, ctx):
                            yield Traverser(
                                traverser.obj, traverser.path, traverser.labels, traverser.loops
                            )
            current = produced

    def _matches(self, condition: "Traversal", traverser: Traverser, ctx: TraversalContext) -> bool:
        probe = Traverser(traverser.obj, traverser.path, traverser.labels, traverser.loops)
        return next(iter(run_steps(condition.steps, [probe], ctx)), None) is not None

    def sub_traversals(self) -> tuple[tuple[str, "Traversal"], ...]:
        subs = [("body", self.body)]
        if self.until is not None and hasattr(self.until, "steps"):
            subs.append(("until", self.until))
        if self.emit is not True and hasattr(self.emit, "steps"):
            subs.append(("emit", self.emit))  # type: ignore[arg-type]
        return tuple(subs)

    def name(self) -> str:
        return f"Repeat(times={self.times}, until={self.until is not None}, emit={bool(self.emit)})"


#: Steps whose first act on a traverser reads its element's label or
#: properties (what materializing a lazy element fetches).
_STATE_READERS = (HasStep, HasNotStep, LabelStep, PropertiesStep, ValueMapStep, ValueTupleStep)


def _reads_state(condition: "bool | Traversal | None") -> bool:
    steps = getattr(condition, "steps", None)
    return bool(steps) and isinstance(steps[0], _STATE_READERS)
