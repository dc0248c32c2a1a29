"""Benchmark-side span recorder: wraps the product's public callables
at each layer boundary at run time (no edit under ``src/``).

A span is (id, parent id, ``layer:function`` name, op id, thread,
start, end).  Spans nest on a per-thread stack; a span that starts on a
thread with an empty stack while the client thread has one open (the
service worker running a request the client is waiting for) takes the
client's innermost open span as its parent.  A layer's *self time* is
its spans' duration minus the part covered by child spans.

Aggregates (calls, self seconds, total seconds per name) are kept for
every op; full spans only for the first ``keep_ops`` ops, in memory,
and written out by the runner when the run ends.

Generator functions get one span per resumption (``next()`` call), so
the consumer's work between two yields is not billed to the producer;
only the first resumption counts as a call.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import threading
from time import perf_counter
from typing import Any, Callable

# (module, owner or None for a module-level function, attribute) per layer.
BOUNDARIES: dict[str, list[tuple[str, str | None, str]]] = {
    "gremlin_parser": [
        ("repro.graph.gremlin_parser", "GremlinScriptEvaluator", "evaluate"),
    ],
    "strategies": [("repro.graph.traversal", "Traversal", "compile")],
    "traversal": [
        ("repro.graph.traversal", "Traversal", "toList"),
        ("repro.graph.traversal", "Traversal", "next"),
        ("repro.graph.traversal", "Traversal", "iterate"),
    ],
    "graph_structure": [
        ("repro.core.graph_structure", "OverlayGraph", name)
        for name in (
            "graph_step", "adjacent", "edge_vertex", "load_vertex",
            "bulk_materialize", "load_edge", "insert_vertex", "insert_edge",
        )
    ],
    "sql_dialect": [
        ("repro.core.sql_dialect", "SqlDialect", name)
        for name in ("select", "aggregate_value", "sum_and_count", "build_select", "insert")
    ],
    "cache": [
        ("repro.cache.graph_cache", "GraphCache", name)
        for name in ("lookup_statement", "lookup_group", "lookup_vertex", "store")
    ],
    "prepared": [("repro.relational.database", "Connection", "prepare")],
    "sql_parser": [("repro.relational.sql_parser", None, "parse_statement")],
    "planner": [("repro.relational.planner", "Planner", "plan_select")],
    "executor": [
        ("repro.relational.executor", "Executor", "run_select"),
        ("repro.relational.executor", "Executor", "execute"),
    ],
    "transactions": [
        ("repro.relational.transactions", "Transaction", "commit"),
        ("repro.relational.transactions", "Transaction", "rollback"),
        ("repro.relational.transactions", "RWLock", "acquire_write"),
    ],
    "durability": [
        ("repro.durability.manager", "DurabilityManager", "note_dml"),
        ("repro.durability.manager", "DurabilityManager", "commit_transaction"),
        ("repro.durability.manager", "DurabilityManager", "rollback_transaction"),
        ("repro.durability.manager", "DurabilityManager", "log_ddl"),
        ("repro.durability.manager", "DurabilityManager", "checkpoint"),
        ("repro.durability.recovery", None, "recover_into"),
    ],
    "replication": [
        ("repro.replication.cluster", "ReplicationCluster", name)
        for name in ("ship", "await_acks", "pump")
    ],
    # AdmissionQueue.pop and the dispatcher loop are left unwrapped: they
    # block waiting for work, so their duration is idle time, not cost.
    # The dispatch hand-off shows as self time of GraphSession.run (the
    # part of the wait no worker-side span covers).
    "service": [
        ("repro.service.session", "GraphSession", "run"),
        ("repro.service.session", "GraphSession", "submit"),
        ("repro.service.admission", "AdmissionQueue", "push"),
    ],
    "analytics": [
        ("repro.analytics.algorithms", "GraphAnalytics", "wcc"),
        ("repro.analytics.algorithms", "GraphAnalytics", "bfs"),
        ("repro.analytics.frontier", "FrontierExecutor", "expand"),
        ("repro.analytics.frontier", "FrontierExecutor", "all_vertex_ids"),
    ],
}
# The table function is a closure minted per graph: wrap the factory so
# the callable it returns is spanned.
TABLE_FUNCTION_FACTORY = ("repro.core.table_function", "make_graph_query_function")


class SpanRecorder:
    def __init__(self, clock: Callable[[], float] = perf_counter, keep_ops: int = 200):
        self.clock = clock
        self.keep_ops = keep_ops
        self.enabled = False
        self.op_id = -1
        self.spans: list[tuple] = []
        # name -> [calls, self seconds, total seconds]
        self.agg: dict[str, list[float]] = {}
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._client_stack: list[list] | None = None
        self._client_thread = 0
        self._patches: list[tuple[Any, str, Any]] = []

    # -- recording -----------------------------------------------------------

    def begin_client(self) -> None:
        """Declare the calling thread the (single) client: spans opened
        on other threads while it waits become children of its open span."""
        self._client_stack = self._stack()
        self._client_thread = threading.get_ident()

    def _stack(self) -> list[list]:
        try:
            return self._local.stack
        except AttributeError:
            stack = self._local.stack = []
            return stack

    def _cell(self, name: str) -> list[float]:
        cell = self.agg.get(name)
        if cell is None:
            cell = self.agg[name] = [0, 0.0, 0.0]
        return cell

    def _enter(self, stack: list[list]) -> list:
        # frame: [span id, child seconds, parent frame]
        if stack:
            parent = stack[-1]
        else:
            client = self._client_stack
            parent = (
                client[-1]
                if client and threading.get_ident() != self._client_thread
                else None
            )
        frame = [next(self._ids), 0.0, parent]
        stack.append(frame)
        return frame

    def _exit(self, stack, frame, name, cell, started, ended, count) -> None:
        stack.pop()
        duration = ended - started
        cell[0] += count
        cell[1] += duration - frame[1]
        cell[2] += duration
        parent = frame[2]
        if parent is not None:
            parent[1] += duration
        if self.op_id < self.keep_ops:
            self.spans.append(
                (
                    frame[0],
                    parent[0] if parent is not None else 0,
                    name,
                    self.op_id,
                    threading.get_ident(),
                    started,
                    ended,
                )
            )

    def wrap(self, fn: Callable, name: str, on_result: Callable | None = None) -> Callable:
        """Return ``fn`` wrapped in a span called ``name``."""
        cell = self._cell(name)
        clock = self.clock
        rec = self

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args: Any, **kwargs: Any):
                inner = fn(*args, **kwargs)
                if not rec.enabled:
                    yield from inner
                    return
                count = 1
                try:
                    while True:
                        stack = rec._stack()
                        frame = rec._enter(stack)
                        started = clock()
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            rec._exit(stack, frame, name, cell, started, clock(), count)
                            count = 0
                        yield item
                finally:
                    inner.close()

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any):
            if not rec.enabled:
                return fn(*args, **kwargs)
            stack = rec._stack()
            frame = rec._enter(stack)
            started = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec._exit(stack, frame, name, cell, started, clock(), 1)
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    # -- installation --------------------------------------------------------

    def install(self, on_result: dict[str, Callable] | None = None) -> None:
        """Patch every boundary in :data:`BOUNDARIES` (idempotent per
        recorder; :meth:`uninstall` restores the originals)."""
        import importlib

        on_result = on_result or {}
        for layer, targets in BOUNDARIES.items():
            for module_name, owner_name, attr in targets:
                module = importlib.import_module(module_name)
                name = f"{layer}:{attr}"
                if owner_name is None:
                    self._patch_function(module, attr, name, on_result.get(name))
                else:
                    self._patch_method(
                        getattr(module, owner_name), attr, name, on_result.get(name)
                    )
        module_name, attr = TABLE_FUNCTION_FACTORY
        module = importlib.import_module(module_name)
        factory = getattr(module, attr)
        rec = self

        @functools.wraps(factory)
        def spanned_factory(*args: Any, **kwargs: Any):
            return rec.wrap(factory(*args, **kwargs), "table_function:graph_query")

        self._replace_everywhere(factory, spanned_factory)

    def _patch_method(self, owner: type, attr: str, name: str, on_result) -> None:
        raw = owner.__dict__[attr]
        if isinstance(raw, staticmethod):
            wrapped: Any = staticmethod(self.wrap(raw.__func__, name, on_result))
        else:
            wrapped = self.wrap(raw, name, on_result)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, wrapped)

    def _patch_function(self, module: Any, attr: str, name: str, on_result) -> None:
        original = getattr(module, attr)
        self._replace_everywhere(original, self.wrap(original, name, on_result))

    def _replace_everywhere(self, original: Callable, replacement: Callable) -> None:
        """Module-level functions are imported by name into other
        modules; rebind every ``repro.*`` global that is the original."""
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()
        self.enabled = False

    # -- read-out ------------------------------------------------------------

    def reset(self) -> None:
        for cell in self.agg.values():
            cell[0], cell[1], cell[2] = 0, 0.0, 0.0
        self.spans.clear()

    def by_layer(self) -> dict[str, dict[str, float]]:
        """Calls and self/total seconds summed per layer."""
        out: dict[str, dict[str, float]] = {}
        for name, (calls, self_s, total_s) in self.agg.items():
            layer = name.split(":", 1)[0]
            row = out.setdefault(layer, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            row["calls"] += calls
            row["self_s"] += self_s
            row["total_s"] += total_s
        return out

    def by_name(self) -> dict[str, dict[str, float]]:
        return {
            name: {"calls": calls, "self_s": self_s, "total_s": total_s}
            for name, (calls, self_s, total_s) in self.agg.items()
        }

    def span_dicts(self) -> list[dict[str, Any]]:
        keys = ("id", "parent", "name", "op", "thread", "start", "end")
        return [dict(zip(keys, span)) for span in self.spans]
