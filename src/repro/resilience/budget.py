"""Query budgets: wall-clock deadlines and resource ceilings.

A Gremlin traversal is a long-running multi-step program that can fan
out (a multi-hop ``out()`` over a dense graph multiplies traversers and
SQL statements).  A :class:`QueryBudget` puts four independent ceilings
on one execution:

* ``deadline_seconds`` — wall clock from the moment execution starts,
* ``max_sql_statements`` — SQL statements issued by the dialect,
* ``max_rows`` — rows materialized from result sets,
* ``max_traversers`` — traversers spawned across all steps.

Budgets are *checked at cancellation checkpoints*: every SQL issue and
every traverser expansion.  Tripping raises
:class:`QueryTimeoutError` / :class:`BudgetExceededError` carrying the
partial-progress snapshot, and emits one ``budget.exceeded`` counter +
trace event (exactly one even if the dying generator stack re-checks).

The clock is injectable so deadline tests never sleep.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Iterator

from ..obs import metrics as obs_metrics
from ..obs import tracing
from ..obs.metrics import MetricsRegistry
from ..obs.tracing import NULL_RECORDER, TraceRecorder
from .errors import BudgetExceededError, QueryTimeoutError


class QueryBudget:
    """Immutable limits; ``tracker()`` mints per-execution state.

    A budget with every field ``None`` is unlimited — threading it
    through costs one attribute check per checkpoint.
    """

    def __init__(
        self,
        deadline_seconds: float | None = None,
        max_sql_statements: int | None = None,
        max_rows: int | None = None,
        max_traversers: int | None = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        for name, value in (
            ("deadline_seconds", deadline_seconds),
            ("max_sql_statements", max_sql_statements),
            ("max_rows", max_rows),
            ("max_traversers", max_traversers),
        ):
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be positive, got {value!r}")
        self.deadline_seconds = deadline_seconds
        self.max_sql_statements = max_sql_statements
        self.max_rows = max_rows
        self.max_traversers = max_traversers
        self.clock = clock

    def tracker(
        self,
        registry: MetricsRegistry | None = None,
        trace: TraceRecorder = NULL_RECORDER,
    ) -> "BudgetTracker":
        return BudgetTracker(self, registry, trace)

    def __repr__(self) -> str:
        limits = {
            "deadline": self.deadline_seconds,
            "sql": self.max_sql_statements,
            "rows": self.max_rows,
            "traversers": self.max_traversers,
        }
        shown = ", ".join(f"{k}={v}" for k, v in limits.items() if v is not None)
        return f"QueryBudget({shown or 'unlimited'})"


class BudgetTracker:
    """Mutable per-execution progress counters + checkpoint logic.

    Progress increments are locked and tripping is first-wins: the
    first checkpoint over a ceiling mints the error (and the single
    counter/trace emission); every later checkpoint — in any thread —
    re-raises that same instance with the same partial-progress
    payload.
    """

    def __init__(
        self,
        budget: QueryBudget,
        registry: MetricsRegistry | None = None,
        trace: TraceRecorder = NULL_RECORDER,
    ):
        self.budget = budget
        self.registry = registry
        self.trace = trace
        self.started = budget.clock()
        self.sql_issued = 0
        self.rows_fetched = 0
        self.traversers_spawned = 0
        self.steps_completed = 0
        self._tripped: QueryTimeoutError | BudgetExceededError | None = None
        self._lock = threading.Lock()

    # -- progress ------------------------------------------------------------

    def progress(self) -> dict[str, Any]:
        return {
            "sql_issued": self.sql_issued,
            "rows_fetched": self.rows_fetched,
            "traversers_spawned": self.traversers_spawned,
            "steps_completed": self.steps_completed,
            "elapsed_seconds": self.budget.clock() - self.started,
        }

    # -- checkpoints ---------------------------------------------------------

    def note_sql(self) -> None:
        """Checkpoint at every SQL statement issue."""
        with self._lock:
            self.sql_issued += 1
            issued = self.sql_issued
        limit = self.budget.max_sql_statements
        if limit is not None and issued > limit:
            self._exceed(
                "max_sql_statements",
                f"query issued more than {limit} SQL statements",
            )
        self.check_deadline()

    def note_rows(self, count: int) -> None:
        with self._lock:
            self.rows_fetched += count
            fetched = self.rows_fetched
        limit = self.budget.max_rows
        if limit is not None and fetched > limit:
            self._exceed("max_rows", f"query materialized more than {limit} rows")

    def note_traverser(self) -> None:
        """Checkpoint at every traverser expansion."""
        with self._lock:
            self.traversers_spawned += 1
            spawned = self.traversers_spawned
        limit = self.budget.max_traversers
        if limit is not None and spawned > limit:
            self._exceed(
                "max_traversers", f"traversal spawned more than {limit} traversers"
            )
        self.check_deadline()

    def check_deadline(self) -> None:
        if self._tripped is not None:
            raise self._tripped
        limit = self.budget.deadline_seconds
        if limit is not None and self.budget.clock() - self.started > limit:
            self._exceed(
                "deadline", f"query exceeded its {limit}s deadline", timeout=True
            )

    def guard(self, stream: Iterator[Any]) -> Iterator[Any]:
        """Wrap a step's traverser stream with expansion checkpoints.

        Mirrors ``Profiler.wrap``: applied around every step output in
        ``run_steps`` so runaway fan-out is caught mid-stream, then
        counts the step as completed when the stream is exhausted.
        """
        for traverser in stream:
            self.note_traverser()
            yield traverser
        self.steps_completed += 1

    # -- tripping ------------------------------------------------------------

    def _exceed(self, reason: str, message: str, timeout: bool = False) -> None:
        # First-wins under the lock: exactly one thread mints the error
        # and the single counter/trace emission; the rest re-raise it.
        with self._lock:
            if self._tripped is None:
                progress = self.progress()
                if self.registry is not None:
                    self.registry.counter(obs_metrics.BUDGET_EXCEEDED).increment()
                self.trace.emit(
                    tracing.BUDGET_EXCEEDED, reason=reason, progress=progress
                )
                cls = QueryTimeoutError if timeout else BudgetExceededError
                self._tripped = cls(
                    f"{message} ({progress})", reason=reason, progress=progress
                )
        raise self._tripped


#: Tracker with no limits — the zero-cost default when no budget is set.
UNLIMITED = QueryBudget()
