"""Deterministic fault injection for chaos testing.

A :class:`FaultInjector` installs on a ``Database`` (all sessions) or a
single ``Connection`` (that session only); the executor consults it at
the top of every statement.  Faults match by table name, absolute
statement count, or seeded probability, and fire a bounded number of
times — which is what makes chaos runs reproducible: same seed, same
schedule of faults, same query results after retry.

Injected errors are fresh exception instances per fire (so per-attempt
``sql.error`` accounting stays 1:1) and carry ``injected = True`` plus,
for the generic ``"error"`` kind, ``transient = True`` so the retry
classifier treats them like real transient failures.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from ..obs import metrics as obs_metrics
from ..obs import tracing
from ..obs.metrics import MetricsRegistry
from ..obs.tracing import NULL_RECORDER, TraceRecorder
from ..relational.errors import DeadlockError, LockTimeoutError

KINDS = ("lock_timeout", "deadlock", "slow", "error")


class InjectedTransientError(Exception):
    """A synthetic transient failure (classified retryable via the
    ``transient`` attribute, not by type)."""

    transient = True
    injected = True


class SimulatedCrashError(Exception):
    """The process "died" at a durability crash point.

    Deliberately NOT transient: a crash is not retryable — the retry
    classifier must let it propagate so the test harness can reopen the
    database through recovery instead of re-running the statement.
    """

    transient = False
    injected = True


@dataclass
class CrashPoint:
    """Fire a simulated crash at the Nth hit of a named program point.

    Crash points are consulted by the durability layer via
    :meth:`FaultInjector.on_point` (``wal.before_flush``,
    ``wal.mid_record``, ``wal.after_flush``, ``checkpoint.mid_write``).
    ``occurrence`` is 1-based and counted per point name *from the
    moment the rule is armed*, which is what makes a crash battery
    enumerable: arm ``occurrence=k`` at open and the run crashes at the
    k-th flush.
    """

    point: str
    occurrence: int = 1
    fired: bool = field(default=False, init=False)
    # Hits of this point already seen when the rule was armed.
    base: int = field(default=0, init=False)


@dataclass
class Fault:
    """One fault rule; ``times=None`` means unlimited fires."""

    kind: str
    table: str | None = None
    at_statement: int | None = None
    times: int | None = 1
    probability: float | None = None
    delay: float = 0.0
    error: Callable[[], BaseException] | None = None
    fired: int = field(default=0, init=False)

    def matches(self, statement_no: int, tables: Sequence[str], rng: random.Random) -> bool:
        if self.times is not None and self.fired >= self.times:
            return False
        if self.at_statement is not None and statement_no != self.at_statement:
            return False
        if self.table is not None and self.table.lower() not in {
            t.lower() for t in tables
        }:
            return False
        if self.probability is not None and rng.random() >= self.probability:
            return False
        return True


class FaultInjector:
    """Seeded statement-level fault source.

    ::

        injector = FaultInjector(seed=7)
        injector.add("lock_timeout", table="knows", times=1)
        injector.add("slow", at_statement=3, delay=0.05)
        db.fault_injector = injector        # or connection.fault_injector

    ``sleep`` is injectable so "slow statement" faults can be simulated
    without real waiting in tests.
    """

    def __init__(self, seed: int = 0, sleep: Callable[[float], None] = time.sleep):
        self.rng = random.Random(seed)
        self.sleep = sleep
        self.faults: list[Fault] = []
        self.crash_points: list[CrashPoint] = []
        self.statements_seen = 0
        self.point_hits: dict[str, int] = {}
        self.fires = 0
        # Statement numbering, rule fire-counts, and the shared rng must
        # stay exact when statements arrive from concurrent sessions.
        self._lock = threading.Lock()

    def add(
        self,
        kind: str,
        table: str | None = None,
        at_statement: int | None = None,
        times: int | None = 1,
        probability: float | None = None,
        delay: float = 0.0,
        error: Callable[[], BaseException] | None = None,
    ) -> Fault:
        if kind not in KINDS:
            raise ValueError(f"unknown fault kind {kind!r}; expected one of {KINDS}")
        fault = Fault(kind, table, at_statement, times, probability, delay, error)
        self.faults.append(fault)
        return fault

    def add_crash(self, point: str, occurrence: int = 1) -> CrashPoint:
        """Arm a simulated crash at the ``occurrence``-th hit of
        ``point`` (see :class:`CrashPoint`)."""
        if occurrence < 1:
            raise ValueError("occurrence is 1-based")
        rule = CrashPoint(point, occurrence)
        with self._lock:
            rule.base = self.point_hits.get(point, 0)
            self.crash_points.append(rule)
        return rule

    def reset(self) -> None:
        self.statements_seen = 0
        self.fires = 0
        self.point_hits.clear()
        for fault in self.faults:
            fault.fired = 0
        for rule in self.crash_points:
            rule.fired = False

    # -- executor hook -------------------------------------------------------

    def on_statement(
        self,
        kind: str,
        tables: Sequence[str],
        registry: MetricsRegistry | None = None,
        trace: TraceRecorder = NULL_RECORDER,
    ) -> None:
        """Called by the executor before running each statement; raises
        the injected error (or sleeps, for ``slow``) when a rule fires."""
        error: BaseException | None = None
        delays: list[float] = []
        with self._lock:
            self.statements_seen += 1
            statement_no = self.statements_seen
            for fault in self.faults:
                if not fault.matches(statement_no, tables, self.rng):
                    continue
                fault.fired += 1
                self.fires += 1
                if registry is not None:
                    registry.counter(obs_metrics.FAULTS_INJECTED).increment()
                trace.emit(
                    tracing.FAULT_INJECTED,
                    kind=fault.kind,
                    table=fault.table,
                    statement=statement_no,
                )
                if fault.kind == "slow":
                    delays.append(fault.delay)
                    continue
                error = self._build_error(fault, statement_no)
                break
        # Sleep/raise outside the lock so a slow fault on one thread
        # doesn't serialize every other session behind the injector.
        for delay in delays:
            self.sleep(delay)
        if error is not None:
            raise error

    # -- durability hook -----------------------------------------------------

    def on_point(
        self,
        point: str,
        registry: MetricsRegistry | None = None,
        trace: TraceRecorder = NULL_RECORDER,
    ) -> bool:
        """Called by the durability layer at each named crash point.

        Returns True when an armed :class:`CrashPoint` fires; the caller
        then reproduces the on-disk state of a crash at that instant and
        raises :class:`SimulatedCrashError`.  Every fire is accounted
        like any other injected fault (``fault.injected`` counter/event)
        so chaos-run bookkeeping stays 1:1.
        """
        with self._lock:
            hits = self.point_hits.get(point, 0) + 1
            self.point_hits[point] = hits
            for rule in self.crash_points:
                if (
                    rule.point != point
                    or rule.fired
                    or hits - rule.base != rule.occurrence
                ):
                    continue
                rule.fired = True
                self.fires += 1
                if registry is not None:
                    registry.counter(obs_metrics.FAULTS_INJECTED).increment()
                trace.emit(
                    tracing.FAULT_INJECTED,
                    kind=f"crash:{point}",
                    table=None,
                    statement=hits,
                )
                return True
        return False

    def _build_error(self, fault: Fault, statement_no: int) -> BaseException:
        # Fresh instance per fire: each retry attempt gets its own
        # exception object, so once-per-instance accounting stays exact.
        where = f"statement #{statement_no}" + (
            f" on {fault.table!r}" if fault.table else ""
        )
        if fault.error is not None:
            error = fault.error()
        elif fault.kind == "lock_timeout":
            error = LockTimeoutError(f"[injected] lock timeout at {where}")
        elif fault.kind == "deadlock":
            error = DeadlockError(f"[injected] deadlock at {where}")
        else:
            error = InjectedTransientError(f"[injected] transient failure at {where}")
        try:
            error.injected = True  # type: ignore[attr-defined]
        except AttributeError:
            pass
        return error

    def __repr__(self) -> str:
        return (
            f"FaultInjector(faults={len(self.faults)}, "
            f"seen={self.statements_seen}, fires={self.fires})"
        )
