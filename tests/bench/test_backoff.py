"""The load generator honors ``retry_after``: capped exponential
backoff on admission rejections *and* deadline sheds, streak reset on
completion, and honest accounting in the result — pinned both at the
:func:`backoff_delay` math level and through ``run_closed_loop`` with a
scripted service and an injected ``sleep``.
"""

from __future__ import annotations

import pytest

from repro.resilience.retry import is_transient
from repro.service.errors import AdmissionRejectedError, RequestShedError

from ..service.loadgen import LoadResult, backoff_delay, run_closed_loop


# -- the math ----------------------------------------------------------------


def test_backoff_seeds_from_the_service_hint():
    assert backoff_delay(0.05, 1) == pytest.approx(0.05)


def test_backoff_doubles_per_consecutive_failure():
    assert backoff_delay(0.02, 2) == pytest.approx(0.04)
    assert backoff_delay(0.02, 3) == pytest.approx(0.08)


def test_backoff_caps_at_max():
    assert backoff_delay(0.1, 10) == 0.25
    assert backoff_delay(0.1, 10, max_backoff=1.5) == 1.5
    assert backoff_delay(10.0, 1) == 0.25  # even the first wait is capped


def test_zero_hint_still_yields():
    # A cold drain-rate estimate reports 0.0; the client must not spin.
    assert backoff_delay(0.0, 1) == pytest.approx(1e-3)
    assert backoff_delay(0.0, 3) == pytest.approx(4e-3)


def test_streak_reset_is_callers_job():
    # consecutive=1 after a completion starts the ladder over.
    assert backoff_delay(0.02, 1) == backoff_delay(0.02, 1)


def test_shed_errors_are_transient_and_carry_the_hint():
    exc = RequestShedError("shed", queued_seconds=0.2, retry_after=0.07)
    assert is_transient(exc)
    assert exc.retry_after == 0.07


# -- through run_closed_loop -------------------------------------------------


class ScriptedSession:
    """One client session whose run() outcomes follow a script, then
    succeed; 'reject'/'shed' raise with the scripted retry_after."""

    def __init__(self, script):
        self.script = list(script)
        self.runs = 0

    def run(self, work, timeout=None):
        self.runs += 1
        if self.script:
            kind, retry_after = self.script.pop(0)
            if kind == "reject":
                raise AdmissionRejectedError("queue full", retry_after=retry_after)
            if kind == "shed":
                raise RequestShedError(
                    "deadline expired queued", retry_after=retry_after
                )
        return "ok"

    def close(self, timeout=None):
        pass


class ScriptedService:
    def __init__(self, script):
        self.script = script
        self.sessions = []

    def open_session(self):
        session = ScriptedSession(self.script)
        self.sessions.append(session)
        return session


def _run(script, **kwargs):
    sleeps = []
    service = ScriptedService(script)
    result = run_closed_loop(
        service,
        work=lambda s: None,
        n_sessions=1,
        duration_seconds=0.05,
        warmup_requests=0,
        sleep=sleeps.append,
        **kwargs,
    )
    return result, sleeps


def test_closed_loop_backs_off_on_reject_and_shed():
    # Three consecutive backpressure responses: the waits double from
    # each hint; a completion then resets the streak, so the final
    # rejection waits its plain hint again.
    result, sleeps = _run(
        [("reject", 0.02), ("shed", 0.02), ("reject", 0.02)]
        + [(None, 0)]  # a completion resets the streak
        + [("shed", 0.03)]
    )
    assert result.rejected == 2 and result.shed == 2
    assert result.backoffs == 4
    assert sleeps[:4] == [
        pytest.approx(0.02),  # streak 1: the hint itself
        pytest.approx(0.04),  # streak 2: doubled
        pytest.approx(0.08),  # streak 3: doubled again
        pytest.approx(0.03),  # fresh streak after the completion
    ]
    assert result.backoff_seconds == pytest.approx(sum(sleeps))
    assert result.completed > 0


def test_closed_loop_caps_the_ladder():
    result, sleeps = _run([("reject", 0.1)] * 5, max_backoff=0.25)
    assert result.backoffs == 5
    assert sleeps[:5] == [
        pytest.approx(0.1),
        pytest.approx(0.2),
        pytest.approx(0.25),  # capped
        pytest.approx(0.25),
        pytest.approx(0.25),
    ]


def test_backoffs_surface_in_the_summary():
    result, _ = _run([("reject", 0.02)])
    summary = result.summary()
    assert summary["backoffs"] == 1
    assert summary["rejected"] == 1
    assert isinstance(LoadResult("closed", 1, 1.0).summary()["backoffs"], int)
