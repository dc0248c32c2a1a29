"""``env_int``: the one resolver behind every integer ``REPRO_*`` knob."""

from __future__ import annotations

import pytest

from repro.common import env_int

NAME = "REPRO_TEST_ENV_INT"


def test_unset_falls_back(monkeypatch):
    monkeypatch.delenv(NAME, raising=False)
    assert env_int(NAME, 7) == 7


@pytest.mark.parametrize("raw", ["", "   ", "junk", "1.5"])
def test_blank_or_malformed_falls_back(monkeypatch, raw):
    monkeypatch.setenv(NAME, raw)
    assert env_int(NAME, 7) == 7


@pytest.mark.parametrize("raw,value", [("3", 3), (" 12 ", 12), ("-4", -4), ("0", 0)])
def test_parses_integers(monkeypatch, raw, value):
    # no clamping here: callers apply their own bounds
    monkeypatch.setenv(NAME, raw)
    assert env_int(NAME, 7) == value
