"""``REPRO_BATCH_SIZE``: the one integer environment knob, parsed by
:func:`repro.core.graph_structure.resolve_batch_size` when no explicit
batch size is given.  A malformed value raises; that case is in
``tests/core/test_fanout_units.py::test_resolve_batch_size``."""

from __future__ import annotations

import pytest

from repro.core.graph_structure import (
    BATCH_SIZE_ENV,
    DEFAULT_BATCH_SIZE,
    resolve_batch_size,
)


def test_unset_falls_back(monkeypatch):
    monkeypatch.delenv(BATCH_SIZE_ENV, raising=False)
    assert resolve_batch_size(None) == DEFAULT_BATCH_SIZE


@pytest.mark.parametrize("raw", ["", "   "])
def test_blank_or_malformed_falls_back(monkeypatch, raw):
    # blank means unset
    monkeypatch.setenv(BATCH_SIZE_ENV, raw)
    assert resolve_batch_size(None) == DEFAULT_BATCH_SIZE


@pytest.mark.parametrize("raw,value", [("3", 3), (" 12 ", 12), ("-4", -4), ("0", 0)])
def test_parses_integers(monkeypatch, raw, value):
    # the parsed integer is floored at one traverser per statement
    monkeypatch.setenv(BATCH_SIZE_ENV, raw)
    assert resolve_batch_size(None) == max(1, value)
