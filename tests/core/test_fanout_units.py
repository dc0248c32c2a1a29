"""Unit tests for the fan-out's batching helpers: the
``REPRO_BATCH_SIZE`` knob (:mod:`repro.core.graph_structure`) and the
id-chunking that turns a traverser batch into ``IN (...)`` probes
(:mod:`repro.core.planning`).
"""

from __future__ import annotations

import pytest

from repro.core.graph_structure import (
    BATCH_SIZE_ENV,
    DEFAULT_BATCH_SIZE,
    resolve_batch_size,
)
from repro.core.planning import chunked


def test_resolve_batch_size(monkeypatch):
    # unset, blank and integer values: tests/common/test_env.py
    monkeypatch.delenv(BATCH_SIZE_ENV, raising=False)
    assert resolve_batch_size(None) == DEFAULT_BATCH_SIZE
    monkeypatch.setenv(BATCH_SIZE_ENV, "32")
    assert resolve_batch_size(None) == 32
    # an explicit argument wins over the environment
    assert resolve_batch_size(1) == 1
    # a malformed value fails loudly, naming the variable and the value
    for junk in ("8x", "1.5", "junk"):
        monkeypatch.setenv(BATCH_SIZE_ENV, junk)
        with pytest.raises(ValueError, match=f"{BATCH_SIZE_ENV}.*{junk!r}"):
            resolve_batch_size(None)
    assert resolve_batch_size(64) == 64


def test_chunked():
    assert chunked([1, 2, 3, 4, 5], 2) == [[1, 2], [3, 4], [5]]
    assert chunked([1, 2], 10) == [[1, 2]]
    assert chunked([1, 2], 0) == [[1, 2]]
    assert chunked([], 3) == [[]]
