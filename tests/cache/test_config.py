"""Unit tests for cache configuration and the ``REPRO_CACHE_ENABLED`` knob."""

from __future__ import annotations

import pytest

from repro.cache import CacheConfig, ENABLED_ENV, resolve_cache_config


def test_defaults():
    config = CacheConfig()
    assert config.statement_capacity == 512
    assert config.row_capacity == 2048
    assert config.stripes == 8


@pytest.mark.parametrize(
    "kwargs",
    [
        {"statement_capacity": 0},
        {"statement_capacity": -1},
        {"row_capacity": 0},
        {"stripes": 0},
        {"stripes": -4},
    ],
)
def test_invalid_capacities_rejected(kwargs):
    with pytest.raises(ValueError):
        CacheConfig(**kwargs)


def test_resolve_false_is_always_off(monkeypatch):
    monkeypatch.setenv(ENABLED_ENV, "1")
    assert resolve_cache_config(False) is None


def test_resolve_none_follows_environment(monkeypatch):
    monkeypatch.delenv(ENABLED_ENV, raising=False)
    assert resolve_cache_config(None) is None
    for truthy in ("1", "true", "YES", " on "):
        monkeypatch.setenv(ENABLED_ENV, truthy)
        assert resolve_cache_config(None) == CacheConfig()
    for falsy in ("", "0", "false", "off", "nope"):
        monkeypatch.setenv(ENABLED_ENV, falsy)
        assert resolve_cache_config(None) is None


def test_resolve_true_uses_default_capacities(monkeypatch):
    monkeypatch.delenv(ENABLED_ENV, raising=False)
    assert resolve_cache_config(True) == CacheConfig()


def test_resolve_explicit_config_wins(monkeypatch):
    monkeypatch.setenv(ENABLED_ENV, "0")
    explicit = CacheConfig(statement_capacity=3, row_capacity=5, stripes=1)
    assert resolve_cache_config(explicit) is explicit


def test_resolve_rejects_other_types():
    with pytest.raises(TypeError):
        resolve_cache_config(42)
