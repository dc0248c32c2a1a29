"""Shared fixtures for the paper-figure scripts.

Every ``bench_*.py`` module is one test that regenerates one table or
figure from the paper's evaluation (§8), asserts its shape, and writes
it to ``benchmarks/results/`` (see ``paper.py``).

The LinkBench scales are a laptop-friendly shrink of LinkBench-10M/100M:
5,000 and 50,000 vertices (``LinkBenchConfig.small()`` / ``.large()``).
"""

from __future__ import annotations

import pytest

from paper import build_engines, clear_engine_cache
from repro.workloads.linkbench import LinkBenchConfig


@pytest.fixture(scope="session", autouse=True)
def _close_engines():
    yield
    clear_engine_cache()


@pytest.fixture(scope="session")
def small_setup():
    return build_engines(LinkBenchConfig.small())


@pytest.fixture(scope="session")
def large_setup():
    return build_engines(LinkBenchConfig.large())


@pytest.fixture(scope="session")
def small_db2_only():
    return build_engines(LinkBenchConfig.small(), include_baselines=False)
