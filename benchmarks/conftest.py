"""Shared fixtures for the benchmark suite.

Every benchmark module regenerates one table or figure from the
paper's evaluation (§8).  Besides pytest-benchmark's own timing table,
each module writes a paper-style summary to ``benchmarks/results/``
via the ``collector`` fixture.

Scales default to a laptop-friendly shrink of LinkBench-10M/100M; set
``REPRO_LINKBENCH_SMALL`` / ``REPRO_LINKBENCH_LARGE`` to resize.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.bench.harness import build_engines, clear_engine_cache
from repro.workloads.linkbench import LinkBenchConfig

RESULTS_DIR = Path(__file__).parent / "results"


class ResultCollector:
    """Accumulates paper-style report lines and writes them per module."""

    def __init__(self) -> None:
        self._sections: dict[str, list[str]] = {}

    def add(self, section: str, text: str) -> None:
        self._sections.setdefault(section, []).append(text)

    def flush(self) -> None:
        RESULTS_DIR.mkdir(exist_ok=True)
        for section, chunks in self._sections.items():
            path = RESULTS_DIR / f"{section}.txt"
            body = "\n\n".join(chunks) + "\n"
            path.write_text(body)
            print(f"\n===== {section} =====\n{body}")


@pytest.fixture(scope="session")
def collector():
    instance = ResultCollector()
    yield instance
    instance.flush()
    clear_engine_cache()


@pytest.fixture(scope="session")
def small_setup():
    return build_engines(LinkBenchConfig.small())


@pytest.fixture(scope="session")
def large_setup():
    return build_engines(LinkBenchConfig.large())


@pytest.fixture(scope="session")
def small_db2_only():
    config = LinkBenchConfig.small()
    return build_engines(config, include_baselines=False)
