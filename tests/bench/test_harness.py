"""Tests for the paper-figure harness ``benchmarks/paper.py`` (engines,
latency, measured throughput, reporting)."""

import sys
from pathlib import Path

import pytest

from repro.workloads.linkbench import LinkBenchConfig

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "benchmarks"))

from paper import (  # noqa: E402
    build_engines,
    clear_engine_cache,
    format_bytes,
    format_seconds,
    format_table,
    measure_latency,
    measure_throughput,
)


@pytest.fixture(scope="module")
def setup():
    config = LinkBenchConfig(name="bench-test", n_vertices=800, seed=4)
    result = build_engines(config, include_baselines=True, disk_read_latency=0.0)
    yield result
    clear_engine_cache()


class TestBuildEngines:
    def test_three_engines(self, setup):
        assert [e.name for e in setup.engines] == ["Db2 Graph", "GDB-X", "JanusGraph"]

    def test_engines_share_the_dataset(self, setup):
        counts = set()
        for engine in setup.engines:
            counts.add(engine.traversal().V().count().next())
        assert counts == {800}

    def test_setup_is_cached(self, setup):
        again = build_engines(
            LinkBenchConfig(name="bench-test", n_vertices=800, seed=4),
            include_baselines=True,
            disk_read_latency=0.0,
        )
        assert again is setup


class TestLatency:
    def test_measure_latency_fields(self, setup):
        result = measure_latency(
            setup.engines[0], setup.workload, "getNode", iterations=20, warmup=5
        )
        assert result.engine == "Db2 Graph"
        assert result.query == "getNode"
        assert result.samples == 20
        assert 0 < result.mean_seconds < 1
        assert result.p50_seconds <= result.p95_seconds
        assert result.mean_ms == pytest.approx(result.mean_seconds * 1e3)


class TestThroughput:
    def test_measure_throughput_fields(self, setup):
        result = measure_throughput(
            setup.engines[0], setup.workload, "getNode", clients=4, queries_per_client=5
        )
        assert result.queries == 20
        assert result.measured_qps > 0
        assert 0 < result.service_time_seconds < 1


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(["a", "bbbb"], [[1, 2], [333, 4]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bbbb" in lines[1]
        assert len(lines) == 5

    def test_format_bytes(self):
        assert format_bytes(512) == "512.0B"
        assert format_bytes(2048) == "2.0KB"
        assert format_bytes(3 * 1024**2) == "3.0MB"
        assert format_bytes(5 * 1024**3) == "5.0GB"

    def test_format_seconds(self):
        assert format_seconds(5e-5) == "50us"
        assert format_seconds(0.0123) == "12.3ms"
        assert format_seconds(3.5) == "3.50s"
        assert format_seconds(300) == "5.0min"
