"""``repro.bench`` — measurement harness for the paper-figure scripts
(``benchmarks/bench_*.py``: Fig. 4/5/6, Table 2/3 and the two
ablations): latency timing, concurrent-client throughput (measured +
modelled), engine setup fixtures, paper-style table/series reporting,
and the closed/open-loop load generator that
``tests/service/test_service_soak.py`` drives.  The seeded,
oracle-checked benchmark is ``benchmarks/perf/``."""

from .harness import EngineUnderTest, LatencyResult, measure_latency, build_engines
from .concurrency import ThroughputResult, measure_throughput, modelled_throughput
from .load import LoadResult, percentile, run_closed_loop, run_open_loop
from .reporting import format_table, format_bytes, format_seconds, format_phase_breakdown

__all__ = [
    "EngineUnderTest",
    "LatencyResult",
    "measure_latency",
    "build_engines",
    "ThroughputResult",
    "measure_throughput",
    "modelled_throughput",
    "LoadResult",
    "percentile",
    "run_closed_loop",
    "run_open_loop",
    "format_table",
    "format_bytes",
    "format_seconds",
    "format_phase_breakdown",
]
