"""Pins the configuration surface: the ``REPRO_*`` environment knobs the
engine reads, the keywords ``Db2Graph.open`` takes, the README knob
table, the knobs and test paths the CI workflow names, that nothing
imports the deleted ``repro.bench`` package, and a ceiling on engine
lines.

A new knob, ``open()`` keyword or engine line must be added here on
purpose; a knob the workflow sets but nothing reads fails instead of
soaking nothing, and a CI step that names a missing test or a deleted
benchmark script fails instead of checking nothing.

Print the line counts the ceiling checks with::

    PYTHONPATH=src python -m tests.test_config_surface
"""

from __future__ import annotations

import inspect
import re
from pathlib import Path

from repro.core import Db2Graph

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "ci.yml"
KNOB = re.compile(r"REPRO_[A-Z_]+")
BENCH_IMPORT = re.compile(r"^\s*(?:from|import)\s+repro\.bench\b", re.MULTILINE)
REPO_PATH = re.compile(r"\b(?:tests|benchmarks)/[\w./-]*\w")

# Benchmark scripts deleted once their checks moved into tests/, and the
# tests CI runs in place of the four that were CI gates.
DELETED_SCRIPTS = {
    f"benchmarks/bench_{name}.py"
    for name in (
        "synergy_workload",
        "service_throughput",
        "replication",
        "analytics",
        "chaos_resilience",
        "cache_hit",
        "parallel_fanout",
        "recovery",
    )
}
MOVED_GATES = {
    "tests/workloads/test_synergy_agreement.py",
    "tests/service/test_service_soak.py",
    "tests/replication/test_replication_bounds.py",
    "tests/analytics/test_repeat_statement_bound.py",
}

KNOBS = {
    "REPRO_BATCH_SIZE",
    "REPRO_CACHE_ENABLED",
    "REPRO_WAL_DIR",
    "REPRO_WAL_FSYNC",
}

OPEN_KEYWORDS = {
    "optimized",
    "runtime_opts",
    "auto_refresh",
    "budget",
    "retry_policy",
    "batch_size",
    "cache",
    "replication",
    "registry",
    "recorder",
}


# Engine lines: src/repro/ without the conformance harness, the baseline
# stores and the workload generators (ROADMAP.md).  The planner split is
# the §6 Graph Structure module, the §6.3 planner and explain().
ENGINE_EXCLUDED = ("testing", "baselines", "workloads")
PLANNER_SPLIT = ("core/graph_structure.py", "core/planning.py", "obs/explain.py")
MAX_ENGINE_LINES = 20_155
MAX_PLANNER_SPLIT_LINES = 1_658


def line_counts() -> tuple[int, int]:
    """``(engine lines, planner-split lines)``."""
    package = ROOT / "src" / "repro"

    def lines(path: Path) -> int:
        return len(path.read_text().splitlines())

    engine = sum(
        lines(path)
        for path in package.rglob("*.py")
        if path.relative_to(package).parts[0] not in ENGINE_EXCLUDED
    )
    return engine, sum(lines(package / name) for name in PLANNER_SPLIT)


def test_engine_lines_stay_under_the_ceiling():
    """A change that adds engine lines raises the ceiling here."""
    engine, split = line_counts()
    assert engine <= MAX_ENGINE_LINES and split <= MAX_PLANNER_SPLIT_LINES, (
        f"engine lines {engine} (ceiling {MAX_ENGINE_LINES}), graph_structure + "
        f"planning + explain {split} (ceiling {MAX_PLANNER_SPLIT_LINES})"
    )


def _knobs_in(paths) -> set[str]:
    return {name for path in paths for name in KNOB.findall(path.read_text())}


def test_engine_reads_exactly_the_documented_knobs():
    assert _knobs_in((ROOT / "src" / "repro").rglob("*.py")) == KNOBS


def test_open_keywords():
    params = inspect.signature(Db2Graph.open).parameters.values()
    keywords = {p.name for p in params if p.kind is inspect.Parameter.KEYWORD_ONLY}
    assert keywords == OPEN_KEYWORDS


def test_readme_knob_table_lists_exactly_the_knobs():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Environment knobs\n", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("| `REPRO_")]
    assert {KNOB.search(row).group() for row in rows} == KNOBS
    assert len(rows) == len(KNOBS)


def test_ci_sets_no_stale_knobs():
    sources = [
        path
        for top in ("src", "tests")
        for path in (ROOT / top).rglob("*.py")
        if path != Path(__file__).resolve()
    ]
    read = _knobs_in(sources)
    workflow = WORKFLOW.read_text()
    assert set(KNOB.findall(workflow)) - read == set()


def _ci_run_commands() -> list[str]:
    """The text of every ``run:`` step, continuation lines included."""
    commands: list[list[str]] = []
    indent = None
    for line in WORKFLOW.read_text().splitlines():
        body = line.lstrip()
        depth = len(line) - len(body)
        if indent is not None and (depth > indent or not body):
            commands[-1].append(body)
            continue
        indent = None
        if body.startswith("run:"):
            indent = depth
            commands.append([body[len("run:"):]])
    return [" ".join(command) for command in commands]


def test_ci_steps_name_existing_tests_and_no_deleted_script():
    named = {path for run in _ci_run_commands() for path in REPO_PATH.findall(run)}
    assert MOVED_GATES <= named
    assert {path for path in named if not (ROOT / path).exists()} == set()
    assert named & DELETED_SCRIPTS == set()


def test_nothing_imports_the_deleted_bench_package():
    """``repro.bench`` is gone: the paper scripts run on
    ``benchmarks/paper.py`` and the load generator lives in
    ``tests/service/loadgen.py``."""
    importers = [
        str(path.relative_to(ROOT))
        for top in ("src", "tests", "benchmarks")
        for path in (ROOT / top).rglob("*.py")
        if BENCH_IMPORT.search(path.read_text())
    ]
    assert importers == []


if __name__ == "__main__":
    engine_lines, split_lines = line_counts()
    print(f"engine lines: {engine_lines}")
    print(f"graph_structure.py + planning.py + obs/explain.py: {split_lines}")
