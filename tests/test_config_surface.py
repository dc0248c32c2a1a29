"""Pins the configuration surface: the ``REPRO_*`` environment knobs the
engine reads, the keywords ``Db2Graph.open`` takes, the README knob
table, and the knobs the CI workflow sets.

A new knob or ``open()`` keyword must be added here on purpose; a knob
the workflow sets but nothing reads fails instead of soaking nothing.
"""

from __future__ import annotations

import inspect
import re
from pathlib import Path

from repro.core import Db2Graph

ROOT = Path(__file__).resolve().parents[1]
KNOB = re.compile(r"REPRO_[A-Z_]+")

KNOBS = {
    "REPRO_BATCH_SIZE",
    "REPRO_CACHE_ENABLED",
    "REPRO_WAL_DIR",
    "REPRO_WAL_FSYNC",
    "REPRO_LINKBENCH_SMALL",
    "REPRO_LINKBENCH_LARGE",
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
    workflow = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    assert set(KNOB.findall(workflow)) - read == set()
