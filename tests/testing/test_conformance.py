"""The oracle runner: clean sweeps, matrix cells, divergence plumbing."""

from __future__ import annotations

import pytest

from repro.testing import (
    CELL_CORNERS,
    CELL_FULL_MATRIX,
    Cell,
    ScenarioInvalid,
    generate_scenario,
    run_scenario,
)


def test_corner_cells_cover_the_matrix():
    assert len(CELL_FULL_MATRIX) == 32
    assert {(c.optimized, c.runtime_on) for c in CELL_CORNERS} == {
        (True, True),
        (False, False),
    }
    assert {c.batch_size for c in CELL_CORNERS} == {1, 64}
    # Both shape corners are also exercised with the read cache on.
    assert {c.batch_size for c in CELL_CORNERS if c.cache_on} == {1, 64}
    assert {c.cache_on for c in CELL_FULL_MATRIX} == {False, True}
    # The durability axis spans both matrices: crash+reopen corners on
    # PR, every cell durable and not in the nightly full matrix.
    assert {c.batch_size for c in CELL_CORNERS if c.durable} == {1, 64}
    assert {c.durable for c in CELL_FULL_MATRIX} == {False, True}


def test_seed_sweep_is_divergence_free():
    checked = 0
    for seed in range(25):
        try:
            assert run_scenario(generate_scenario(seed)) is None
        except ScenarioInvalid:
            continue
        checked += 1
    assert checked >= 20  # the generator must mostly produce valid seeds


def test_full_matrix_on_one_seed():
    divergence = run_scenario(generate_scenario(3), cells=CELL_FULL_MATRIX)
    assert divergence is None


def test_cell_names_are_stable():
    assert Cell(True, True, 1).name == "opt/rt/b1"
    assert Cell(False, False, 64).name == "noopt/nort/b64"
    assert Cell(True, True, 64, cache_on=True).name == "opt/rt/b64/cache"
    assert Cell(True, True, 1, durable=True).name == "opt/rt/b1/dur"
    assert Cell(True, True, 64, True, True).name == "opt/rt/b64/cache/dur"


def test_cached_cells_replay_dml_interleaved_workloads():
    """A cache-on engine replays the same generated workloads — chains
    interleaved with transactional DML, addV/addE, and rollbacks — and
    must stay multiset-identical to the oracle throughout.  Run the
    cached cells side-by-side with one uncached reference so a
    coherence bug shrinks like any other divergence."""
    cells = (
        Cell(True, True, 1),
        Cell(True, True, 1, cache_on=True),
        Cell(True, True, 64, cache_on=True),
    )
    checked = 0
    for seed in range(15):
        try:
            divergence = run_scenario(
                generate_scenario(seed), cells=cells, check_sql_counts=False
            )
        except ScenarioInvalid:
            continue
        assert divergence is None, divergence.summary()
        checked += 1
    assert checked >= 10


def test_durable_cells_survive_midworkload_crash():
    """The durability axis: a WAL-logged replica is crash-killed and
    recovered mid-workload; the recovered store must stay §5-identical
    to the oracle and every later chain runs over the recovered
    database.  Replayed side-by-side with an in-memory reference cell
    so a recovery bug shrinks like any other divergence."""
    cells = (
        Cell(True, True, 1),
        Cell(True, True, 1, durable=True),
        Cell(False, False, 64, durable=True),
    )
    checked = 0
    for seed in range(15):
        try:
            divergence = run_scenario(
                generate_scenario(seed), cells=cells, check_sql_counts=False
            )
        except ScenarioInvalid:
            continue
        assert divergence is None, divergence.summary()
        checked += 1
    assert checked >= 10


def test_durable_primary_cell_keeps_addv_visible_everywhere():
    """addV/addE run through engines[0]; when that engine is the durable
    one, the mutation must still reach the in-memory database so both
    replicas (and the oracle) stay equal."""
    cells = (
        Cell(True, True, 1, durable=True),
        Cell(True, True, 1),
    )
    checked = 0
    for seed in range(10):
        try:
            divergence = run_scenario(
                generate_scenario(seed), cells=cells, check_sql_counts=False
            )
        except ScenarioInvalid:
            continue
        assert divergence is None, divergence.summary()
        checked += 1
    assert checked >= 6


def test_sql_monotonicity_is_checked():
    """The batch-1 corner pair carries tracing: a scenario replay must
    not report the optimized engine issuing more SQL than the stripped
    one (the §6.3 strategies only ever eliminate statements)."""
    for seed in (0, 1, 2):
        try:
            assert run_scenario(generate_scenario(seed), check_sql_counts=True) is None
        except ScenarioInvalid:
            continue
