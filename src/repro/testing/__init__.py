"""Generative overlay-conformance subsystem.

The differential harnesses under ``tests/`` all run over hand-written
schemas and overlays; this package generates the *overlay-config space*
itself (paper §5): random relational schemas with matching overlay
configurations — prefixed ids, fixed and column labels, implicit edge
ids, src/dst table hints, dual vertex+edge tables, views as overlay
members, and AutoOverlay-derived configs from random PK/FK catalogs —
plus consistent data and mixed read/mutation workloads.

An oracle runner applies the identical workload to an
:class:`~repro.graph.memory.InMemoryGraph` (the reference semantics)
and to the overlay engine under the full optimization/batching/cache/
durability matrix, asserting multiset-equal results.  On divergence a minimizing
shrinker deletes tables, rows, and workload steps until a minimal
stand-alone reproduction remains.

Entry points::

    python -m repro.testing.runner --seeds 200          # CI sweep
    python -m repro.testing.runner --inject-bug label-elimination

    from repro.testing import generate_scenario, run_scenario
    divergence = run_scenario(generate_scenario(7))
"""

from .conformance import (
    CELL_CORNERS,
    CELL_FULL_MATRIX,
    Cell,
    Divergence,
    ScenarioInvalid,
    make_checker,
    run_scenario,
)
from .generate import generate_scenario, random_chain, random_graph_sql
from .inject import BUGS, injected_bug
from .oracle import graphs_equal, materialize_oracle, scenario_vocab
from .scenario import Scenario, TableDef, ViewDef, build_database, resolve_overlay
from .shrinker import render_repro, shrink
from .workload import apply_chain, chain_to_gremlin, normalize_results

__all__ = [
    "BUGS",
    "CELL_CORNERS",
    "CELL_FULL_MATRIX",
    "Cell",
    "Divergence",
    "Scenario",
    "ScenarioInvalid",
    "TableDef",
    "ViewDef",
    "apply_chain",
    "build_database",
    "chain_to_gremlin",
    "generate_scenario",
    "graphs_equal",
    "injected_bug",
    "make_checker",
    "materialize_oracle",
    "normalize_results",
    "random_chain",
    "random_graph_sql",
    "render_repro",
    "resolve_overlay",
    "run_scenario",
    "scenario_vocab",
    "shrink",
]
