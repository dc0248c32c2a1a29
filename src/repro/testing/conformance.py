"""The oracle runner: one scenario, every engine configuration.

:func:`run_scenario` materializes the scenario's relational state,
builds the pure-Python reference graph (:mod:`repro.testing.oracle`),
opens the overlay engine once per :class:`Cell` of the configuration
matrix — {strategies on/off} x {runtime opts on/off} x {batch 1, 64}
x {read cache off/on} x {durable off/on} — and replays the identical
workload on every side:

* traversal chains are checked for multiset-equal results between the
  oracle and every engine cell;
* the optimized batch-1 cell must never issue *more* SQL statements
  than the stripped batch-1 cell for the same chain (trace-derived
  §6.2/§6.3 monotonicity), for chains whose ``V(ids)`` all name
  existing vertices (see :func:`_start_ids_resolve`);
* DML (inside transactions, with commit/rollback) and ``addV``/``addE``
  mutations advance both worlds; after every commit the incrementally
  maintained oracle is cross-validated against a from-scratch rebuild
  of the §5 mapping ("oracle-inconsistency" means the mutation path
  and the mapping disagree);
* ``graphQuery`` table-function SQL runs against the real engine and
  against a shadow database whose ``graphQuery`` is backed by the
  oracle graph, comparing the final (joined/aggregated) row sets;
* cells with ``durable=True`` run against a WAL-logged replica of the
  relational state (``repro.durability``) that is crash-killed and
  reopened mid-workload: the recovered store must map §5-identically
  to the incrementally maintained oracle, and every later traversal
  check runs over the *recovered* database.

A :class:`Divergence` is returned for the first mismatch; ``None``
means the scenario is conformant.  :class:`ScenarioInvalid` is raised
when the *scenario itself* cannot be represented (the shrinker uses it
to reject invalid deletion candidates).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from ..core.db2graph import Db2Graph
from ..core.graph_structure import RuntimeOptimizations
from ..core.table_function import make_graph_query_function
from ..graph.errors import GraphError
from ..graph.gremlin_parser import evaluate_gremlin
from ..graph.memory import InMemoryGraph
from ..graph.traversal import GraphTraversalSource
from ..obs import tracing
from .oracle import OracleError, graphs_equal, materialize_oracle
from .scenario import Scenario, build_database, resolve_overlay
from .workload import apply_chain, normalize_results


class ScenarioInvalid(Exception):
    """The scenario is unrepresentable (NULL ids, dangling endpoints,
    broken DDL...) — a generator/shrinker artifact, not an engine bug."""


@dataclass(frozen=True)
class Cell:
    """One engine configuration of the conformance matrix."""

    optimized: bool
    runtime_on: bool
    batch_size: int
    cache_on: bool = False
    # durable=True: the cell's engine runs over a crash-killed-and-
    # recovered durability replica instead of the shared in-memory db.
    durable: bool = False

    @property
    def name(self) -> str:
        return (
            f"{'opt' if self.optimized else 'noopt'}"
            f"/{'rt' if self.runtime_on else 'nort'}"
            f"/b{self.batch_size}"
            f"{'/cache' if self.cache_on else ''}"
            f"{'/dur' if self.durable else ''}"
        )

    def open(self, db: Any, overlay: dict[str, Any]) -> Db2Graph:
        return Db2Graph.open(
            db,
            overlay,
            optimized=self.optimized,
            runtime_opts=None if self.runtime_on else RuntimeOptimizations.all_off(),
            batch_size=self.batch_size,
            # Explicit True/False so the matrix is deterministic even
            # when a CI leg exports REPRO_CACHE_ENABLED=1.
            cache=self.cache_on,
        )


#: The full {strategies} x {runtime opts} x {batch} x {cache off/on} x
#: {durable off/on} matrix (nightly).
CELL_FULL_MATRIX: tuple[Cell, ...] = tuple(
    Cell(optimized, runtime_on, batch_size, cache_on, durable)
    for optimized in (True, False)
    for runtime_on in (True, False)
    for batch_size in (1, 64)
    for cache_on in (False, True)
    for durable in (False, True)
)

#: The corners used per-seed in CI: both extremes of the optimization
#: space, batch-1 vs batch-64, plus the same two shape corners with the
#: read cache on — a cached engine replays the whole DML-interleaved
#: workload and must stay multiset-identical to the oracle (and hence
#: to every uncached cell).  The batch-1 uncached corners double as the
#: SQL-count monotonicity pair.
CELL_CORNERS: tuple[Cell, ...] = (
    Cell(True, True, 1),
    Cell(False, False, 1),
    Cell(True, True, 64),
    Cell(False, False, 64),
    Cell(True, True, 1, cache_on=True),
    Cell(True, True, 64, cache_on=True),
    # Durability corners: same two shape extremes over a WAL-logged
    # replica that is crash-killed and reopened mid-workload.
    Cell(True, True, 1, durable=True),
    Cell(False, False, 64, durable=True),
)


@dataclass
class Divergence:
    """The first observed disagreement while replaying a scenario."""

    kind: str  # chain | engine-error | graph-sql | sql-monotonicity |
    #            oracle-inconsistency | open-error | crash-recovery
    seed: int
    op_index: int
    cell: str | None = None
    detail: str = ""
    expected: Any = None
    actual: Any = None
    extras: dict[str, Any] = field(default_factory=dict)

    def summary(self) -> str:
        where = f" [{self.cell}]" if self.cell else ""
        return f"{self.kind}{where} at op {self.op_index} (seed {self.seed}): {self.detail}"


def run_scenario(
    scenario: Scenario,
    cells: Sequence[Cell] = CELL_CORNERS,
    check_sql_counts: bool = True,
) -> Divergence | None:
    """Replay ``scenario`` on the oracle and every engine cell."""
    seed = scenario.seed
    try:
        db = build_database(scenario)
        overlay = resolve_overlay(scenario, db)
        shadow_db = build_database(scenario)
    except Exception as exc:  # broken DDL / rows — shrinker artifact
        raise ScenarioInvalid(f"cannot build relational state: {exc}") from exc
    try:
        oracle = materialize_oracle(db, overlay)
    except OracleError as exc:
        raise ScenarioInvalid(str(exc)) from exc

    g_oracle = GraphTraversalSource(oracle)
    shadow_writer = shadow_db.connect("admin")
    shadow_db.register_table_function(
        "graphQuery", make_graph_query_function(_OracleScriptRunner(g_oracle))
    )

    durable: _DurableReplica | None = None
    if any(cell.durable for cell in cells):
        try:
            durable = _DurableReplica(scenario)
        except Exception as exc:
            raise ScenarioInvalid(f"cannot build durable replica: {exc}") from exc

    engines: list[Db2Graph] = []
    try:
        for cell in cells:
            try:
                engines.append(cell.open(durable.db if cell.durable else db, overlay))
            except Exception as exc:
                return Divergence(
                    kind="open-error",
                    seed=seed,
                    op_index=-1,
                    cell=cell.name,
                    detail=f"{type(exc).__name__}: {exc}",
                )
        monotone = _monotonicity_pair(cells) if check_sql_counts else None
        if monotone is not None:
            for index in monotone:
                engines[index].enable_tracing()
        return _replay(
            scenario, db, overlay, oracle, g_oracle,
            shadow_writer, engines, list(cells), monotone, durable,
        )
    finally:
        for engine in engines:
            engine.close()
        if durable is not None:
            durable.cleanup()


class _DurableReplica:
    """The durability-axis replica: the scenario's relational state in a
    WAL-logged database that can be crash-killed and recovered."""

    def __init__(self, scenario: Scenario):
        from ..durability.sim import SimulatedCrash

        self.sim = SimulatedCrash(fsync=False)
        self.db = self.sim.open(enforce_foreign_keys=False)
        for statement in scenario.ddl_statements():
            self.db.execute(statement)
        loader = self.db.connect()
        for table in scenario.tables:
            rows = scenario.rows.get(table.name, [])
            if rows:
                names = [c.lower() for c in table.column_names()]
                loader.insert_rows(
                    table.name, [tuple(r.get(c) for c in names) for r in rows]
                )
        self.writer = self.db.connect("admin")
        self.crashed = False

    def crash_and_recover(
        self,
        oracle: InMemoryGraph,
        overlay: dict[str, Any],
        engines: list[Db2Graph],
        cells: Sequence[Cell],
        seed: int,
        op_index: int,
    ) -> Divergence | None:
        """Hard-kill the replica, crash-recover it, check the recovered
        store against the oracle, and rebuild the durable engines over
        the recovered database."""
        self.crashed = True
        for index, cell in enumerate(cells):
            if cell.durable:
                engines[index].close()
        self.db = self.sim.reopen(enforce_foreign_keys=False)
        self.writer = self.db.connect("admin")
        if not self.db.lock_manager.is_clean():
            return Divergence(
                kind="crash-recovery",
                seed=seed,
                op_index=op_index,
                detail="recovered database has a dirty lock table",
            )
        try:
            rebuilt = materialize_oracle(self.db, overlay)
        except OracleError as exc:
            return Divergence(
                kind="crash-recovery",
                seed=seed,
                op_index=op_index,
                detail=f"recovered store unmappable: {exc}",
            )
        if not graphs_equal(oracle, rebuilt):
            return Divergence(
                kind="crash-recovery",
                seed=seed,
                op_index=op_index,
                detail="recovered graph != oracle after mid-workload crash+reopen",
            )
        for index, cell in enumerate(cells):
            if cell.durable:
                engines[index] = cell.open(self.db, overlay)
        return None

    def cleanup(self) -> None:
        import shutil

        if self.db is not None:
            self.db.close()
        shutil.rmtree(self.sim.dir, ignore_errors=True)


class _OracleScriptRunner:
    """Duck-typed stand-in for Db2Graph inside ``graphQuery``: evaluates
    the Gremlin script on the oracle's traversal source."""

    def __init__(self, g: GraphTraversalSource):
        self._g = g

    def execute(self, script: str) -> Any:
        return evaluate_gremlin(self._g, script)


def _monotonicity_pair(cells: Sequence[Cell]) -> tuple[int, int] | None:
    """(optimized batch-1 index, stripped batch-1 index).

    Cached cells are excluded: a cache hit legitimately skips the
    ``sql.issued`` event, so statement counts are only comparable
    between uncached engines.  Durable cells are excluded too — their
    engine is torn down and rebuilt at the mid-workload crash, which
    would silently discard the tracked recorder.
    """
    opt = stripped = None
    for index, cell in enumerate(cells):
        if cell.batch_size == 1 and not cell.cache_on and not cell.durable:
            if cell.optimized and cell.runtime_on and opt is None:
                opt = index
            if not cell.optimized and not cell.runtime_on and stripped is None:
                stripped = index
    if opt is None or stripped is None:
        return None
    return opt, stripped


def _replay(
    scenario: Scenario,
    db: Any,
    overlay: dict[str, Any],
    oracle: InMemoryGraph,
    g_oracle: GraphTraversalSource,
    shadow_writer: Any,
    engines: list[Db2Graph],
    cells: list[Cell],
    monotone: tuple[int, int] | None,
    durable: "_DurableReplica | None" = None,
) -> Divergence | None:
    seed = scenario.seed
    writer = db.connect("admin")  # DML needs admin (or granted) privileges
    pending_mirrors: list[tuple] = []
    in_txn = False
    # The durability axis crashes the replica at the first consistent
    # point past the workload midpoint (and at the end, if the midpoint
    # fell inside an open transaction).
    crash_after = len(scenario.workload) // 2

    def crash_checkpoint(op_index: int) -> Divergence | None:
        if durable is None or durable.crashed or in_txn or op_index < crash_after:
            return None
        return durable.crash_and_recover(
            oracle, overlay, engines, cells, seed, op_index
        )

    def consistency(op_index: int) -> Divergence | None:
        try:
            rebuilt = materialize_oracle(db, overlay)
        except OracleError as exc:
            raise ScenarioInvalid(f"post-mutation state unrepresentable: {exc}") from exc
        if not graphs_equal(oracle, rebuilt):
            return Divergence(
                kind="oracle-inconsistency",
                seed=seed,
                op_index=op_index,
                detail="incremental oracle != rebuilt §5 mapping after commit",
            )
        return None

    for op_index, op in enumerate(scenario.workload):
        tag = op[0]
        if tag == "chain":
            divergence = _check_chain(
                seed, op_index, op[1], g_oracle, engines, cells, monotone
            )
            if divergence is not None:
                return divergence
        elif tag == "begin":
            writer.begin()
            shadow_writer.begin()
            if durable is not None:
                durable.writer.begin()
            in_txn = True
            pending_mirrors = []
        elif tag == "commit":
            writer.commit()
            shadow_writer.commit()
            if durable is not None:
                durable.writer.commit()
            in_txn = False
            _apply_mirrors(oracle, pending_mirrors)
            pending_mirrors = []
            divergence = consistency(op_index)
            if divergence is not None:
                return divergence
        elif tag == "rollback":
            writer.rollback()
            shadow_writer.rollback()
            if durable is not None:
                durable.writer.rollback()
            in_txn = False
            pending_mirrors = []
        elif tag == "sql":
            _sql_tag, sql, params, mirrors = op[:4]
            try:
                writer.execute(sql, params)
                shadow_writer.execute(sql, params)
                if durable is not None:
                    durable.writer.execute(sql, params)
            except Exception as exc:
                raise ScenarioInvalid(f"workload DML failed: {exc}") from exc
            if in_txn:
                pending_mirrors.extend(mirrors)
            else:
                _apply_mirrors(oracle, mirrors)
                divergence = consistency(op_index)
                if divergence is not None:
                    return divergence
        elif tag == "addv":
            _tag, label, props, mirrors, table, full_row = op
            try:
                traversal = engines[0].traversal().addV(label)
                for key, value in props.items():
                    traversal = traversal.property(key, value)
                traversal.toList()
            except Exception as exc:
                return Divergence(
                    kind="engine-error",
                    seed=seed,
                    op_index=op_index,
                    cell=cells[0].name,
                    detail=f"addV({label!r}): {type(exc).__name__}: {exc}",
                )
            _shadow_insert(shadow_writer, table, full_row)
            _mirror_engine_write(writer, durable, cells, table, full_row)
            _apply_mirrors(oracle, mirrors)
            divergence = consistency(op_index)
            if divergence is not None:
                return divergence
        elif tag == "adde":
            _tag, label, src_id, dst_id, props, mirrors, table, full_row = op
            try:
                traversal = engines[0].traversal().addE(label).from_(src_id).to(dst_id)
                for key, value in props.items():
                    traversal = traversal.property(key, value)
                traversal.toList()
            except Exception as exc:
                return Divergence(
                    kind="engine-error",
                    seed=seed,
                    op_index=op_index,
                    cell=cells[0].name,
                    detail=f"addE({label!r}, {src_id!r}, {dst_id!r}): "
                    f"{type(exc).__name__}: {exc}",
                )
            _shadow_insert(shadow_writer, table, full_row)
            _mirror_engine_write(writer, durable, cells, table, full_row)
            _apply_mirrors(oracle, mirrors)
            divergence = consistency(op_index)
            if divergence is not None:
                return divergence
        elif tag == "graph_sql":
            divergence = _check_graph_sql(
                seed, op_index, op[1], shadow_writer, engines, cells
            )
            if divergence is not None:
                return divergence
        else:
            raise ScenarioInvalid(f"unknown workload op {op!r}")
        divergence = crash_checkpoint(op_index)
        if divergence is not None:
            return divergence
    if durable is not None and not durable.crashed:
        # No consistent point fell past the midpoint (or the workload
        # was empty): still exercise one crash+reopen at the end.
        divergence = durable.crash_and_recover(
            oracle, overlay, engines, cells, seed, len(scenario.workload)
        )
        if divergence is not None:
            return divergence
    return None


def _mirror_engine_write(
    writer: Any,
    durable: "_DurableReplica | None",
    cells: Sequence[Cell],
    table: str,
    full_row: dict[str, Any],
) -> None:
    """An ``addV``/``addE`` mutation ran through ``engines[0]`` and so
    landed in exactly one database; insert the identical row into the
    other replica so both stay §5-equal."""
    primary_durable = bool(cells) and cells[0].durable
    if durable is not None and not primary_durable:
        _shadow_insert(durable.writer, table, full_row)
    if primary_durable:
        _shadow_insert(writer, table, full_row)


def _check_chain(
    seed: int,
    op_index: int,
    chain: list[tuple],
    g_oracle: GraphTraversalSource,
    engines: list[Db2Graph],
    cells: list[Cell],
    monotone: tuple[int, int] | None,
) -> Divergence | None:
    try:
        expected = normalize_results(apply_chain(g_oracle, chain))
    except Exception as exc:
        raise ScenarioInvalid(f"oracle rejected chain {chain!r}: {exc}") from exc
    if not _start_ids_resolve(chain, g_oracle.provider):
        monotone = None
    sql_counts: dict[int, int] = {}
    for index, (engine, cell) in enumerate(zip(engines, cells)):
        tracked = monotone is not None and index in monotone
        if tracked:
            engine.trace.clear()
        try:
            actual = normalize_results(apply_chain(engine.traversal(), chain))
        except Exception as exc:
            return Divergence(
                kind="engine-error",
                seed=seed,
                op_index=op_index,
                cell=cell.name,
                detail=f"{type(exc).__name__}: {exc}",
                extras={"chain": chain},
            )
        if tracked:
            sql_counts[index] = engine.trace.count(tracing.SQL_ISSUED)
        if actual != expected:
            return Divergence(
                kind="chain",
                seed=seed,
                op_index=op_index,
                cell=cell.name,
                detail=f"chain {chain!r}",
                expected=expected,
                actual=actual,
                extras={"chain": chain},
            )
    if monotone is not None:
        opt_index, stripped_index = monotone
        if sql_counts.get(opt_index, 0) > sql_counts.get(stripped_index, 0):
            return Divergence(
                kind="sql-monotonicity",
                seed=seed,
                op_index=op_index,
                cell=cells[opt_index].name,
                detail=(
                    f"optimized engine issued {sql_counts[opt_index]} statements, "
                    f"stripped engine only {sql_counts[stripped_index]} "
                    f"for chain {chain!r}"
                ),
                expected=sql_counts[stripped_index],
                actual=sql_counts[opt_index],
                extras={"chain": chain},
            )
    return None


def _start_ids_resolve(chain: list[tuple], oracle: InMemoryGraph) -> bool:
    """Whether every id of the chain's leading ``V(ids)`` names a vertex:
    the SQL-monotonicity check covers only such chains.

    §6.2's GraphStepVertexStepMutation folds ``V(ids).outE()`` into edge
    probes by endpoint id and, by design, skips the vertex lookup the
    stripped engine issues first (it is the LinkBench ``V(id).outE()``
    path; ``V(ids).out()`` folds the same way).  For an id that names no
    vertex, the stripped engine stops at the empty lookup while the fold
    still probes every edge table whose endpoint could hold the id: more
    statements, though no rule has over-eliminated anything (sweep seed
    2953)."""
    head = chain[0] if chain else ()
    if len(head) < 2 or head[0] != "V":
        return True
    return all(vertex_id in oracle._vertices for vertex_id in head[1])


def _check_graph_sql(
    seed: int,
    op_index: int,
    sql: str,
    shadow_writer: Any,
    engines: list[Db2Graph],
    cells: list[Cell],
) -> Divergence | None:
    try:
        expected = sorted(shadow_writer.execute(sql).rows, key=repr)
    except Exception as exc:
        raise ScenarioInvalid(f"oracle-backed graphQuery failed: {exc}") from exc
    for engine, cell in zip(engines, cells):
        engine.register_table_function("graphQuery")
        try:
            actual = sorted(engine.connection.execute(sql).rows, key=repr)
        except Exception as exc:
            return Divergence(
                kind="engine-error",
                seed=seed,
                op_index=op_index,
                cell=cell.name,
                detail=f"graphQuery SQL failed: {type(exc).__name__}: {exc}",
                extras={"sql": sql},
            )
        if actual != expected:
            return Divergence(
                kind="graph-sql",
                seed=seed,
                op_index=op_index,
                cell=cell.name,
                detail=sql,
                expected=expected,
                actual=actual,
                extras={"sql": sql},
            )
    return None


def _apply_mirrors(oracle: InMemoryGraph, mirrors: Sequence[tuple]) -> None:
    for mirror in mirrors:
        kind = mirror[0]
        try:
            if kind == "add_vertex":
                oracle.add_vertex(mirror[1], mirror[2], mirror[3])
            elif kind == "add_edge":
                oracle.add_edge(
                    mirror[2], mirror[3], mirror[4], mirror[5], edge_id=mirror[1]
                )
            elif kind == "remove_vertex":
                oracle.remove_vertex(mirror[1])
            elif kind == "remove_edge":
                oracle.remove_edge(mirror[1])
            elif kind == "set_vprop":
                oracle.set_vertex_property(mirror[1], mirror[2], mirror[3])
            elif kind == "set_eprop":
                oracle.set_edge_property(mirror[1], mirror[2], mirror[3])
            else:
                raise ScenarioInvalid(f"unknown mirror op {mirror!r}")
        except GraphError as exc:
            # a shrunk candidate can orphan mirrors (e.g. the insert that
            # created this element was deleted) — not a conformance bug
            raise ScenarioInvalid(f"mirror {kind} failed: {exc}") from exc


def _shadow_insert(shadow_writer: Any, table: str, full_row: dict[str, Any]) -> None:
    columns = list(full_row)
    sql = (
        f"INSERT INTO {table} ({', '.join(columns)}) "
        f"VALUES ({', '.join('?' * len(columns))})"
    )
    shadow_writer.execute(sql, [full_row[c] for c in columns])


Checker = Callable[[Scenario], "Divergence | None"]


def make_checker(
    baseline: Divergence, cells: Sequence[Cell] = CELL_CORNERS
) -> Checker:
    """A shrinker predicate: does the candidate still fail *the same
    way*?  Invalid candidates (the shrinker deleted something load-
    bearing) count as "no longer failing" and are reverted."""

    def check(candidate: Scenario) -> Divergence | None:
        try:
            divergence = run_scenario(candidate, cells=cells)
        except ScenarioInvalid:
            return None
        except Exception:
            # a candidate that crashes the harness itself is not "the
            # same failure" — revert the mutation rather than abort
            return None
        if divergence is not None and divergence.kind == baseline.kind:
            return divergence
        return None

    return check
