"""Runs one workload: timed set-ups, a warm-up round, timed rounds,
the oracle check, and (traced) the per-layer derivation.

Load shape: closed loop, one client thread, fixed op counts per round,
value = median over the timed rounds, spread = inter-quartile range
over rounds as a share of the median.  End-to-end numbers always come
from untraced rounds; a traced run adds rounds with the span recorder
installed and reads the product's own counters around them.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import shutil
import statistics
import tempfile
from time import perf_counter
from typing import Any, Callable

from metrics import (
    END_TO_END, LAYERS, PER_LAYER, RUN_SECONDS, TooFewSamples, percentile, spread,
)
from spans import SpanRecorder
from workloads import REGISTRY, SCALES, Raised, Workload, user_bytes

HERE = os.path.dirname(os.path.abspath(__file__))
PINS_PATH = os.path.join(HERE, "pins.json")
DEFAULT_SEED = 1
MIN_ROUNDS = 5
TRACED_ROUNDS = 3
CAPTURE_OPS = 200
NOT_KEPT = 10**9  # op id for spans outside the first CAPTURE_OPS timed ops
COLD_REPEATS = 5


class PinMismatch(RuntimeError):
    """The generated inputs differ from the pinned SHA-256."""


def run_round(wl: Workload, ctx: Any, ops: list, run: Callable, recorder=None,
              first_op_id: int = 0) -> tuple[float, list[float], list]:
    """One closed-loop pass over ``ops``: wall seconds, per-op latencies,
    results (checked by the caller, outside the timed region)."""
    latencies: list[float] = []
    results: list[Any] = []
    clock = perf_counter
    started = clock()
    if recorder is None:
        for op in ops:
            t0 = clock()
            try:
                result = run(ctx, op)
            except Exception as exc:
                result = Raised(exc)
            latencies.append(clock() - t0)
            results.append(result)
    else:
        for op_id, op in enumerate(ops, first_op_id):
            recorder.op_id = op_id
            t0 = clock()
            try:
                result = run(ctx, op)
            except Exception as exc:
                result = Raised(exc)
            latencies.append(clock() - t0)
            results.append(result)
    return clock() - started, latencies, results


class Rounds:
    """One pass (untraced, traced or direct): a warm-up round, then
    timed rounds whose walls and latencies are kept per round."""

    def __init__(self, wl: Workload, run: Callable | None = None, recorder=None,
                 counters: bool = False):
        self.wl = wl
        self.run = run or wl.run_op
        self.recorder = recorder
        self.walls: list[float] = []
        self.latencies: list[list[float]] = []
        self.attempted = 0
        self.failed = 0
        self.timed_user_bytes = 0
        self.timed_writes = 0
        self.warm_up_wall = 0.0
        # product counters summed over this pass's timed chunks alone
        self.counters: dict[str, float] | None = {} if counters else None
        self._next_op_id = 0

    def chunk(self, ctx, ops: list, expected: list, round_index: int | None) -> None:
        """Run ``ops`` as part of round ``round_index`` (None: untimed)."""
        wl = self.wl
        timed = round_index is not None
        recorder = self.recorder
        before = wl.stats(ctx) if timed and self.counters is not None else None
        if recorder is not None:
            recorder.enabled = True
        try:
            wall, latencies, results = run_round(
                wl, ctx, ops, self.run, recorder,
                self._next_op_id if timed else NOT_KEPT,
            )
        finally:
            if recorder is not None:
                recorder.enabled = False
        if before is not None:
            for key, value in wl.stats(ctx).items():
                self.counters[key] = self.counters.get(key, 0) + value - before[key]
        self.attempted += len(ops)
        self.failed += wl.check(ops, results, expected)
        for op, result in zip(ops, results):
            if wl.is_write(op) and not isinstance(result, Raised):
                wl.acked.append(op)
                if timed:
                    self.timed_writes += 1
                    self.timed_user_bytes += user_bytes(op[2])
        if timed:
            self._next_op_id += len(ops)
            self.walls[round_index] += wall
            self.latencies[round_index] += latencies
        else:
            self.warm_up_wall = wall

    def warm_up(self, ctx, index: int, share: float = 1.0) -> None:
        """An untimed (but checked) pass over the first ``share`` of a slice."""
        ops, expected = self.wl.slice(index)
        keep = max(1, int(len(ops) * share))
        self.chunk(ctx, ops[:keep], expected[:keep], None)

    @property
    def ops(self) -> int:
        return sum(len(lat) for lat in self.latencies)

    def ops_per_s(self) -> list[float]:
        return [len(lat) / wall for lat, wall in zip(self.latencies, self.walls)]

    def mean_op_s(self) -> float:
        return sum(self.walls) / self.ops

    def p50_ms(self) -> list[float]:
        return [statistics.median(lat) * 1e3 for lat in self.latencies]

    def p99_ms(self) -> list[float] | None:
        try:
            return [percentile(lat, 99.0) * 1e3 for lat in self.latencies]
        except TooFewSamples:
            return None


def play(passes: list[Rounds], ctx, first: int, count: int,
         after_chunk: Callable[[], None] | None = None) -> None:
    """``count`` timed rounds for each pass, from slice ``first`` on.

    Several passes (untraced / traced / direct) are interleaved unit by
    unit, so they meet the same machine state and their ratios do not
    carry a noisy neighbour's minute.

    A read-only workload replays one slice per round.  A workload that
    writes consumes successive slices of one stream while its tables
    (and MVCC version chains) grow, so contiguous rounds would not be
    exchangeable: a 7-round run drifts 15 % from first round to last.
    Its timed ops are therefore cut into chunks (``Workload.chunk``,
    each with the same mix of op kinds) that are dealt to the passes
    and their rounds in turn, so every round samples the whole run.
    """
    wl = passes[0].wl
    for rounds in passes:
        rounds.walls = [0.0] * count
        rounds.latencies = [[] for _ in range(count)]
    if not wl.writes:
        ops, expected = wl.slice(first)
        for k in range(count):
            for rounds in passes:
                rounds.chunk(ctx, ops, expected, k)
        return
    ops, expected = [], []
    for k in range(count * len(passes)):
        slice_ops, slice_expected = wl.slice(first + k)
        ops += slice_ops
        expected += slice_expected
    size = wl.chunk
    per_slice = -(-wl.ops_per_round // size)
    for j, start in enumerate(range(0, len(ops), size)):
        # shift the deal by one every slice: an event that recurs once
        # per slice (a checkpoint) then visits every pass and round
        rounds = passes[(j + j // per_slice) % len(passes)]
        rounds.chunk(ctx, ops[start:start + size], expected[start:start + size],
                     (j // len(passes)) % count)
        if after_chunk is not None:
            after_chunk()


def rounds_that_fit(warm_up_wall: float, wanted: int, seconds: float) -> int:
    """Safety valve for a box much slower than the one the sizes were
    chosen on: fewer timed rounds, never fewer than MIN_ROUNDS."""
    if warm_up_wall * wanted <= 1.5 * seconds:
        return wanted
    return max(min(MIN_ROUNDS, wanted), int(1.5 * seconds / warm_up_wall))


def _value(samples: list[float] | None, unit: str) -> dict[str, Any] | None:
    if not samples:
        return None
    return {
        "value": statistics.median(samples),
        "unit": unit,
        "spread": spread(samples),
        "samples": list(samples),
    }


def load_pins() -> dict[str, dict[str, str]]:
    if not os.path.exists(PINS_PATH):
        return {}
    with open(PINS_PATH) as f:
        return json.load(f)


def check_pins(wl: Workload) -> dict[str, Any]:
    """The SHA-256 of the generated dataset rows and op stream; for the
    pinned configuration (default seed, full scale, default seconds,
    untraced) they must equal pins.json, or nothing is reported: an
    edit to ``repro.workloads.*`` outside this directory cannot silently
    change the load."""
    inputs = {"dataset_sha256": wl.dataset_sha256, "ops_sha256": wl.ops_sha256()}
    if wl.pinned:
        want = load_pins().get(wl.name)
        if want is not None and want != inputs:
            raise PinMismatch(
                f"{wl.name}: generated inputs differ from pins.json "
                f"(got {inputs}, pinned {want}); an edit outside benchmarks/perf "
                "changed the load — re-pin deliberately with `run.py pin`"
            )
    inputs["pinned"] = wl.pinned
    return inputs


def run_workload(
    name: str,
    seed: int = DEFAULT_SEED,
    seconds: float = RUN_SECONDS,
    traced: bool = False,
    scale: str = "full",
    workroot: str | None = None,
    spans_path: str | None = None,
    inject: str | None = None,
) -> dict[str, Any]:
    """Run one workload in this process; returns its result document."""
    sizes = SCALES[scale]
    workroot = workroot or os.path.join(HERE, ".work")
    os.makedirs(workroot, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=workroot)
    wl = REGISTRY[name](seed, sizes, seconds, workdir)
    wl.pinned = (
        seed == DEFAULT_SEED and scale == "full" and seconds == RUN_SECONDS
        and not traced
    )
    if inject not in (None, "wrong_result", "lost_write"):
        raise ValueError(f"unknown fault {inject!r}")
    wl.inject = inject
    try:
        if traced:
            doc = _run_traced(wl, sizes, spans_path)
        else:
            doc = _run_untraced(wl, sizes, seconds)
    finally:
        gc.unfreeze()
        shutil.rmtree(workdir, ignore_errors=True)
    doc.update(workload=name, seed=seed, scale=scale, seconds=seconds, traced=traced)
    return doc


def _settle() -> None:
    """Full collection, then park the loaded dataset in the permanent
    generation: a gen-2 pass over millions of row objects is a 50-100 ms
    stall unrelated to the layer under test."""
    gc.collect()
    gc.freeze()


def _run_untraced(wl: Workload, sizes, seconds: float) -> dict[str, Any]:
    durable = hasattr(wl, "crash_and_recover")
    n_slices = wl.untraced_slices()
    setup: list[float] = []
    ctx = None
    for _ in range(sizes.builds):
        if ctx is not None:
            wl.close(ctx)
            ctx = None
            gc.collect()
        started = perf_counter()
        ctx = wl.build(n_slices)
        setup.append(perf_counter() - started)
    try:
        wl.make_ops(ctx, n_slices)
        inputs = check_pins(wl)
        _settle()
        rounds = Rounds(wl)
        rounds.warm_up(ctx, 0)
        count = rounds_that_fit(rounds.warm_up_wall, sizes.rounds, seconds)
        if durable:
            # read after the warm-up round: WAL, checkpoint and user bytes
            # all cover the timed rounds alone
            wal_before = wl.stats(ctx)["wal_bytes"]
            wl.new_checkpoint_bytes(ctx)
            written = [0]

            def count_checkpoints() -> None:
                written[0] += wl.new_checkpoint_bytes(ctx)

            play([rounds], ctx, 1, count, after_chunk=count_checkpoints)
        else:
            play([rounds], ctx, 1, count)
        e2e: dict[str, Any] = {
            "setup_s": _value(setup, "s"),
            "ops_per_s": _value(rounds.ops_per_s(), "op/s"),
            "latency_p50_ms": _value(rounds.p50_ms(), "ms"),
            "latency_p99_ms": _value(rounds.p99_ms(), "ms"),
            "recovery_s": None,
            "wal_bytes_per_user_byte": None,
        }
        failed = rounds.failed
        detail: dict[str, Any] = {}
        if durable:
            wal = wl.stats(ctx)["wal_bytes"] - wal_before
            e2e["wal_bytes_per_user_byte"] = _value(
                [(wal + written[0]) / rounds.timed_user_bytes], "ratio"
            )
            rounds.warm_up(ctx, 1 + count, share=0.5)
            recovery = wl.crash_and_recover(ctx)
            e2e["recovery_s"] = _value(recovery["times"], "s")
            failed += recovery["failures"]
            detail = {
                "acked_writes": len(wl.acked),
                "unrecovered_or_diverged": recovery["failures"],
                "recovery_replayed_txns": recovery["replayed_txns"],
                "checkpoint_every": wl.checkpoint_every,
            }
    finally:
        wl.close(ctx)
    e2e["failed_ops_share"] = _value([failed / rounds.attempted], "ratio")
    e2e["peak_rss_mb"] = _value(
        [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0], "MB"
    )
    assert set(e2e) == {m.name for m in END_TO_END}
    return {
        "attempted": rounds.attempted,
        "failed": failed,
        "rounds": len(rounds.walls),
        "ops_per_round": wl.ops_per_round,
        "end_to_end": e2e,
        "detail": detail,
        "inputs": inputs,
    }


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------


def _run_traced(wl: Workload, sizes, spans_path: str | None) -> dict[str, Any]:
    r = min(TRACED_ROUNDS, sizes.rounds)
    recorder = SpanRecorder(keep_ops=CAPTURE_OPS)
    rows_returned = [0]

    def note_rows(result: Any) -> None:
        rows_returned[0] += result.rowcount

    untraced = Rounds(wl)
    traced = Rounds(wl, recorder=recorder, counters=True)
    passes = [untraced, traced]
    direct = None
    if hasattr(wl, "run_direct"):
        direct = Rounds(wl, run=wl.run_direct)
        passes.append(direct)
    n_slices = len(passes) * (1 + r) + 1
    ctx = wl.build(n_slices)
    try:
        wl.make_ops(ctx, n_slices)
        inputs = check_pins(wl)
        _settle()
        # The boundaries stay patched for every pass of this run; a
        # disabled recorder makes each wrapper one attribute test.
        recorder.install(on_result={"executor:run_select": note_rows})
        wl.after_install(ctx)
        recorder.begin_client()
        for index, rounds in enumerate(passes):
            rounds.warm_up(ctx, index)
        recorder.reset()
        rows_returned[0] = 0
        play(passes, ctx, len(passes), r)
        after = wl.stats(ctx)
        layer_rows, name_rows = recorder.by_layer(), recorder.by_name()

        issued = _capture_sql(wl, ctx, n_slices - 1)
        recovery = None
        if hasattr(wl, "crash_and_recover"):
            # spanned too (durability:recover_into shows in by_boundary),
            # but after the per-op rows above were read
            recorder.op_id = NOT_KEPT
            recorder.enabled = True
            try:
                recovery = wl.crash_and_recover(ctx)
            finally:
                recorder.enabled = False
        boundary_rows = recorder.by_name()
        spans = recorder.span_dicts()
        recorder.uninstall()
        cold = _cold_costs(ctx, issued["stream"])
    finally:
        recorder.uninstall()
        wl.close(ctx)

    failed = sum(p.failed for p in passes) + issued["failed"]
    attempted = sum(p.attempted for p in passes) + issued["attempted"]
    if recovery is not None:
        failed += recovery["failures"]

    per_layer = _derive(
        wl, layer_rows, name_rows, traced.counters, after, traced, untraced, direct,
        rows_returned[0], cold, recovery,
    )
    if spans_path:
        with open(spans_path, "w") as f:
            for span in spans:
                f.write(json.dumps(span) + "\n")
    return {
        "attempted": attempted,
        "failed": failed,
        "rounds": len(traced.walls),
        "ops_per_round": wl.ops_per_round,
        "per_layer": per_layer,
        "inputs": inputs,
        "spans_kept": len(spans),
        "cold_replay": cold,
        # the interleaved passes of this very run: what trace.* compare
        "reference": {
            "untraced_mean_op_us": untraced.mean_op_s() * 1e6,
            "traced_mean_op_us": traced.mean_op_s() * 1e6,
        },
        "by_boundary": {
            name: {"calls": row["calls"], "self_us": row["self_s"] * 1e6,
                   "total_us": row["total_s"] * 1e6}
            for name, row in sorted(boundary_rows.items()) if row["calls"]
        },
    }


def _capture_sql(wl: Workload, ctx: Any, index: int) -> dict[str, Any]:
    """Run up to CAPTURE_OPS ops with the product's own tracing on and
    collect the ``sql.issued`` (sql, params) stream, plus the SQL the
    benchmark itself sends."""
    graph = ctx["graph"]
    ops, expected = wl.slice(index)
    ops, expected = ops[:CAPTURE_OPS], expected[:CAPTURE_OPS]
    trace = graph.enable_tracing()
    try:
        _wall, _lat, results = run_round(wl, ctx, ops, wl.run_op)
        stream = [(e.get("sql"), list(e.get("params") or ())) for e in trace.named("sql.issued")]
    finally:
        graph.disable_tracing()
        trace.clear()
    wl.acked += [op for op, result in zip(ops, results)
                 if wl.is_write(op) and not isinstance(result, Raised)]
    return {
        "stream": stream + wl.extra_sql(ops),
        "attempted": len(ops),
        "failed": wl.check(ops, results, expected),
    }


def _cold_costs(ctx: Any, stream: list[tuple[str, list]]) -> dict[str, float]:
    """Cold parse and plan time of the issued statements, replayed
    directly through ``parse_statement`` / ``Planner.plan_select`` —
    the cost a warm prepared cache hides.  Mean per issued statement,
    weighted by how often each distinct text was issued."""
    from repro.relational import sql_ast
    from repro.relational.planner import Planner
    from repro.relational.sql_parser import parse_statement

    if not stream:
        return {"parse_us": 0.0, "plan_us": 0.0, "statements": 0, "distinct": 0}
    database = ctx["database"]
    frequency: dict[str, int] = {}
    for sql, _params in stream:
        frequency[sql] = frequency.get(sql, 0) + 1
    parse_total = plan_total = 0.0
    for sql, count in frequency.items():
        parse_times, plan_times = [], []
        for _ in range(COLD_REPEATS):
            t0 = perf_counter()
            statement = parse_statement(sql)
            t1 = perf_counter()
            if isinstance(statement, (sql_ast.SelectStmt, sql_ast.UnionStmt)):
                Planner(database).plan_select(statement)
                plan_times.append(perf_counter() - t1)
            parse_times.append(t1 - t0)
        parse_total += statistics.median(parse_times) * count
        if plan_times:
            plan_total += statistics.median(plan_times) * count
    n = len(stream)
    return {
        "parse_us": parse_total / n * 1e6,
        "plan_us": plan_total / n * 1e6,
        "statements": n,
        "distinct": len(frequency),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _derive(wl, layer_rows, name_rows, delta, after, traced: Rounds,
            untraced: Rounds, direct: Rounds | None, rows_returned: int,
            cold: dict[str, float], recovery) -> dict[str, dict[str, Any]]:
    """The 66 per-layer metrics: span aggregates and product counters
    (``delta``) of the traced pass's timed chunks; ``after`` for the
    high-water marks, which are not sums."""
    ops = traced.ops
    writes = traced.timed_writes
    values: dict[str, float] = {}
    self_total = 0.0
    for layer in LAYERS:
        row = layer_rows.get(layer, {"calls": 0, "self_s": 0.0})
        calls, self_s = row["calls"], row["self_s"]
        values[f"{layer}.self_us_per_op"] = self_s / ops * 1e6
        values[f"{layer}.calls_per_op"] = calls / ops
        self_total += self_s

    statements = delta["sql_queries"]
    values["sql_dialect.statements_per_op"] = statements / ops
    values["sql_dialect.rows_per_op"] = delta["rows_fetched"] / ops
    values["sql_dialect.batched_ids_per_statement"] = _ratio(
        delta["batched_ids"], delta["batched_statements"])
    values["graph_structure.tables_queried_per_op"] = (
        delta["vertex_table_queries"] + delta["edge_table_queries"]) / ops
    values["graph_structure.tables_eliminated_per_op"] = delta["tables_eliminated"] / ops
    values["graph_structure.vertices_from_edges_per_op"] = delta["vertices_from_edges"] / ops
    hits, misses = delta["statement_cache_hits"], delta["statement_cache_misses"]
    values["prepared.hit_ratio"] = _ratio(hits, hits + misses + delta["unprepared_statements"])
    values["sql_parser.cold_parse_us"] = cold.get("parse_us", 0.0)
    values["planner.cold_plan_us"] = cold.get("plan_us", 0.0)
    selects = name_rows.get("executor:run_select", {"calls": 0})["calls"]
    values["executor.rows_returned_per_statement"] = _ratio(rows_returned, selects)

    cached = bool(after["has_cache"])
    values["cache.hit_ratio"] = _ratio(
        delta["cache_hits"], delta["cache_hits"] + delta["cache_misses"])
    values["cache.evictions_per_op"] = delta["cache_evictions"] / ops
    # the epoch bump is counted by the database whether or not a graph
    # cache listens; report it only where one does
    values["cache.invalidations_per_write"] = (
        _ratio(delta["cache_invalidations"], writes) if cached else 0.0)
    values["cache.bypass_per_op"] = delta["cache_bypass_txn"] / ops
    values["transactions.lock_waits"] = delta["lock_waits"]
    values["transactions.deadlocks"] = delta["deadlocks"]

    values["durability.wal_appends_per_write"] = _ratio(delta["wal_appends"], writes)
    values["durability.wal_flushes_per_write"] = _ratio(delta["wal_flushes"], writes)
    values["durability.wal_bytes_per_write"] = _ratio(delta.get("wal_bytes", 0), writes)
    values["durability.checkpoints_written"] = delta["checkpoints_written"]
    checkpoint = name_rows.get("durability:checkpoint", {"calls": 0, "total_s": 0.0})
    values["durability.checkpoint_ms"] = _ratio(
        checkpoint["total_s"] * 1e3, checkpoint["calls"])
    values["durability.recovery_replayed_txns"] = (
        recovery["replayed_txns"] if recovery is not None else 0)
    values["replication.frames_shipped_per_write"] = _ratio(
        delta.get("log_frames", 0), writes)
    values["replication.retransmits"] = delta["repl_retransmits"]
    values["replication.lag_max"] = after["repl_lag_max"]
    values["service.queue_depth_max"] = after.get("service_queue_depth_max", 0)
    values["service.rejected"] = delta.get("service_rejected", 0)
    values["service.shed"] = delta.get("service_shed", 0)
    values["service.overhead_us_per_op"] = (
        (untraced.mean_op_s() - direct.mean_op_s()) * 1e6 if direct is not None else 0.0)
    analytics = wl.name == "analytics_wcc"
    values["analytics.steps_per_run"] = delta["analytics_steps"] / ops if analytics else 0.0
    values["analytics.statements_per_run"] = statements / ops if analytics else 0.0
    values["analytics.frontier_max"] = after["frontier_max"]
    values["trace.overhead_share"] = 1.0 - _ratio(
        statistics.median(traced.ops_per_s()), statistics.median(untraced.ops_per_s()))
    values["trace.layer_sum_over_e2e"] = _ratio(self_total / ops, untraced.mean_op_s())

    assert set(values) == {m.name for m in PER_LAYER}, (
        set(values) ^ {m.name for m in PER_LAYER})
    return {m.name: {"value": values[m.name], "unit": m.unit} for m in PER_LAYER}
