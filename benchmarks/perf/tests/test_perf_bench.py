"""Self-tests of the perf benchmark (run by path:
``PYTHONPATH=src python -m pytest benchmarks/perf/tests -q``; not part
of tier-1's ``testpaths``)."""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import time

import pytest

PERF = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(os.path.dirname(PERF))
sys.path.insert(0, PERF)

import run as perf_run  # noqa: E402

perf_run._prepare_environment()

import harness  # noqa: E402
import metrics  # noqa: E402
from spans import SpanRecorder  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def manifest() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory) -> dict:
    """Every workload at smoke scale, untraced and traced, in-process."""
    work = str(tmp_path_factory.mktemp("perf-work"))
    started = time.perf_counter()
    docs = {
        (name, traced): harness.run_workload(
            name, seed=3, traced=traced, scale="smoke", workroot=work
        )
        for name in metrics.WORKLOADS
        for traced in (False, True)
    }
    docs["elapsed"] = time.perf_counter() - started
    return docs


# -- the manifest -------------------------------------------------------------


def test_manifest_is_generated_from_the_registry(manifest):
    assert manifest == metrics.manifest()


def test_manifest_meets_the_contract_limits(manifest):
    assert set(manifest) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert manifest["paths"] == ["benchmarks/perf"]
    assert 2 <= len(manifest["workloads"]) <= 8
    assert 1 <= len(manifest["end_to_end"]) <= 16
    assert 1 <= len(manifest["per_layer"]) <= 128
    assert isinstance(manifest["run_seconds"], int) and 1 <= manifest["run_seconds"] <= 60
    names = []
    for workload in manifest["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in manifest["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
        names.append(metric["name"])
    for metric in manifest["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        names.append(metric["name"])
    for metric in manifest["end_to_end"] + manifest["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    setup = [m for m in manifest["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in manifest["end_to_end"])


def test_registry_names_every_issue_metric():
    assert len(metrics.WORKLOADS) == 6
    assert len(metrics.END_TO_END) == 8
    assert len(metrics.PER_LAYER) == 66
    assert len(metrics.LAYERS) == 16


# -- the smoke run ------------------------------------------------------------


def test_smoke_run_is_quick_and_correct(smoke):
    assert smoke["elapsed"] < 30.0
    for key, doc in smoke.items():
        if key != "elapsed":
            assert doc["failed"] == 0, key
            assert doc["attempted"] >= 1


def test_smoke_run_emits_exactly_the_named_metrics(smoke, manifest):
    end_to_end = {m["name"]: m["unit"] for m in manifest["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in manifest["per_layer"]}
    for name in metrics.WORKLOADS:
        untraced = perf_run.contract_line(smoke[(name, False)])
        assert set(untraced) == {"correct", "attempted", "failed", "metrics"}
        assert {k: v["unit"] for k, v in untraced["metrics"].items()} == end_to_end
        assert all(v["value"] > 0 for v in untraced["metrics"].values())
        traced = perf_run.contract_line(smoke[(name, True)])
        assert {k: v["unit"] for k, v in traced["metrics"].items()} == per_layer
        # the runner's own document: all eight, null only where marked
        full = smoke[(name, False)]["end_to_end"]
        assert set(full) == {m.name for m in metrics.END_TO_END}
        for metric in metrics.END_TO_END:
            value = full[metric.name]
            if metric.universal or metric.name == "failed_ops_share":
                assert value is not None and value["unit"] == metric.unit
        durable = name == "linkbench_mixed_durable"
        assert (full["recovery_s"] is not None) == durable
        assert (full["wal_bytes_per_user_byte"] is not None) == durable


def test_layers_separate_the_workloads(smoke):
    def calls(workload: str, layer: str) -> float:
        return smoke[(workload, True)]["per_layer"][f"{layer}.calls_per_op"]["value"]

    for name in metrics.WORKLOADS:
        assert (calls(name, "cache") > 0) == (name == "linkbench_cached")
        assert (calls(name, "service") > 0) == (name == "service_session")
        for layer in ("durability", "replication"):
            assert (calls(name, layer) > 0) == (name == "linkbench_mixed_durable")
    for layer in metrics.LAYERS:
        assert any(calls(name, layer) > 0 for name in metrics.WORKLOADS), layer


def test_service_session_replays_the_linkbench_read_stream(tmp_path):
    from workloads import REGISTRY, SCALES

    def stream(name: str) -> tuple[str, list]:
        wl = REGISTRY[name](3, SCALES["smoke"], 8.0, str(tmp_path))
        ctx = wl.build(1)
        try:
            wl.make_ops(ctx, 1)
        finally:
            wl.close(ctx)
        return wl.dataset_sha256, wl.ops

    read, service = stream("linkbench_read"), stream("service_session")
    assert read[0] == service[0]
    assert service[1] and service[1] == read[1][:len(service[1])]


def test_same_seed_same_inputs(tmp_path):
    docs = [
        harness.run_workload("linkbench_cached", seed=5, scale="smoke",
                             workroot=str(tmp_path))
        for _ in range(2)
    ]
    other = harness.run_workload("linkbench_cached", seed=6, scale="smoke",
                                 workroot=str(tmp_path))
    assert docs[0]["inputs"] == docs[1]["inputs"]
    assert docs[0]["inputs"]["ops_sha256"] != other["inputs"]["ops_sha256"]


# -- injected faults: the checks can fail -------------------------------------


@pytest.mark.parametrize("workload", ["linkbench_read", "synergy_sql", "analytics_wcc"])
def test_injected_wrong_result_is_counted(tmp_path, workload):
    doc = harness.run_workload(workload, scale="smoke", workroot=str(tmp_path),
                               inject="wrong_result")
    assert doc["failed"] > 0
    assert doc["end_to_end"]["failed_ops_share"]["value"] > 0
    assert perf_run.contract_line(doc)["correct"] is False


def test_injected_lost_write_is_counted(tmp_path):
    doc = harness.run_workload("linkbench_mixed_durable", scale="smoke",
                               workroot=str(tmp_path), inject="lost_write")
    assert doc["detail"]["unrecovered_or_diverged"] == 1
    assert doc["end_to_end"]["failed_ops_share"]["value"] > 0


# -- helpers ------------------------------------------------------------------


def test_percentile_refuses_a_tail_it_cannot_resolve():
    samples = [float(i) for i in range(1000)]
    assert metrics.percentile(samples, 99.0) == 989.0
    assert metrics.percentile(samples, 50.0) == 499.0
    with pytest.raises(metrics.TooFewSamples):
        metrics.percentile(samples[:999], 99.0)
    with pytest.raises(metrics.TooFewSamples):
        metrics.percentile(samples, 99.9)
    with pytest.raises(ValueError):
        metrics.percentile(samples, 100.0)


def test_spread_is_iqr_over_median():
    assert metrics.spread([10.0]) == 0.0
    assert metrics.spread([8.0, 9.0, 10.0, 11.0, 12.0]) == pytest.approx(0.3)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def test_span_self_time_on_a_synthetic_call_tree():
    clock = FakeClock()
    rec = SpanRecorder(clock=clock, keep_ops=10)

    def leaf():
        clock.advance(2.0)

    def produce():
        clock.advance(1.0)
        yield 1
        clock.advance(3.0)
        yield 2

    leaf_w = rec.wrap(leaf, "executor:leaf")
    produce_w = rec.wrap(produce, "graph_structure:produce")

    def middle():
        clock.advance(1.0)
        leaf_w()
        for _item in produce_w():
            clock.advance(10.0)  # the consumer's work between two yields
        leaf_w()
        clock.advance(0.5)

    middle_w = rec.wrap(middle, "sql_dialect:middle")

    def root():
        clock.advance(4.0)
        middle_w()
        middle_w()

    root_w = rec.wrap(root, "gremlin_parser:root")
    rec.enabled = True
    rec.op_id = 0
    root_w()

    rows = rec.by_name()
    # middle: 1 + 2 + (1 + 10 + 3 + 10) + 2 + 0.5 = 29.5 total, 9.5 in children
    assert rows["sql_dialect:middle"] == {"calls": 2, "self_s": 43.0, "total_s": 59.0}
    assert rows["executor:leaf"] == {"calls": 4, "self_s": 8.0, "total_s": 8.0}
    # one call per generator, however many resumptions; only time inside next()
    assert rows["graph_structure:produce"] == {"calls": 2, "self_s": 8.0, "total_s": 8.0}
    assert rows["gremlin_parser:root"] == {"calls": 1, "self_s": 4.0, "total_s": 63.0}
    layers = rec.by_layer()
    assert sum(row["self_s"] for row in layers.values()) == pytest.approx(63.0)

    spans = {s["id"]: s for s in rec.span_dicts()}
    root_span = next(s for s in spans.values() if s["name"] == "gremlin_parser:root")
    assert root_span["parent"] == 0 and root_span["op"] == 0
    for span in spans.values():
        if span["name"] == "executor:leaf":
            assert spans[span["parent"]]["name"] == "sql_dialect:middle"
            assert span["end"] - span["start"] == 2.0


def test_span_recorder_restores_what_it_patched():
    from repro.relational import database, sql_parser
    from repro.relational.executor import Executor

    before = (Executor.run_select, sql_parser.parse_statement, database.parse_statement)
    rec = SpanRecorder()
    rec.install()
    assert Executor.run_select is not before[0]
    assert database.parse_statement is sql_parser.parse_statement is not before[1]
    rec.uninstall()
    assert (Executor.run_select, sql_parser.parse_statement,
            database.parse_statement) == before


# -- compare ------------------------------------------------------------------


def _metric(value: float, spread: float = 0.0) -> dict:
    return {"value": value, "unit": "x", "spread": spread, "samples": [value]}


def test_compare_verdicts():
    ops = metrics.END_TO_END_BY_NAME["ops_per_s"]  # higher is better
    p50 = metrics.END_TO_END_BY_NAME["latency_p50_ms"]  # lower is better
    failed = metrics.END_TO_END_BY_NAME["failed_ops_share"]
    beyond, within = 1.0 + 1.1 * ops.bound, 1.0 + 0.5 * ops.bound
    assert perf_run.verdict(ops, _metric(100), _metric(100 * (2 - beyond)))[0] == "worse"
    assert perf_run.verdict(ops, _metric(100), _metric(100 * beyond))[0] == "better"
    assert perf_run.verdict(ops, _metric(100), _metric(100 * (2 - within)))[0] == "same"
    noisy = _metric(100, spread=1.5 * ops.bound)
    assert perf_run.verdict(ops, noisy, _metric(100 * (2 - within)))[0] == "unresolved"
    assert perf_run.verdict(ops, noisy, _metric(100 * (2 - beyond)))[0] == "worse"
    assert perf_run.verdict(p50, _metric(1.0), _metric(beyond))[0] == "worse"
    assert perf_run.verdict(p50, _metric(1.0), _metric(2 - beyond))[0] == "better"
    assert perf_run.verdict(failed, _metric(0.0), _metric(0.001))[0] == "worse"
    assert perf_run.verdict(failed, _metric(0.0), _metric(0.0))[0] == "same"
    assert perf_run.verdict(p50, None, None)[0] == "same"
    assert "of base 100" in perf_run.verdict(ops, _metric(100), _metric(92))[1]


def test_compare_exits_1_on_a_regression(smoke, tmp_path, capsys):
    base = {"workloads": {"linkbench_read": smoke[("linkbench_read", False)]}}
    slow = json.loads(json.dumps(base))
    slow["workloads"]["linkbench_read"]["end_to_end"]["ops_per_s"]["value"] *= 0.5
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(base))
    b.write_text(json.dumps(slow))
    assert perf_run.main(["compare", str(a), str(a)]) == 0
    assert perf_run.main(["compare", str(a), str(b)]) == 1
    assert "worse" in capsys.readouterr().out


# -- pins ---------------------------------------------------------------------


def test_pins_cover_every_workload_and_a_mismatch_refuses():
    pins = harness.load_pins()
    assert set(pins) == set(metrics.WORKLOADS)

    class Stub:
        name = "linkbench_read"
        dataset_sha256 = "not-the-pinned-dataset"
        pinned = True

        def ops_sha256(self) -> str:
            return pins["linkbench_read"]["ops_sha256"]

    with pytest.raises(harness.PinMismatch):
        harness.check_pins(Stub())
    # another seed or scale is recorded, not pinned
    Stub.pinned = False
    assert harness.check_pins(Stub())["pinned"] is False


# -- the command line, as the driver calls it ---------------------------------


def test_command_line_contract(manifest, tmp_path):
    out = subprocess.run(
        manifest["command"] + ["--workload", "linkbench_read", "--seed", "4",
                               "--seconds", "1", "--trace", "0", "--scale", "smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
        env={**os.environ, "REPRO_CACHE_ENABLED": "1", "REPRO_PARALLELISM": "4"},
    )
    assert out.returncode == 0, out.stderr
    line = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert set(line["metrics"]) == {m["name"] for m in manifest["end_to_end"]}


def test_fails_without_the_product(manifest, tmp_path):
    """In a directory holding only BENCHMARK.json and the files under
    ``paths`` there is nothing to measure: non-zero exit, no result."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        PERF, tmp_path / "benchmarks" / "perf",
        ignore=shutil.ignore_patterns(".work", "__pycache__", ".pytest_cache"),
    )
    out = subprocess.run(
        manifest["command"] + ["--workload", "linkbench_read", "--seed", "1",
                               "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
