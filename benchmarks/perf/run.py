#!/usr/bin/env python3
"""The perf benchmark's one command.

    python benchmarks/perf/run.py run [--workload NAME|all] [--seed N]
        [--seconds S] [--trace 0|1 | --traced] [--scale full|smoke] [--out FILE]
    python benchmarks/perf/run.py compare A.json B.json
    python benchmarks/perf/run.py agree [--seed N]
    python benchmarks/perf/run.py render UNTRACED.json TRACED.json
    python benchmarks/perf/run.py pin | manifest

``run`` generates every input from the seed in this process, runs the
workloads (each in a fresh subprocess when more than one is asked for),
checks every result against its oracle, prints every metric by name
with its unit, and ends its standard output with one JSON object
``{"correct", "attempted", "failed", "metrics"}`` — the line the
driver reads (see BENCHMARK.json).  Exit code 1 when any op failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def _prepare_environment() -> None:
    """Clear every REPRO_* knob (several are read at import time, so
    this must precede the first ``import repro``) and put the product
    and the benchmark's own modules on the path."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    src = os.path.join(ROOT, "src")
    for path in (src, HERE):
        if path not in sys.path:
            sys.path.insert(0, path)
    try:
        import repro  # noqa: F401
    except ImportError:
        sys.stderr.write(
            f"perf benchmark: cannot import the product from {src} — "
            "run from a checkout that holds src/repro\n"
        )
        raise SystemExit(2)


def _fix_hash_seed() -> None:
    """Re-execute once with ``PYTHONHASHSEED=0`` (it is read at
    interpreter start): str-keyed dict and set layouts, hence iteration
    orders, exact counts and timings, then repeat from run to run."""
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable] + sys.argv)


def environment() -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit,
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


def contract_line(doc: dict) -> dict:
    """The driver's result object for one workload document."""
    from metrics import END_TO_END

    if doc["traced"]:
        metrics = {
            name: {"value": m["value"], "unit": m["unit"]}
            for name, m in doc["per_layer"].items()
        }
    else:
        metrics = {
            m.name: {"value": doc["end_to_end"][m.name]["value"], "unit": m.unit}
            for m in END_TO_END
            if m.universal
        }
    return {
        "correct": doc["failed"] == 0,
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": metrics,
    }


def print_metrics(doc: dict) -> None:
    print(f"== {doc['workload']} (seed {doc['seed']}, scale {doc['scale']}, "
          f"{'traced' if doc['traced'] else 'untraced'}, {doc['rounds']} rounds x "
          f"{doc['ops_per_round']} ops) ==")
    section = doc["per_layer"] if doc["traced"] else doc["end_to_end"]
    for name, metric in section.items():
        if metric is None:
            print(f"  {name:<46} null")
        elif "spread" in metric:
            print(f"  {name:<46} {metric['value']:>14.6g} {metric['unit']:<6} "
                  f"(spread {metric['spread'] * 100:.2f} % of median)")
        else:
            print(f"  {name:<46} {metric['value']:>14.6g} {metric['unit']}")
    print(f"  attempted {doc['attempted']}  failed {doc['failed']}")


def _child(args: argparse.Namespace, workload: str, out: str) -> int:
    command = [
        sys.executable, os.path.abspath(__file__), "run",
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--scale", args.scale, "--out", out, "--quiet",
    ]
    if args.spans_dir:
        command += ["--spans-dir", args.spans_dir]
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    return subprocess.run(command, env=env, stdout=subprocess.DEVNULL).returncode


def cmd_run(args: argparse.Namespace) -> int:
    from harness import run_workload
    from metrics import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    docs: dict[str, dict] = {}
    if len(names) == 1:
        spans = None
        if args.spans_dir and args.trace:
            os.makedirs(args.spans_dir, exist_ok=True)
            spans = os.path.join(args.spans_dir, f"{names[0]}.spans.jsonl")
        docs[names[0]] = run_workload(
            names[0], seed=args.seed, seconds=args.seconds, traced=bool(args.trace),
            scale=args.scale, spans_path=spans, inject=args.inject,
        )
    else:
        # a fresh process per workload: peak_rss_mb and cache isolation
        work = os.path.join(HERE, ".work")
        os.makedirs(work, exist_ok=True)
        for name in names:
            out = os.path.join(work, f"result-{os.getpid()}-{name}.json")
            code = _child(args, name, out)
            try:
                with open(out) as f:
                    docs[name] = json.load(f)["workloads"][name]
            except (OSError, ValueError, KeyError):
                sys.stderr.write(f"{name}: run failed with exit code {code}\n")
                return code or 1
            finally:
                if os.path.exists(out):
                    os.remove(out)
    document = {"schema": 1, "environment": environment(), "workloads": docs}
    if args.out:
        with open(args.out, "w") as f:
            json.dump(document, f, indent=1, sort_keys=True)
            f.write("\n")
    failed = sum(doc["failed"] for doc in docs.values())
    if not args.quiet:
        for doc in docs.values():
            print_metrics(doc)
        if len(docs) == 1:
            print(json.dumps(contract_line(next(iter(docs.values())))))
        else:
            print(json.dumps({
                "correct": failed == 0,
                "attempted": sum(doc["attempted"] for doc in docs.values()),
                "failed": failed,
                "metrics": {
                    name: contract_line(doc)["metrics"] for name, doc in docs.items()
                },
            }))
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# compare / agree
# ---------------------------------------------------------------------------


def verdict(metric, a: dict | None, b: dict | None) -> tuple[str, str]:
    """(verdict, ratio-with-base text) for one (workload, metric)."""
    if a is None or b is None:
        return ("same" if a is None and b is None else "unresolved"), "-"
    base, new = a["value"], b["value"]
    if metric.bound == 0.0:
        change = new - base
        text = f"{new:.6g} vs base {base:.6g}"
        return ("worse" if change > 0 else "better" if change < 0 else "same"), text
    ratio = new / base if base else float("inf")
    text = f"{ratio:.4f}x of base {base:.6g}"
    gain = ratio - 1.0 if metric.better == "higher" else 1.0 - ratio
    if gain < -metric.bound:
        return "worse", text
    if gain > metric.bound:
        return "better", text
    if max(a["spread"], b["spread"]) > metric.bound:
        return "unresolved", text
    return "same", text


def compare_documents(a: dict, b: dict) -> dict[str, int]:
    """Print one row per (workload, end-to-end metric); returns verdict counts."""
    from metrics import END_TO_END, WORKLOADS

    counts = {"better": 0, "same": 0, "worse": 0, "unresolved": 0}
    header = (f"{'workload':<24}{'metric':<25}{'A median':>12}{'A spread':>10}"
              f"{'B median':>12}{'B spread':>10}  {'B/A':<34}verdict")
    print(header)
    for name in WORKLOADS:
        if name not in a["workloads"] or name not in b["workloads"]:
            continue
        ea = a["workloads"][name].get("end_to_end")
        eb = b["workloads"][name].get("end_to_end")
        if ea is None or eb is None:
            continue
        for metric in END_TO_END:
            ma, mb = ea.get(metric.name), eb.get(metric.name)
            result, text = verdict(metric, ma, mb)
            counts[result] += 1

            def cell(m, key, fmt):
                return format(m[key], fmt) if m is not None else "null"

            print(
                f"{name:<24}{metric.name:<25}{cell(ma, 'value', '.6g'):>12}"
                f"{cell(ma, 'spread', '.2%'):>10}{cell(mb, 'value', '.6g'):>12}"
                f"{cell(mb, 'spread', '.2%'):>10}  {text:<34}{result}"
            )
    print(", ".join(f"{k}: {v}" for k, v in counts.items()))
    return counts


def cmd_compare(args: argparse.Namespace) -> int:
    with open(args.a) as f:
        a = json.load(f)
    with open(args.b) as f:
        b = json.load(f)
    counts = compare_documents(a, b)
    return 1 if counts["worse"] else 0


def exact_counts_differ(a: dict, b: dict) -> list[str]:
    """Exact-count layer metrics that differ between two traced runs."""
    from metrics import PER_LAYER

    out = []
    for name, doc in a["workloads"].items():
        other = b["workloads"].get(name, {})
        if "per_layer" not in doc or "per_layer" not in other:
            continue
        for metric in PER_LAYER:
            if metric.exact and (
                doc["per_layer"][metric.name]["value"]
                != other["per_layer"][metric.name]["value"]
            ):
                out.append(f"{name}:{metric.name}")
    return out


def cmd_agree(args: argparse.Namespace) -> int:
    """Self-consistency gate: two full sets of runs of the same code
    must agree within every metric's own bound, none unresolved, and
    the exact-count layer metrics must be identical."""
    work = os.path.join(HERE, ".work")
    os.makedirs(work, exist_ok=True)
    documents = []
    for trace in (0, 1):
        pair = []
        for tag in ("a", "b"):
            out = os.path.join(work, f"agree-{os.getpid()}-{trace}{tag}.json")
            run_args = argparse.Namespace(
                workload="all", seed=args.seed, seconds=args.seconds, trace=trace,
                scale=args.scale, out=out, quiet=True, spans_dir=None, inject=None,
            )
            code = cmd_run(run_args)
            with open(out) as f:
                pair.append(json.load(f))
            os.remove(out)
            if code:
                print(f"agree: run {trace}{tag} had failed ops", file=sys.stderr)
                return 1
        documents.append(pair)
    counts = compare_documents(*documents[0])
    differing = exact_counts_differ(*documents[1])
    for name in differing:
        print(f"exact count differs between the two traced sets: {name}")
    ok = not counts["worse"] and not counts["better"] and not counts["unresolved"]
    print("agree:", "PASS" if ok and not differing else "FAIL")
    return 0 if ok and not differing else 1


# ---------------------------------------------------------------------------
# render / pin / manifest
# ---------------------------------------------------------------------------

def render_end_to_end(untraced: dict) -> str:
    """Markdown: the end-to-end medians (spread) per workload."""
    from metrics import END_TO_END, WORKLOADS

    names = [name for name in WORKLOADS if name in untraced["workloads"]]
    lines = ["| metric | " + " | ".join(names) + " |", "|---|" + "---:|" * len(names)]
    for metric in END_TO_END:
        cells = []
        for name in names:
            value = untraced["workloads"][name]["end_to_end"][metric.name]
            cells.append("null" if value is None else
                         f"{value['value']:,.4g} ({value['spread']:.1%})")
        lines.append(f"| `{metric.name}` ({metric.unit}) | " + " | ".join(cells) + " |")
    return "\n".join(lines) + "\n"


def render_cost_table(traced: dict) -> str:
    """Markdown: where the time of an op goes, layer by layer."""
    from metrics import LAYERS, WORKLOADS

    names = [name for name in WORKLOADS if name in traced["workloads"]]

    def layers(name: str) -> dict:
        return traced["workloads"][name]["per_layer"]

    def self_us(name: str, layer: str) -> float:
        return layers(name)[f"{layer}.self_us_per_op"]["value"]

    totals = {name: sum(self_us(name, layer) for layer in LAYERS) for name in names}
    lines = [
        "| layer (self time, us/op) | " + " | ".join(names) + " |",
        "|---|" + "---:|" * len(names),
    ]
    for layer in LAYERS:
        cells = [
            f"{self_us(n, layer):,.1f} ({self_us(n, layer) / totals[n]:.0%})"
            if self_us(n, layer) else "0"
            for n in names
        ]
        lines.append(f"| `{layer}` | " + " | ".join(cells) + " |")

    def row(label: str, cell) -> None:
        lines.append(f"| {label} | " + " | ".join(cell(name) for name in names) + " |")

    row("**sum of layers**", lambda n: f"{totals[n]:,.1f}")
    row("untraced mean op time, same run (us)", lambda n: "{:,.1f}".format(
        traced["workloads"][n]["reference"]["untraced_mean_op_us"]))
    for name in ("trace.layer_sum_over_e2e", "trace.overhead_share"):
        row(f"`{name}`", lambda n, name=name: f"{layers(n)[name]['value']:.3f}")
    return "\n".join(lines) + "\n"


def cmd_render(args: argparse.Namespace) -> int:
    with open(args.untraced) as f:
        untraced = json.load(f)
    with open(args.traced) as f:
        traced = json.load(f)
    print("End-to-end, median over rounds (inter-quartile spread):\n")
    print(render_end_to_end(untraced))
    print("Where an op's time goes (traced run):\n")
    print(render_cost_table(traced))
    return 0


def cmd_pin(args: argparse.Namespace) -> int:
    """Recompute pins.json (default seed, full scale) from the inputs
    the current tree generates.  Deliberate: it redefines the load."""
    import shutil
    import tempfile

    from harness import DEFAULT_SEED, PINS_PATH
    from metrics import RUN_SECONDS
    from workloads import REGISTRY, SCALES

    pins = {}
    work = os.path.join(HERE, ".work")
    os.makedirs(work, exist_ok=True)
    for name, cls in REGISTRY.items():
        workdir = tempfile.mkdtemp(prefix="pin-", dir=work)
        try:
            wl = cls(DEFAULT_SEED, SCALES["full"], RUN_SECONDS, workdir)
            ctx = wl.build(wl.untraced_slices())
            try:
                wl.make_ops(ctx, wl.untraced_slices())
            finally:
                wl.close(ctx)
            pins[name] = {"dataset_sha256": wl.dataset_sha256,
                          "ops_sha256": wl.ops_sha256()}
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    with open(PINS_PATH, "w") as f:
        json.dump(pins, f, indent=1, sort_keys=True)
        f.write("\n")
    print(json.dumps(pins, indent=1, sort_keys=True))
    return 0


def cmd_manifest(args: argparse.Namespace) -> int:
    from metrics import manifest

    print(json.dumps(manifest(), indent=1))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def run_options(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed", type=int, default=1)
        p.add_argument("--seconds", type=float, default=None,
                       help="timed work per workload (scales ops per round)")
        p.add_argument("--scale", choices=("full", "smoke"), default="full")

    run = sub.add_parser("run")
    run.add_argument("--workload", default="all")
    run_options(run)
    run.add_argument("--trace", type=int, choices=(0, 1), default=0)
    run.add_argument("--traced", dest="trace", action="store_const", const=1)
    run.add_argument("--out")
    run.add_argument("--spans-dir", help="write the kept spans here (traced runs)")
    run.add_argument("--inject", choices=("wrong_result", "lost_write"),
                     help="self-test: make the named check fail")
    run.add_argument("--quiet", action="store_true")
    run.set_defaults(fn=cmd_run)

    compare = sub.add_parser("compare")
    compare.add_argument("a")
    compare.add_argument("b")
    compare.set_defaults(fn=cmd_compare)

    agree = sub.add_parser("agree")
    run_options(agree)
    agree.set_defaults(fn=cmd_agree)

    render = sub.add_parser("render")
    render.add_argument("untraced")
    render.add_argument("traced")
    render.set_defaults(fn=cmd_render)

    sub.add_parser("pin").set_defaults(fn=cmd_pin)
    sub.add_parser("manifest").set_defaults(fn=cmd_manifest)

    args = parser.parse_args(argv)
    _prepare_environment()
    from metrics import RUN_SECONDS, WORKLOADS

    if getattr(args, "seconds", 0) is None:
        args.seconds = float(RUN_SECONDS)
    if args.command == "run" and args.workload != "all" and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {list(WORKLOADS)}")
    return args.fn(args)


if __name__ == "__main__":
    if len(sys.argv) > 1 and sys.argv[1] == "run":
        _fix_hash_seed()
    sys.exit(main())
