"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload as a closed loop with a single client: each operation
starts when the previous one and its check have finished.  The last line
of stdout is one JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics with --trace 0, the per-layer metrics
with --trace 1.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import resource
import statistics
import subprocess
import sys
import tempfile
import time

from common import ROOT, SRC, child_env, min_ops_for_tail, pin_environment

WORKLOADS = {
    "finite-scale": "finite",
    "disk-verdicts": "disk",
    "rep-estimates": "estimates",
    "cli-suite": "clisuite",
}
# set-up and `cli.import_s` are timed this many times per run and reported
# as medians: one import or one build varies by a fifth or more on the
# reference machine
SETUP_RUNS = 11
OUT = ROOT / "perfbench" / "out"
END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
                    "op_tail_ms": "ms", "peak_rss_mb": "MB"}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_s(module):
    """Seconds that `import module` takes in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import %s; "
            "print(time.perf_counter() - t)" % module)
    out = subprocess.run([sys.executable, "-c", code], env=child_env(), capture_output=True,
                         text=True, check=True, cwd=str(ROOT)).stdout
    return float(out)


def setup(workload, seed):
    """Import conjalg and build the workload's inputs with the program's constructors.

    setup_s is the median import time of SETUP_RUNS fresh interpreters plus
    the median time of SETUP_RUNS builds in this one, taken in turns.  The
    benchmark's own tables and matrices are generated once, untimed, before.
    """
    module = importlib.import_module(WORKLOADS[workload])
    raw = module.generate(seed)
    imports, builds = [], []
    for _ in range(SETUP_RUNS):
        imports.append(import_s("conjalg"))
        inputs = None  # so that peak_rss_mb counts one build, not two
        gc.collect()
        start = time.perf_counter()
        inputs = module.construct(raw)
        builds.append(time.perf_counter() - start)
    return module, inputs, statistics.median(imports) + statistics.median(builds)


def run_ops(ops, rounds_needed, seconds, tracer):
    """Whole rounds until both `rounds_needed` and `seconds` are reached.

    A full collection before each operation, untimed, leaves every
    operation the same garbage collector state: it pays for the collections
    its own allocations trigger, not for those the previous one left due.
    """
    stats = {"latencies": [], "by_label": {}, "failed": 0, "wrong": {}, "child_rss_kb": 0}
    start = time.perf_counter()
    rounds = 0
    while rounds < rounds_needed or time.perf_counter() - start < seconds:
        for op in ops:
            if tracer is not None:
                tracer.op = len(stats["latencies"])
            gc.collect()
            t = time.perf_counter()
            try:
                result, why = op.call(), None
            except Exception as exc:  # a failed operation, counted below
                result, why = None, "raised %s: %s" % (type(exc).__name__, exc)
            dt = time.perf_counter() - t
            if why is None:
                try:
                    why = op.check(result)
                except Exception as exc:  # malformed output, e.g. a report without a field
                    why = "check raised %s: %s" % (type(exc).__name__, exc)
            stats["latencies"].append(dt)
            stats["by_label"].setdefault(op.label, []).append(dt)
            stats["child_rss_kb"] = max(stats["child_rss_kb"], getattr(result, "rss_kb", 0))
            if why is not None:
                stats["failed"] += 1
                if why != op.known_fault:
                    stats["wrong"].setdefault(op.label, why)
        rounds += 1
    return stats


def report(stats, metrics):
    return {
        "correct": not stats["wrong"],
        "attempted": len(stats["latencies"]),
        "failed": stats["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def end_to_end(module, stats, setup_s):
    lat = stats["latencies"]
    rss_kb = stats["child_rss_kb"] or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # linear interpolation between order statistics, as numpy's percentile
    percentiles = statistics.quantiles(lat, n=100, method="inclusive")
    values = {
        "setup_s": setup_s,
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_tail_ms": percentiles[module.TAIL_PERCENTILE - 1] * 1e3,
        "peak_rss_mb": rss_kb / 1024.0,
    }
    return {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}


def print_profile(module, stats, file=sys.stderr):
    lat = stats["latencies"]
    print("ops %d, %.2f s inside operations, op_tail_ms is p%g"
          % (len(lat), sum(lat), module.TAIL_PERCENTILE), file=file)
    for label, xs in stats["by_label"].items():
        print("  %-28s n=%-5d median %9.3f ms" % (label, len(xs), statistics.median(xs) * 1e3),
              file=file)
    for label, why in stats["wrong"].items():
        print("WRONG %s: %s" % (label, why), file=file)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "conjalg" / "__init__.py").is_file():
        print("perfbench: no conjalg sources under %s" % SRC, file=sys.stderr)
        return 2
    pin_environment()
    OUT.mkdir(exist_ok=True)
    module, inputs, setup_s = setup(args.workload, args.seed)
    with tempfile.TemporaryDirectory(dir=str(OUT)) as workdir:
        tracer = None
        if args.trace:
            from tracing import Tracer

            tracer = Tracer()
        ops = module.make_ops(inputs, workdir, tracer)
        if tracer is None:
            rounds = math.ceil(min_ops_for_tail(module.TAIL_PERCENTILE) / len(ops))
            stats = run_ops(ops, rounds, args.seconds, None)
            metrics = end_to_end(module, stats, setup_s)
        else:
            tracer.install()
            stats = run_ops(ops, module.TRACE_ROUNDS, 0.0, tracer)
            from tracing import metric_units, per_layer_metrics

            cli_import_s = statistics.median(import_s("conjalg.cli") for _ in range(SETUP_RUNS))
            values = per_layer_metrics(tracer.spans, tracer.cli_walls, cli_import_s)
            units = metric_units()
            metrics = {k: (v, units[k]) for k, v in values.items()}
            trace_file = OUT / ("trace-%s-%d.jsonl" % (args.workload, args.seed))
            tracer.write(trace_file)
            print("traced ops_per_s %.4f; spans in %s; absent: %s"
                  % (len(stats["latencies"]) / sum(stats["latencies"]),
                     trace_file.relative_to(ROOT), ", ".join(tracer.absent) or "none"),
                  file=sys.stderr)
    print_profile(module, stats)
    print(json.dumps(report(stats, metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
