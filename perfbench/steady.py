"""Steadiness check: repeat each workload over ten seeds.

    python3 perfbench/steady.py

Runs the command of BENCHMARK.json on every workload with seeds 1000 to
1009, one run at a time, and prints for every end-to-end metric the median,
the quartiles and the spread (q3 - q1) / median next to the metric's bound.
A spread above a third of its bound is marked WIDE (the exit code is then
1).  Also prints the share of failed operations, which must be the same in
every run.  All results go to perfbench/out/steady-<time>.json.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time

from common import ROOT

OUT = ROOT / "perfbench" / "out"
RUNS = 10
FIRST_SEED = 1000


def run_once(spec, workload, seed):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    start = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=str(ROOT))
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit("%s seed %d exited %d" % (workload, seed, proc.returncode))
    result = json.loads(proc.stdout.splitlines()[-1])
    result["wall_s"] = wall
    return result


def summary(spec, workload, results):
    print("%s: %d runs, %.0f s each on average" % (
        workload, len(results), statistics.mean(r["wall_s"] for r in results)))
    shares = sorted({"%d/%d" % (r["failed"], r["attempted"]) for r in results})
    fractions = {r["failed"] / r["attempted"] for r in results}
    print("  correct: %s; failed/attempted: %s (%s)" % (
        all(r["correct"] for r in results), ", ".join(shares),
        "one share" if len(fractions) == 1 else "SHARES DIFFER"))
    ok = len(fractions) == 1 and all(r["correct"] for r in results)
    for m in spec["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med
        verdict = "ok" if spread <= m["bound"] / 3 else "WIDE"
        ok = ok and verdict == "ok"
        print("  %-12s median %12.5g  q1 %12.5g  q3 %12.5g  spread %6.3f  bound %.2f  %s"
              % (m["name"], med, q1, q3, spread, m["bound"], verdict))
    return ok


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.stdout.reconfigure(line_buffering=True)
    OUT.mkdir(exist_ok=True)
    everything, ok = {}, True
    for workload in (w["name"] for w in spec["workloads"]):
        results = [run_once(spec, workload, FIRST_SEED + i) for i in range(RUNS)]
        everything[workload] = results
        ok = summary(spec, workload, results) and ok
    path = OUT / time.strftime("steady-%Y%m%d-%H%M%S.json")
    path.write_text(json.dumps(everything, indent=1))
    print("results in %s" % path.relative_to(ROOT))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
