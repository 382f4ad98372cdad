"""cli-suite: `python -m conjalg.cli` subprocesses, one at a time.

A round calls every subcommand once on small generated inputs, plus
`verify-suite --quick` once for each of two seeds; its stdout for one seed
must be byte-identical from round to round.  Every call must exit 0 and
print one JSON document whose answer the benchmark can confirm.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np

from conjalg import FiniteDynSys, MobiusMap, SkewPoly, relabel

import disk
import estimates
import finite
from common import ROOT, Op, child_env

# The two suite calls are the slowest, 2 of 13: p90 falls about a third of
# the way into their samples, clear of the small calls below them.
TAIL_PERCENTILE = 90
# two rounds, so that the traced run also compares the suite's stdout
# between two calls with one seed
TRACE_ROUNDS = 2

# fixed, so that the suite's own call counts repeat in every traced run
SUITE_SEEDS = (20240901, 7)
TRACED_CLI = ROOT / "perfbench" / "traced_cli.py"


@dataclass
class CliResult:
    code: int
    stdout: bytes
    rss_kb: int


class CliRunner:
    """Runs one `conj` call; with a tracer, the call's spans join the tracer's."""

    def __init__(self, workdir, tracer=None):
        self.workdir = workdir
        self.tracer = tracer
        self.env = child_env()

    def __call__(self, *args):
        span_file = os.path.join(self.workdir, "spans.json")
        if self.tracer is None:
            argv = [sys.executable, "-m", "conjalg.cli", *args]
        else:
            argv = [sys.executable, str(TRACED_CLI), span_file, *args]
        start = time.perf_counter()
        with open(os.path.join(self.workdir, "stderr.txt"), "wb") as err:
            proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err,
                                    env=self.env, cwd=str(ROOT))
            out = proc.stdout.read()
            proc.stdout.close()
            # wait4 rather than wait: it also returns this child's peak RSS
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        wall = time.perf_counter() - start
        if self.tracer is not None:
            with open(span_file, "r", encoding="utf-8") as fh:
                spans = json.load(fh)
            in_main = sum(end - t0 for name, t0, end, *_ in spans if name == "cli.main")
            self.tracer.add_child_spans(spans)
            self.tracer.cli_walls.append((wall, in_main))
        return CliResult(proc.returncode, out, usage.ru_maxrss)


def _write(workdir, name, obj):
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    return path


def _report(res, command):
    """The parsed report, or a reason why the call failed."""
    if res.code != 0:
        return None, "exit code %d" % res.code
    lines = res.stdout.decode().splitlines()
    if len(lines) != 1:
        return None, "expected one JSON line, got %d" % len(lines)
    try:
        rep = json.loads(lines[0])
    except ValueError:
        return None, "stdout is not JSON"
    if not isinstance(rep, dict) or rep.get("command") != command:
        return None, "report for %r" % rep.get("command")
    return rep, None


def _checked(command, test):
    """A check that parses the report, then applies `test` to it."""
    def check(res):
        rep, why = _report(res, command)
        return why if rep is None else test(rep)
    return check


def _expect(cond, why):
    return None if cond else why


def generate(seed):
    """The benchmark's own tables, coefficients and matrices for the `conj` inputs."""
    rng = np.random.default_rng([seed, 4])
    raw = {"a": tuple(int(v) for v in rng.integers(0, 9, 9)), "a_perm": rng.permutation(9)}
    ring = finite._cycle_map(rng, 40)
    raw["c"] = tuple(ring.tolist())
    raw["c_no"] = tuple(finite._reorder_trees(rng, ring).tolist())
    raw["c_no_perm"] = rng.permutation(40)
    table = [int(v) for v in rng.integers(0, 6, 6)]
    table[1], table[0] = 1, 1  # 0 -> 1 -> 1: a pencil point at 0
    raw["pencil"] = tuple(table)
    raw["poly"] = (tuple(int(v) for v in rng.integers(0, 3, 3)),
                   rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    raw["disk"] = {label: (t1, t2) for label, t1, t2, _ in disk.verdict_matrices(rng)}
    raw["lam"] = 0.2 + 0.7 * rng.random()
    raw["samples"] = disk.sample_points(rng)
    return raw


def construct(raw):
    """The systems, maps and JSON documents, built with the program's constructors."""
    a = FiniteDynSys(9, raw["a"])
    a_yes = relabel(a, raw["a_perm"])
    c = FiniteDynSys(40, raw["c"])
    c_no = relabel(FiniteDynSys(40, raw["c_no"]), raw["c_no_perm"])
    pencil = FiniteDynSys(6, raw["pencil"])
    p_table, p_coeffs = raw["poly"]
    poly = SkewPoly.make(FiniteDynSys(3, p_table), list(p_coeffs))
    mobius = lambda label, i: disk._mobius(raw["disk"][label][i])
    hyp = mobius("hyperbolic-yes", 0)
    e1, e2 = mobius("elliptic-yes", 0), mobius("elliptic-yes", 1)
    r1, r2 = mobius("rotation-inverse", 0), mobius("rotation-inverse", 1)
    lam = raw["lam"]
    objects = {"a": a, "a_yes": a_yes, "c": c, "c_no": c_no, "pencil": pencil, "poly": poly,
               "hyp": hyp, "e1": e1, "e2": e2, "r1": r1, "r2": r2,
               "d1": MobiusMap.dilation(lam), "d2": MobiusMap.dilation(lam * lam)}
    return {"docs": {name: obj.to_json() for name, obj in objects.items()},
            "systems": (a, a_yes, c, c_no), "poly": poly, "maps": (e1, e2, r1, r2),
            "samples": raw["samples"]}


def make_ops(inputs, workdir, tracer=None):
    f = {name: _write(workdir, name + ".json", doc) for name, doc in inputs["docs"].items()}
    a, a_yes, c, c_no = inputs["systems"]
    finite.assert_no_pair("finite-no", c, c_no)
    poly = inputs["poly"]
    e1, e2, r1, r2 = inputs["maps"]
    samples = inputs["samples"]
    run = CliRunner(workdir, tracer)

    def finite_yes(rep):
        return finite.check_witness(a, a_yes, rep.get("witness") if rep["conjugate"] else None)

    forms = {}

    def canon(rep):
        forms["a"] = rep["canonical_form"]
        return None

    def canon_relabelled(rep):
        return _expect(rep["canonical_form"] == forms.get("a"),
                       "conjugate systems have different canonical forms")

    def char_space(rep):
        want = [{"x": x, "kind": "disc", "r": 0.5} if a.map[x] == x else {"x": x, "kind": "point"}
                for x in range(a.n)]
        return _expect(rep["points"] == want, "catalogue differs from the fixed points")

    def norms(rep):
        N = 16
        want = max(estimates.largest_singular_value(
            estimates.truncated_matrix(poly.system.map, poly.coeffs, x, N, "backward"))
            for x in range(poly.system.n))
        l1 = estimates.l1(poly.coeffs)
        return _expect(abs(rep["estimate"] - want) <= 1e-9 * max(1, want)
                       and abs(rep["l1_norm"] - l1) <= 1e-9 * l1
                       and rep["estimate"] <= l1 * (1 + 1e-9) and rep["monotone_check"],
                       "norm report disagrees with the singular value oracle")

    def witness(rep):
        return MobiusMap.from_json({"matrix": rep["witness"]}) if "witness" in rep else None

    def disk_conjugate(rep):
        verdict = disk.CONJUGATE if rep["conjugate"] else disk.NOT_ISO
        return disk.check_verdict(e1, e2, disk.CONJUGATE, samples, (verdict, witness(rep)))

    def disk_iso(rep):
        return disk.check_verdict(r1, r2, disk.INVERSE, samples, (rep["verdict"], witness(rep)))

    first_stdout = {}

    def suite_check(seed):
        def check(res):
            rep, why = _report(res, "verify-suite")
            if rep is None:
                return why
            if not rep["passed"]:
                return "verify-suite did not pass"
            first = first_stdout.setdefault(seed, res.stdout)
            return _expect(first == res.stdout,
                           "verify-suite output differs between two calls with one seed")
        return check

    ops = [
        Op("finite-yes", lambda: run("finite", f["a"], f["a_yes"]), _checked("finite", finite_yes)),
        Op("finite-no", lambda: run("finite", f["c"], f["c_no"]),
           _checked("finite", lambda r: _expect(not r["conjugate"] and "witness" not in r,
                                                 "non-conjugate pair reported as conjugate"))),
        Op("canon", lambda: run("canon", f["a"]), _checked("canon", canon)),
        Op("canon", lambda: run("canon", f["a_yes"]), _checked("canon", canon_relabelled)),
        Op("char-space", lambda: run("char-space", f["a"], "--radius", "0.5"),
           _checked("char-space", char_space)),
        Op("norms", lambda: run("norms", f["poly"], "--trunc", "16"), _checked("norms", norms)),
        Op("pencil-check", lambda: run("pencil-check", f["pencil"], "0", "--samples", "50"),
           _checked("pencil-check", lambda r: _expect(r["passed"] and r["samples"] == 50,
                                                       "pencil homomorphism check failed"))),
        Op("disk-classify", lambda: run("disk", "classify", f["hyp"]),
           _checked("disk-classify",
                    lambda r: _expect(r["kind"] == "hyperbolic",
                                      "kind %s, expected hyperbolic" % r["kind"]))),
        Op("disk-conjugate", lambda: run("disk", "conjugate", f["e1"], f["e2"]),
           _checked("disk-conjugate", disk_conjugate)),
        Op("disk-iso", lambda: run("disk", "iso", f["r1"], f["r2"]),
           _checked("disk-iso", disk_iso)),
        Op("disk-verify-witness",
           lambda: run("disk", "verify-witness", "radial-square", f["d1"], f["d2"]),
           _checked("disk-verify-witness",
                    lambda r: _expect(r["passed"], "radial-square witness rejected"))),
    ]
    for s in SUITE_SEEDS:
        ops.append(Op("verify-suite", lambda s=s: run("verify-suite", "--quick", "--seed", str(s)),
                      suite_check(s)))
    return ops
