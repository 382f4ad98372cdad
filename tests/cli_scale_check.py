"""`conj finite` and `conj canon` at 10**6 points, each call its own process.

    python tests/cli_scale_check.py

The script writes a random map a of 10**6 points and b = relabel(a, sigma),
for a random permutation sigma, as JSON files in a temporary directory. It
runs `conj finite a b`, `conj canon a` and `conj canon b` as
`python -m conjalg.cli`, one subprocess at a time, and checks that each exits
0, that the witness intertwines the two maps (ConjugacyWitness verifies it
point by point), and that the two canonical forms are equal.  It prints each
call's wall seconds and peak resident memory, read with os.wait4, and exits 1
if any check fails; the times and sizes are reported, never gated.

pytest does not collect this file: its name does not start with `test_`.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time

import numpy as np

from conjalg.dynsys import ConjugacyWitness, FiniteDynSys, relabel

N = 10 ** 6


def conj(*args):
    """(exit code, stdout, wall seconds, peak RSS in MB) of one `conj` call."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "conjalg.cli", *args],
                            stdout=subprocess.PIPE)
    out = proc.stdout.read()
    proc.stdout.close()
    # wait4 rather than wait: it also returns this child's peak RSS, in KB on Linux
    _, status, usage = os.wait4(proc.pid, 0)
    return (os.waitstatus_to_exitcode(status), out, time.perf_counter() - start,
            usage.ru_maxrss / 1024)


def main() -> int:
    rng = np.random.default_rng(0)
    a = FiniteDynSys(N, rng.integers(0, N, N))
    b = relabel(a, rng.permutation(N))
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        paths = [os.path.join(tmp, name) for name in ("a.json", "b.json")]
        for system, path in zip((a, b), paths):
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(system.to_json(), fh)
        forms = []
        for args in (["finite", *paths], ["canon", paths[0]], ["canon", paths[1]]):
            code, out, seconds, peak_mb = conj(*args)
            ok = code == 0
            if ok and args[0] == "finite":
                try:  # ConjugacyWitness raises unless the witness intertwines a and b
                    ConjugacyWitness(a, b, json.loads(out)["witness"])
                except (KeyError, ValueError):
                    ok = False
            elif ok:
                forms.append(json.loads(out)["canonical_form"])
            print("conj %-6s n=%d  %.2f s  peak %.0f MB  %s"
                  % (args[0], N, seconds, peak_mb, "ok" if ok else "FAILED (exit %d)" % code),
                  flush=True)
            failed |= not ok
    if len(forms) == 2 and forms[0] != forms[1]:
        print("canonical forms of a and b differ: FAILED")
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
