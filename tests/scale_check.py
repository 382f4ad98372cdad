"""Relabel invariance of the finite conjugacy decision at 10**6 points.

    python tests/scale_check.py

For a random map, a path, a cycle, a star, a caterpillar (a path of 5 * 10**5
points with one leaf on each) and 8 chains hanging on an 8-cycle, of 10**6
points each, the script builds a system a and b = relabel(a, sigma) for a
random permutation sigma.  It checks that are_conjugate(a, b) returns a witness, which
ConjugacyWitness verifies point by point, and that the two canonical forms
are equal.  It prints the seconds that are_conjugate took on each shape and
exits 1 if any check fails; the times are reported, never gated.

pytest does not collect this file: its name does not start with `test_`.
"""

from __future__ import annotations

import sys
import time

import numpy as np

from conjalg.dynsys import FiniteDynSys, are_conjugate, canonical_form, relabel

N = 10 ** 6


def star(n, rng):
    """A fixed centre 0 with sqrt(n) hubs; every other point goes to the centre
    with probability 1/2, else to a random hub."""
    k = int(np.sqrt(n))
    table = np.zeros(n, dtype=np.int64)
    rest = n - k - 1
    table[k + 1:] = np.where(rng.random(rest) < 0.5, 0, rng.integers(1, k + 1, rest))
    return table


def caterpillar(n):
    """A path n/2 - 1 -> ... -> 1 -> 0, with 0 fixed, and one leaf on each path point."""
    half = n // 2
    return np.concatenate([np.maximum(np.arange(half) - 1, 0), np.arange(n - half) % half])


def chain_bundle(n, k):
    """A k-cycle with a chain of about n/k points on each cycle point: i >= k maps to i - k."""
    points = np.arange(n)
    return np.where(points < k, (points + 1) % k, points - k)


SHAPES = {
    "random": lambda rng: rng.integers(0, N, N),
    "path": lambda rng: np.maximum(np.arange(N) - 1, 0),
    "cycle": lambda rng: (np.arange(N) + 1) % N,
    "star": lambda rng: star(N, rng),
    "caterpillar": lambda rng: caterpillar(N),
    "bundle8": lambda rng: chain_bundle(N, 8),
}


def main() -> int:
    failed = []
    for name, build in SHAPES.items():
        rng = np.random.default_rng(0)
        a = FiniteDynSys(N, build(rng))
        b = relabel(a, rng.permutation(N))
        start = time.perf_counter()
        witness = are_conjugate(a, b)
        seconds = time.perf_counter() - start
        ok = witness is not None and canonical_form(a) == canonical_form(b)
        print("%-11s n=%d  are_conjugate %.2f s  %s" % (name, N, seconds, "ok" if ok else "FAILED"),
              flush=True)
        if not ok:
            failed.append(name)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
