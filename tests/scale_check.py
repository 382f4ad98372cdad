"""The finite conjugacy decision at 10**6 points: relabel invariance, and a
one-leaf variant that is not conjugate.

    python tests/scale_check.py

For a random map, a path, a cycle, a star, a caterpillar (a path of 5 * 10**5
points with one leaf on each), 2 chains hanging on a 2-cycle and 8 chains
hanging on an 8-cycle, of 10**6 points each, the script builds a system a and
b = relabel(a, sigma) for a random permutation sigma.  It checks that
are_conjugate(a, b) returns a witness, which ConjugacyWitness verifies point
by point, and that the two canonical forms are equal.  It then moves one leaf
of a onto its grandparent, one step nearer the cycles (on the cycle, which
has no leaf, it takes one point off the cycle), relabels that variant at
random and checks that are_conjugate calls it not conjugate.  It prints the
seconds that are_conjugate and each of the two canonical_form calls took on
each shape, and are_conjugate's seconds on the variant, and exits 1 if any
check fails; the times are reported, never gated.

pytest does not collect this file: its name does not start with `test_`.
`tests/test_dynsys.py` imports its shape builders at smaller sizes.
"""

from __future__ import annotations

import sys
import time

import numpy as np

from conjalg.dynsys import FiniteDynSys, are_conjugate, canonical_form, relabel

N = 10 ** 6


def star(n, rng):
    """A fixed centre 0 with sqrt(n) hubs; every other point goes to the centre
    with probability 1/2, else to a random hub, so the two lowest levels are wide."""
    k = int(np.sqrt(n))
    table = np.zeros(n, dtype=np.int64)
    rest = n - k - 1
    table[k + 1:] = np.where(rng.random(rest) < 0.5, 0, rng.integers(1, k + 1, rest))
    return table


def caterpillar(n):
    """A path n/2 - 1 -> ... -> 1 -> 0, with 0 fixed, and one leaf on each
    path point: every level above the leaves holds one path point."""
    half = n // 2
    return np.concatenate([np.maximum(np.arange(half) - 1, 0), np.arange(n - half) % half])


def chain_bundle(n, k):
    """A k-cycle with a chain of about n/k points hanging on each cycle point:
    point i >= k maps to i - k, so every level holds k points."""
    points = np.arange(n)
    return np.where(points < k, (points + 1) % k, points - k)


SHAPES = {
    "random": lambda rng: rng.integers(0, N, N),
    "path": lambda rng: np.maximum(np.arange(N) - 1, 0),
    "cycle": lambda rng: (np.arange(N) + 1) % N,
    "star": lambda rng: star(N, rng),
    "caterpillar": lambda rng: caterpillar(N),
    "bundle2": lambda rng: chain_bundle(N, 2),
    "bundle8": lambda rng: chain_bundle(N, 8),
}


def leaf_variant(table, rng):
    """`table` with one leaf, drawn at random from those whose parent lies
    off the cycles, hung on its grandparent: its distance to the cycles
    drops by one and no other point's changes, so the multiset of those
    distances, a conjugacy invariant, differs.  With no such leaf, the last
    point that maps to 0 maps to 1 instead, which changes the cycle lengths.

    The cycle points are the image of the map's 2**k-th power for the k
    with 2**k > N, found by k squarings."""
    power = table
    for _ in range(N.bit_length()):
        power = power[power]
    on_cycle = np.zeros(N, dtype=bool)
    on_cycle[power] = True
    leaves = np.flatnonzero((np.bincount(table, minlength=N) == 0) & ~on_cycle[table])
    variant = table.copy()
    if len(leaves):
        leaf = rng.choice(leaves)
        variant[leaf] = table[table[leaf]]
    else:
        variant[np.flatnonzero(table == 0)[-1]] = 1
    return variant


def timed(call, *args):
    """call(*args) and the seconds it took."""
    start = time.perf_counter()
    result = call(*args)
    return result, time.perf_counter() - start


def main() -> int:
    failed = []
    for name, build in SHAPES.items():
        rng = np.random.default_rng(0)
        table = build(rng)
        a = FiniteDynSys(N, table)
        b = relabel(a, rng.permutation(N))
        witness, seconds = timed(are_conjugate, a, b)
        form_a, seconds_a = timed(canonical_form, a)
        form_b, seconds_b = timed(canonical_form, b)
        c = relabel(FiniteDynSys(N, leaf_variant(table, rng)), rng.permutation(N))
        no, seconds_no = timed(are_conjugate, a, c)
        ok = witness is not None and form_a == form_b and no is None
        print("%-11s n=%d  are_conjugate %.2f s  canonical_form %.2f s, %.2f s  "
              "variant: are_conjugate %.2f s  %s"
              % (name, N, seconds, seconds_a, seconds_b, seconds_no, "ok" if ok else "FAILED"),
              flush=True)
        if not ok:
            failed.append(name)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
