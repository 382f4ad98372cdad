"""finite-scale: `are_conjugate` on finite systems of 10^3 to 10^5 points.

A round holds one conjugate pair (a, relabel(a, sigma)) and one
non-conjugate pair for every (shape, size) slot below.  The non-conjugate
partner agrees with `a` on size, cycle lengths and in-degree histogram, so
the program has to compare full canonical forms; the benchmark proves the
answer "no" with an invariant of its own (see `expected_differs`).
"""

from __future__ import annotations

import numpy as np

import conjalg
from conjalg import FiniteDynSys, relabel

from common import Op

TAIL_PERCENTILE = 90
TRACE_ROUNDS = 1

# Today's `orbit_structure` and `_match_tree` recurse once per tree level and
# fail near 495 levels.  Random maps taller than this are redrawn: at 10^4
# points the tallest of 300 seeds reached 347 levels.
MAX_HEIGHT = 400
SPINE = 200
# tries of a random non-conjugate variant; only tiny systems run out
ATTEMPTS = 1000


class NoVariant(ValueError):
    """The system has no non-conjugate variant of the wanted kind."""

SLOTS = (
    [("random", n) for n in (1000, 3160, 5620, 10000)]
    + [("cycle", n) for n in (1000, 3160, 5620, 10000)]
    + [("star", n) for n in (1000, 3160, 10000, 31600, 100000)]
    + [("caterpillar", n) for n in (1000, 2150, 4640, 10000, 21500)]
)
# A second conjugate star of 31 600 points makes a round 37 operations.
# With an odd count the median falls in the middle of one slot's samples.
# The three slowest slots hold 3 of 37, so p90 falls inside the two star
# 31 600 pairs, whatever the number of rounds, with twice the samples.
EXTRA_YES = [("star", 31600)]


def structure(m):
    """(on_cycle, depth, root) of a map table, computed without recursion.

    depth is the distance to the cycle; root is the cycle point a point's
    tree hangs from.
    """
    n = len(m)
    indeg = np.bincount(m, minlength=n)
    stack = list(np.flatnonzero(indeg == 0))
    order = []
    while stack:
        i = stack.pop()
        order.append(i)
        j = m[i]
        indeg[j] -= 1
        if indeg[j] == 0:
            stack.append(j)
    on_cycle = np.ones(n, dtype=bool)
    on_cycle[order] = False
    depth = np.zeros(n, dtype=np.int64)
    root = np.arange(n)
    for i in reversed(order):  # parents before children
        depth[i] = depth[m[i]] + 1
        root[i] = root[m[i]]
    return on_cycle, depth, root


def _random_map(rng, n):
    while True:
        m = rng.integers(0, n, n)
        if structure(m)[1].max() <= MAX_HEIGHT:
            return m


def _cycle_map(rng, n):
    """A cycle of n/4 points with small trees (chains of mean length 2)."""
    L = max(3, n // 4)
    m = np.empty(n, dtype=np.int64)
    m[:L] = (np.arange(L) + 1) % L
    to_cycle = rng.random(n - L) < 0.5
    m[L:] = np.where(to_cycle, rng.integers(0, L, n - L), np.arange(L - 1, n - 1))
    return m


def _star_map(rng, n):
    """A fixed centre with sqrt(n) hubs; other points hang on the centre or a hub."""
    k = int(np.sqrt(n))
    m = np.zeros(n, dtype=np.int64)
    rest = n - k - 1
    m[k + 1:] = np.where(rng.random(rest) < 0.5, 0, rng.integers(1, k + 1, rest))
    return m


def _spine(n):
    return min(SPINE, max(4, n // 3))


def _caterpillar_map(rng, n):
    """A spine of up to SPINE points down to a fixed root, legs on random spine points."""
    s = _spine(n)
    m = np.empty(n, dtype=np.int64)
    m[0] = 0
    m[1:s] = np.arange(s - 1)
    m[s:] = rng.integers(0, s, n - s)
    return m


def _swap_leaf_and_subtree(rng, m):
    """Swap the parents of a leaf u and of a non-cycle point v with children.

    In-degrees and cycles are unchanged.  When the two parents lie at
    different depths, the children of v move to other depths, so the depth
    histogram changes and the result is not conjugate to m.
    """
    on_cycle, depth, _ = structure(m)
    indeg = np.bincount(m, minlength=len(m))
    leaves = np.flatnonzero(indeg == 0)
    inner = np.flatnonzero(~on_cycle & (indeg > 0))
    for _ in range(ATTEMPTS if len(inner) else 0):
        u = int(rng.choice(leaves))
        v = int(rng.choice(inner))
        p, q = int(m[u]), int(m[v])
        if depth[p] == depth[q]:
            continue
        x = p  # v -> p must not close a loop through v's own subtree
        while not on_cycle[x] and x != v:
            x = int(m[x])
        if x == v:
            continue
        b = m.copy()
        b[u], b[v] = q, p
        if structure(b)[1].max() <= MAX_HEIGHT:
            return b
    raise NoVariant("no leaf and subtree to swap")


def _swap_legs(rng, m):
    """Exchange the legs of the middle spine points with fewest and most legs.

    The root and the top of the spine are left alone: every other spine
    point has one spine child, so the in-degree histogram is unchanged.
    """
    s = _spine(len(m))
    legs = np.bincount(m[s:], minlength=s)[1: s - 1]
    i, j = 1 + int(np.argmin(legs)), 1 + int(np.argmax(legs))
    if legs[i - 1] == legs[j - 1]:
        raise NoVariant("every spine point has the same number of legs")
    b = m.copy()
    b[s:][m[s:] == i] = j
    b[s:][m[s:] == j] = i
    return b


def _tree_sizes(m, on_cycle, root, start):
    """Tree sizes at the cycle points, walking the cycle from `start`."""
    sizes = np.bincount(root[~on_cycle], minlength=len(m))
    seq = [start]
    x = int(m[start])
    while x != start:
        seq.append(x)
        x = int(m[x])
    return [int(sizes[c]) for c in seq]


def _is_rotation(s, t):
    key = lambda xs: "," + ",".join(map(str, xs)) + ","
    return len(s) == len(t) and key(t) in key(s + s)


def _reorder_trees(rng, m):
    """Exchange the trees hung on two cycle points of different tree size.

    m is laid out as `_cycle_map` builds it: the cycle is 0 -> 1 -> ... -> 0.
    """
    on_cycle, _, root = structure(m)
    L = int(on_cycle.sum())
    sizes = _tree_sizes(m, on_cycle, root, 0)
    for _ in range(ATTEMPTS if L > 1 else 0):
        i, j = (int(x) for x in rng.choice(L, size=2, replace=False))
        if sizes[i] == sizes[j]:
            continue
        b = m.copy()
        hang_i = ~on_cycle & (m == i)
        hang_j = ~on_cycle & (m == j)
        b[hang_i], b[hang_j] = j, i
        if not _is_rotation(sizes, _tree_sizes(b, on_cycle, structure(b)[2], 0)):
            return b
    raise NoVariant("no two trees to exchange")


SHAPES = {
    "random": (_random_map, _swap_leaf_and_subtree),
    "cycle": (_cycle_map, _reorder_trees),
    "star": (_star_map, _swap_leaf_and_subtree),
    "caterpillar": (_caterpillar_map, _swap_legs),
}


def _table(sys_):
    return np.fromiter(sys_.map, dtype=np.int64, count=sys_.n)


def cheap_invariants(sys_):
    """Size, in-degree histogram and cycle lengths: what a "no" pair shares."""
    m = _table(sys_)
    on_cycle = structure(m)[0]
    lengths, seen = [], np.zeros(len(m), dtype=bool)
    for x in np.flatnonzero(on_cycle):
        length = 0
        while not seen[x]:
            seen[x] = True
            x, length = m[x], length + 1
        if length:
            lengths.append(length)
    return len(m), sorted(np.bincount(m, minlength=len(m)).tolist()), sorted(lengths)


def expected_differs(a, b):
    """An invariant of the benchmark's own that tells a and b apart.

    Single-cycle systems are compared by the cyclic sequence of tree sizes,
    everything else by cycle lengths plus the histogram of depths.
    """
    ma, mb = _table(a), _table(b)
    ca, da, ra = structure(ma)
    cb, db, rb = structure(mb)
    if not np.array_equal(np.bincount(da), np.bincount(db)):
        return True
    sa = _tree_sizes(ma, ca, ra, int(np.argmax(ca)))
    sb = _tree_sizes(mb, cb, rb, int(np.argmax(cb)))
    single_cycle = len(sa) == ca.sum() and len(sb) == cb.sum()
    return single_cycle and not _is_rotation(sa, sb)


def assert_no_pair(label, a, b):
    """a and b share the cheap invariants, yet the benchmark's own tells them apart."""
    if cheap_invariants(a) != cheap_invariants(b) or not expected_differs(a, b):
        raise AssertionError("%s: the pair is not built as intended" % label)


def check_witness(a, b, bijection):
    """None when the bijection sigma satisfies sigma[eta_a] == eta_b[sigma]."""
    if bijection is None:
        return "conjugate pair reported as not conjugate"
    sigma = np.asarray(bijection, dtype=np.int64)
    if sigma.shape != (a.n,) or not np.array_equal(np.sort(sigma), np.arange(a.n)):
        return "witness is not a permutation"
    if not np.array_equal(sigma[_table(a)], _table(b)[sigma]):
        return "witness does not intertwine the maps"
    return None


def generate(seed):
    """The benchmark's own tables: (label, table, permutation, yes?) per pair."""
    rng = np.random.default_rng([seed, 1])
    tables = []
    for i, (shape, n) in enumerate(SLOTS + EXTRA_YES):
        make, perturb = SHAPES[shape]
        m = make(rng, n)
        tables.append(("%s-%d-yes" % (shape, n), m, rng.permutation(n), True))
        if i < len(SLOTS):
            tables.append(("%s-%d-no" % (shape, n), perturb(rng, m), rng.permutation(n), False))
    return [(label, tuple(m.tolist()), perm, yes) for label, m, perm, yes in tables]


def construct(tables):
    """The pairs (label, a, b, conjugate?), built with the program's constructors.

    Each "yes" entry makes a = FiniteDynSys(table) and b = relabel(a, perm);
    the "no" entry after it relabels its variant table against that a.
    """
    pairs = []
    for label, table, perm, yes in tables:
        if yes:
            a = FiniteDynSys(len(table), table)
            pairs.append((label, a, relabel(a, perm), True))
        else:
            pairs.append((label, a, relabel(FiniteDynSys(len(table), table), perm), False))
    return pairs


def make_ops(pairs, workdir=None, tracer=None):
    ops = []
    for label, a, b, conjugate in pairs:
        if conjugate:
            check = lambda w, a=a, b=b: check_witness(a, b, w and w.bijection)
        else:
            assert_no_pair(label, a, b)
            check = lambda w: None if w is None else "non-conjugate pair got a witness"
        ops.append(Op(label, lambda a=a, b=b: conjalg.are_conjugate(a, b), check))
    return ops
