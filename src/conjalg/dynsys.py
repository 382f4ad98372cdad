"""Finite dynamical systems and exact conjugacy decision.

A finite system is a set {0, ..., n-1} together with a self-map given as a
table.  Conjugacy of two systems is decided from the cycle structure and
integer AHU labels (Aho, Hopcroft and Ullman) of the rooted in-trees
hanging off each cycle point.  One leaf peel, without recursion, gives every
point its height.  The in-tree children are kept in CSR form: one array of
all children plus one array of start offsets per parent.  The labels are
then ranked one height level at a time, with numpy where a level is wide and
in a Python loop where it is narrow.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

BRUTE_FORCE_MAX = 9
# A level of at least this many points is labelled with numpy, a narrower one
# in a Python loop.  Timing `orbit_structure` on systems whose levels hold w
# points with 1, 2 or 4 children each, the two cost the same between w = 48
# and w = 96 (2-vCPU shared machine, Python 3.11, numpy 2.4): at w = 64 and
# one child, 119 us per level with numpy against 145 us in Python; at w = 16,
# 87 us against 34 us.
WIDE_LEVEL = 64


class SystemError_(ValueError):
    pass


class OracleSizeError(ValueError):
    """Raised when brute_force_conjugate is asked for more than 9 points."""


@dataclass(frozen=True, eq=False)
class FiniteDynSys:
    """A self-map of {0, ..., n-1}: its value table, a read-only int64 array."""

    n: int
    map: np.ndarray

    def __post_init__(self):
        try:
            n = operator.index(self.n)
        except TypeError as exc:
            raise SystemError_("n must be an integer: %s" % exc)
        table = np.asarray(self.map)
        if n < 1 or table.shape != (n,):
            raise SystemError_("map must be a table of n >= 1 entries")
        if table.dtype.kind not in "iub":  # floats, strings, None and ints beyond int64 fail
            raise SystemError_("map entries must be integers, not %s" % table.dtype)
        table = table.astype(np.int64)  # a copy: the caller keeps their array
        if table.view(np.uint64).max() >= n:  # a negative entry reads as 2**63 or more
            raise SystemError_("map entries must lie in range(%d)" % n)
        table.flags.writeable = False
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "map", table)

    def __eq__(self, other):
        if not isinstance(other, FiniteDynSys):
            return NotImplemented
        return self is other or np.array_equal(self.map, other.map)

    def __hash__(self):
        return hash(self.map.tobytes())

    @classmethod
    def from_json(cls, obj) -> "FiniteDynSys":
        if not isinstance(obj, dict) or "n" not in obj or "map" not in obj:
            raise SystemError_('system JSON must be {"n": int, "map": [...]}')
        return cls(obj["n"], obj["map"])

    def to_json(self):
        return {"n": self.n, "map": self.map.tolist()}


@dataclass(frozen=True)
class ConjugacyWitness:
    """A bijection sigma with sigma(eta1(i)) = eta2(sigma(i))."""

    source: FiniteDynSys
    target: FiniteDynSys
    bijection: tuple

    def __post_init__(self):
        sigma = _permutation(self.bijection, self.source.n)
        object.__setattr__(self, "bijection", tuple(sigma.tolist()))
        # sigma . eta1 = eta2 . sigma exactly when eta2 = sigma . eta1 . sigma^-1
        if _relabel(self.source, sigma) != self.target:
            raise SystemError_("witness does not intertwine the two maps")


def _permutation(sigma, n: int) -> np.ndarray:
    """sigma as a read-only int64 array; SystemError_ unless it permutes range(n)."""
    sigma = FiniteDynSys(n, sigma).map  # n integers in range(n), or SystemError_
    if np.bincount(sigma, minlength=n).max() > 1:
        raise SystemError_("not a permutation of range(%d)" % n)
    return sigma


@dataclass(frozen=True, eq=False)
class OrbitStructure:
    """Cycles and in-trees of a system with integer AHU tree labels, ranked by
    height and then by sorted child labels: systems are conjugate iff their
    `shapes` and `keys` are equal.

    The in-tree children are in CSR form: the children of point p are
    `children[child_start[p]:child_start[p + 1]]`, sorted by label and, among
    equal labels, by the order in which the leaf peel reached them.
    """

    cycles: tuple             # cycles sorted by key, each started at its least rotation
    keys: tuple               # per cycle: (length, labels of its points in cycle order)
    shapes: tuple             # label -> sorted child labels of a tree with that label
    children: np.ndarray      # every non-cycle point, grouped by parent
    child_start: np.ndarray   # point -> offset of its children; n + 1 entries

    def children_of(self, p: int) -> tuple:
        """The non-cycle preimages of p, in label order."""
        return tuple(self.children[self.child_start[p]:self.child_start[p + 1]].tolist())

    def __eq__(self, other):
        if not isinstance(other, OrbitStructure):
            return NotImplemented
        return ((self.cycles, self.keys, self.shapes) == (other.cycles, other.keys, other.shapes)
                and np.array_equal(self.children, other.children)
                and np.array_equal(self.child_start, other.child_start))


def fixed_points(sys: FiniteDynSys) -> set:
    """Points i with map[i] == i."""
    return set(np.flatnonzero(sys.map == np.arange(sys.n)).tolist())


def orbit_structure(sys: FiniteDynSys) -> OrbitStructure:
    """Split the functional graph into cycles and rooted in-trees, and label
    the trees level by level, without recursion."""
    n, f = sys.n, sys.map.tolist()  # list indexing beats numpy scalars here
    indeg = np.bincount(sys.map, minlength=n).tolist()
    # peel leaves; a point joins `order` once all its preimages have, and
    # whatever never joins lies on a cycle.  `order` is a queue, so it runs
    # through the heights in turn and a point's last child is its tallest.
    order = [i for i in range(n) if indeg[i] == 0]
    height = [0] * n
    for i in order:  # grows while it is read
        j = f[i]
        height[j] = height[i] + 1
        indeg[j] -= 1
        if indeg[j] == 0:
            order.append(j)

    # children in CSR form, by parent and then peel order; points by height.
    # Every child sits lower than its parent, so its label is final when the
    # parent's level comes.  A point's tallest child sits one level below it
    # and no two points share a child, so the levels only narrow going up:
    # the wide ones come first and are labelled with numpy, the rest in Python.
    shapes, lo = [], 0
    if n < WIDE_LEVEL:
        # No level can be wide, so numpy would only build arrays to be read
        # back as lists.  Building the lists directly costs less for small n:
        # `orbit_structure` on random maps, every level ranked in Python, took
        # 31 us against 47 us with the numpy set-up at n = 5 and 52 against
        # 71 us at n = 16; from n = 32 to 128 the two were within 8 us (on the
        # machine named at WIDE_LEVEL).
        kids = sorted(order, key=f.__getitem__)
        start = [0] * (n + 1)
        for i in order:
            start[f[i] + 1] += 1
        start = list(itertools.accumulate(start))
        points = sorted(range(n), key=height.__getitem__)
        bounds = [k for k in range(1, n + 1)
                  if k == n or height[points[k]] != height[points[k - 1]]]
        label = [0] * n
    else:
        children = np.array(order, dtype=np.int64)
        del order  # n Python ints: free them before the lists below
        children = children[sys.map[children].argsort(kind="stable")]
        child_start = np.zeros(n + 1, dtype=np.int64)
        np.bincount(sys.map[children], minlength=n).cumsum(out=child_start[1:])
        height = np.array(height, dtype=np.int64)
        by_height = height.argsort(kind="stable")
        counts = np.bincount(height)
        bounds = counts.cumsum().tolist()
        wide = int(np.count_nonzero(counts >= WIDE_LEVEL))
        lab = np.zeros(n, dtype=np.int64)
        for hi in bounds[:wide]:
            level = by_height[lo:hi]
            first, stop = child_start[level], child_start[level + 1]
            rank, level_shapes = _rank_rows(lab[_gather(children, first, stop)], stop - first)
            lab[level] = rank + len(shapes)
            shapes.extend(level_shapes)
            lo = hi
        bounds = bounds[wide:]
        kids, start, points, label = (children.tolist(), child_start.tolist(),
                                      by_height.tolist(), lab.tolist())
    narrow = lo
    for hi in bounds:
        if hi - lo == 1:
            i = points[lo]
            label[i] = len(shapes)
            shapes.append(tuple(sorted([label[c] for c in kids[start[i]:start[i + 1]]])))
        else:
            shape = {i: tuple(sorted([label[c] for c in kids[start[i]:start[i + 1]]]))
                     for i in points[lo:hi]}
            rank = {s: k for k, s in enumerate(sorted(set(shape.values())), len(shapes))}
            shapes.extend(rank)
            for i, s in shape.items():
                label[i] = rank[s]
        lo = hi
    # children by (parent, label, peel order): the order the witness pairs them in
    if n < WIDE_LEVEL:  # the list set-up
        children = np.array(sorted(kids, key=lambda c: (f[c], label[c])), dtype=np.int64)
        child_start = np.array(start, dtype=np.int64)
    else:
        lab[by_height[narrow:]] = [label[p] for p in points[narrow:]]
        children = children[(sys.map[children] * len(shapes) + lab[children]).argsort(kind="stable")]
    children.setflags(write=False)
    child_start.setflags(write=False)

    cycles = []
    for i in range(n):
        if indeg[i]:  # on a cycle and not yet walked
            cyc = []
            j = i
            while indeg[j]:
                indeg[j] = 0
                cyc.append(j)
                j = f[j]
            labels = [label[p] for p in cyc]
            k = _least_rotation(labels)
            cycles.append(((len(cyc), tuple(labels[k:] + labels[:k])), tuple(cyc[k:] + cyc[:k])))
    keys, cycles = zip(*sorted(cycles))
    return OrbitStructure(cycles=cycles, keys=keys, shapes=tuple(shapes),
                          children=children, child_start=child_start)


def _gather(values, first, stop):
    """values[first[r]:stop[r]] for every row r, concatenated."""
    size = stop - first
    offset = np.cumsum(size) - size
    return values[np.arange(int(size.sum())) + np.repeat(first - offset, size)]


def _rank_rows(vals, size):
    """Rank the rows of one level's child labels, in numpy.

    Row r is the next size[r] entries of vals, in any order.  Returns each
    row's rank among the level's distinct rows, sorted and compared as
    tuples, and those distinct sorted rows in rank order.  Rows are compared
    by doubling the compared prefix, so memory stays in proportion to vals.
    """
    total = len(vals)
    if not total:  # a level of leaves
        return np.zeros(len(size), dtype=np.int64), [()]
    offset = np.cumsum(size) - size  # row -> start of its labels in `vals`
    row = np.repeat(np.arange(len(size)), size)
    at = np.arange(total)
    top = int(vals.max()) + 1
    vals = np.sort(row * top + vals) - row * top  # each row in ascending order
    # rank[k] orders the `span` labels from k on, cut at the end of k's row,
    # with a cut string before every string it is a prefix of
    rank, rest, span = vals, np.repeat(offset + size, size) - at, 1
    while span < size.max():
        after = np.where(rest > span, rank[np.minimum(at + span, total - 1)], -1)
        rank = np.unique(rank * (int(rank.max()) + 2) + after + 1, return_inverse=True)[1]
        span *= 2
    key = np.full(len(size), -1, dtype=np.int64)  # the empty row first
    key[size > 0] = rank[offset[size > 0]]
    _, rep, rank = np.unique(key, return_index=True, return_inverse=True)
    vals, offset, size = vals.tolist(), offset.tolist(), size.tolist()
    return rank, [tuple(vals[offset[r]:offset[r] + size[r]]) for r in rep.tolist()]


def _least_rotation(seq) -> int:
    """Start of the least rotation of seq, by the linear two-pointer scan: when
    the rotations from i and j agree for k steps and then differ, no rotation
    from the larger one's start to k steps past it is least."""
    n = len(seq)
    i, j, k = 0, 1, 0
    while i < n and j < n and k < n:
        a, b = seq[(i + k) % n], seq[(j + k) % n]
        if a == b:
            k += 1
            continue
        if a > b:
            i += k + 1
        else:
            j += k + 1
        if i == j:
            j += 1
        k = 0
    return min(i, j)


def canonical_form(sys: FiniteDynSys) -> str:
    """A complete conjugacy invariant: equal strings iff conjugate systems.

    Cycles appear in key order as `length:tree|tree|...`, joined by `;`; a
    tree is `(` its children's trees in label order `)`.
    """
    orbit = orbit_structure(sys)

    def tree(root):
        out, stack = [], [root]  # labels to open; -1 closes the innermost open tree
        while stack:
            x = stack.pop()
            out.append("(" if x >= 0 else ")")
            if x >= 0:
                stack.append(-1)
                stack.extend(reversed(orbit.shapes[x]))
        return "".join(out)

    return ";".join("%d:%s" % (length, "|".join(map(tree, labels)))
                    for length, labels in orbit.keys)


def are_conjugate(a: FiniteDynSys, b: FiniteDynSys):
    """Decide conjugacy; on success return an explicit witness bijection."""
    if a.n != b.n:
        return None
    a_orbit = orbit_structure(a)
    b_orbit = orbit_structure(b)
    if a_orbit.shapes != b_orbit.shapes or a_orbit.keys != b_orbit.keys:
        return None
    # equal keys pair the cycles point by point; children are sorted by
    # label, so equal multisets pair up in order, level after level
    sigma = np.empty(a.n, dtype=np.int64)
    sigma[_breadth_first(a_orbit)] = _breadth_first(b_orbit)
    return ConjugacyWitness(a, b, sigma)


def _breadth_first(orbit: OrbitStructure) -> list:
    """Every point: the cycles in order, then level after level of their
    in-trees, each point's children in CSR order."""
    kids, start = orbit.children.tolist(), orbit.child_start.tolist()
    order = [p for cycle in orbit.cycles for p in cycle]
    for x in order:  # grows while it is read
        order += kids[start[x]:start[x + 1]]
    return order


@lru_cache(maxsize=None)
def _perm_array(n: int) -> np.ndarray:
    return np.array(list(itertools.permutations(range(n))), dtype=np.int64)


def brute_force_conjugate(a: FiniteDynSys, b: FiniteDynSys):
    """Exhaustive oracle over all bijections; limited to n <= 9."""
    if a.n != b.n:
        return None
    if a.n > BRUTE_FORCE_MAX:
        raise OracleSizeError("brute force oracle limited to n <= %d" % BRUTE_FORCE_MAX)
    perms = _perm_array(a.n)
    idx = np.flatnonzero(np.all(perms[:, a.map] == b.map[perms], axis=1))
    return ConjugacyWitness(a, b, perms[idx[0]]) if idx.size else None


def relabel(sys: FiniteDynSys, sigma) -> FiniteDynSys:
    """The conjugate system sigma . eta . sigma^{-1}."""
    return _relabel(sys, _permutation(sigma, sys.n))


def _relabel(sys: FiniteDynSys, sigma: np.ndarray) -> FiniteDynSys:
    """`relabel` by a sigma that `_permutation` has already validated."""
    table = np.empty(sys.n, dtype=np.int64)
    table[sigma] = sigma[sys.map]
    return FiniteDynSys(sys.n, table)
