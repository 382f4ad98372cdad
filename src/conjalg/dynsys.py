"""Finite dynamical systems and exact conjugacy decision.

A finite system is a set {0, ..., n-1} together with a self-map given as a
table.  Conjugacy of two systems is decided from the cycle structure and
integer AHU labels (Aho, Hopcroft and Ullman) of the rooted in-trees
hanging off each cycle point, without recursion.  A leaf peel, one height
level at a time, gives every point its height.  The in-tree children are
kept in CSR form: one array of all children plus one array of start offsets
per parent.  The labels are then ranked one height level at a time, and the
witness pairs the breadth-first orders of the two systems.  Peel, ranking
and walk each run in numpy where a level is wide and in a Python loop where
it is narrow, in one set-up for systems of every size; the loops read the
arrays through memoryviews.  The ranking yields labels only; the shape
table, each label's sorted child labels, is gathered once at the end.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

BRUTE_FORCE_MAX = 9
# A level of at least this many points is peeled, labelled and walked with
# numpy, a narrower one in a Python loop.  Timed on systems of 200 levels of
# w points, each with one child in the level below, relabelled at random, all
# levels one way or all the other (2-vCPU shared machine, Python 3.11, numpy
# 2.4), per level: `orbit_structure` took 75 us with numpy against 31 us in
# Python at w = 16, 84 against 122 us at w = 64 and 121 against 333 us at
# w = 128; the breadth-first walk 13 against 3, 12 against 15 and 11 against
# 32 us.  On random maps of 10**5 and 10**6 points a whole walk took 10 and
# 64-75 ms with the switch anywhere from 32 to 128, and 28 and 191 ms at 512.
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
    `keys`, `shapes` and `shape_start` are equal.

    The in-tree children are in CSR form: the children of point p are
    `children[child_start[p]:child_start[p + 1]]`, sorted by label and, among
    equal labels, by the order in which the leaf peel reached them.  The shape
    table too: label l's sorted child labels are `shapes[shape_start[l]:shape_start[l + 1]]`.
    """

    cycles: tuple             # cycles sorted by key, each started at its least rotation
    keys: tuple               # per cycle: (length, labels of its points in cycle order)
    shapes: np.ndarray        # the sorted child labels of every label, in label order
    shape_start: np.ndarray   # label -> offset of its shape; labels + 1 entries
    children: np.ndarray      # every non-cycle point, grouped by parent
    child_start: np.ndarray   # point -> offset of its children; n + 1 entries

    def children_of(self, p: int) -> tuple:
        """The non-cycle preimages of p, in label order."""
        return tuple(self.children[self.child_start[p]:self.child_start[p + 1]].tolist())

    def __eq__(self, other):
        if not isinstance(other, OrbitStructure):
            return NotImplemented
        return ((self.cycles, self.keys) == (other.cycles, other.keys)
                and all(np.array_equal(getattr(self, name), getattr(other, name))
                        for name in ("shapes", "shape_start", "children", "child_start")))


def fixed_points(sys: FiniteDynSys) -> set:
    """Points i with map[i] == i."""
    return set(np.flatnonzero(sys.map == np.arange(sys.n)).tolist())


def orbit_structure(sys: FiniteDynSys) -> OrbitStructure:
    """Split the functional graph into cycles and rooted in-trees, and label
    the trees level by level, without recursion.

    Leaves are peeled one height level at a time: in numpy while a level is
    wide, then in a Python queue from the first narrow level on.  One sort
    of the peel order by parent gives the CSR children, and one sort of the
    heights gives the points by height.  Labels are ranked level by level,
    in numpy on the wide levels and in Python on the narrow ones, and only
    the cycle points are walked for the cycles.  Then one sort puts the
    children in label order, and one gather of their labels gives the shape
    table.  The Python loops read and write the numpy arrays through
    memoryviews, so the only lists built hold points that a Python loop
    visits.  Every system takes this one path: one of fewer than WIDE_LEVEL
    points has no wide level, so only the Python loops run on it.
    """
    n, f = sys.n, sys.map
    indeg = np.bincount(f, minlength=n)
    height = np.zeros(n, dtype=np.int64)
    levels, level = [], np.flatnonzero(indeg == 0)
    while len(level) >= WIDE_LEVEL:
        levels.append(level)
        level = _peel(f, level, indeg, height, len(levels))
    up, left = memoryview(f), memoryview(indeg)
    levels.append(np.array(_peel_queue(level.tolist(), up, left, memoryview(height)),
                           dtype=np.int64))
    tree = np.concatenate(levels)  # every non-cycle point, in peel order
    cycles = _walk_cycles(np.flatnonzero(indeg).tolist(), up, left)

    # the points by height; a level's labels do not depend on the order of its points
    counts = np.bincount(height)
    by_height = _stable_order(height, len(counts))
    bounds = counts.cumsum().tolist()

    # children in CSR form, by parent and then peel order.  Every child sits
    # lower than its parent, so its label is final when the parent's level
    # comes.  A point's tallest child sits one level below it and no two
    # points share a child, so the levels only narrow going up: the wide
    # ones come first and are labelled with numpy, the rest in Python.
    children = tree[_stable_order(f[tree], n)]
    child_start = np.zeros(n + 1, dtype=np.int64)
    np.bincount(f[tree], minlength=n).cumsum(out=child_start[1:])
    labels, lo = 0, 0
    wide = int(np.count_nonzero(counts >= WIDE_LEVEL))
    lab = np.zeros(n, dtype=np.int64)
    for hi in bounds[:wide]:
        level = by_height[lo:hi]
        first, stop = child_start[level], child_start[level + 1]
        rank = _rank_rows(lab[_gather(children, first, stop)], stop - first)
        lab[level] = rank + labels
        labels += int(rank.max()) + 1
        lo = hi
    labels = _label_levels(memoryview(by_height), lo, bounds[wide:], memoryview(children),
                           memoryview(child_start), memoryview(lab), labels)
    # children by (parent, label, peel order), the witness's order; then equal labels
    # have equal sorted rows of child labels, so one point per label gives the table
    children = children[_stable_order(f[children] * labels + lab[children], n * labels)]
    one = np.empty(labels, dtype=np.int64)
    one[lab] = np.arange(n)
    first, stop = child_start[one], child_start[one + 1]
    return _orbit(cycles, memoryview(lab), _gather(lab[children], first, stop),
                  np.append(0, np.cumsum(stop - first)), children, child_start)


def _peel(f, level, indeg, height, h):
    """One level of the leaf peel, in numpy: the points that have no
    preimage left once `level` is peeled, in the order in which a queue
    reading `level` reaches them, that is by the position of their last
    child in `level`.  Takes the peeled points off `indeg` and gives every
    point they map to the height h."""
    at = _stable_order(f[level], len(f))  # the children of a parent together
    parent = f[level[at]]
    last = np.append(np.flatnonzero(parent[1:] != parent[:-1]), len(level) - 1)
    parent, at = parent[last], at[last]  # each parent once, with its last child
    indeg[parent] -= np.diff(last, prepend=-1)
    height[parent] = h
    ready = indeg[parent] == 0
    return parent[ready][at[ready].argsort()]


def _peel_queue(queue, up, left, height):
    """Peel leaves from the list `queue` on: a point joins the queue once all
    its preimages have, and whatever never joins lies on a cycle.  The queue
    runs through the heights in turn, so a point's last child is its
    tallest.  `up`, `left` and `height` are memoryviews of the map, of the
    preimages not yet peeled and of the heights.  Returns the queue."""
    for i in queue:  # grows while it is read
        j = up[i]
        height[j] = height[i] + 1
        left[j] -= 1
        if left[j] == 0:
            queue.append(j)
    return queue


def _walk_cycles(points, up, left):
    """The cycles through the list `points`, taken in order, each walked
    along the memoryview `up` from its first point in `points`.  A point lies
    on a cycle not yet walked exactly when the memoryview `left` is nonzero
    there; the walk clears it."""
    cycles = []
    for i in points:
        if left[i]:
            cycle, j = [], i
            while left[j]:
                left[j] = 0
                cycle.append(j)
                j = up[j]
            cycles.append(cycle)
    return cycles


def _label_levels(points, lo, bounds, kids, start, label, labels):
    """Label the levels points[lo:hi], for hi in bounds in turn, in Python,
    with the labels from `labels` on; returns the label count after them.

    `points`, `kids`, `start` and `label` are memoryviews of the points by
    height, the CSR children and their offsets, and the labels.  A one-point
    level holds one shape, so its point takes the next label without a look
    at its children; a wider level ranks its points' sorted child labels.
    """
    for hi in bounds:
        if hi - lo == 1:
            label[points[lo]] = labels
            labels += 1
        else:
            shape = {i: tuple(sorted([label[c] for c in kids[start[i]:start[i + 1]]]))
                     for i in points[lo:hi]}
            rank = {s: k for k, s in enumerate(sorted(set(shape.values())), labels)}
            labels += len(rank)
            for i, s in shape.items():
                label[i] = rank[s]
        lo = hi
    return labels


def _orbit(cycles, label, shapes, shape_start, children, child_start) -> OrbitStructure:
    """The OrbitStructure, with each cycle keyed by its least rotation."""
    keyed = []
    for cycle in cycles:
        labels = [label[p] for p in cycle]
        k = _least_rotation(labels)
        keyed.append(((len(cycle), tuple(labels[k:] + labels[:k])),
                      tuple(cycle[k:] + cycle[:k])))
    keys, cycles = zip(*sorted(keyed))
    for array in (shapes, shape_start, children, child_start):
        array.setflags(write=False)
    return OrbitStructure(cycles=cycles, keys=keys, shapes=shapes, shape_start=shape_start,
                          children=children, child_start=child_start)


def _stable_order(key, bound):
    """key.argsort(kind="stable"), for an int64 key with entries in range(bound).

    Where it fits in int64, a plain sort of key * len(key) + position does
    the same: those values are unique.  On 10**5 random keys that took 1.6 ms
    against 13 ms (on the machine named at WIDE_LEVEL).
    """
    size = len(key)
    if bound * size > 2 ** 63:  # Python integers: this product cannot overflow
        return key.argsort(kind="stable")
    return np.sort(key * size + np.arange(size)) % size


def _gather(values, first, stop):
    """values[first[r]:stop[r]] for every row r, concatenated."""
    size = stop - first
    offset = np.cumsum(size) - size
    return values[np.arange(int(size.sum())) + np.repeat(first - offset, size)]


def _rank_rows(vals, size):
    """Rank the rows of one level's child labels, in numpy.

    Row r is the next size[r] entries of vals, in any order.  Returns each
    row's rank among the level's distinct rows, sorted and compared as
    tuples.  Rows are compared block by block: blocks of 1, 2, 4, ... labels
    aligned at the row start, each ranked from its two halves, so the work
    halves from round to round.
    """
    total = len(vals)
    if not total:  # a level of leaves
        return np.zeros(len(size), dtype=np.int64)
    offset = np.cumsum(size) - size  # row -> start of its labels in `vals`
    row = np.repeat(np.arange(len(size)), size)
    top = int(vals.max()) + 1
    vals = np.sort(row * top + vals) - row * top  # each row in ascending order
    # block k starts at `at` and holds `span` labels, or fewer at its row's
    # end; rank orders the blocks, a cut block before every block it begins
    at, first, rank, span = np.arange(total), offset[row], vals, 1
    while span < size.max():
        odd = (at - first) & span != 0  # second halves: the block before absorbs them
        after = np.where(np.append(odd[1:], False), np.append(rank[1:], 0) + 1, 0)
        keep = ~odd
        top = int(rank.max()) + 2
        rank = _dense_rank((rank * top + after)[keep], top * top)
        at, first, span = at[keep], first[keep], span * 2
    key = np.zeros(len(size), dtype=np.int64)  # the empty row first
    key[size > 0] = rank + 1
    return _dense_rank(key, int(key.max()) + 1)


def _dense_rank(key, bound):
    """Each entry's rank among the distinct values of key, an int64 array
    with entries in range(bound): what np.unique returns as inverse, by a
    plain sort."""
    order = _stable_order(key, bound)
    ordered = key[order]
    new = np.empty(len(key), dtype=bool)
    new[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    rank = np.empty(len(key), dtype=np.int64)
    rank[order] = np.cumsum(new) - 1
    return rank


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
    shapes, start = orbit.shapes.tolist(), orbit.shape_start.tolist()

    def tree(root):
        out, stack = [], [root]  # labels to open; -1 closes the innermost open tree
        while stack:
            x = stack.pop()
            out.append("(" if x > 0 else "()" if x == 0 else ")")  # label 0: the empty shape
            if x > 0:
                stack.append(-1)
                stack.extend(reversed(shapes[start[x]:start[x + 1]]))
        return "".join(out)

    return ";".join("%d:%s" % (length, "|".join(map(tree, labels)))
                    for length, labels in orbit.keys)


def are_conjugate(a: FiniteDynSys, b: FiniteDynSys):
    """Decide conjugacy; on success return an explicit witness bijection."""
    if a.n != b.n:
        return None
    a_orbit = orbit_structure(a)
    b_orbit = orbit_structure(b)
    if (a_orbit.keys != b_orbit.keys or not np.array_equal(a_orbit.shapes, b_orbit.shapes)
            or not np.array_equal(a_orbit.shape_start, b_orbit.shape_start)):
        return None
    # equal keys pair the cycles point by point; children are sorted by
    # label, so equal multisets pair up in order, level after level
    sigma = np.empty(a.n, dtype=np.int64)
    sigma[_breadth_first(a_orbit)] = _breadth_first(b_orbit)
    return ConjugacyWitness(a, b, sigma)


def _breadth_first(orbit: OrbitStructure) -> np.ndarray:
    """Every point: the cycles in order, then level after level of their
    in-trees, each point's children in CSR order.

    A narrow queue is read point by point in Python until what it holds
    unread is wide; a wide one is expanded a whole stretch at a time in
    numpy.  A stretch need not be one level: whatever sits in the queue
    comes out before its children, in order, either way.
    """
    children, child_start = orbit.children, orbit.child_start
    kids, start = memoryview(children), memoryview(child_start)
    queue = [p for cycle in orbit.cycles for p in cycle]
    done = []
    while queue:
        if len(queue) < WIDE_LEVEL:
            for i, x in enumerate(queue):  # grows while it is read
                a, b = start[x], start[x + 1]
                if b - a == 1:
                    queue.append(kids[a])
                elif a < b:
                    queue += kids[a:b].tolist()
                    if len(queue) - i > WIDE_LEVEL:
                        break
            else:
                done.append(queue)
                break
            done.append(queue[:i + 1])
            queue = queue[i + 1:]
        queue = np.array(queue, dtype=np.int64)
        while len(queue) >= WIDE_LEVEL:
            done.append(queue)
            queue = _gather(children, child_start[queue], child_start[queue + 1])
        queue = queue.tolist()
    return np.concatenate(done)


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
