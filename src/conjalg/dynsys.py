"""Finite dynamical systems and exact conjugacy decision.

A finite system is a set {0, ..., n-1} together with a self-map given as a
table.  Conjugacy of two systems is decided from the cycle structure and
integer AHU labels (Aho, Hopcroft and Ullman) of the rooted in-trees
hanging off each cycle point, without recursion, in two stages.  The peel
stage takes the leaves off one height level at a time, which gives every
point its height, and walks the cycles.  The label stage keeps the in-tree
children in CSR form, one array of all children plus one array of start
offsets per parent, ranks the labels one height level at a time and keys
the cycles.  A conjugacy maps each point to one of the same height and each
cycle onto one of the same length, so the decision compares the two height
histograms and the sorted cycle lengths after the peels, and labels the two
systems only when both agree.  The witness pairs the breadth-first orders
of the two systems.  The two lowest levels, usually the largest, take their
labels in closed form: every point without children is of the empty shape,
and a point all of whose children are leaves is ranked by its child count.
Leaves, label 0, lead every CSR run, so they are handled in bulk: sorted
once, by parent, for the peel and the CSR alike, and passed over by the
walk, which pairs them with one gather at the end.  Peel, ranking and walk
each run in numpy where a level is wide and in a Python loop where it is
narrow, in one set-up for systems of every size; the loops read the arrays
through memoryviews.  The ranking yields labels only; the shape table, each
label's sorted child labels, is gathered once at the end.
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
# 2.4), per level: `orbit_structure` took 54 us with numpy against 20 us in
# Python at w = 16, 63 against 78 us at w = 64 and 75 against 155 us at
# w = 128; the breadth-first walk, which passes over the leaves, 9 against 3,
# 10 against 13 and 12 against 25 us.  On random maps of 10**5 and 10**6
# points a whole walk, its leaf offsets included, took 7-9 and 60-67 ms with
# the switch anywhere from 32 to 128, and 25 and 139 ms at 512.
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
        if isinstance(self.n, bool):  # operator.index takes True as 1
            raise SystemError_("n must be an integer, not a boolean")
        try:
            n = operator.index(self.n)
        except TypeError as exc:
            raise SystemError_("n must be an integer: %s" % exc)
        table = np.asarray(self.map)
        if n < 1 or table.shape != (n,):
            raise SystemError_("map must be a table of n >= 1 entries")
        if table.dtype.kind not in "iu":  # floats, bools, strings, None, ints beyond int64 fail
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
        table = obj["map"]
        # numpy reads a mixed list such as [true, 1] as integers
        if isinstance(table, list) and any(isinstance(v, bool) for v in table):
            raise SystemError_("map entries must be integers, not booleans")
        return cls(obj["n"], table)

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

    Two stages, `_peel_stage` then `_label_stage`, so that `are_conjugate`
    can compare two peels before it labels either system.  The peel takes
    the leaves off one height level at a time: in numpy while a level is
    wide, then in a Python queue from the first narrow level on; whatever is
    never peeled lies on a cycle, and only those points are walked for the
    cycles.  The leaves are sorted once, by parent, for the peel; that order
    is also their place in the CSR children, where each parent's leaves lead
    its run, since label 0 is the least.  The label stage sorts only the
    inner tree points, those with children, again: by parent for the CSR,
    and by parent and label at the end.  The peel order lists the tree
    points by height, so the points above height 0 come from the inner ones
    with the cycle points that have children merged in.  Height 0, the
    points with no children, takes label 0 outright.  The other levels are
    ranked one by one, in numpy on the wide levels and in Python on the
    narrow ones; a wide height 1, where every child is a leaf, is ranked by
    child counts alone.  One gather of labels gives the shape table.  The
    Python loops read and write the numpy arrays through memoryviews, so the
    only lists built hold points that a Python loop visits.  Every system
    takes this one path: one of fewer than WIDE_LEVEL points has no wide
    level, so only the Python loops run on it.
    """
    return _label_stage(sys, *_peel_stage(sys))


def _peel_stage(sys: FiniteDynSys):
    """The leaf peel and the cycle walk of `orbit_structure`.

    Returns the cycles, each a list of points in map order, the height
    histogram `np.bincount(height)`, and a list of the arrays the label
    stage takes over: the leaves grouped by parent, in id order, and their
    parents; the tree points above height 0 in peel order; the cycle
    points; the in-degrees, all zero once the cycles are walked; and the
    heights.
    """
    n, f = sys.n, sys.map
    indeg = np.bincount(f, minlength=n)
    height = np.zeros(n, dtype=np.int64)
    leaves = np.flatnonzero(indeg == 0)
    at, parent = _group(f, leaves)  # the leaves by parent, in id order: their CSR order
    upper = _peel_tree(f, leaves, at, parent, indeg, height)  # the tree points above height 0
    on_cycle = np.flatnonzero(indeg)
    cycles = _walk_cycles(on_cycle.tolist(), memoryview(f), memoryview(indeg))
    return cycles, np.bincount(height), [leaves[at], parent, upper, on_cycle, indeg, height]


def _label_stage(sys: FiniteDynSys, cycles, counts, peel) -> OrbitStructure:
    """The CSR children, the level ranking, the final sort, the shape table
    and the cycle keys of `orbit_structure`, from what `_peel_stage`
    returned.  The list `peel` is emptied, so that its arrays are freed
    before the level ranking, whoever else holds the list."""
    n, f = sys.n, sys.map
    leaves, parent, upper, on_cycle, indeg, height = peel
    peel.clear()
    at, kid_parent = _group(f, upper)
    kids = upper[at]
    children, child_start, slot = _children(leaves, parent, kids, kid_parent, n)

    # the points above height 0 by height; a level's labels do not depend on
    # the order of its points.  A point's tallest child sits one level below
    # it and no two points share a child, so the levels only narrow going
    # up: the wide ones come first and are labelled with numpy, the rest in
    # Python.  Height 0 holds exactly the points with no children, cycle
    # points too: all of the empty shape, label 0
    roots = on_cycle[height[on_cycle] > 0]
    upper = np.insert(upper, np.searchsorted(height[upper], height[roots]), roots)
    # so that they do not add to the peak of the final sort.  Not sooner:
    # with the in-degrees and heights freed at the end of the peel, the
    # allocator placed the arrays that follow elsewhere, and `are_conjugate`
    # on a relabelled 10**5-point star took 4 578 page faults a call, not
    # 2 301, and 9 % longer (on the machine named at WIDE_LEVEL)
    del indeg, height, leaves, parent, at
    bounds = counts[1:].cumsum().tolist()
    labels, lo = 1, 0
    wide = max(1, int(np.count_nonzero(counts >= WIDE_LEVEL)))
    lab = np.zeros(n, dtype=np.int64)
    for hi in bounds[:wide - 1]:
        level = upper[lo:hi]
        first, stop = child_start[level], child_start[level + 1]
        if lo == 0:  # height 1: every child a leaf, so rows order by length
            rank = _dense_rank(stop - first, n + 1)
        else:
            rank = _rank_rows(lab[_gather(children, first, stop)], stop - first)
        lab[level] = rank + labels
        labels += int(rank.max()) + 1
        lo = hi
    labels = _label_levels(memoryview(upper), lo, bounds[wide - 1:], memoryview(children),
                           memoryview(child_start), memoryview(lab), labels)
    # inner children by (parent, label, peel order), the witness's order;
    # then equal labels have equal sorted rows of child labels, so one point
    # per label gives the table
    children[slot] = kids[_stable_order(kid_parent * labels + lab[kids], n * labels)]
    one = np.empty(labels, dtype=np.int64)
    one[lab] = np.arange(n)
    first, stop = child_start[one], child_start[one + 1]
    return _orbit(cycles, memoryview(lab), lab[_gather(children, first, stop)],
                  np.append(0, np.cumsum(stop - first)), children, child_start)


def _peel_tree(f, leaves, at, parent, indeg, height):
    """Peel the tree points off, one height level at a time, from the leaves
    and their grouping `at`, `parent` by parent as `_group` gives it: in
    numpy while a level is wide, then in a Python queue.  Leaves `indeg`
    nonzero exactly on the cycle points, and returns the other points that
    have children, in peel order, which lists them by height."""
    levels, level = [], leaves
    while len(level) >= WIDE_LEVEL:
        if levels:
            at, parent = _group(f, level)
        levels.append(level)
        level = _peel(at, parent, indeg, height, len(levels))
    queue = _peel_queue(level.tolist(), memoryview(f), memoryview(indeg), memoryview(height))
    levels += [level, np.array(queue, dtype=np.int64)[len(level):]]
    return np.concatenate(levels[1:])


def _children(leaves, leaf_parent, kids, kid_parent, n):
    """The CSR children and their offsets, from the leaves and the other
    tree points, each grouped by parent, and their parents: each parent's
    run holds its leaves and then its other children, in the given orders.
    Also returns the positions of the other children in the CSR array."""
    child_start = np.zeros(n + 1, dtype=np.int64)
    np.bincount(kid_parent, minlength=n).cumsum(out=child_start[1:])
    children = np.empty(len(leaves) + len(kids), dtype=np.int64)
    children[child_start[leaf_parent] + np.arange(len(leaves))] = leaves
    slot = np.zeros(n + 1, dtype=np.int64)
    np.bincount(leaf_parent, minlength=n).cumsum(out=slot[1:])
    child_start += slot
    slot = slot[kid_parent + 1] + np.arange(len(kids))
    children[slot] = kids
    return children, child_start, slot


def _group(f, points):
    """The stable order that groups `points` by parent, and their parents in
    that order."""
    parent = f[points]
    at = _stable_order(parent, len(f))
    return at, parent[at]


def _peel(at, parent, indeg, height, h):
    """One level of the leaf peel, in numpy, from the order `at` that
    groups the level's points by parent and their parents `parent` in that
    order: the points that have no preimage left once the level is peeled,
    in the order in which a queue reading the level reaches them, that is by
    the position of their last child in it.  Takes the peeled points off
    `indeg` and gives every point they map to the height h."""
    last = np.append(np.flatnonzero(parent[1:] != parent[:-1]), len(at) - 1)
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

    Where it fits in int64, a plain sort of key << shift | position does the
    same, with shift the bits a position takes: those values are unique, and
    their low bits are the order.  On 10**5 random keys that took 1.6 ms
    against 13 ms (on the machine named at WIDE_LEVEL).
    """
    size = len(key)
    shift = (size - 1).bit_length()
    if bound << shift > 2 ** 63:  # Python integers: this shift cannot overflow
        return key.argsort(kind="stable")
    order = key << shift
    order |= np.arange(size)
    order.sort()
    order &= (1 << shift) - 1
    return order


def _gather(values, first, stop):
    """values[first[r]:stop[r]] for every row r, concatenated."""
    size = stop - first
    offset = np.cumsum(size) - size
    return values[np.arange(int(size.sum())) + np.repeat(first - offset, size)]


def _rank_rows(vals, size):
    """Rank the rows of one level's child labels, in numpy.

    Row r is the next size[r] entries of vals, in any order, and is not
    empty: only levels at height 2 or more come here.  Returns each row's
    rank among the level's distinct rows, sorted and compared as tuples.
    Rows are compared block by block: blocks of 1, 2, 4, ... labels aligned
    at the row start, each ranked from its two halves, so the work halves
    from round to round; after the last round each row is one block.
    """
    total = len(vals)
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
    if span == 1:  # rows of one label each: no round ranked them
        return _dense_rank(rank, top)
    return rank


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
    """Decide conjugacy; on success return an explicit witness bijection.

    Both systems are peeled before either is labelled.  A conjugacy sigma
    maps each point of height h to a point of height h, and each cycle onto
    a cycle of the same length, so systems whose height histograms or
    sorted cycle lengths differ are not conjugate, and neither is labelled.
    Otherwise both take the label stage of `orbit_structure`, and the
    systems are conjugate iff their cycle keys and shape tables agree.
    """
    if a.n != b.n:
        return None
    a_cycles, a_counts, a_peel = _peel_stage(a)
    b_cycles, b_counts, b_peel = _peel_stage(b)
    if (not np.array_equal(a_counts, b_counts)
            or sorted(map(len, a_cycles)) != sorted(map(len, b_cycles))):
        return None
    a_orbit = _label_stage(a, a_cycles, a_counts, a_peel)
    b_orbit = _label_stage(b, b_cycles, b_counts, b_peel)
    if (a_orbit.keys != b_orbit.keys or not np.array_equal(a_orbit.shapes, b_orbit.shapes)
            or not np.array_equal(a_orbit.shape_start, b_orbit.shape_start)):
        return None
    return ConjugacyWitness(a, b, _matching(a_orbit, b_orbit))


def _matching(a_orbit: OrbitStructure, b_orbit: OrbitStructure) -> np.ndarray:
    """The witness of two conjugate systems: equal keys pair the cycles point
    by point; children are sorted by label, so equal multisets pair up in
    order, level after level, each child with the child at the same CSR
    index of its parent's image.  The walks pass over the leaves, which lead
    every run; then one gather a side pairs each point's leaves with those
    of its image."""
    a_past, b_past = _leaf_ends(a_orbit), _leaf_ends(b_orbit)
    sigma = np.empty(len(a_past), dtype=np.int64)
    sigma[_breadth_first(a_orbit, a_past)] = _breadth_first(b_orbit, b_past)
    p = np.flatnonzero(a_past > a_orbit.child_start[:-1])  # the points with leaves
    q = sigma[p]
    leaves = _gather(b_orbit.children, b_orbit.child_start[q], b_past[q])
    sigma[_gather(a_orbit.children, a_orbit.child_start[p], a_past[p])] = leaves
    return sigma


def _leaf_ends(orbit: OrbitStructure) -> np.ndarray:
    """Per point, the offset in `children` where its leaves end: a leaf is
    a child with no children, and the leaves lead every run."""
    children, child_start = orbit.children, orbit.child_start
    leaves = np.zeros(len(children) + 1, dtype=np.int64)  # leaves before each offset
    np.cumsum((child_start[1:] == child_start[:-1])[children], out=leaves[1:])
    return child_start[:-1] + np.diff(leaves[child_start])


def _breadth_first(orbit: OrbitStructure, past: np.ndarray) -> np.ndarray:
    """The cycle points and the points with children, breadth first: the
    cycles in order, then level after level of their in-trees, each point's
    children in CSR order.  The leaves are passed over: a point's children
    from `past`, the offsets `_leaf_ends` gives, on are the ones walked.

    A narrow queue is read point by point in Python until a point's
    children would make what it holds unread wide; that run of children
    joins the unread points as an array, uncopied through a list.  A wide
    queue is expanded a whole stretch at a time in numpy.  A stretch need
    not be one level: whatever sits in the queue comes out before its
    children, in order, either way.
    """
    children, child_start = orbit.children, orbit.child_start
    kids, start, end = memoryview(children), memoryview(past), memoryview(child_start)
    queue = [p for cycle in orbit.cycles for p in cycle]
    done = []
    while queue:
        if len(queue) < WIDE_LEVEL:
            for i, x in enumerate(queue):  # grows while it is read
                a, b = start[x], end[x + 1]
                if b - a == 1:
                    queue.append(kids[a])
                elif len(queue) - i + b - a > WIDE_LEVEL:  # len(queue) - i - 1 + b - a unread
                    break
                elif a < b:
                    queue += kids[a:b].tolist()
            else:
                done.append(queue)
                break
            done.append(queue[:i + 1])
            queue = np.concatenate([np.array(queue[i + 1:], dtype=np.int64), children[a:b]])
        else:
            queue = np.array(queue, dtype=np.int64)
        while len(queue) >= WIDE_LEVEL:
            done.append(queue)
            queue = _gather(children, past[queue], child_start[queue + 1])
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
