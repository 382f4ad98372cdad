"""Finite dynamical systems and exact conjugacy decision.

A finite system is a set {0, ..., n-1} together with a self-map given as a
table.  Conjugacy of two systems is decided from the cycle structure and
integer AHU labels (Aho, Hopcroft and Ullman) of the rooted in-trees
hanging off each cycle point, computed in one pass without recursion.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

BRUTE_FORCE_MAX = 9


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
        if relabel(self.source, sigma) != self.target:
            raise SystemError_("witness does not intertwine the two maps")


def _permutation(sigma, n: int) -> np.ndarray:
    """sigma as a read-only int64 array; SystemError_ unless it permutes range(n)."""
    sigma = FiniteDynSys(n, sigma).map  # n integers in range(n), or SystemError_
    if np.bincount(sigma, minlength=n).max() > 1:
        raise SystemError_("not a permutation of range(%d)" % n)
    return sigma


@dataclass(frozen=True)
class OrbitStructure:
    """Cycles and in-trees of a system with integer AHU tree labels, ranked by
    height and then by sorted child labels: systems are conjugate iff their
    `shapes` and `keys` are equal."""

    cycles: tuple         # cycles sorted by key, each started at its least rotation
    keys: tuple           # per cycle: (length, labels of its points in cycle order)
    shapes: tuple         # label -> sorted child labels of a tree with that label
    tree_children: tuple  # point -> its non-cycle preimages, sorted by label


def fixed_points(sys: FiniteDynSys) -> set:
    """Points i with map[i] == i."""
    return set(np.flatnonzero(sys.map == np.arange(sys.n)).tolist())


def orbit_structure(sys: FiniteDynSys) -> OrbitStructure:
    """Split the functional graph into cycles and rooted in-trees, in one
    pass without recursion."""
    n, f = sys.n, sys.map.tolist()  # list indexing beats numpy scalars here
    indeg = [0] * n
    for v in f:
        indeg[v] += 1
    # peel leaves; a point joins `order` once all its preimages have, and
    # whatever never joins lies on a cycle
    order = [i for i in range(n) if indeg[i] == 0]
    height = [0] * n
    children = [[] for _ in range(n)]
    for i in order:  # grows while it is read
        j = f[i]
        children[j].append(i)
        if height[j] <= height[i]:
            height[j] = height[i] + 1
        indeg[j] -= 1
        if indeg[j] == 0:
            order.append(j)

    label = [0] * n
    shapes = []
    by_height = sorted(range(n), key=height.__getitem__)
    for _, level in itertools.groupby(by_height, height.__getitem__):
        # every child sits lower, so its label is final
        shape = {i: tuple(sorted([label[c] for c in children[i]])) for i in level}
        rank = {s: k for k, s in enumerate(sorted(set(shape.values())), len(shapes))}
        shapes.extend(rank)
        for i, s in shape.items():
            label[i] = rank[s]

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
    return OrbitStructure(
        cycles=cycles,
        keys=keys,
        shapes=tuple(shapes),
        tree_children=tuple(tuple(sorted(c, key=label.__getitem__)) for c in children),
    )


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
    # label, so equal multisets pair up in order
    stack = [pair for ca, cb in zip(a_orbit.cycles, b_orbit.cycles) for pair in zip(ca, cb)]
    sigma = [0] * a.n
    while stack:
        x, y = stack.pop()
        sigma[x] = y
        stack.extend(zip(a_orbit.tree_children[x], b_orbit.tree_children[y]))
    return ConjugacyWitness(a, b, sigma)


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
    sigma = _permutation(sigma, sys.n)
    table = np.empty(sys.n, dtype=np.int64)
    table[sigma] = sigma[sys.map]
    return FiniteDynSys(sys.n, table)
