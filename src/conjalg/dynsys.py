"""Finite dynamical systems and exact conjugacy decision.

A finite system is a set {0, ..., n-1} together with a self-map given as a
table.  Conjugacy of two systems is decided through a canonical form built
from the cycle structure and AHU-style encodings of the rooted in-trees
hanging off each cycle point.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

BRUTE_FORCE_MAX = 9


class SystemError_(ValueError):
    pass


class OracleSizeError(ValueError):
    """Raised when brute_force_conjugate is asked for more than 9 points."""


@dataclass(frozen=True)
class FiniteDynSys:
    """A self-map of {0, ..., n-1} given by its value table."""

    n: int
    map: tuple

    def __post_init__(self):
        try:
            object.__setattr__(self, "n", operator.index(self.n))
            object.__setattr__(self, "map", tuple(map(operator.index, self.map)))
        except TypeError as exc:
            raise SystemError_("n and map entries must be integers: %s" % exc)
        if self.n < 1:
            raise SystemError_("system must have at least one point")
        if len(self.map) != self.n:
            raise SystemError_("map table length must equal n")
        for v in self.map:
            if not 0 <= v < self.n:
                raise SystemError_("map entry %r out of range" % (v,))

    def apply(self, i: int) -> int:
        return self.map[i]

    def iterate(self, i: int, k: int) -> int:
        for _ in range(k):
            i = self.map[i]
        return i

    @classmethod
    def from_json(cls, obj) -> "FiniteDynSys":
        if not isinstance(obj, dict) or "n" not in obj or "map" not in obj:
            raise SystemError_('system JSON must be {"n": int, "map": [...]}')
        return cls(obj["n"], tuple(obj["map"]))

    def to_json(self):
        return {"n": self.n, "map": list(self.map)}


@dataclass(frozen=True)
class ConjugacyWitness:
    """A bijection sigma with sigma(eta1(i)) = eta2(sigma(i))."""

    source: FiniteDynSys
    target: FiniteDynSys
    bijection: tuple

    def __post_init__(self):
        object.__setattr__(self, "bijection", tuple(int(v) for v in self.bijection))
        sigma = self.bijection
        n = self.source.n
        if self.target.n != n or sorted(sigma) != list(range(n)):
            raise SystemError_("witness is not a bijection of the right size")
        for i in range(n):
            if sigma[self.source.map[i]] != self.target.map[sigma[i]]:
                raise SystemError_("witness does not intertwine the two maps")

    def inverse_table(self) -> tuple:
        inv = [0] * self.source.n
        for i, v in enumerate(self.bijection):
            inv[v] = i
        return tuple(inv)


@dataclass(frozen=True)
class OrbitStructure:
    """Cycles plus, for every cycle point, its canonical in-tree encoding."""

    cycles: tuple                 # tuple of cycles, each a tuple of points
    tree_encodings: dict = field(compare=False)   # point on a cycle -> encoding
    tree_children: dict = field(compare=False)    # point -> tuple of non-cycle preds


def fixed_points(sys: FiniteDynSys) -> set:
    """Points i with map[i] == i."""
    return {i for i in range(sys.n) if sys.map[i] == i}


def orbit_structure(sys: FiniteDynSys) -> OrbitStructure:
    """Split the functional graph into cycles and rooted in-trees.

    Cycles are ordered by their smallest element and rotated to start at it.
    """
    n = sys.n
    indeg = [0] * n
    for v in sys.map:
        indeg[v] += 1
    # peel leaves; whatever survives lies on a cycle
    stack = [i for i in range(n) if indeg[i] == 0]
    alive = [True] * n
    while stack:
        i = stack.pop()
        alive[i] = False
        j = sys.map[i]
        indeg[j] -= 1
        if indeg[j] == 0:
            stack.append(j)
    on_cycle = alive

    seen = [False] * n
    cycles = []
    for i in range(n):
        if on_cycle[i] and not seen[i]:
            cyc = []
            j = i
            while not seen[j]:
                seen[j] = True
                cyc.append(j)
                j = sys.map[j]
            m = cyc.index(min(cyc))
            cycles.append(tuple(cyc[m:] + cyc[:m]))
    cycles.sort(key=lambda c: c[0])

    children = {i: [] for i in range(n)}
    for i in range(n):
        if not on_cycle[i]:
            children[sys.map[i]].append(i)

    enc = {}

    def encode(v):
        if v not in enc:
            enc[v] = "(" + "".join(sorted(encode(c) for c in children[v])) + ")"
        return enc[v]

    tree_encodings = {}
    for cyc in cycles:
        for p in cyc:
            tree_encodings[p] = encode(p)
    return OrbitStructure(
        cycles=tuple(cycles),
        tree_encodings=tree_encodings,
        tree_children={i: tuple(sorted(c, key=lambda v: enc.get(v, encode(v))))
                       for i, c in children.items()},
    )


def _min_rotation(seq):
    """Index of the lexicographically least rotation of seq."""
    best = 0
    for k in range(1, len(seq)):
        if seq[k:] + seq[:k] < seq[best:] + seq[:best]:
            best = k
    return best


def _cycle_key(orbit: OrbitStructure, cyc):
    encs = [orbit.tree_encodings[p] for p in cyc]
    k = _min_rotation(encs)
    return (len(cyc), tuple(encs[k:] + encs[:k]))


def canonical_form(sys: FiniteDynSys) -> str:
    """A complete conjugacy invariant: equal strings iff conjugate systems."""
    orbit = orbit_structure(sys)
    keys = sorted(_cycle_key(orbit, c) for c in orbit.cycles)
    return ";".join("%d:%s" % (length, "|".join(encs)) for length, encs in keys)


def _match_tree(a_orbit, b_orbit, ra, rb, sigma):
    """Extend sigma by an isomorphism of the in-trees rooted at ra and rb."""
    sigma[ra] = rb
    ca = a_orbit.tree_children[ra]
    cb = b_orbit.tree_children[rb]
    # children are pre-sorted by encoding, so equal multisets pair up in order
    for x, y in zip(ca, cb):
        _match_tree(a_orbit, b_orbit, x, y, sigma)


def are_conjugate(a: FiniteDynSys, b: FiniteDynSys):
    """Decide conjugacy; on success return an explicit witness bijection."""
    if a.n != b.n or canonical_form(a) != canonical_form(b):
        return None
    a_orbit = orbit_structure(a)
    b_orbit = orbit_structure(b)
    a_cycles = sorted(a_orbit.cycles, key=lambda c: _cycle_key(a_orbit, c))
    b_cycles = sorted(b_orbit.cycles, key=lambda c: _cycle_key(b_orbit, c))
    sigma = {}
    for ca, cb in zip(a_cycles, b_cycles):
        encs_a = [a_orbit.tree_encodings[p] for p in ca]
        encs_b = [b_orbit.tree_encodings[p] for p in cb]
        ka = _min_rotation(encs_a)
        kb = _min_rotation(encs_b)
        L = len(ca)
        for j in range(L):
            pa = ca[(ka + j) % L]
            pb = cb[(kb + j) % L]
            _match_tree(a_orbit, b_orbit, pa, pb, sigma)
    table = tuple(sigma[i] for i in range(a.n))
    return ConjugacyWitness(a, b, table)


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
    map_a = np.array(a.map, dtype=np.int64)
    map_b = np.array(b.map, dtype=np.int64)
    ok = np.all(perms[:, map_a] == map_b[perms], axis=1)
    idx = np.flatnonzero(ok)
    if idx.size == 0:
        return None
    return ConjugacyWitness(a, b, tuple(int(v) for v in perms[idx[0]]))


def relabel(sys: FiniteDynSys, sigma) -> FiniteDynSys:
    """The conjugate system sigma . eta . sigma^{-1}."""
    sigma = tuple(int(v) for v in sigma)
    inv = [0] * sys.n
    for i, v in enumerate(sigma):
        inv[v] = i
    return FiniteDynSys(sys.n, tuple(sigma[sys.map[inv[i]]] for i in range(sys.n)))
