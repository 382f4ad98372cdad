import collections
import hashlib
import json

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from conjalg import dynsys
from conjalg.dynsys import (
    ConjugacyWitness,
    FiniteDynSys,
    OracleSizeError,
    SystemError_,
    are_conjugate,
    brute_force_conjugate,
    canonical_form,
    fixed_points,
    orbit_structure,
    relabel,
)
from scale_check import caterpillar, chain_bundle, star


def systems(max_n=7):
    return st.integers(1, max_n).flatmap(
        lambda n: st.tuples(*[st.integers(0, n - 1)] * n).map(
            lambda t: FiniteDynSys(n, t)
        )
    )


def test_validation():
    with pytest.raises(ValueError):
        FiniteDynSys(0, ())
    with pytest.raises(ValueError):
        FiniteDynSys(2, (0, 2))
    with pytest.raises(ValueError):
        FiniteDynSys(2, (0,))
    for table in (np.array([0., 1.]), (0, 1.0), [[0], [1]], (0, 2**70), (0, "1"), (0, None),
                  (0, -1), np.array([0, 2**64 - 1], dtype=np.uint64), (True, False)):
        with pytest.raises(SystemError_):
            FiniteDynSys(2, table)
    for n in (True, np.bool_(True)):
        with pytest.raises(SystemError_):
            FiniteDynSys(n, (0,))


def test_fixed_points():
    assert fixed_points(FiniteDynSys(3, (0, 1, 2))) == {0, 1, 2}
    assert fixed_points(FiniteDynSys(2, (1, 0))) == set()
    assert fixed_points(FiniteDynSys(3, (0, 0, 1))) == {0}


def test_orbit_structure_identity():
    o = orbit_structure(FiniteDynSys(2, (0, 1)))
    assert o.cycles == ((0,), (1,))
    assert all(o.children_of(p) == () for p in (0, 1))


def test_orbit_structure_swap():
    o = orbit_structure(FiniteDynSys(2, (1, 0)))
    assert o.cycles == ((0, 1),)


def test_orbit_structure_chain():
    # 2 -> 1 -> 0 with 0 fixed
    o = orbit_structure(FiniteDynSys(3, (0, 0, 1)))
    assert o.cycles == ((0,),)
    assert o.children_of(0) == (1,)
    assert o.children_of(1) == (2,)


def test_canonical_form_trivial():
    assert canonical_form(FiniteDynSys(1, (0,))) == canonical_form(FiniteDynSys(1, (0,)))
    assert canonical_form(FiniteDynSys(2, (1, 0))) != canonical_form(FiniteDynSys(2, (0, 1)))


def test_canonical_form_relabel():
    a = FiniteDynSys(4, (1, 2, 0, 0))
    b = relabel(a, (2, 0, 1, 3))
    assert canonical_form(a) == canonical_form(b)
    assert brute_force_conjugate(a, b) is not None


def test_are_conjugate_identity():
    a = FiniteDynSys(3, (0, 1, 2))
    w = are_conjugate(a, a)
    assert w is not None and sorted(w.bijection) == [0, 1, 2]


def test_are_conjugate_negative():
    assert are_conjugate(FiniteDynSys(2, (1, 0)), FiniteDynSys(2, (0, 1))) is None


def test_are_conjugate_relabel():
    a = FiniteDynSys(4, (1, 2, 0, 0))
    b = relabel(a, (2, 0, 1, 3))
    w = are_conjugate(a, b)
    assert w is not None  # witness invariant checked in its constructor


def test_brute_force_trivial():
    a = FiniteDynSys(2, (0, 1))
    assert brute_force_conjugate(a, a).bijection in ((0, 1), (1, 0))
    sw = FiniteDynSys(2, (1, 0))
    assert brute_force_conjugate(sw, sw) is not None


def test_brute_force_chain_pair():
    w = brute_force_conjugate(FiniteDynSys(3, (0, 0, 1)), FiniteDynSys(3, (1, 1, 0)))
    assert w is not None and w.bijection == (1, 0, 2)


def test_brute_force_size_guard():
    a = FiniteDynSys(10, tuple(range(10)))
    with pytest.raises(OracleSizeError):
        brute_force_conjugate(a, a)
    assert brute_force_conjugate(FiniteDynSys(2, (0, 1)), FiniteDynSys(3, (0, 1, 2))) is None


def test_witness_rejects_bad_bijection():
    a = FiniteDynSys(2, (1, 0))
    b = FiniteDynSys(2, (0, 1))
    with pytest.raises(ValueError):
        ConjugacyWitness(a, b, (0, 1))


@given(systems(), st.randoms(use_true_random=False))
def test_canonical_form_relabel_invariant(a, rnd):
    sigma = list(range(a.n))
    rnd.shuffle(sigma)
    assert canonical_form(a) == canonical_form(relabel(a, tuple(sigma)))


@given(systems(max_n=5), systems(max_n=5))
def test_decision_matches_oracle(a, b):
    fast = are_conjugate(a, b)
    slow = brute_force_conjugate(a, b)
    assert (fast is None) == (slow is None)


def test_witness_maps_fixed_points_to_fixed_points():
    rng = np.random.default_rng(5)
    for _ in range(100):
        n = int(rng.integers(1, 8))
        a = FiniteDynSys(n, tuple(int(v) for v in rng.integers(0, n, n)))
        b = relabel(a, tuple(int(v) for v in rng.permutation(n)))
        w = are_conjugate(a, b)
        assert w is not None
        fa = fixed_points(a)
        fb = fixed_points(b)
        assert {w.bijection[i] for i in fa} == fb


@pytest.mark.parametrize("sigma", [(0, 0, 1), (0.7, 1.2, 2.9), (0, 1, 3), (0, 1), (1, 2, 0, 3)])
def test_relabel_and_witness_reject_non_permutations(sigma):
    a = FiniteDynSys(3, (1, 2, 0))
    with pytest.raises(SystemError_):
        relabel(a, sigma)
    with pytest.raises(SystemError_):
        ConjugacyWitness(a, a, sigma)


def test_relabel_accepts_numpy_integers():
    a = FiniteDynSys(3, (1, 2, 2))
    assert relabel(a, np.array([2, 0, 1])) == relabel(a, (2, 0, 1)) == FiniteDynSys(3, (1, 1, 0))


@given(systems(max_n=6), st.data())
def test_canonical_form_equal_iff_oracle_conjugate(a, data):
    b = data.draw(st.one_of(
        st.permutations(range(a.n)).map(lambda s: relabel(a, s)),
        st.tuples(*[st.integers(0, a.n - 1)] * a.n).map(lambda t: FiniteDynSys(a.n, t)),
    ))
    assert (canonical_form(a) == canonical_form(b)) == (brute_force_conjugate(a, b) is not None)


SCALE = 10 ** 5


def broom(n, rng):
    """A path n/2 - 1 -> ... -> 1 -> 0, with 0 fixed, and a leg from every
    later point i to a random point in 1..i-1, so the tree is ~n/2 levels tall."""
    legs = rng.integers(1, np.arange(n // 2, n))
    return [0] + list(range(n // 2 - 1)) + [int(v) for v in legs]


@pytest.mark.parametrize("shape", ["path", "cycle", "broom", "star", "random"])
def test_scale_relabel_gives_witness_and_equal_forms(shape):
    rng = np.random.default_rng(3)
    table = {
        "path": [0] + list(range(SCALE - 1)),
        "cycle": [(i + 1) % SCALE for i in range(SCALE)],
        "broom": broom(SCALE, rng),
        # drawn only for their own case, so the cases above keep their draws
        "star": star(SCALE, rng) if shape == "star" else None,
        "random": rng.integers(0, SCALE, SCALE) if shape == "random" else None,
    }[shape]
    a = FiniteDynSys(SCALE, table)
    b = relabel(a, rng.permutation(SCALE))
    assert are_conjugate(a, b) is not None  # witness checked in its constructor
    assert canonical_form(a) == canonical_form(b)


def test_scale_broom_variant_not_conjugate():
    rng = np.random.default_rng(4)
    table = broom(SCALE, rng)
    variant = list(table)
    # the last point is a leaf at distance >= 2 from the fixed point 0; moving
    # it to distance 1 changes the multiset of distances, a conjugacy invariant
    variant[-1] = 0
    a = FiniteDynSys(SCALE, table)
    assert are_conjugate(a, relabel(FiniteDynSys(SCALE, variant), rng.permutation(SCALE))) is None


def _md5(lines):
    return hashlib.md5("\n".join(lines).encode()).hexdigest()


def test_golden_forms_and_witnesses():
    """Exact output pinned by hashes taken from the list-based implementation
    that the level-by-level numpy ranking replaced."""
    rng = np.random.default_rng(0)
    forms, witnesses = [], []
    for _ in range(2000):
        n = rng.integers(1, 9)
        a = FiniteDynSys(n, rng.integers(0, n, n))
        b = relabel(a, rng.permutation(n))
        forms.append(canonical_form(a))
        witnesses.append(repr(are_conjugate(a, b).bijection))
    assert _md5(forms) == "1b244b1b15dc28ed2aaa82fb551f1a1c"
    assert _md5(witnesses) == "2f69975f6d131448c49287062f3af139"

    rng = np.random.default_rng(1)
    forms, witnesses = [], []
    for i in range(60):
        n = int(rng.integers(100, 3001))
        a = FiniteDynSys(n, rng.integers(0, n, n) if i % 2 else star(n, rng))
        b = relabel(a, rng.permutation(n))
        forms.append(canonical_form(a))
        witnesses.append(repr(are_conjugate(a, b).bijection))
    assert _md5(forms) == "2633e4e9899f1882051b3cc917d1b645"
    assert _md5(witnesses) == "82b8cbe06104f2915c2e9b74479e2729"


def cycle_with_chains(n, rng):
    """A cycle of n/4 points; every other point hangs on a random cycle point
    or on the point before it, so chains have mean length 2."""
    length = max(3, n // 4)
    table = np.empty(n, dtype=np.int64)
    table[:length] = (np.arange(length) + 1) % length
    to_cycle = rng.random(n - length) < 0.5
    table[length:] = np.where(to_cycle, rng.integers(0, length, n - length),
                              np.arange(length - 1, n - 1))
    return table


def leafy_broom(n, rng):
    """A path of n/2 points as in `caterpillar`, and n/2 leaves on random
    path points: narrow levels with a varying number of leaves."""
    half = n // 2
    return np.concatenate([np.maximum(np.arange(half) - 1, 0), rng.integers(0, half, n - half)])


def hub_star(leaves):
    """A fixed centre 0 with one hub per entry of `leaves`: hub h + 1 maps to
    0 and carries leaves[h] leaves, so every hub sits at height 1."""
    k = len(leaves)
    return np.concatenate([np.zeros(k + 1, dtype=np.int64), np.repeat(np.arange(1, k + 1), leaves)])


def leafy_cycle(leaves):
    """A cycle of len(leaves) points whose point i carries leaves[i] leaves:
    cycle points with leaves sit at height 1, the others at height 0."""
    m = len(leaves)
    return np.concatenate([(np.arange(m) + 1) % m, np.repeat(np.arange(m), leaves)])


def level_pairs():
    """Pairs (a, relabelled a) whose levels fall on either side of WIDE_LEVEL."""
    rng = np.random.default_rng(7)
    pairs = []
    for i in range(210):
        n = int(rng.integers(4, 300))
        if i % 3 == 0:
            table = rng.integers(0, n, n)
        elif i % 3 == 1:
            table = star(n, rng)
        else:
            table = broom(n, rng)
        a = FiniteDynSys(n, table)
        pairs.append((a, relabel(a, rng.permutation(n))))
    # each switch at n >= WIDE_LEVEL: cycles with no leaves at all; a fixed
    # point whose children make the walk's second level wide; paths, narrow
    # at every level; short chains on a cycle, wide where the walk starts
    for n in (64, 65, 200, 1000):
        for table in ((np.arange(n) + 1) % n, np.zeros(n, dtype=np.int64),
                      np.maximum(np.arange(n) - 1, 0), cycle_with_chains(n, rng)):
            a = FiniteDynSys(n, table)
            pairs.append((a, relabel(a, rng.permutation(n))))
    # long runs of narrow levels: one path point with its leaves, or k chain points
    for n, table in ((1000, caterpillar(1000)), (2000, leafy_broom(2000, rng)),
                     (1000, chain_bundle(1000, 2)), (2000, chain_bundle(2000, 8)),
                     (3000, chain_bundle(3000, 32))):
        a = FiniteDynSys(n, table)
        pairs.append((a, relabel(a, rng.permutation(n))))
    # a wide height 1, ranked by child counts: hubs with equal and with distinct
    # leaf counts, and cycle points carrying only leaves beside childless ones.
    # Then child runs that make the walk's unread queue wide, or just fail to:
    # the root's run with no other point unread, the middle point of a 3-cycle
    # with one, and a hub's run with the root's other w - 2 children unread
    w = dynsys.WIDE_LEVEL
    tables = [hub_star([3] * 70), hub_star(np.arange(1, 71)), leafy_cycle(rng.integers(0, 4, 200))]
    tables += [leafy_cycle([k]) for k in (w - 1, w)]
    tables += [leafy_cycle([0, k, 1]) for k in (w - 2, w - 1)]
    tables += [hub_star([2] * (w - 1)), hub_star([2] * w)]
    for table in tables:
        a = FiniteDynSys(len(table), table)
        pairs.append((a, relabel(a, rng.permutation(len(table)))))
    return pairs


def peel_invariants(sys):
    """The height histogram and the sorted cycle lengths of a small system,
    in plain Python: a point lies on a cycle when it comes back to itself,
    and its height is 0 without children off the cycles, else one more than
    its tallest such child's."""
    table, n = sys.map.tolist(), sys.n
    length = []
    for x in range(n):
        y, k = table[x], 1
        while y != x and k <= n:
            y, k = table[y], k + 1
        length.append(k if y == x else 0)

    def height(x):
        return max((height(c) + 1 for c in range(n) if table[c] == x and not length[c]), default=0)

    points = collections.Counter(k for k in length if k)  # a cycle of k points counts k times
    return (np.bincount([height(x) for x in range(n)]).tolist(),
            sorted(k for k, count in points.items() for _ in range(count // k)))


def rehung_leaf(table):
    """`table` with its first leaf hung on its last leaf."""
    table = np.array(table)
    leaves = np.flatnonzero(np.bincount(table, minlength=len(table)) == 0)
    table[leaves[0]] = leaves[-1]
    return table


@pytest.mark.parametrize("a, b", [
    ((0, 0, 1), (0, 0, 0)),  # heights 0, 1, 2 against 0, 0, 1
    ((1, 0, 2), (1, 2, 0)),  # all of height 0; cycles of 1 and 2 points against one of 3
    (leafy_cycle([1] * 100), rehung_leaf(leafy_cycle([1] * 100))),  # two wide levels, then three
])
def test_peels_that_differ_decide_before_any_label(monkeypatch, a, b):
    """Equal sizes, but height histograms or cycle lengths that differ: the
    answer is "no" without a label, since a conjugacy keeps both."""
    a, b = FiniteDynSys(len(a), a), FiniteDynSys(len(b), b)
    assert peel_invariants(a) != peel_invariants(b)

    def fail(*args):
        raise AssertionError("the label stage ran")

    monkeypatch.setattr(dynsys, "_rank_rows", fail)
    monkeypatch.setattr(dynsys, "_label_levels", fail)
    assert are_conjugate(a, b) is None
    with pytest.raises(AssertionError):  # the patch does stop the label stage
        are_conjugate(a, a)


def leads_to(table, y, x):
    """Whether x lies on the path y, table[y], table[table[y]], ..."""
    for _ in range(len(table)):
        if y == x:
            return True
        y = table[y]
    return False


@given(systems(), st.data())
def test_decision_matches_oracle_where_the_peels_agree(a, data):
    """One map entry changed, a point off the cycles hung on a new parent
    outside its own tree, then relabelled: the cycle lengths stay, and where
    the height histograms agree too, only the labels can tell the pair
    apart, and the verdict is the oracle's."""
    table = a.map.tolist()
    off_cycles = [x for x in range(a.n) if not leads_to(table, table[x], x)]
    assume(off_cycles)
    x = data.draw(st.sampled_from(off_cycles))
    parents = [y for y in range(a.n) if y != table[x] and not leads_to(table, y, x)]
    assume(parents)
    table[x] = data.draw(st.sampled_from(parents))
    b = relabel(FiniteDynSys(a.n, table), data.draw(st.permutations(range(a.n))))
    assume(peel_invariants(a) == peel_invariants(b))
    assert (are_conjugate(a, b) is None) == (brute_force_conjugate(a, b) is None)


def test_numpy_and_python_levels_agree(monkeypatch):
    """Every level peeled, ranked and walked with numpy, every level in
    Python, or the default mix: the same orbit structure and the same witness."""
    pairs = level_pairs()
    results = []
    for wide in (1, dynsys.WIDE_LEVEL, 10 ** 9):
        monkeypatch.setattr(dynsys, "WIDE_LEVEL", wide)
        results.append([(orbit_structure(a), orbit_structure(b), are_conjugate(a, b).bijection)
                        for a, b in pairs])
    assert results[0] == results[1] == results[2]


def plain_breadth_first(orbit):
    """Every point, breadth first in plain Python: the cycles in key order,
    then each point's children in `children_of` order."""
    order = [p for cycle in orbit.cycles for p in cycle]
    for x in order:  # grows while it is read
        order += orbit.children_of(x)
    return order


def test_witness_pairs_the_plain_breadth_first_orders(monkeypatch):
    """The witness is the bijection that pairs the two systems' plain
    breadth-first orders point by point, whichever levels numpy takes and
    however many leaves the walk passes over."""
    rng = np.random.default_rng(8)
    pairs = level_pairs()
    for table in [star(1000, rng) for _ in range(3)] + [caterpillar(1000), leafy_broom(1000, rng)]:
        a = FiniteDynSys(1000, table)
        pairs.append((a, relabel(a, rng.permutation(1000))))
    expected = []
    for a, b in pairs:
        sigma = np.empty(a.n, dtype=np.int64)
        sigma[plain_breadth_first(orbit_structure(a))] = plain_breadth_first(orbit_structure(b))
        expected.append(tuple(sigma.tolist()))
    for wide in (1, dynsys.WIDE_LEVEL, 10 ** 9):
        monkeypatch.setattr(dynsys, "WIDE_LEVEL", wide)
        assert [are_conjugate(a, b).bijection for a, b in pairs] == expected


def point_labels(orbit):
    """Each point's label, read back from the shape table: the row that
    holds its children's sorted labels."""
    start = orbit.shape_start.tolist()
    row = {tuple(orbit.shapes[lo:hi].tolist()): label
           for label, (lo, hi) in enumerate(zip(start[:-1], start[1:]))}
    label = {}
    for p in reversed(plain_breadth_first(orbit)):  # children before parents
        label[p] = row[tuple(sorted(label[c] for c in orbit.children_of(p)))]
    return label


def test_child_runs_hold_leaves_in_id_order_then_other_children_by_label():
    """The CSR order the walk relies on: each parent's run starts with its
    leaves, the points no point maps to, in ascending id, followed by its
    other children in ascending label."""
    rng = np.random.default_rng(13)
    tables = [hub_star([3] * 70), hub_star(np.arange(1, 71)), hub_star([2] * 63),
              leafy_cycle(rng.integers(0, 4, 200)), leafy_cycle([0, 70, 1]),
              star(1000, rng), star(3000, rng), caterpillar(1000), caterpillar(64)]
    tables += [rng.integers(0, n, n) for n in (5, 60, 300, 1000, 3000)]
    for table in tables:
        n = len(table)
        orbit = orbit_structure(FiniteDynSys(n, table))
        is_leaf = np.bincount(table, minlength=n) == 0
        label = point_labels(orbit)
        for p in range(n):
            run = orbit.children_of(p)
            leaves = sorted(c for c in run if is_leaf[c])
            assert list(run[:len(leaves)]) == leaves
            rest = [label[c] for c in run[len(leaves):]]
            assert rest == sorted(rest) and 0 not in rest


def test_shape_table_is_a_valid_ahu_table():
    """The shape table as a certificate check reads it: read-only int64 CSR
    rows, each ascending and holding only labels below its own, pairwise
    distinct, in AHU order (by height, then as tuples), with every label of
    every cycle key inside it."""
    rng = np.random.default_rng(12)
    tables = [rng.integers(0, n, n) for n in rng.integers(1, 61, 300)]
    tables += [caterpillar(1000), leafy_broom(1000, rng), chain_bundle(1000, 8)]
    # the closed-form bottom levels: stars, wide hub levels, childless cycle points
    tables += [star(n, rng) for n in (100, 1000, 3000)] + [rng.permutation(100)]
    tables += [hub_star([3] * 70), hub_star(np.arange(1, 71)), leafy_cycle(rng.integers(0, 4, 200))]
    for table in tables:
        orbit = orbit_structure(FiniteDynSys(len(table), table))
        shapes, start = orbit.shapes, orbit.shape_start
        for array in (shapes, start):
            assert array.dtype == np.int64 and not array.flags.writeable
        assert start[0] == 0 and start[-1] == len(shapes)
        rows = [tuple(shapes[a:b].tolist()) for a, b in zip(start[:-1], start[1:])]
        assert len(set(rows)) == len(rows)
        height = []
        for label, row in enumerate(rows):
            assert list(row) == sorted(row) and all(c < label for c in row)
            height.append(1 + max(height[c] for c in row) if row else 0)
        assert all((height[k - 1], rows[k - 1]) < (height[k], rows[k]) for k in range(1, len(rows)))
        assert all(label < len(start) - 1 for _, labels in orbit.keys for label in labels)


def test_stable_order_matches_stable_argsort_at_any_scale():
    """The final child sort keys each child by (parent * S + label) and
    appends its position among m children: about n**3, past 2**63 above
    about 2 * 10**6 points.  There `_stable_order` must fall back to a stable
    argsort rather than wrap round.  Synthetic keys of that size, no system."""
    rng = np.random.default_rng(11)
    n = m = 2_100_000  # points, labels and children alike
    key = rng.integers(n - 1000, n, m) * n + rng.integers(0, 3, m)  # many ties
    assert n * n * m > 2 ** 63 and (key * m + np.arange(m)).min() < 0  # the plain key wraps
    assert np.array_equal(dynsys._stable_order(key, n * n), key.argsort(kind="stable"))
    small = key[:10_000] - key.min()  # a plain sort is safe here
    assert np.array_equal(dynsys._stable_order(small, int(small.max()) + 1),
                          small.argsort(kind="stable"))
    # bound * size = 2**63 still fits: the largest plain key is 2**63 - 1
    for bound in (2 ** 62, 2 ** 62 + 1):
        assert dynsys._stable_order(np.array([2 ** 62 - 1, 0]), bound).tolist() == [1, 0]


def test_json_roundtrip():
    a = FiniteDynSys(3, (0, 0, 1))
    assert FiniteDynSys.from_json(a.to_json()) == a
    with pytest.raises(ValueError):
        FiniteDynSys.from_json({"n": 3})


def test_map_is_a_read_only_int64_array_compared_by_value():
    source = np.array([1, 2, 0], dtype=np.int32)
    a = FiniteDynSys(3, source)
    b = FiniteDynSys(3, (1, 2, 0))
    assert a == b and hash(a) == hash(b)
    assert a.map.dtype == np.int64
    with pytest.raises(ValueError):
        a.map[0] = 0
    source[0] = 0  # the system keeps its own copy
    assert a == b
    assert a != FiniteDynSys(3, (0, 2, 0))
    obj = json.loads(json.dumps(a.to_json()))
    assert obj == {"n": 3, "map": [1, 2, 0]}
    assert all(type(v) is int for v in a.to_json()["map"])
    w = are_conjugate(a, relabel(a, np.array([2, 0, 1])))
    assert type(w.bijection) is tuple and all(type(v) is int for v in w.bijection)
    rng = np.random.default_rng(0)
    c, sigma = FiniteDynSys(50, rng.integers(0, 50, size=50)), rng.permutation(50)
    d = relabel(c, sigma)
    assert all(d.map[sigma[i]] == sigma[c.map[i]] for i in range(50))  # point by point
