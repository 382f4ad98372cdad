import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

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
                  (0, -1), np.array([0, 2**64 - 1], dtype=np.uint64)):
        with pytest.raises(SystemError_):
            FiniteDynSys(2, table)


def test_fixed_points():
    assert fixed_points(FiniteDynSys(3, (0, 1, 2))) == {0, 1, 2}
    assert fixed_points(FiniteDynSys(2, (1, 0))) == set()
    assert fixed_points(FiniteDynSys(3, (0, 0, 1))) == {0}


def test_orbit_structure_identity():
    o = orbit_structure(FiniteDynSys(2, (0, 1)))
    assert o.cycles == ((0,), (1,))
    assert all(o.tree_children[p] == () for p in (0, 1))


def test_orbit_structure_swap():
    o = orbit_structure(FiniteDynSys(2, (1, 0)))
    assert o.cycles == ((0, 1),)


def test_orbit_structure_chain():
    # 2 -> 1 -> 0 with 0 fixed
    o = orbit_structure(FiniteDynSys(3, (0, 0, 1)))
    assert o.cycles == ((0,),)
    assert o.tree_children[0] == (1,)
    assert o.tree_children[1] == (2,)


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


@pytest.mark.parametrize("shape", ["path", "cycle", "broom"])
def test_scale_relabel_gives_witness_and_equal_forms(shape):
    rng = np.random.default_rng(3)
    table = {
        "path": [0] + list(range(SCALE - 1)),
        "cycle": [(i + 1) % SCALE for i in range(SCALE)],
        "broom": broom(SCALE, rng),
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
