import numpy as np
import pytest

from conjalg.charspace import (
    Character,
    CharacterError,
    build_catalog,
    catalog_equal,
    eval_character,
)
from conjalg.dynsys import ConjugacyWitness, FiniteDynSys, relabel
from conjalg.skewpoly import SkewPoly, transport
from conjalg.verify import random_poly

IDENTITY2 = FiniteDynSys(2, (0, 1))
SWAP = FiniteDynSys(2, (1, 0))
CHAIN = FiniteDynSys(3, (0, 0, 1))


def test_character_invariant():
    Character(IDENTITY2, 0, 0.5)
    Character(SWAP, 0, 0.0)
    with pytest.raises(CharacterError):
        Character(SWAP, 0, 0.5)  # not a fixed point
    with pytest.raises(CharacterError):
        Character(IDENTITY2, 0, 1.5)  # outside the disc
    with pytest.raises(CharacterError):
        Character(IDENTITY2, 5, 0.0)


@pytest.mark.parametrize("z", [complex("nan"), complex("nan+nanj"), complex("inf"), 1j * float("inf")])
def test_character_rejects_non_finite_parameter(z):
    with pytest.raises(CharacterError):
        Character(IDENTITY2, 0, z)  # over a fixed point


def test_eval_shift_term():
    # theta_{x,z}(gU) = g(x) z at a fixed point
    g = SkewPoly.monomial(IDENTITY2, [3, 7], 1)
    assert eval_character(Character(IDENTITY2, 0, 0.25), g) == pytest.approx(0.75)
    assert eval_character(Character(IDENTITY2, 1, 0.5j), g) == pytest.approx(3.5j)


def test_eval_zero_param_keeps_constant_term():
    p = SkewPoly.make(SWAP, [[1, 2], [3, 4], [5, 6]])
    assert eval_character(Character(SWAP, 1, 0.0), p) == 2


def test_eval_power_series():
    p = SkewPoly.make(CHAIN, [[1, 0, 0], [2, 0, 0], [3, 0, 0]])
    # f(0) + 0.5 g(0) + 0.25 h(0)
    assert eval_character(Character(CHAIN, 0, 0.5), p) == pytest.approx(1 + 1 + 0.75)


def test_multiplicativity():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(1, 6))
        sys = FiniteDynSys(n, tuple(int(v) for v in rng.integers(0, n, n)))
        x = int(rng.integers(0, n))
        z = 0.0
        if sys.map[x] == x:
            z = 0.9 * rng.random() * np.exp(2j * np.pi * rng.random())
        ch = Character(sys, x, z)
        p = random_poly(rng, sys, 6)
        q = random_poly(rng, sys, 6)
        assert abs(eval_character(ch, p * q)
                   - eval_character(ch, p) * eval_character(ch, q)) <= 1e-12


def test_nonfixed_character_kills_positive_degree():
    p = SkewPoly.monomial(SWAP, [5, 6], 3)
    assert eval_character(Character(SWAP, 0, 0.0), p) == 0


def test_build_catalog():
    cat = build_catalog(IDENTITY2, 1.0)
    assert [e.kind for e in cat.entries] == ["disc", "disc"]
    cat = build_catalog(SWAP, 1.0)
    assert [e.kind for e in cat.entries] == ["point", "point"]
    cat = build_catalog(CHAIN, 1.0)
    assert [e.kind for e in cat.entries] == ["disc", "point", "point"]
    for r in (0.0, float("nan"), float("inf")):
        with pytest.raises(CharacterError):
            build_catalog(SWAP, r)


def test_catalog_equal():
    w_id = ConjugacyWitness(CHAIN, CHAIN, (0, 1, 2))
    assert catalog_equal(build_catalog(CHAIN), build_catalog(CHAIN), w_id)

    b = relabel(CHAIN, (1, 0, 2))
    w = ConjugacyWitness(CHAIN, b, (1, 0, 2))
    assert catalog_equal(build_catalog(CHAIN), build_catalog(b), w)

    # mismatched radii fail
    assert not catalog_equal(build_catalog(CHAIN, 1.0), build_catalog(b, 0.5), w)


def test_character_transport():
    rng = np.random.default_rng(1)
    for _ in range(30):
        n = int(rng.integers(1, 7))
        a = FiniteDynSys(n, tuple(int(v) for v in rng.integers(0, n, n)))
        sigma = tuple(int(v) for v in rng.permutation(n))
        b = relabel(a, sigma)
        w = ConjugacyWitness(a, b, sigma)
        x = int(rng.integers(0, n))
        z = 0.8 * rng.random() if a.map[x] == x else 0.0
        p = random_poly(rng, a, 5)
        lhs = eval_character(Character(b, sigma[x], z), transport(p, w, b))
        rhs = eval_character(Character(a, x, z), p)
        assert abs(lhs - rhs) <= 1e-12


def test_catalog_json():
    obj = build_catalog(CHAIN, 1.0).to_json()
    assert obj["points"][0] == {"x": 0, "kind": "disc", "r": 1.0}
    assert obj["points"][1] == {"x": 1, "kind": "point"}
