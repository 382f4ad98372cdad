import numpy as np
import pytest

from conjalg.dynsys import ConjugacyWitness, FiniteDynSys, relabel
from conjalg.skewpoly import (
    InvalidWitnessError,
    SkewPoly,
    SystemMismatchError,
    coefficient,
    l1_norm,
    skew_add,
    skew_mul,
    skew_scale,
    transport,
)
from conjalg.verify import poly_close, random_poly, term_rewrite_mul

SWAP = FiniteDynSys(2, (1, 0))


def test_normalization():
    p = SkewPoly.make(SWAP, [[1, 1], [0, 0]])
    assert p.degree == 0
    assert SkewPoly.make(SWAP, [[0, 0]]).is_zero()
    assert SkewPoly.zero(SWAP).degree == -1


def test_add_scale():
    p = SkewPoly.make(SWAP, [[1, 2], [3, 4]])
    assert poly_close(p + SkewPoly.zero(SWAP), p) == 0
    assert (p + skew_scale(-1, p)).is_zero()
    f = SkewPoly.constant(SWAP, [1, 2])
    gu = SkewPoly.monomial(SWAP, [3, 4], 1)
    s = skew_add(f, gu)
    assert np.allclose(coefficient(s, 0), [1, 2])
    assert np.allclose(coefficient(s, 1), [3, 4])


def test_system_mismatch():
    other = FiniteDynSys(2, (0, 1))
    with pytest.raises(SystemMismatchError):
        skew_add(SkewPoly.one(SWAP), SkewPoly.one(other))
    with pytest.raises(SystemMismatchError):
        skew_mul(SkewPoly.one(SWAP), SkewPoly.one(other))


def test_mul_covariance_example():
    # (fU)(gU) over the swap: degree-2 coefficient is f * (g o eta)
    f = SkewPoly.monomial(SWAP, [1, 2], 1)
    g = SkewPoly.monomial(SWAP, [3, 4], 1)
    assert np.allclose(coefficient(skew_mul(f, g), 2), [4, 6])


def test_mul_unit():
    p = SkewPoly.make(SWAP, [[1, 2], [3, 4j]])
    assert poly_close(skew_mul(p, SkewPoly.one(SWAP)), p) == 0
    assert poly_close(skew_mul(SkewPoly.one(SWAP), p), p) == 0


def test_mul_matches_term_rewriting_oracle():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(1, 6))
        sys = FiniteDynSys(n, tuple(int(v) for v in rng.integers(0, n, n)))
        p = random_poly(rng, sys, 5)
        q = random_poly(rng, sys, 5)
        assert poly_close(skew_mul(p, q), term_rewrite_mul(p, q)) <= 1e-12


def test_covariance_relation_as_polynomials():
    rng = np.random.default_rng(1)
    for _ in range(20):
        n = int(rng.integers(1, 6))
        sys = FiniteDynSys(n, tuple(int(v) for v in rng.integers(0, n, n)))
        f_vals = rng.normal(size=n) + 1j * rng.normal(size=n)
        u = SkewPoly.shift(sys)
        f = SkewPoly.constant(sys, f_vals)
        f_eta = SkewPoly.constant(sys, f_vals[np.array(sys.map)])
        assert poly_close(skew_mul(u, f), skew_mul(f_eta, u)) == 0


def test_coefficient_extraction():
    f = SkewPoly.constant(SWAP, [1, 2])
    g = SkewPoly.monomial(SWAP, [3, 4], 1)
    s = f + g
    assert np.allclose(coefficient(s, 0), [1, 2])
    assert np.allclose(coefficient(s, 1), [3, 4])
    assert np.allclose(coefficient(s, 5), [0, 0])
    fu = SkewPoly.monomial(SWAP, [1, 2], 1)
    gu = SkewPoly.monomial(SWAP, [3, 4], 1)
    assert np.allclose(coefficient(skew_mul(fu, gu), 2), [4, 6])


def test_l1_norm():
    assert l1_norm(SkewPoly.zero(SWAP)) == 0
    assert l1_norm(SkewPoly.one(SWAP)) == 1
    assert l1_norm(SkewPoly.constant(SWAP, [3, -4j])) == 4


def test_transport_identity_and_relabel():
    a = FiniteDynSys(2, (1, 0))
    w_id = ConjugacyWitness(a, a, (0, 1))
    p = SkewPoly.make(a, [[1, 2], [3, 4]])
    assert poly_close(transport(p, w_id, a), p) == 0

    b = relabel(a, (1, 0))
    w = ConjugacyWitness(a, b, (1, 0))
    f = SkewPoly.constant(a, [1, 2])
    assert np.allclose(coefficient(transport(f, w, b), 0), [2, 1])


def test_transport_is_homomorphism():
    rng = np.random.default_rng(2)
    for _ in range(30):
        n = int(rng.integers(1, 7))
        a = FiniteDynSys(n, tuple(int(v) for v in rng.integers(0, n, n)))
        sigma = tuple(int(v) for v in rng.permutation(n))
        b = relabel(a, sigma)
        w = ConjugacyWitness(a, b, sigma)
        p = random_poly(rng, a, 4)
        q = random_poly(rng, a, 4)
        lhs = transport(skew_mul(p, q), w, b)
        rhs = skew_mul(transport(p, w, b), transport(q, w, b))
        assert poly_close(lhs, rhs) <= 1e-12


def test_transport_rejects_wrong_witness():
    a = FiniteDynSys(2, (1, 0))
    b = FiniteDynSys(2, (1, 0))
    w = ConjugacyWitness(a, b, (0, 1))
    p = SkewPoly.one(a)
    other = FiniteDynSys(2, (0, 1))
    with pytest.raises(InvalidWitnessError):
        transport(p, w, other)


def test_associativity_random():
    rng = np.random.default_rng(3)
    for _ in range(30):
        n = int(rng.integers(1, 6))
        sys = FiniteDynSys(n, tuple(int(v) for v in rng.integers(0, n, n)))
        p, q, r = (random_poly(rng, sys, 4) for _ in range(3))
        assert poly_close(skew_mul(skew_mul(p, q), r),
                          skew_mul(p, skew_mul(q, r))) <= 1e-12


def test_json_roundtrip():
    p = SkewPoly.make(SWAP, [[1 + 2j, 0], [0, 4j]])
    q = SkewPoly.from_json(p.to_json())
    assert q.system == SWAP
    assert poly_close(p, q) == 0
