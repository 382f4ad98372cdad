import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conjalg import reps
from conjalg.dynsys import FiniteDynSys
from conjalg.reps import (
    NotOffFixedError,
    NotPreperiodicError,
    OnBoundaryError,
    TruncatedRep,
    build_fixed_derivative,
    build_offfixed,
    build_pencil,
    extract_characters,
    norm_estimate,
    operator_norm,
    rep_matrix,
    spectral_radius_estimate,
)
from conjalg.skewpoly import SkewPoly, l1_norm, skew_mul
from conjalg.verify import mat_dev, pencil_point, random_poly
from rep_scale_check import workload_poly

SWAP = FiniteDynSys(2, (1, 0))
CHAIN = FiniteDynSys(3, (0, 0, 1))


def test_rep_identity():
    rep = TruncatedRep(SWAP, 0, 4)
    assert np.allclose(rep_matrix(rep, SkewPoly.one(SWAP)), np.eye(4))


def test_rep_backward_shift():
    rep = TruncatedRep(SWAP, 0, 3, "backward")
    M = rep_matrix(rep, SkewPoly.shift(SWAP))
    expect = np.zeros((3, 3))
    expect[0, 1] = expect[1, 2] = 1
    assert np.allclose(M, expect)


def test_rep_forward_is_transpose_of_backward():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        sys = FiniteDynSys(n, tuple(int(v) for v in rng.integers(0, n, n)))
        p = random_poly(rng, sys, 3)
        back = rep_matrix(TruncatedRep(sys, 0, 8, "backward"), p)
        forw = rep_matrix(TruncatedRep(sys, 0, 8, "forward"), p)
        assert np.allclose(forw, back.T)


def test_rep_diagonal_follows_orbit():
    f = SkewPoly.constant(CHAIN, [10, 20, 30])
    rep = TruncatedRep(CHAIN, 2, 4)
    M = rep_matrix(rep, f)
    assert np.allclose(np.diag(M), [30, 20, 10, 10])


def test_rep_covariance_exact():
    rng = np.random.default_rng(1)
    for _ in range(20):
        n = int(rng.integers(1, 6))
        sys = FiniteDynSys(n, tuple(int(v) for v in rng.integers(0, n, n)))
        fv = rng.normal(size=n) + 1j * rng.normal(size=n)
        u = SkewPoly.shift(sys)
        f = SkewPoly.constant(sys, fv)
        f_eta = SkewPoly.constant(sys, fv[np.array(sys.map)])
        for conv in ("backward", "forward"):
            rep = TruncatedRep(sys, int(rng.integers(0, n)), 6, conv)
            assert mat_dev(rep_matrix(rep, u * f), rep_matrix(rep, f_eta * u)) == 0


def test_rep_multiplicative_and_anti():
    rng = np.random.default_rng(2)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        sys = FiniteDynSys(n, tuple(int(v) for v in rng.integers(0, n, n)))
        p = random_poly(rng, sys, 3)
        q = random_poly(rng, sys, 3)
        back = TruncatedRep(sys, 0, 12, "backward")
        forw = TruncatedRep(sys, 0, 12, "forward")
        assert mat_dev(rep_matrix(back, p * q),
                       rep_matrix(back, p) @ rep_matrix(back, q)) <= 1e-10
        # forward convention reverses products
        assert mat_dev(rep_matrix(forw, p * q),
                       rep_matrix(forw, q) @ rep_matrix(forw, p)) <= 1e-10
        # and equals the transposed backward image of the same element
        assert mat_dev(rep_matrix(forw, p * q), rep_matrix(back, p * q).T) == 0


def test_rep_truncation_warning():
    rep = TruncatedRep(SWAP, 0, 2)
    p = SkewPoly.monomial(SWAP, [1, 1], 3)
    with pytest.warns(UserWarning):
        rep_matrix(rep, p)


def test_norm_estimate_diagonal():
    f = SkewPoly.constant(CHAIN, [1, -2, 0.5])
    assert norm_estimate(f, 8) == pytest.approx(2.0)
    assert norm_estimate(SkewPoly.zero(CHAIN), 8) == 0.0


def test_norm_estimate_unit_shift_weight():
    fu = SkewPoly.monomial(SWAP, [1, 1], 1)
    assert norm_estimate(fu, 8) == pytest.approx(1.0)


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_norm_estimate_monotone_and_l1_bound():
    rng = np.random.default_rng(3)
    for _ in range(30):
        n = int(rng.integers(1, 5))
        sys = FiniteDynSys(n, tuple(int(v) for v in rng.integers(0, n, n)))
        p = random_poly(rng, sys, 3)
        vals = [norm_estimate(p, N) for N in (2, 4, 8, 16)]
        assert all(vals[i] <= vals[i + 1] + 1e-9 for i in range(3))
        assert vals[-1] <= l1_norm(p) + 1e-9


def per_point_max(p, N, convention="backward"):
    """The oracle: one SVD per base point."""
    return max(operator_norm(rep_matrix(TruncatedRep(p.system, x, N, convention), p))
               for x in range(p.system.n))


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_norm_estimate_is_the_per_point_maximum():
    # the Cholesky bound only skips SVDs, so the value must match to the bit
    rng = np.random.default_rng(22)
    for draw in range(300):
        n, N, deg = int(rng.integers(1, 10)), int(rng.integers(1, 41)), int(rng.integers(0, 5))
        kind = draw % 6
        table = rng.permutation(n) if kind == 0 else rng.integers(0, n, n)
        sys = FiniteDynSys(n, table)
        coeffs = rng.normal(size=(deg + 1, n)) + 1j * rng.normal(size=(deg + 1, n))
        orbit0 = TruncatedRep(sys, 0, n).orbit()
        if kind == 0:  # constant coefficients on a permutation: every base point ties
            coeffs[:] = coeffs[:, :1]
        elif kind == 1:
            coeffs *= 1e160
        elif kind == 2:
            coeffs *= 1e-160
        elif kind == 3:  # pi_0(p) = 0, so the running maximum starts at 0
            coeffs[:, orbit0] = 0
        elif kind == 4:  # orbit of 0 at 1e-300, the rest at 1e300: pi_x(p) / s must not overflow
            scale = np.full(n, 1e300)
            scale[orbit0] = 1e-300
            coeffs *= scale
        else:
            coeffs[:] = 0
        p = SkewPoly.make(sys, list(coeffs))
        for convention in ("backward", "forward"):
            assert norm_estimate(p, N, convention) == per_point_max(p, N, convention)


def test_norm_estimate_takes_one_svd_when_the_first_point_dominates(monkeypatch):
    calls = []
    svd = reps.operator_norm
    monkeypatch.setattr(reps, "operator_norm", lambda M: calls.append(len(M)) or svd(M))
    p = SkewPoly.constant(FiniteDynSys(2, (1, 1)), [10, 1])
    assert norm_estimate(p, 16) == per_point_max(p, 16) == 10.0
    assert calls == [16]


def test_norm_estimate_takes_one_svd_when_a_later_point_dominates(monkeypatch):
    """Base point 1 holds the maximum: its column norm puts it first, and the
    Gershgorin bound then rules out point 0 with no Cholesky factorisation."""
    calls = []
    svd = reps.operator_norm
    monkeypatch.setattr(reps, "operator_norm", lambda M: calls.append(len(M)) or svd(M))
    monkeypatch.setattr(np.linalg, "cholesky", lambda H: pytest.fail("Cholesky was called"))
    p = SkewPoly.constant(FiniteDynSys(2, (0, 0)), [1, 10])
    assert norm_estimate(p, 16) == 10.0
    assert calls == [16]
    monkeypatch.undo()
    assert per_point_max(p, 16) == 10.0


def test_norm_estimate_takes_one_svd_when_the_largest_column_is_not_the_maximiser(monkeypatch):
    """Two fixed points: 1 + U at point 0 has the norm 2 cos(pi / 33) at N = 16
    but column norms sqrt(2); 1.5 at point 1 has both 1.5.  Point 0's 4 x 4 Gram
    block, that of its truncation at 4, has the norm 2 cos(pi / 9) > 1.5, so
    point 0 comes first, and the Gershgorin bound rules out point 1."""
    calls = []
    svd = reps.operator_norm
    monkeypatch.setattr(reps, "operator_norm", lambda M: calls.append(len(M)) or svd(M))
    monkeypatch.setattr(np.linalg, "cholesky", lambda H: pytest.fail("Cholesky was called"))
    p = SkewPoly.make(FiniteDynSys(2, (0, 1)), [[1, 1.5], [1, 0]])
    assert norm_estimate(p, 16) == per_point_max(p, 16) == pytest.approx(2 * math.cos(math.pi / 33))
    assert calls == [16]


def record_cholesky_ratios(monkeypatch):
    """The r of every Cholesky test `norm_estimate` makes from now on."""
    below, rs = reps._below, []
    monkeypatch.setattr(reps, "_below", lambda bands, x, r: rs.append(r) or below(bands, x, r))
    return rs


@pytest.mark.parametrize("N", [32, 64, 128])
def test_norm_estimate_tests_cholesky_only_at_or_above_the_largest_entry(monkeypatch, N):
    """r = (best / t)^2 >= 1 at every Cholesky test, so the margin covers its
    rounding; each draw still equals the per-point maximum."""
    rs = record_cholesky_ratios(monkeypatch)
    rng = np.random.default_rng(28)
    for n in range(2, 9):
        for _ in range(3):
            sys = FiniteDynSys(n, rng.integers(0, n, n))
            deg = int(rng.integers(1, 5))
            p = SkewPoly.make(sys, list(rng.normal(size=(deg + 1, n)) + 1j * rng.normal(size=(deg + 1, n))))
            assert norm_estimate(p, N) == per_point_max(p, N)
    assert rs and min(rs) >= 1


def test_norm_estimate_bounds_no_point_while_below_the_largest_entry(monkeypatch):
    """Three fixed points at N = 4, so the blocks are 1 x 1: 3.3 (1 + U + U^2 + U^3)
    comes first, with the norm 9.5 < t = 10, then 3.2 (1 + U + U^2 + U^3), whose
    Gershgorin bound is not below r = 0.95^2 and whose column norms are.  A
    Cholesky test there would run at r < 1; every point takes its SVD instead."""
    rs = record_cholesky_ratios(monkeypatch)
    p = SkewPoly.make(FiniteDynSys(3, (0, 1, 2)), [[3.3, 3.2, 0]] * 3 + [[3.3, 3.2, 10]])
    assert norm_estimate(p, 4) == per_point_max(p, 4) == 10.0
    assert rs == []


def test_norm_estimate_warns_once_on_behalf_of_its_caller():
    p = SkewPoly.monomial(CHAIN, [1, 2, 3], 4)
    with pytest.warns(UserWarning, match="degree 4 >= truncation 4") as caught:
        norm_estimate(p, 4)
    assert len(caught) == 1
    assert caught[0].filename == __file__


@pytest.mark.parametrize("constant", [0, 1])
def test_spectral_radius_warns_once_on_behalf_of_its_caller(constant):
    """With or without a constant term: one warning per call, not one per
    base point, and it names the caller's line."""
    cycle = FiniteDynSys(3, (1, 2, 0))
    u = SkewPoly.constant(cycle, [constant] * 3) + SkewPoly.monomial(cycle, [1, 2, 3], 3)
    with pytest.warns(UserWarning, match="degree 3 >= truncation 3") as caught:
        spectral_radius_estimate(u, 2)
    assert len(caught) == 1
    assert caught[0].filename == __file__


def factors(H) -> bool:
    try:
        np.linalg.cholesky(H)
    except np.linalg.LinAlgError:
        return False
    return True


def sequential_dense_estimate(p, N, svds):
    """The loop `norm_estimate` ran before its stacked block test: each point
    that needs a Cholesky test takes its own, of H built densely from the
    bands.  Appends each SVD value to svds."""
    orb = reps._orbits(p.system, N)
    t, bands = reps._scaled_gram(p, orb)
    lower, upper = reps._gram_bounds(bands)

    def below(x, r):
        H = np.zeros((N, N), dtype=complex)
        H.flat[::N + 1] = (1 - reps.CHOLESKY_MARGIN) - bands[0][x].real / r
        for s, band in enumerate(bands[1:], 1):
            H.flat[s:N * (N - s):N + 1] = band[x] / -r
            H.flat[s * N::N + 1] = band[x].conj() / -r
        return factors(H)

    best = 0.0
    for x in reps._visit_order(bands, lower, upper).tolist():
        if best >= t:
            r = (best / t) ** 2
            if upper[x] < (1 - reps.CHOLESKY_MARGIN) * r or (lower[x] < r and below(x, r)):
                continue
        svds.append(operator_norm(reps._image(orb[x], p.coeffs, N, "backward")))
        best = max(best, svds[-1])
    return best


@pytest.mark.parametrize("N", [32, 64])
def test_norm_estimate_matches_the_sequential_dense_loop(monkeypatch, N):
    """Seed 1's 7-point polynomial visits point 4 first and holds its maximum
    at point 3, so the running maximum grows after the stacked test: the value
    and the SVDs taken are those of the loop that tests each point alone."""
    p = workload_poly(1, 7)
    norms = [operator_norm(rep_matrix(TruncatedRep(p.system, x, N), p)) for x in range(7)]
    orb = reps._orbits(p.system, N)
    bands = reps._scaled_gram(p, orb)[1]
    assert reps._visit_order(bands, *reps._gram_bounds(bands))[0] != np.argmax(norms)
    want = []
    assert sequential_dense_estimate(p, N, want) == max(norms)
    calls = []
    svd = reps.operator_norm
    monkeypatch.setattr(reps, "operator_norm", lambda M: calls.append(svd(M)) or calls[-1])
    assert norm_estimate(p, N) == max(norms)
    assert calls == want


@pytest.mark.parametrize("N", [127, 128])
def test_norm_estimate_factorises_no_matrix_wider_than_two_blocks(monkeypatch, N):
    """At N = 127 the blocks are 32, 32 and 63 wide, at N = 128 four of 32."""
    widths = []
    cholesky = np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky", lambda H: widths.append(H.shape[-1]) or cholesky(H))
    for seed in (0, 1):
        for n in range(2, 9):
            p = workload_poly(seed, n)
            assert norm_estimate(p, N) == per_point_max(p, N)
    assert max(widths) == {127: 63, 128: 32}[N]


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_below_agrees_with_a_dense_cholesky():
    """r is set just below, at and just above the largest eigenvalue of one
    point's Gram matrix; at each r every point's decision, one at a time and
    all stacked, is that of np.linalg.cholesky of the dense H, and a certified
    point's norm lies below the root of r."""
    rng = np.random.default_rng(29)
    decisions = 0
    for N in (5, 32, 33, 64, 77, 100, 128, 200):
        for _ in range(2):
            n, deg = int(rng.integers(1, 12)), int(rng.integers(1, 24))
            sys = FiniteDynSys(n, rng.integers(0, n, n))
            p = SkewPoly.make(sys, list(rng.normal(size=(deg + 1, n)) + 1j * rng.normal(size=(deg + 1, n))))
            t, bands = reps._scaled_gram(p, reps._orbits(sys, N))
            images = [rep_matrix(TruncatedRep(sys, x, N), p) / t for x in range(n)]
            grams = [A.conj().T @ A for A in images]
            norms = [operator_norm(A) for A in images]
            for x in {int(np.argmax(norms)), int(rng.integers(0, n))}:
                top = np.linalg.eigvalsh(grams[x])[-1]
                for factor in (1 - 1e-6, 1 - 1e-9, 1 + 1e-9, 1 + 1e-7, 1 + 1e-5, 1.01):
                    r = top * factor
                    want = [factors((1 - reps.CHOLESKY_MARGIN) * np.eye(N) - G / r) for G in grams]
                    got = [reps._below(bands, y, r) for y in range(n)]
                    assert got == want
                    assert reps._below(bands, np.arange(n), r) == all(want)
                    assert all(norms[y] ** 2 < r for y in range(n) if got[y])
                    decisions += n + 1
    assert decisions > 1000


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_gram_bands_match_the_dense_product():
    rng = np.random.default_rng(23)
    for _ in range(80):
        n, deg = int(rng.integers(1, 9)), int(rng.integers(0, 5))
        sys = FiniteDynSys(n, rng.integers(0, n, n))
        coeffs = rng.normal(size=(deg + 1, n)) + 1j * rng.normal(size=(deg + 1, n))
        coeffs *= 10.0 ** rng.integers(-3, 4)
        p = SkewPoly.make(sys, list(coeffs))
        for N in sorted({1, 2, deg, deg + 1, 40} - {0}):
            orb = reps._orbits(sys, N)
            t, bands = reps._scaled_gram(p, orb)
            lower, upper = reps._gram_bounds(bands)
            assert t == np.abs(coeffs[:N]).max()
            for x in range(n):
                assert orb[x].tolist() == TruncatedRep(sys, x, N).orbit()
                A = rep_matrix(TruncatedRep(sys, x, N, "backward"), p) / t
                G = A.conj().T @ A
                tol = 1e-12 * np.abs(G).max()
                for s in range(N):  # bands beyond the degree are zero
                    want = np.diag(G, s)
                    got = bands[s][x] if s < len(bands) else np.zeros_like(want)
                    assert np.abs(got - want).max() <= tol
                # the forward image is A^T, whose Gram A^T conj(A) is conj(A A^H)
                F = rep_matrix(TruncatedRep(sys, x, N, "forward"), p) / t
                assert np.abs(F @ F.conj().T - G.conj()).max() <= tol
                assert abs(lower[x] - np.diag(G).real.max()) <= tol
                assert abs(upper[x] - np.abs(G).sum(axis=1).max()) <= N * tol
                for M in (A, F):
                    nrm = operator_norm(M)
                    assert math.sqrt(lower[x]) <= nrm * (1 + 1e-12)
                    assert nrm <= math.sqrt(upper[x]) * (1 + 1e-12)


def test_spectral_radius_unit_and_weighted():
    u = SkewPoly.shift(SWAP)
    assert spectral_radius_estimate(u, 16) == pytest.approx(1.0)
    w = SkewPoly.shift(SWAP, weight=0.5)
    assert spectral_radius_estimate(w, 16) == pytest.approx(0.5)
    one_pt = FiniteDynSys(1, (0,))
    assert spectral_radius_estimate(SkewPoly.shift(one_pt, 2.0), 16) == pytest.approx(2.0)


def test_spectral_radius_rejects_a_power_below_one():
    """N = 0 once gave 0.0 for the unit shift, whose spectral radius is 1."""
    for N in (0, -1):
        with pytest.raises(ValueError, match="N must be at least 1"):
            spectral_radius_estimate(SkewPoly.shift(SWAP), N)


def cycle_rho(table, mags):
    """Largest geometric mean of mags around a cycle of the map."""
    best = 0.0
    for x in range(len(table)):
        for _ in range(len(table)):
            x = table[x]
        cycle = [x]
        while table[cycle[-1]] != x:
            cycle.append(table[cycle[-1]])
        best = max(best, math.exp(np.mean(np.log(mags[cycle]))))
    return best


@st.composite
def weighted_shifts(draw):
    """(table, f) of a random monomial f U on at most 6 points."""
    n = draw(st.integers(1, 6))
    table = tuple(draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n)))
    mags = draw(st.lists(st.floats(0.1, 10), min_size=n, max_size=n))
    phases = draw(st.lists(st.floats(0, 2 * math.pi), min_size=n, max_size=n))
    return table, np.array(mags) * np.exp(1j * np.array(phases))


@settings(deadline=None)  # values are under test here, not timings
@given(weighted_shifts(), st.integers(16, 64))
def test_spectral_radius_within_cycle_oracle_band(shift, N):
    # Any N steps along an orbit spend all but fewer than n of them going
    # round one cycle, so the estimate lies within this band around rho.
    table, f = shift
    sys = FiniteDynSys(len(table), table)
    mags = np.abs(f)
    rho = cycle_rho(table, mags)
    est = spectral_radius_estimate(SkewPoly.monomial(sys, f, 1), N)
    lo = rho * (mags.min() / rho) ** (sys.n / N)
    hi = rho * (mags.max() / rho) ** (sys.n / N)
    assert lo * (1 - 1e-9) <= est <= hi * (1 + 1e-9)


def test_spectral_radius_is_not_the_norm():
    # u^2 = U^2 on the 2-cycle, so rho = 1 although ||pi(u)|| = 2
    u = SkewPoly.monomial(SWAP, [2.0, 0.5], 1)
    assert spectral_radius_estimate(u, 64) == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("w", [1e3, 1e-3, 1e200])
def test_spectral_radius_powers_do_not_overflow(w):
    u = SkewPoly.shift(FiniteDynSys(1, (0,)), w)
    assert spectral_radius_estimate(u, 256) == pytest.approx(w, rel=1e-9)


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_spectral_radius_matches_skew_product_power():
    """Odd draws have no constant term and take the closed form; from draw 30
    on, f_1 vanishes at one point, and from draw 35 on everywhere."""
    rng = np.random.default_rng(6)
    for draw in range(40):
        n = int(rng.integers(1, 5))
        sys = FiniteDynSys(n, tuple(int(v) for v in rng.integers(0, n, n)))
        coeffs = rng.normal(size=(3, n)) + 1j * rng.normal(size=(3, n))
        if draw % 2 or draw >= 30:
            coeffs[0] = 0
        if draw >= 30:
            coeffs[1, rng.integers(n)] = 0
        if draw >= 35:
            coeffs[1] = 0
        u = SkewPoly.make(sys, list(coeffs))
        N = int(rng.integers(1, 13))
        power = SkewPoly.one(sys)
        for _ in range(N):
            power = skew_mul(power, u)
        want = max(operator_norm(rep_matrix(TruncatedRep(sys, x, N + 1), power))
                   for x in range(n)) ** (1.0 / N)
        if draw >= 35:
            assert want == 0.0
        assert spectral_radius_estimate(u, N) == pytest.approx(want, rel=1e-9)


def test_spectral_radius_powers_the_matrix_only_with_a_constant_term(monkeypatch):
    calls = []
    power = reps._scaled_power
    monkeypatch.setattr(reps, "_scaled_power", lambda M, n: calls.append(n) or power(M, n))
    u = SkewPoly.shift(SWAP, 0.5)
    assert spectral_radius_estimate(u, 8) == pytest.approx(0.5) and calls == []
    spectral_radius_estimate(u + SkewPoly.one(SWAP), 8)
    assert calls == [8, 8]


def test_offfixed_rep():
    rep = build_offfixed(CHAIN, 1)  # eta(1) = 0
    f = SkewPoly.constant(CHAIN, [10, 20, 30])
    assert np.allclose(rep.apply(f), [[20, 0], [0, 10]])
    fu = SkewPoly.monomial(CHAIN, [10, 20, 30], 1)
    assert np.allclose(rep.apply(fu), [[0, 20], [0, 0]])
    fu2 = SkewPoly.monomial(CHAIN, [10, 20, 30], 2)
    assert np.allclose(rep.apply(fu2), np.zeros((2, 2)))
    with pytest.raises(NotOffFixedError):
        build_offfixed(CHAIN, 0)


def test_offfixed_characters():
    rep = build_offfixed(CHAIN, 2)
    th1, th2 = extract_characters(rep)
    assert (th1.point, th2.point) == (2, CHAIN.map[2])
    assert th1.disc_param == 0 and th2.disc_param == 0


def test_pencil_shift_matrix_and_guards():
    rep = build_pencil(CHAIN, 1, 0.3 + 0.1j)
    u = rep.apply(SkewPoly.shift(CHAIN))
    assert np.array_equal(u, np.array([[0, 0.3 + 0.1j], [0, 0.3 + 0.1j]]))
    f = SkewPoly.constant(CHAIN, [10, 20, 30])
    assert np.allclose(rep.apply(f), [[20, 0], [0, 10]])
    with pytest.raises(NotPreperiodicError):
        build_pencil(SWAP, 0, 0.5)  # eta(eta(x)) != eta(x)
    with pytest.raises(NotPreperiodicError):
        build_pencil(CHAIN, 0, 0.5)  # x fixed
    with pytest.raises(OnBoundaryError):
        build_pencil(CHAIN, 1, 1.0)


@pytest.mark.parametrize("x", [-1, 3])
def test_base_point_out_of_range(x):
    with pytest.raises(ValueError, match="base point out of range"):
        build_offfixed(CHAIN, x)
    with pytest.raises(ValueError, match="base point out of range"):
        build_pencil(CHAIN, x, 0.5)


def test_pencil_homomorphism():
    rng = np.random.default_rng(4)
    for _ in range(100):
        sys, x = pencil_point(rng)
        z = 0.9 * np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
        rep = build_pencil(sys, x, complex(z))
        p = random_poly(rng, sys, 8)
        q = random_poly(rng, sys, 8)
        assert mat_dev(rep.apply(p * q), rep.apply(p) @ rep.apply(q)) <= 1e-12


def test_pencil_characters():
    rep = build_pencil(CHAIN, 1, 0.25)
    th1, th2 = extract_characters(rep)
    assert (th1.point, th1.disc_param) == (1, 0)
    assert (th2.point, th2.disc_param) == (0, 0.25)
    # z = 0 collapses to the point character
    rep0 = build_pencil(CHAIN, 1, 0.0)
    _, th2 = extract_characters(rep0)
    assert th2.disc_param == 0


def test_fixed_derivative_rep():
    rep = build_fixed_derivative(0.2, 0.5, 0.3, 1.0)
    # identity function z -> z
    M = rep.apply_function(lambda w: w, lambda w: 1.0)
    assert np.allclose(M, [[0.2, 1.0], [0, 0.2]])
    assert rep.theta1_shift == 0.5 * rep.theta2_shift
    # eta(w) = c w at 0: shift image is diag-ish [[cz, 0], [0, z]]
    rep2 = build_fixed_derivative(0.0, 0.7j, 0.4, 2.0)
    assert np.allclose(rep2.shift_matrix(), [[0.28j, 0], [0, 0.4]])
    with pytest.raises(ValueError):
        build_fixed_derivative(0.0, 0.5, 0.3, 0.0)


@pytest.mark.parametrize("z, a", [(float("nan"), 1.0), (0.2, float("nan")),
                                  (complex("inf"), 1.0), (0.2, complex("-infj"))])
def test_fixed_derivative_rejects_non_finite_parameters(z, a):
    with pytest.raises(ValueError, match="finite"):
        build_fixed_derivative(0.1, 0.5, z, a)


def test_fixed_derivative_function_product():
    rep = build_fixed_derivative(0.3 + 0.1j, 0.5, 0.2, 1.5)
    f = lambda w: w * w + 1
    fp = lambda w: 2 * w
    g = lambda w: 3 * w - 2j
    gp = lambda w: 3.0
    fg = lambda w: f(w) * g(w)
    fgp = lambda w: fp(w) * g(w) + f(w) * gp(w)
    lhs = rep.apply_function(fg, fgp)
    rhs = rep.apply_function(f, fp) @ rep.apply_function(g, gp)
    assert mat_dev(lhs, rhs) <= 1e-12


def test_operator_norm():
    assert operator_norm(np.diag([3, -1])) == pytest.approx(3.0)


def test_operator_norm_is_the_matrix_two_norm():
    rng = np.random.default_rng(62)
    for k in range(1, 129):
        M = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
        assert operator_norm(M) == np.linalg.norm(M, 2)
    assert operator_norm(np.zeros((4, 4), dtype=complex)) == np.linalg.norm(np.zeros((4, 4)), 2) == 0.0
