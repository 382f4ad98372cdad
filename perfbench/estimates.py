"""rep-estimates: `norm_estimate` and `spectral_radius_estimate`, N = 32..128.

Norms are checked against the largest singular value of the truncated
shift matrix, built here from the orbit and the coefficients and reduced
with an eigen-solver rather than an SVD.  Spectral radii of monomials f U
are checked against rho, the largest geometric mean of |f| around a cycle.
"""

from __future__ import annotations

import numpy as np

import conjalg
from conjalg import FiniteDynSys, SkewPoly

from common import Op
from finite import structure

# The (8, 64) and (2, 96) radii come next below the two N = 128 ones,
# 2 of 27: p90 falls near the middle of their samples.
TAIL_PERCENTILE = 90
TRACE_ROUNDS = 1

# (points, degree) of each polynomial; every one is estimated at each N
NORM_POLYS = [(n, 3) for n in range(2, 9)]
NORM_TRUNCS = (32, 64, 128)
# (points, N) of the seeded monomials: |f| is constant around each cycle
# and nowhere above rho, the one class on which today's estimate is exact.
RADIUS_SLOTS = [(8, 32), (8, 64), (2, 96), (2, 128), (2, 128)]
# The recorded fault: (2, 1/2) U on the 2-cycle has rho = 1, yet the
# estimate returns max_n ||pi(u^n)||^(1/n) = ||pi(u)|| = 2.
REPRODUCER_TRUNC = 64
RADIUS_FAULT = "spectral radius estimate outside the truncation band around rho"

REL_TOL = 1e-9


def truncated_matrix(table, coeffs, x, N, convention):
    """The N x N image of sum_k coeffs[k] U^k based at point x."""
    orbit = [x]
    for _ in range(N - 1):
        orbit.append(table[orbit[-1]])
    orbit = np.array(orbit)
    M = np.zeros((N, N), dtype=complex)
    for k, f in enumerate(coeffs[:N]):
        rows = np.arange(N - k)
        M[rows, rows + k] = np.asarray(f)[orbit[: N - k]]
    return M if convention == "backward" else M.T


def largest_singular_value(M):
    return float(np.sqrt(max(np.linalg.eigvalsh(M.conj().T @ M)[-1], 0.0)))


def l1(coeffs):
    return float(sum(np.max(np.abs(c)) for c in coeffs))


def rho(table, f):
    """Largest geometric mean of |f| around a cycle of the map."""
    on_cycle = structure(np.asarray(table))[0]
    best, seen = 0.0, set()
    for start in np.flatnonzero(on_cycle):
        if start in seen:
            continue
        cyc = [int(start)]
        while table[cyc[-1]] != start:
            cyc.append(table[cyc[-1]])
        seen.update(cyc)
        best = max(best, float(np.exp(np.mean(np.log(np.abs(f[cyc]))))))
    return best


def radius_band(table, f, N):
    """Where a truncation-N estimate of rho may lie for the monomial f U.

    Any window of N steps along an orbit spends all but at most n = |points|
    steps going round one cycle, so ||pi(u^N)||^(1/N) lies between
    rho (m/rho)^(n/N) and rho (M/rho)^(n/N), m and M the least and largest |f|.
    """
    r = rho(table, f)
    n = len(table)
    mags = np.abs(f)
    lo = r * (mags.min() / r) ** (n / N)
    hi = r * (mags.max() / r) ** (n / N)
    return lo * (1 - REL_TOL), hi * (1 + REL_TOL)


def _random_table(rng, n):
    return tuple(int(v) for v in rng.integers(0, n, n))


def _exact_weights(rng, table):
    """|f| constant around each cycle, nowhere above the largest cycle value."""
    table = np.array(table)
    n = len(table)
    on_cycle = structure(table)[0]
    mags = np.zeros(n)
    for x in np.flatnonzero(on_cycle):
        if mags[x] == 0:
            level = 0.5 + 1.5 * rng.random()
            y = int(x)
            while mags[y] == 0:
                mags[y] = level
                y = int(table[y])
    top = mags.max()
    mags[~on_cycle] = top * (0.1 + 0.9 * rng.random(int((~on_cycle).sum())))
    return mags * np.exp(2j * np.pi * rng.random(n))


def generate(seed):
    """(table, coefficients) of each polynomial; (table, f, N, fault) of each monomial."""
    rng = np.random.default_rng([seed, 3])
    polys = []
    for n, deg in NORM_POLYS:
        table = _random_table(rng, n)
        polys.append((table, rng.normal(size=(deg + 1, n)) + 1j * rng.normal(size=(deg + 1, n))))
    monomials = []
    for n, N in RADIUS_SLOTS:
        table = _random_table(rng, n)
        monomials.append((table, _exact_weights(rng, table), N, None))
    monomials.append(((1, 0), [2.0, 0.5], REPRODUCER_TRUNC, RADIUS_FAULT))
    return polys, monomials


def construct(raw):
    polys, monomials = raw
    return ([SkewPoly.make(FiniteDynSys(len(t), t), list(c)) for t, c in polys],
            [(SkewPoly.monomial(FiniteDynSys(len(t), t), f, 1), N, fault)
             for t, f, N, fault in monomials])


def _check_norm(p, N, convention, est, previous):
    table = p.system.map
    want = max(largest_singular_value(truncated_matrix(table, p.coeffs, x, N, convention))
               for x in range(p.system.n))
    if abs(est - want) > REL_TOL * max(1.0, want):
        return "norm estimate %.12g, largest singular value %.12g" % (est, want)
    if est > l1(p.coeffs) * (1 + REL_TOL):
        return "norm estimate exceeds the l1 norm"
    if previous is not None and est < previous * (1 - REL_TOL):
        return "norm estimate decreased as N grew"
    return None


def check_radius(u, N, est):
    table = u.system.map
    f = np.asarray(u.coeffs[1])
    lo, hi = radius_band(table, f, N)
    return None if lo <= est <= hi else RADIUS_FAULT


def make_ops(inputs, workdir=None, tracer=None):
    polys, monomials = inputs
    ops = []
    last = {}
    for i, p in enumerate(polys):
        for j, N in enumerate(NORM_TRUNCS):
            convention = "forward" if N == 64 else "backward"

            def check(est, i=i, j=j, p=p, N=N, convention=convention):
                previous = last.get((i, j - 1))
                last[(i, j)] = est
                return _check_norm(p, N, convention, est, previous)

            ops.append(Op("norm-n%d-N%d" % (p.system.n, N),
                          lambda p=p, N=N, c=convention: conjalg.norm_estimate(p, N, convention=c),
                          check))
    for u, N, fault in monomials:
        label = "radius-n%d-N%d" % (u.system.n, N) + ("-fault" if fault else "")
        ops.append(Op(label, lambda u=u, N=N: conjalg.spectral_radius_estimate(u, N),
                      lambda est, u=u, N=N: check_radius(u, N, est), known_fault=fault))
    return ops
