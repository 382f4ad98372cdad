"""Concrete representations of the skew polynomial algebra.

Two families live here:

* truncated shift representations on C^N, used for operator norm and
  spectral radius estimates;
* 2x2 upper-triangular (nest) representations in their three flavours:
  off a fixed point, pencils over a pre-periodic point, and the
  derivative representation at an interior fixed point of a disk map.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import DEFAULT_TRUNC
from .charspace import Character
from .dynsys import FiniteDynSys
from .skewpoly import SkewPoly, SystemMismatchError

# Margin of the Gershgorin and Cholesky bounds in `norm_estimate`, relative to
# the square of the norm: far above their rounding errors, of order N * eps.
CHOLESKY_MARGIN = 1e-8


class NestRepError(ValueError):
    code = "NestRep"


class NotOffFixedError(NestRepError):
    code = "NotOffFixed"


class NotPreperiodicError(NestRepError):
    code = "NotPreperiodic"


class OnBoundaryError(NestRepError):
    code = "OnBoundary"


@dataclass(frozen=True)
class TruncatedRep:
    """N x N compression of the shift representation based at one point."""

    system: FiniteDynSys
    base_point: int
    trunc: int = DEFAULT_TRUNC
    convention: str = "backward"

    def __post_init__(self):
        if self.trunc < 1:
            raise ValueError("truncation size must be at least 1")
        if not 0 <= self.base_point < self.system.n:
            raise ValueError("base point out of range")
        if self.convention not in ("backward", "forward"):
            raise ValueError("convention must be 'backward' or 'forward'")

    def orbit(self) -> list:
        step = memoryview(self.system.map)  # yields Python ints, as fast as a tuple
        out = [self.base_point]
        for _ in range(self.trunc - 1):
            out.append(step[out[-1]])
        return out


def _warn_if_truncated(p: SkewPoly, N: int):
    """Warn, on behalf of the caller's caller, when deg p >= truncation N."""
    if p.degree >= N:
        warnings.warn(
            "polynomial degree %d >= truncation %d; edge effects dominate"
            % (p.degree, N),
            stacklevel=3,
        )


def _image(orbit, coeffs, N: int, convention: str) -> np.ndarray:
    """The N x N image of sum_k coeffs[k] U^k along the given orbit."""
    rows = np.arange(N)
    M = np.zeros((N, N), dtype=complex)
    for k, f in enumerate(coeffs[:N]):
        M[rows[:N - k], rows[k:]] = f[orbit[:N - k]]
    return M if convention == "backward" else M.T


def rep_matrix(rep: TruncatedRep, p: SkewPoly) -> np.ndarray:
    """Image of p under the truncated shift representation.

    Backward convention sends sum f_k U^k to sum pi(f_k) V^k with V the
    truncated backward shift; forward sends it to sum U^k pi(f_k).  Warns
    when the degree reaches the truncation size, where coefficients are
    lost entirely.
    """
    if p.system != rep.system:
        raise SystemMismatchError("polynomial lives over a different system")
    _warn_if_truncated(p, rep.trunc)
    return _image(np.array(rep.orbit()), p.coeffs, rep.trunc, rep.convention)


def operator_norm(M: np.ndarray) -> float:
    return float(np.linalg.norm(M, 2))


def _orbits(system: FiniteDynSys, N: int) -> np.ndarray:
    """(n, N) array whose row x is the orbit x, eta(x), ..., eta^(N-1)(x)."""
    orb = np.empty((system.n, N), dtype=np.intp)
    orb[:, 0] = np.arange(system.n)
    step, j = system.map, 1  # step = eta^j while j doubles
    while j < N:
        m = min(j, N - j)
        orb[:, j:j + m] = step[orb[:, :m]]
        step, j = step[step], j + m
    return orb


def _scaled_gram(p: SkewPoly, orb: np.ndarray):
    """(t, bands) for the backward images of p at truncation N = orb.shape[1].

    t is the largest |f_k| with k < N, and bands[s][x, c] = G_x[c, c + s] for
    the Gram matrix G_x = A^H A of A = pi_x(p) / t.  Column c of A holds
    A[c - k, c] = f_k(eta^(c - k) x) / t for k = 0..d, so
    G_x[c, c + s] = sum_k conj(A[c - k, c]) A[c - k, c + s], one product and
    one sum over k per band for every point at once: O(n N d^2) in all.
    bands is empty when t = 0.
    """
    n, N = orb.shape
    coeffs = np.reshape(p.coeffs[:N], (-1, n))
    t = float(np.abs(coeffs).max(initial=0.0))
    if not t:
        return t, []
    d = len(coeffs) - 1
    col = np.zeros((d + 1, n, N), dtype=complex)  # col[k, x, c] = A_x[c - k, c], of modulus <= 1
    for k, f in enumerate(coeffs / t):
        col[k, :, k:] = f[orb[:, :N - k]]
    conj = col.conj()
    return t, [(conj[:d + 1 - s, :, :N - s] * col[s:, :, s:]).sum(axis=0) for s in range(d + 1)]


def _gram_bounds(bands):
    """Per point x, (l2, g) with l2 = max diag G_x <= lambda_max(G_x) <= g.

    l2 is the largest squared column norm of pi_x(p) / t, and g the
    Gershgorin bound, the largest absolute row sum of G_x.
    """
    diag = bands[0].real  # exactly real: conj(z) z has a zero imaginary part
    rows = diag.copy()
    N = rows.shape[1]
    for s, band in enumerate(bands[1:], 1):
        m = np.abs(band)
        rows[:, :N - s] += m  # G_x[c, c + s]
        rows[:, s:] += m  # G_x[c + s, c], its conjugate
    return diag.max(axis=1), rows.max(axis=1)


def _below(bands, x: int, r: float) -> bool:
    """Whether a Cholesky factorisation of (1 - CHOLESKY_MARGIN) I - G_x / r,
    built densely from the bands, succeeds, proving lambda_max(G_x) < r."""
    N = bands[0].shape[1]
    H = np.zeros((N, N), dtype=complex)
    H.flat[::N + 1] = (1 - CHOLESKY_MARGIN) - bands[0][x].real / r
    for s, band in enumerate(bands[1:], 1):
        H.flat[s:N * (N - s):N + 1] = band[x] / -r  # H[c, c + s]
        H.flat[s * N::N + 1] = band[x].conj() / -r  # H[c + s, c]
    try:
        np.linalg.cholesky(H)
    except np.linalg.LinAlgError:
        return False
    return True


def _visit_order(bands, lower, upper) -> list:
    """The points x with g_x >= (1 - CHOLESKY_MARGIN) max_y l_y^2, by the
    largest eigenvalue of the leading k x k block of G_x, k = N // 4 (1 below
    N = 4), descending; see `norm_estimate`.  Any other point has a norm
    below that of the point with the largest l_y, by the margin.  The
    blocks' upper triangles, all eigvalsh reads, are written from the bands
    into one array.
    """
    N = bands[0].shape[1]
    k = max(N // 4, 1)
    points = np.flatnonzero(upper >= (1 - CHOLESKY_MARGIN) * lower.max())
    blocks = np.zeros((len(points), k * k), dtype=complex)
    for s, band in enumerate(bands[:k]):
        blocks[:, s:k * (k - s):k + 1] = band[points, :k - s]  # G_x[c, c + s]
    top = np.linalg.eigvalsh(blocks.reshape(-1, k, k), UPLO="U")[:, -1]
    return points[np.argsort(-top, kind="stable")].tolist()


def norm_estimate(p: SkewPoly, N: int = DEFAULT_TRUNC, convention: str = "backward") -> float:
    """Lower bound for the algebra norm: max over every base point x of
    ||pi_x(p)|| at truncation N, in the given convention.

    Only the maximum is needed, so most points are ruled out without an SVD.
    Every image pi_x(p) is upper triangular with d + 1 nonzero diagonals, so
    the Gram matrices G_x of pi_x(p) / t, t the largest |f_k|, come from
    their d + 1 bands for all points at once (`_scaled_gram`), with two
    bounds per point: l_x^2 = max diag G_x <= ||pi_x(p) / t||^2 <= g_x, the
    Gershgorin bound.  The points that can hold the maximum, those with
    g_x >= (1 - CHOLESKY_MARGIN) max_y l_y^2, are visited in descending order
    of the largest eigenvalue of the leading (N // 4) x (N // 4) block of
    G_x (`_visit_order`).  As pi_x(p) is upper triangular, that block is the
    Gram matrix of its truncation at N // 4, so the first SVD falls on the
    point with the largest norm at a quarter of the truncation, nearly always
    the maximiser.  With s the largest SVD value so far and r = (s / t)^2,
    every point takes its SVD while s < t.  Afterwards a point with
    g_x < (1 - CHOLESKY_MARGIN) r is skipped; one with l_x^2 >= r takes its
    SVD; any other is skipped if a Cholesky factorisation of
    (1 - CHOLESKY_MARGIN) I - G_x / r, built densely from the bands with no
    product, succeeds, and takes its SVD otherwise.  The forward image is the
    transpose, whose norm is the same, so the backward bands bound both
    conventions.  One base point takes its SVD directly.

    The bounds are safe: every scaled entry has modulus <= 1, so no Gram
    term overflows, and r >= 1 at every bound.  Rounding in the band sums
    (of order d * machine epsilon), underflowed terms (below 1e-308) and
    Cholesky's backward error (of order N * machine epsilon) then lie far
    below the margin, so a skipped point has ||pi_x(p)|| < s.  The entry t
    lies in row 0 of the image based where it is taken, so s >= t once that
    point, or the one with the largest l_x, has taken its SVD; when d < N // 4
    the entry also lies in that image's leading block, which in practice puts
    a point of norm at least t first.  The value is the per-point maximum of
    SVD values, bit for bit.
    """
    TruncatedRep(p.system, 0, N, convention)  # raises on a bad N or convention
    _warn_if_truncated(p, N)
    orb = _orbits(p.system, N)
    if p.system.n == 1:
        return operator_norm(_image(orb[0], p.coeffs, N, convention))
    t, bands = _scaled_gram(p, orb)
    if not t:
        return 0.0
    lower, upper = _gram_bounds(bands)
    best = 0.0
    for x in _visit_order(bands, lower, upper):
        if best >= t:
            r = (best / t) ** 2
            if upper[x] < (1 - CHOLESKY_MARGIN) * r or (lower[x] < r and _below(bands, x, r)):
                continue
        best = max(best, operator_norm(_image(orb[x], p.coeffs, N, convention)))
    return best


def _rescaled(A: np.ndarray, log_scale: float):
    """(A / t, log_scale + log t) with t the largest |entry| of A, if A != 0."""
    top = float(np.abs(A).max())
    return (A / top, log_scale + math.log(top)) if top else (A, log_scale)


def _scaled_power(M: np.ndarray, n: int):
    """M^n as (R, s) with M^n = e^s R, by repeated squaring; R is None if n = 0.

    Every factor and product is divided by its largest entry, whose log is
    carried in s, so no power overflows or underflows.
    """
    R, s = None, 0.0
    B, t = _rescaled(M, 0.0)
    while n:
        if n & 1:
            R, s = (B, t) if R is None else _rescaled(R @ B, s + t)
        n >>= 1
        if n:
            B, t = _rescaled(B @ B, 2 * t)
    return R, s


def spectral_radius_estimate(u: SkewPoly, N: int = DEFAULT_TRUNC) -> float:
    """Gelfand's value max_x ||pi_x(u^N)||^(1/N) over every base point x,
    computed at truncation N + 1 in the backward convention.

    The truncated image is the top-left corner of a triangular operator, so
    it is multiplicative: pi(u^N) = pi(u)^N at truncation N + 1.  When u has
    no constant term its image is strictly upper triangular, and the N-th
    power has one nonzero entry, the corner prod_{j<N} f_1(eta^j x): the
    value is the largest geometric mean of |f_1| along the first N orbit
    points, summed in logs (O(N) per base point, no matrix).  Otherwise each
    base point takes one matrix, one power by repeated squaring with every
    product rescaled (O(N^3 log N)), and one SVD.  The forward image is the
    transpose, which has the same norm, so it would give the same value.
    """
    if N < 1:
        raise ValueError("N must be at least 1, not %d" % N)
    if u.is_zero():
        return 0.0
    _warn_if_truncated(u, N + 1)
    if not np.any(u.coeffs[0]):
        logs = [math.log(a) if a else -math.inf for a in np.abs(u.coeffs[1]).tolist()]
        top = max(sum(map(logs.__getitem__, TruncatedRep(u.system, x, N).orbit()))
                  for x in range(u.system.n))
        return math.exp(top / N)  # 0.0 if every orbit meets a zero of f_1 within N steps
    best, orb = 0.0, _orbits(u.system, N + 1)
    for x in range(u.system.n):
        R, log_scale = _scaled_power(_image(orb[x], u.coeffs, N + 1, "backward"), N)
        nrm = operator_norm(R)
        if nrm:
            best = max(best, math.exp((log_scale + math.log(nrm)) / N))
    return best


@dataclass(frozen=True)
class OffFixedRep:
    """Example over a non-fixed point: kills every degree >= 2 term."""

    system: FiniteDynSys
    x: int

    kind = "off_fixed"

    def apply(self, p: SkewPoly) -> np.ndarray:
        y = self.system.map[self.x]
        e0 = p.coeffs[0] if len(p.coeffs) > 0 else np.zeros(self.system.n)
        e1 = p.coeffs[1] if len(p.coeffs) > 1 else np.zeros(self.system.n)
        return np.array([[e0[self.x], e1[self.x]], [0.0, e0[y]]], dtype=complex)


@dataclass(frozen=True)
class PencilRep:
    """pi_z over a point x with eta(x) != x = eta(eta(x)) pre-periodic.

    Values come from the closed-form series: the (1,1) entry is E_0 at x,
    the (1,2) entry sums E_n at x weighted by z^n for n >= 1, and the
    (2,2) entry is the full series at the fixed point eta(x).  The parameter
    z lies in the open unit disc.
    """

    system: FiniteDynSys
    x: int
    z: complex

    kind = "pencil"

    def apply(self, p: SkewPoly) -> np.ndarray:
        x = self.x
        y = self.system.map[x]
        z = complex(self.z)
        top = 0.0 + 0.0j
        bottom = 0.0 + 0.0j
        zn = 1.0 + 0.0j
        for n, c in enumerate(p.coeffs):
            if n >= 1:
                top += c[x] * zn
            bottom += c[y] * zn
            zn *= z
        e0 = p.coeffs[0][x] if p.coeffs else 0.0
        return np.array([[e0, top], [0.0, bottom]], dtype=complex)


@dataclass(frozen=True)
class FixedDerivativeRep:
    """Derivative representation at an interior fixed point of a disk map.

    Functions act as f -> [[f(x), a f'(x)], [0, f(x)]] and the shift as
    [[c z, 0], [0, z]] where c is the multiplier of the map at x.  The
    free (1,2) entry of the shift image is pinned to 0.  `apply_function`
    takes f together with its derivative f'.
    """

    fixed_point: complex
    multiplier: complex
    z: complex
    a: complex

    kind = "fixed_derivative"

    def apply_function(self, f, fprime) -> np.ndarray:
        x = complex(self.fixed_point)
        return np.array([[f(x), self.a * fprime(x)], [0.0, f(x)]], dtype=complex)

    def shift_matrix(self) -> np.ndarray:
        return np.array(
            [[self.multiplier * self.z, 0.0], [0.0, self.z]], dtype=complex
        )

    @property
    def theta1_shift(self) -> complex:
        return self.multiplier * self.z

    @property
    def theta2_shift(self) -> complex:
        return complex(self.z)


def build_offfixed(sys: FiniteDynSys, x: int) -> OffFixedRep:
    if not 0 <= x < sys.n:
        raise ValueError("base point out of range")
    if sys.map[x] == x:
        raise NotOffFixedError("base point must not be fixed")
    return OffFixedRep(sys, x)


def build_pencil(sys: FiniteDynSys, x: int, z) -> PencilRep:
    if not 0 <= x < sys.n:
        raise ValueError("base point out of range")
    if not cmath.isfinite(complex(z)):
        raise ValueError("pencil parameter must be finite, not NaN or infinite")
    y = sys.map[x]
    if y == x or sys.map[y] != y:
        raise NotPreperiodicError(
            "pencil base point needs eta(x) != x and eta(eta(x)) = eta(x)"
        )
    if not abs(complex(z)) < 1:
        raise OnBoundaryError("pencil parameter must lie strictly inside the unit disc")
    return PencilRep(sys, x, complex(z))


def build_fixed_derivative(fixed_point, multiplier, z, a) -> FixedDerivativeRep:
    if not (cmath.isfinite(complex(z)) and cmath.isfinite(complex(a))):
        raise ValueError("z and a must be finite, not NaN or infinite")
    if a == 0:
        raise NestRepError("off-diagonal scale a must be nonzero")
    if not abs(complex(z)) < 1:
        raise OnBoundaryError("parameter must lie strictly inside the unit disc")
    return FixedDerivativeRep(complex(fixed_point), complex(multiplier),
                              complex(z), complex(a))


def extract_characters(nr):
    """Diagonal compressions of a nest representation, as characters."""
    if nr.kind == "off_fixed":
        y = nr.system.map[nr.x]
        return (Character(nr.system, nr.x, 0.0), Character(nr.system, y, 0.0))
    if nr.kind == "pencil":
        y = nr.system.map[nr.x]
        return (
            Character(nr.system, nr.x, 0.0),
            Character(nr.system, y, nr.z),
        )
    raise NestRepError("no finite-system characters for kind %r" % (nr.kind,))
