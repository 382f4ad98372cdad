"""Skew polynomials over a finite system.

Elements are finite sums sum_k f_k U^k with coefficient vectors f_k indexed
by the points of the system, multiplied under the covariance rule
U f = (f o eta) U.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynsys import ConjugacyWitness, FiniteDynSys


class SystemMismatchError(ValueError):
    pass


class InvalidWitnessError(ValueError):
    pass


def _as_coef(system: FiniteDynSys, values) -> np.ndarray:
    v = np.array(values, dtype=complex)  # a copy: the caller keeps their array
    if v.shape != (system.n,):
        raise SystemMismatchError(
            "coefficient vector has length %r, expected %d" % (v.shape, system.n)
        )
    v.flags.writeable = False
    return v


def _json_complex(re, im) -> complex:
    """complex(re, im) from JSON numbers; a boolean is not a number."""
    if isinstance(re, bool) or isinstance(im, bool):
        raise TypeError("coefficients must be numbers, not booleans")
    try:
        return complex(re, im)
    except OverflowError:  # an integer beyond the float range
        raise ValueError("coefficients must lie in the float range") from None


@dataclass(frozen=True, eq=False)
class SkewPoly:
    """sum_k coeffs[k] U^k; trailing zero coefficients are stripped."""

    system: FiniteDynSys
    coeffs: tuple  # tuple of complex vectors, one per degree

    def __eq__(self, other):
        if not isinstance(other, SkewPoly):
            return NotImplemented
        return (self.system == other.system and self.degree == other.degree
                and all(map(np.array_equal, self.coeffs, other.coeffs)))

    def __hash__(self):
        # coefficients stay out: 0.0 == -0.0 but their bytes differ
        return hash((self.system, self.degree))

    @classmethod
    def make(cls, system: FiniteDynSys, coeffs) -> "SkewPoly":
        vs = [_as_coef(system, c) for c in coeffs]
        while vs and not np.any(vs[-1]):  # NaN counts as nonzero here
            vs.pop()
        if vs and not np.isfinite(vs).all():  # once for all vectors: cheaper than per vector
            raise ValueError("coefficients must be finite, not NaN or infinite")
        return cls(system, tuple(vs))

    @classmethod
    def zero(cls, system: FiniteDynSys) -> "SkewPoly":
        return cls(system, ())

    @classmethod
    def one(cls, system: FiniteDynSys) -> "SkewPoly":
        return cls.make(system, [np.ones(system.n)])

    @classmethod
    def shift(cls, system: FiniteDynSys, weight=1.0) -> "SkewPoly":
        """The monomial (weight * 1) U."""
        return cls.make(system, [np.zeros(system.n), np.full(system.n, weight)])

    @classmethod
    def constant(cls, system: FiniteDynSys, values) -> "SkewPoly":
        return cls.make(system, [values])

    @classmethod
    def monomial(cls, system: FiniteDynSys, values, k: int) -> "SkewPoly":
        return cls.make(system, [np.zeros(system.n)] * k + [values])

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other):
        return skew_add(self, other)

    def __sub__(self, other):
        return skew_add(self, skew_scale(-1.0, other))

    def __mul__(self, other):
        if isinstance(other, SkewPoly):
            return skew_mul(self, other)
        return skew_scale(other, self)

    def __rmul__(self, scalar):
        return skew_scale(scalar, self)

    @classmethod
    def from_json(cls, obj) -> "SkewPoly":
        system = FiniteDynSys.from_json(obj["system"])
        coeffs = [
            np.array([_json_complex(re, im) for re, im in layer]) for layer in obj["coeffs"]
        ]
        return cls.make(system, coeffs)

    def to_json(self):
        return {
            "system": self.system.to_json(),
            "coeffs": [[[z.real, z.imag] for z in c] for c in self.coeffs],
        }


def _check_same_system(p: SkewPoly, q: SkewPoly):
    if p.system != q.system:
        raise SystemMismatchError("polynomials live over different systems")


def skew_add(p: SkewPoly, q: SkewPoly) -> SkewPoly:
    _check_same_system(p, q)
    n = p.system.n
    d = max(len(p.coeffs), len(q.coeffs))
    out = [np.zeros(n, dtype=complex) for _ in range(d)]
    for k, c in enumerate(p.coeffs):
        out[k] += c
    for k, c in enumerate(q.coeffs):
        out[k] += c
    return SkewPoly.make(p.system, out)


def skew_scale(c, p: SkewPoly) -> SkewPoly:
    return SkewPoly.make(p.system, [complex(c) * v for v in p.coeffs])


def skew_mul(p: SkewPoly, q: SkewPoly) -> SkewPoly:
    """Product under U f = (f o eta) U.

    The degree-n coefficient is sum_{k<=n} f_k * (g_{n-k} o eta^{(k)}).
    """
    _check_same_system(p, q)
    if p.is_zero() or q.is_zero():
        return SkewPoly.zero(p.system)
    n_pts = p.system.n
    d = p.degree + q.degree
    out = [np.zeros(n_pts, dtype=complex) for _ in range(d + 1)]
    table = np.arange(n_pts)  # eta^{(k)}
    for k, f in enumerate(p.coeffs):
        for j, g in enumerate(q.coeffs):
            out[k + j] += f * g[table]
        table = p.system.map[table]
    return SkewPoly.make(p.system, out)


def coefficient(p: SkewPoly, n: int) -> np.ndarray:
    """The coefficient map E_n applied to p; zero beyond the degree."""
    if n < 0:
        raise ValueError("coefficient index must be nonnegative")
    if n < len(p.coeffs):
        return np.array(p.coeffs[n])
    return np.zeros(p.system.n, dtype=complex)


def l1_norm(p: SkewPoly) -> float:
    """sum_k max_x |f_k(x)|."""
    return float(sum(np.max(np.abs(c)) for c in p.coeffs))


def transport(p: SkewPoly, w: ConjugacyWitness, target: FiniteDynSys) -> SkewPoly:
    """Push p along a conjugacy witness: each f_k becomes f_k o sigma^{-1}."""
    if w.source != p.system or w.target != target:
        raise InvalidWitnessError("witness does not relate the given systems")
    inv = np.argsort(w.bijection)  # the inverse permutation
    return SkewPoly.make(target, [np.asarray(c)[inv] for c in p.coeffs])
