"""disk-verdicts: `semicrossed_iso_verdict` on disc-map pairs, plus `classify`.

Every pair is built in the upper half-plane H or at the origin, carried to
the disc, and conjugated by random disc automorphisms, so its verdict is
known from the construction.  Witnesses are checked against the closed form
of a disc automorphism and on sample points the benchmark draws itself.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

import conjalg
from conjalg import MobiusMap
from conjalg.diskmaps import NotDiskMapError

from common import Op

# the two inverse-conjugate verdicts are the slowest, 2 of 29: p97 falls inside them
TAIL_PERCENTILE = 97
TRACE_ROUNDS = 10

CONJUGATE, INVERSE, NOT_ISO = "Conjugate", "InverseConjugate", "NotIsomorphic"

# the pole reproducer: |d|^2 - |c|^2 = -3.5 and a pole at |z| = 0.937, yet
# the 1 080-point probe admits it
POLE_REPRODUCER = {"matrix": [[0.861339, -2.808223], [2.863657, 0.496038],
                              [-4.911719, -2.15325], [1.602235, -4.763671]]}
# random coefficient matrices for `classify`: a fixed draw, so that a map the
# probe misjudges fails in every run instead of on some seeds only
CLASSIFY_SEED = 20000
CLASSIFY_RANDOM = 7
CLASSIFY_SCALE = 3.0
PROBE_FAULT = "classify disagrees with the closed-form disc predicate"

WITNESS_TOL = 1e-8
AUTO_TOL = 1e-9

# Cayley chart: H -> disc, w -> (w - i)/(w + i); its inverse sends 1 to infinity
TO_DISC = np.array([[1, -1j], [1, 1j]])
TO_H = np.array([[1j, 1j], [-1, 1]])


def _mobius(mat):
    return MobiusMap(*(complex(x) for x in mat.ravel()))


def _matrix(m):
    return np.array([[m.a, m.b], [m.c, m.d]])


def _from_h(t):
    """The disc map of an H map given by its 2x2 matrix."""
    return TO_DISC @ t @ TO_H


def _unit(rng):
    return cmath.exp(2j * math.pi * rng.random())


def _automorphism(rng):
    """Rotation after the Blaschke factor at a random p with |p| <= 0.8."""
    p = 0.8 * math.sqrt(rng.random()) * _unit(rng)
    return np.array([[_unit(rng), 0], [0, 1]]) @ np.array([[1, -p], [-p.conjugate(), 1]])


def _conj(rng, core):
    """g core g^-1 for a fresh random automorphism g."""
    g = _automorphism(rng)
    return g @ core @ np.linalg.inv(g)


def _angle_away(rng, *avoid):
    """A rotation angle in (0.3, pi - 0.3) up to sign, 0.3 away from `avoid`."""
    while True:
        t = (0.3 + (math.pi - 0.6) * rng.random()) * (1 if rng.random() < 0.5 else -1)
        if all(abs(t - a) > 0.3 and abs(t + a) > 0.3 for a in avoid):
            return t


def _rot(t):
    return np.array([[cmath.exp(1j * t), 0], [0, 1]])


def verdict_matrices(rng):
    """(label, matrix 1, matrix 2, expected verdict) for one round."""
    ident = np.eye(2, dtype=complex)
    t = _angle_away(rng)
    t_other = _angle_away(rng, t)
    s = 0.5 + 1.5 * rng.random()
    lam = 0.2 + 0.6 * rng.random()
    lam_other = lam + 0.1 + 0.1 * rng.random()
    hyp = lambda l: _from_h(np.array([[l, 0], [0, 1]]))
    par = lambda x: _from_h(np.array([[1, x], [0, 1]]))
    mu = (0.2 + 0.3 * rng.random()) * _unit(rng)
    mu_other = mu * (1.15 + 0.2 * rng.random())
    kappa = 0.1 + 0.2 * rng.random()
    ell = lambda m, k: np.array([[m, 0], [-k, 1]])
    A = 1.5 + 1.5 * rng.random()
    B1 = complex(rng.normal(), 0.2 + rng.random())
    B2 = complex(rng.normal(), 0.2 + rng.random())
    aff = lambda a, b: _from_h(np.array([[a, b], [0, 1]]))
    phase = 0.2 + 0.8 * rng.random()
    drift = lambda ang, size: aff(1, size * cmath.exp(1j * ang))
    c = _conj
    return [
        ("identity-yes", c(rng, ident), c(rng, ident), CONJUGATE),
        ("identity-yes", c(rng, ident), c(rng, ident), CONJUGATE),
        ("identity-no", c(rng, ident), c(rng, _rot(t)), NOT_ISO),
        ("rotation-yes", c(rng, _rot(t)), c(rng, _rot(t)), CONJUGATE),
        ("rotation-yes", c(rng, _rot(t_other)), c(rng, _rot(t_other)), CONJUGATE),
        ("rotation-inverse", c(rng, _rot(t)), c(rng, _rot(-t)), INVERSE),
        ("rotation-inverse", c(rng, _rot(t_other)), c(rng, _rot(-t_other)), INVERSE),
        ("rotation-no", c(rng, _rot(t)), c(rng, _rot(t_other)), NOT_ISO),
        ("parabolic-yes", c(rng, par(s)), c(rng, par(1.0)), CONJUGATE),
        ("parabolic-yes", c(rng, par(-s)), c(rng, par(-1.0)), CONJUGATE),
        ("parabolic-no", c(rng, par(s)), c(rng, par(-s)), NOT_ISO),
        ("hyperbolic-yes", c(rng, hyp(lam)), c(rng, hyp(lam)), CONJUGATE),
        ("hyperbolic-yes", c(rng, hyp(lam)), c(rng, hyp(1 / lam)), CONJUGATE),
        ("hyperbolic-no", c(rng, hyp(lam)), c(rng, hyp(lam_other)), NOT_ISO),
        ("elliptic-yes", c(rng, ell(mu, kappa)), c(rng, ell(mu, kappa * _unit(rng))), CONJUGATE),
        ("elliptic-yes", c(rng, ell(mu, kappa)), c(rng, ell(mu, kappa)), CONJUGATE),
        ("elliptic-no", c(rng, ell(mu, kappa)), c(rng, ell(mu_other, kappa)), NOT_ISO),
        ("contraction-yes", c(rng, aff(A, B1)), c(rng, aff(A, B2)), CONJUGATE),
        ("contraction-no", c(rng, aff(A, B1)), c(rng, aff(A + 0.5, B1)), NOT_ISO),
        ("drift-yes", c(rng, drift(phase, 1.0)), c(rng, drift(phase, s)), CONJUGATE),
        ("drift-no", c(rng, drift(phase, 1.0)), c(rng, drift(phase + 1.0, 1.0)), NOT_ISO),
    ]


def closed_form_disc(m):
    """(admitted, c0, r): m maps the closed disc into itself iff |d| > |c|
    and |c0| + r <= 1, c0 and r being the centre and radius of the image."""
    a, b, c, d = (complex(x) for x in _matrix(m).ravel())
    s = cmath.sqrt(a * d - b * c)
    a, b, c, d = a / s, b / s, c / s, d / s
    D = abs(d) ** 2 - abs(c) ** 2
    if D <= 0:
        return False, None, None
    c0 = (b * d.conjugate() - a * c.conjugate()) / D
    r = 1.0 / D
    return abs(c0) + r <= 1 + AUTO_TOL, c0, r


def _apply(m, z):
    return (m.a * z + m.b) / (m.c * z + m.d)


def check_verdict(m1, m2, expected, samples, result):
    verdict, w = result
    if verdict != expected:
        return "verdict %s, expected %s" % (verdict, expected)
    if expected == NOT_ISO:
        return None if w is None else "NotIsomorphic with a witness"
    admitted, c0, r = closed_form_disc(w)
    if not admitted or abs(c0) > AUTO_TOL or abs(r - 1) > AUTO_TOL:
        return "witness is not a disc automorphism"
    target = m2
    if expected == INVERSE:
        target = MobiusMap(m2.d, -m2.b, -m2.c, m2.a)
    dev = np.max(np.abs(_apply(w, _apply(m1, samples)) - _apply(target, _apply(w, samples))))
    if not dev <= WITNESS_TOL:
        return "witness deviation %.3g" % dev
    return None


def verdict_pairs(matrices):
    """The maps of `verdict_matrices`, built with the program's constructor."""
    return [(label, _mobius(t1), _mobius(t2), expected) for label, t1, t2, expected in matrices]


def classify_matrices():
    rng = np.random.default_rng(CLASSIFY_SEED)
    matrices = []
    while len(matrices) < CLASSIFY_RANDOM:
        z = CLASSIFY_SCALE * (rng.normal(size=4) + 1j * rng.normal(size=4))
        if abs(z[0] * z[3] - z[1] * z[2]) > 1e-3:
            matrices.append(z.reshape(2, 2))
    return matrices


def _try_classify(m):
    try:
        return conjalg.classify(m)
    except NotDiskMapError:
        return None


def check_classify(m, result):
    admitted = closed_form_disc(m)[0]
    if (result is not None) != admitted:
        return PROBE_FAULT
    return None


def sample_points(rng, k=24):
    """k points on the unit circle and k spread over the open disc."""
    return np.concatenate([
        np.exp(2j * math.pi * rng.random(k)),
        np.sqrt(rng.random(k)) * np.exp(2j * math.pi * rng.random(k)),
    ])


def generate(seed):
    rng = np.random.default_rng([seed, 2])
    return verdict_matrices(rng), classify_matrices(), sample_points(rng)


def construct(raw):
    pairs, cmatrices, samples = raw
    cmaps = [("classify-pole", MobiusMap.from_json(POLE_REPRODUCER))]
    cmaps += [("classify-random", _mobius(t)) for t in cmatrices]
    return verdict_pairs(pairs), cmaps, samples


def make_ops(inputs, workdir=None, tracer=None):
    pairs, cmaps, samples = inputs
    ops = []
    for label, m1, m2, expected in pairs:
        ops.append(Op(
            label,
            lambda m1=m1, m2=m2: conjalg.semicrossed_iso_verdict(m1, m2),
            lambda res, m1=m1, m2=m2, e=expected: check_verdict(m1, m2, e, samples, res),
        ))
    for label, m in cmaps:
        ops.append(Op(label, lambda m=m: _try_classify(m),
                      lambda res, m=m: check_classify(m, res), known_fault=PROBE_FAULT))
    return ops
