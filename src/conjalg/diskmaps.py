"""Mobius self-maps of the closed unit disk.

Classification into the elliptic / parabolic / hyperbolic families, normal
forms with their conjugation invariants, and the analytic-conjugacy and
algebra-isomorphism decisions with explicit automorphism witnesses.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

# Tolerances; maps are stored with determinant one, so each works on a fixed scale.
TOL = 1e-9               # coefficient tests: sign, identity, fixed points, image disk
WITNESS_TOL = 1e-10      # largest |gamma(m1(z)) - m2(gamma(z))| a witness may show
WITNESS_AUTO_TOL = 1e-8  # a witness is several compositions deep, so it is checked more loosely
BOUNDARY_BAND = 1e-6     # a double boundary fixed point splits by ~sqrt(eps) under conjugation
TRACE_BAND = 1e-7        # |tr^2 - 4| of a double fixed point; the trace is conjugation-stable
MULTIPLIER_BAND = 1e-7   # slack on |derivative| <= 1 when picking the Denjoy-Wolff point
INFINITY_BAND = 1e-6     # |c| of a half-plane conjugate fixing infinity; p has root error
INVARIANT_TOL = 1e-8     # two normal-form invariants agree
KAPPA_CUTOFF = 1e-10     # smaller |kappa|: a pure rotation, whose phase needs no aligning
POLE_GUARD = 1e-300      # |cz + d| below which z is the pole


class MobiusError(ValueError):
    pass


class PoleError(MobiusError):
    pass


class NotDiskMapError(MobiusError):
    pass


class NotDecidableError(MobiusError):
    """Conjugacy of non-Mobius elliptic homeomorphisms is not decided here."""


def _exponent(w: complex) -> int:
    return math.frexp(max(abs(w.real), abs(w.imag)))[1]


def _normalize(a, b, c, d):
    det = a * d - b * c
    if not 2.0 ** -500 < abs(det.real) + abs(det.imag) < 2.0 ** 500:
        # ad - bc over- or underflowed, or came near to: divide through by a
        # power of two near sqrt(max(|ad|, |bc|)) and form it again.  Such
        # scaling is exact, so a determinant in range would come out the same.
        # (Scaling by the largest entry instead would underflow the small
        # entry of a map such as (1e-200, 0, 0, 1e200).)
        k = max((_exponent(w) + _exponent(z) for w, z in ((a, d), (b, c)) if w and z),
                default=0) // 2
        a, b, c, d = (complex(math.ldexp(w.real, -k), math.ldexp(w.imag, -k))
                      for w in (a, b, c, d))
        det = a * d - b * c
    if det == 0:
        raise MobiusError("matrix is singular")
    s = cmath.sqrt(det)
    a, b, c, d = a / s, b / s, c / s, d / s
    # the sign of the root: the trace, or else the first coefficient that is
    # not zero, points into the right half-plane
    lead = a + d
    if abs(lead) <= TOL:
        lead = next((w for w in (a, b, c, d) if abs(w) > TOL), 0j)
    if lead.real < -TOL or (abs(lead.real) <= TOL and lead.imag < 0):
        a, b, c, d = -a, -b, -c, -d
    return a, b, c, d


@dataclass(frozen=True)
class MobiusMap:
    """z -> (az + b)/(cz + d), stored with determinant one."""

    a: complex
    b: complex
    c: complex
    d: complex

    def __post_init__(self):
        a, b, c, d = _normalize(
            complex(self.a), complex(self.b), complex(self.c), complex(self.d)
        )
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)

    def __call__(self, z: complex) -> complex:
        return mobius_apply(self, z)

    @classmethod
    def identity(cls) -> "MobiusMap":
        return cls(1, 0, 0, 1)

    @classmethod
    def rotation(cls, c: complex) -> "MobiusMap":
        return cls(c, 0, 0, 1)

    @classmethod
    def dilation(cls, lam: complex) -> "MobiusMap":
        return cls(lam, 0, 0, 1)

    @classmethod
    def blaschke(cls, p: complex) -> "MobiusMap":
        """phi_p(z) = (z - p)/(1 - conj(p) z), swapping p and 0."""
        return cls(1, -p, -p.conjugate(), 1)

    @classmethod
    def from_json(cls, obj) -> "MobiusMap":
        if "preset" in obj:
            name = obj["preset"]
            if name == "rotation":
                return cls.rotation(complex(*obj["c"]))
            if name == "dilation":
                return cls.dilation(complex(*obj["lambda"]))
            if name == "blaschke_half":
                return cls(1, -0.5, -0.5, 1)
            if name == "blaschke_quarter":
                return cls(1, -0.25, -0.25, 1)
            raise MobiusError("unknown preset %r" % (name,))
        (ar, ai), (br, bi), (cr, ci), (dr, di) = obj["matrix"]
        return cls(complex(ar, ai), complex(br, bi), complex(cr, ci), complex(dr, di))

    def to_json(self):
        return {
            "matrix": [[w.real, w.imag] for w in (self.a, self.b, self.c, self.d)]
        }


def mobius_apply(m: MobiusMap, z: complex) -> complex:
    den = m.c * z + m.d
    if abs(den) < POLE_GUARD:
        raise PoleError("evaluation at a pole")
    return (m.a * z + m.b) / den


def mobius_derivative(m: MobiusMap, z: complex) -> complex:
    den = m.c * z + m.d
    if abs(den) < POLE_GUARD:
        raise PoleError("derivative at a pole")
    return 1.0 / (den * den)  # det is one


def mobius_compose(m1: MobiusMap, m2: MobiusMap) -> MobiusMap:
    """The map z -> m1(m2(z))."""
    return MobiusMap(
        m1.a * m2.a + m1.b * m2.c,
        m1.a * m2.b + m1.b * m2.d,
        m1.c * m2.a + m1.d * m2.c,
        m1.c * m2.b + m1.d * m2.d,
    )


def mobius_inverse(m: MobiusMap) -> MobiusMap:
    return MobiusMap(m.d, -m.b, -m.c, m.a)


def _image_disk(m: MobiusMap):
    """Centre c0 and radius r of the image of the closed disk, or None when
    the pole -d/c lies in the closed disk (|d| <= |c|).

    With D = |d|^2 - |c|^2, c0 = (b conj(d) - a conj(c)) / D and r = 1 / D;
    both are divided through by |d|^2, so that no product overflows.
    """
    q = m.c / m.d if m.d else math.inf
    s = 1 - abs(q) * abs(q)  # D / |d|^2; a product saturates where a square raises
    if not s > 0:
        return None
    return (m.b - m.a * q.conjugate()) / m.d / s, 1 / s / abs(m.d) / abs(m.d)


def maps_disk_to_disk(m: MobiusMap) -> bool:
    """m sends the closed disk into itself: max |m(z)| = |c0| + r <= 1."""
    disk = _image_disk(m)
    return disk is not None and abs(disk[0]) + disk[1] <= 1 + TOL


def is_disk_automorphism(m: MobiusMap, tol: float = TOL) -> bool:
    """m maps the disk onto itself: while r >= |c0|, the largest value of
    ||m(z)| - 1| on the unit circle is |c0| + |r - 1|."""
    disk = _image_disk(m)
    return disk is not None and abs(disk[0]) + abs(disk[1] - 1) <= tol


def _location(z: complex) -> str:
    r = abs(z)
    if abs(r - 1) <= BOUNDARY_BAND:
        return "boundary"
    return "interior" if r < 1 else "exterior"


_INFINITY = complex("inf")


def mobius_fixed_points(m: MobiusMap):
    """Fixed points in the extended plane, as (value, location) pairs."""
    if abs(m.c) > TOL:
        roots = np.roots([m.c, m.d - m.a, -m.b])
        return [(complex(z), _location(complex(z))) for z in roots]
    pts = []
    if abs(m.d - m.a) > TOL:
        z = m.b / (m.d - m.a)
        pts.append((z, _location(z)))
    pts.append((_INFINITY, "exterior"))
    return pts


KIND_IDENTITY = "identity"
KIND_ELLIPTIC_AUTO = "elliptic_automorphism"
KIND_PARABOLIC = "parabolic"
KIND_HYPERBOLIC = "hyperbolic"
KIND_ELLIPTIC_NONAUTO = "elliptic_nonautomorphism"
KIND_NONELLIPTIC_NONAUTO = "nonelliptic_nonautomorphism"


@dataclass(frozen=True)
class DiskClassification:
    kind: str
    fixed_points: tuple       # ((value, location), ...), distinguished first
    multiplier: complex       # derivative at the distinguished fixed point

    @property
    def distinguished(self) -> complex:
        return self.fixed_points[0][0]

    def to_json(self):
        fps = [
            {"z": None if z == _INFINITY else [z.real, z.imag], "location": loc}
            for z, loc in self.fixed_points
        ]
        return {
            "kind": self.kind,
            "fixed_points": fps,
            "multiplier": [self.multiplier.real, self.multiplier.imag],
        }


def classify(m: MobiusMap) -> DiskClassification:
    """Classify a Mobius self-map of the closed disk.

    The distinguished fixed point is the interior one for elliptic maps,
    the attracting one otherwise.
    """
    if not maps_disk_to_disk(m):
        raise NotDiskMapError("not a self-map of the closed unit disk")
    if abs(m.b) <= TOL and abs(m.c) <= TOL and abs(m.a - m.d) <= TOL:  # identity
        return DiskClassification(KIND_IDENTITY, ((0.0 + 0.0j, "interior"),), 1.0 + 0j)

    fps = mobius_fixed_points(m)
    auto = is_disk_automorphism(m)

    def mult(z):
        return mobius_derivative(m, z)

    interior = [p for p in fps if p[1] == "interior"]
    boundary = [p for p in fps if p[1] == "boundary"]

    if interior:
        z = interior[0][0]
        lam = mult(z)
        rest = [p for p in fps if p is not interior[0]]
        kind = KIND_ELLIPTIC_AUTO if auto else KIND_ELLIPTIC_NONAUTO
        return DiskClassification(kind, tuple([interior[0]] + rest), lam)

    t2 = (m.a + m.d) ** 2
    if auto:
        # parabolic iff the squared trace is 4 (double boundary fixed point)
        if abs(t2 - 4) <= TRACE_BAND:
            z = (m.a - m.d) / (2 * m.c) if abs(m.c) > TOL else boundary[0][0]
            return DiskClassification(
                KIND_PARABOLIC, ((z, "boundary"),), 1.0 + 0.0j
            )
        attracting = min(boundary, key=lambda p: abs(mult(p[0])))
        rest = [p for p in fps if p is not attracting]
        lam = mult(attracting[0])
        return DiskClassification(
            KIND_HYPERBOLIC, tuple([attracting] + rest), lam.real
        )

    # non-elliptic non-automorphism: a double fixed point is detected from
    # the trace, which is stable under conjugation, rather than from the
    # numerically split roots
    if abs(m.c) > TOL and abs(t2 - 4) <= TRACE_BAND:
        z = (m.a - m.d) / (2 * m.c)
        return DiskClassification(
            KIND_NONELLIPTIC_NONAUTO, ((z, "boundary"),), mult(z)
        )
    # otherwise the Denjoy-Wolff point is the boundary fixed point with
    # derivative of modulus at most one
    candidates = [p for p in boundary if abs(mult(p[0])) <= 1 + MULTIPLIER_BAND]
    if not candidates:
        raise MobiusError("no attracting boundary fixed point found")
    dw = min(candidates, key=lambda p: abs(mult(p[0])))
    rest = [p for p in fps if p is not dw]
    return DiskClassification(
        KIND_NONELLIPTIC_NONAUTO, tuple([dw] + rest), mult(dw[0])
    )


def _halfplane_chart(p: complex) -> MobiusMap:
    """Disk onto the upper half-plane, sending the boundary point p to infinity."""
    return MobiusMap(1j, 1j * p, -1, p)


def _halfplane_form(m: MobiusMap, p: complex):
    """Coefficients (A, B) of the conjugated map w -> A w + B fixing infinity."""
    g = _halfplane_chart(p)
    t = mobius_compose(mobius_compose(g, m), mobius_inverse(g))
    if abs(t.c) > INFINITY_BAND:
        raise MobiusError("conjugated map does not fix infinity")
    return t.a / t.d, t.b / t.d


def normal_form(m: MobiusMap):
    """Kind plus the conjugation-invariant tuple of the map."""
    kind, inv, _ = _normal_form(m, classify(m))
    return kind, inv


def _normal_form(m: MobiusMap, cl: DiskClassification):
    """Kind, invariants and the form they are read from: phi m phi^-1 for
    elliptic kinds, the half-plane (A, B) for boundary kinds, else None."""
    if cl.kind == KIND_IDENTITY:
        return cl.kind, (), None
    if cl.kind in (KIND_ELLIPTIC_AUTO, KIND_ELLIPTIC_NONAUTO):
        phi = MobiusMap.blaschke(cl.distinguished)
        n = mobius_compose(mobius_compose(phi, m), mobius_inverse(phi))
        lam = n.a / n.d
        kappa = -n.c / n.d
        return cl.kind, (complex(lam), abs(kappa)), n
    if cl.kind == KIND_HYPERBOLIC:
        return cl.kind, (float(cl.multiplier.real),), None
    A, B = _halfplane_form(m, cl.distinguished)
    if cl.kind == KIND_PARABOLIC:
        return cl.kind, (1.0 if B.real >= 0 else -1.0,), (A, B)
    # non-elliptic non-automorphism
    if len(cl.fixed_points) == 1:  # double fixed point: parabolic type
        return cl.kind, ("parabolic_type", complex(B / abs(B))), (A, B)
    return cl.kind, ("two_fixed_points", float((1.0 / A).real)), (A, B)


def _invariants_match(inv1, inv2) -> bool:
    if len(inv1) != len(inv2):
        return False
    for u, v in zip(inv1, inv2):
        if isinstance(u, str) or isinstance(v, str):
            if u != v:
                return False
        elif abs(complex(u) - complex(v)) > INVARIANT_TOL:
            return False
    return True


def verify_conjugacy_witness(gamma, m1, m2, samples) -> float:
    """max over samples of |gamma(m1(z)) - m2(gamma(z))|.

    gamma, m1 and m2 may be MobiusMap instances or plain point maps.
    """
    g = gamma if callable(gamma) else (lambda z: mobius_apply(gamma, z))
    f1 = m1 if callable(m1) else (lambda z: mobius_apply(m1, z))
    f2 = m2 if callable(m2) else (lambda z: mobius_apply(m2, z))
    worst = 0.0
    for z in samples:
        worst = max(worst, abs(g(f1(z)) - f2(g(z))))
    return float(worst)


def disk_samples(count: int = 1000, seed: int = 0) -> list:
    """Deterministic sample points of the closed disk (boundary included)."""
    rng = np.random.default_rng(seed)
    r = np.sqrt(rng.random(count))
    r[: count // 4] = 1.0  # keep a boundary share
    theta = rng.random(count) * 2 * math.pi
    return list(r * np.exp(1j * theta))


def _verified(gamma: MobiusMap, m1: MobiusMap, m2: MobiusMap):
    if not is_disk_automorphism(gamma, WITNESS_AUTO_TOL):
        return None
    dev = verify_conjugacy_witness(gamma, m1, m2, disk_samples(400, seed=7))
    return gamma if dev <= WITNESS_TOL else None


def _elliptic_witness(m1, m2, cl1, cl2, n1, n2):
    phi1 = MobiusMap.blaschke(cl1.distinguished)
    phi2 = MobiusMap.blaschke(cl2.distinguished)
    k1 = -n1.c / n1.d
    k2 = -n2.c / n2.d
    if abs(k1) > KAPPA_CUTOFF and abs(k2) > KAPPA_CUTOFF:
        c = (k1 / k2) / abs(k1 / k2)
    else:
        c = 1.0
    rot = MobiusMap.rotation(c)
    return _verified(
        mobius_compose(mobius_inverse(phi2), mobius_compose(rot, phi1)), m1, m2
    )


def _hyperbolic_witness(m1, m2, cl1, cl2):
    def chart(cl):
        att = cl.fixed_points[0][0]
        rep = cl.fixed_points[1][0]
        return MobiusMap(1, -att, 1, -rep)

    psi1, psi2 = chart(cl1), chart(cl2)
    # align the two half-plane images by a scalar; probe a free boundary point
    def probe(cl, psi):
        for k in range(8):
            b = cmath.exp(2j * math.pi * (k + 0.3) / 8)
            if min(abs(b - p[0]) for p in cl.fixed_points) > 0.2:
                return mobius_apply(psi, b)
        raise MobiusError("no free boundary probe found")

    c0 = probe(cl2, psi2) / probe(cl1, psi1)
    for c in (c0, -c0):
        gamma = mobius_compose(
            mobius_inverse(psi2),
            mobius_compose(MobiusMap.dilation(c), psi1),
        )
        w = _verified(gamma, m1, m2)
        if w is not None:
            return w
    return None


def _halfplane_witness(m1, m2, cl1, cl2, a: float, b: float):
    g1 = _halfplane_chart(cl1.distinguished)
    g2 = _halfplane_chart(cl2.distinguished)
    aff = MobiusMap(a, b, 0, 1)
    return _verified(
        mobius_compose(mobius_inverse(g2), mobius_compose(aff, g1)), m1, m2
    )


def analytically_conjugate(m1: MobiusMap, m2: MobiusMap):
    """Witness automorphism gamma with gamma o m1 = m2 o gamma, or None."""
    return _conjugate(m1, classify(m1), m2, classify(m2))


def _conjugate(m1: MobiusMap, cl1: DiskClassification,
               m2: MobiusMap, cl2: DiskClassification):
    if cl1.kind != cl2.kind:
        return None
    kind1, inv1, form1 = _normal_form(m1, cl1)
    _, inv2, form2 = _normal_form(m2, cl2)
    if not _invariants_match(inv1, inv2):
        return None
    if kind1 == KIND_IDENTITY:
        return MobiusMap.identity()
    if kind1 in (KIND_ELLIPTIC_AUTO, KIND_ELLIPTIC_NONAUTO):
        return _elliptic_witness(m1, m2, cl1, cl2, form1, form2)
    if kind1 == KIND_HYPERBOLIC:
        return _hyperbolic_witness(m1, m2, cl1, cl2)
    (A1, B1), (A2, B2) = form1, form2
    if kind1 == KIND_PARABOLIC:
        return _halfplane_witness(m1, m2, cl1, cl2, (B2 / B1).real, 0.0)
    if len(cl1.fixed_points) == 1:  # parabolic-type contraction
        return _halfplane_witness(m1, m2, cl1, cl2, abs(B2) / abs(B1), 0.0)
    # B is real only within TOL of an automorphism, where a translation suffices
    a = B2.imag / B1.imag if min(abs(B1.imag), abs(B2.imag)) > TOL else 1.0
    b = ((B2 - a * B1) / (1 - A1)).real
    return _halfplane_witness(m1, m2, cl1, cl2, a, b)


VERDICT_CONJUGATE = "Conjugate"
VERDICT_INVERSE = "InverseConjugate"
VERDICT_NOT_ISOMORPHIC = "NotIsomorphic"


def semicrossed_iso_verdict(m1: MobiusMap, m2: MobiusMap):
    """Isomorphism verdict for the semicrossed products of two disk maps.

    The inverse branch applies only to elliptic automorphisms, where the
    algebra remembers the map up to inversion; everywhere else isomorphism
    forces plain analytic conjugacy.
    """
    cl1 = classify(m1)
    cl2 = classify(m2)
    w = _conjugate(m1, cl1, m2, cl2)
    if w is not None:
        return VERDICT_CONJUGATE, w
    if cl1.kind == KIND_ELLIPTIC_AUTO and cl2.kind == KIND_ELLIPTIC_AUTO:
        m2_inv = mobius_inverse(m2)
        w = _conjugate(m1, cl1, m2_inv, classify(m2_inv))
        if w is not None:
            return VERDICT_INVERSE, w
    return VERDICT_NOT_ISOMORPHIC, None


def iso_verdict_general(map1, map2):
    """Verdict entry point that refuses non-Mobius inputs."""
    if not isinstance(map1, MobiusMap) or not isinstance(map2, MobiusMap):
        raise NotDecidableError(
            "conjugacy of general analytic self-maps is not decided; "
            "supply Mobius maps or use verify_conjugacy_witness"
        )
    return semicrossed_iso_verdict(map1, map2)
