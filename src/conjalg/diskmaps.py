"""Mobius self-maps of the closed unit disk.

Classification into the elliptic / parabolic / hyperbolic families, normal
forms with their conjugation invariants, and the analytic-conjugacy and
algebra-isomorphism decisions with explicit automorphism witnesses.

Fixed points come from the stable quadratic formula, with the coefficients
first divided by their largest modulus so that no square overflows at the
scales the determinant-one form reaches (|d| = 1e160 for z -> 1e-320 z).
Each map gets one chart g, in which its normal form is read.  A witness is
g2^-1 o h o g1 for one affine h(w) = a w + b that commutes with the form,
chosen by kind, and it is verified once, by a closed-form bound.  Forms and
witnesses are raw matrix products, normalised once when the map is built.
The module imports numpy only inside `disk_samples`, so the verdict path
runs, and `conj disk` starts, without it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

# Tolerances; maps are stored with determinant one, so each works on a fixed scale.
TOL = 1e-9               # coefficient tests: sign, identity, fixed points, image disk
WITNESS_TOL = 1e-10      # bound on |gamma(m1(z)) - m2(gamma(z))| over the whole closed disk
WITNESS_AUTO_TOL = 1e-8  # a witness is several compositions deep, so it is checked more loosely
BOUNDARY_BAND = 1e-6     # a double boundary fixed point splits by ~sqrt(eps) under conjugation
TRACE_BAND = 1e-7        # |tr^2 - 4| of a double fixed point; the trace is conjugation-stable
MULTIPLIER_BAND = 1e-7   # slack on |derivative| <= 1 when picking the Denjoy-Wolff point
INFINITY_BAND = 1e-6     # |c| of a half-plane conjugate fixing infinity; p has root error
INVARIANT_TOL = 1e-8     # two normal-form invariants agree
KAPPA_CUTOFF = 1e-10     # smaller |kappa|: a pure rotation, whose phase needs no aligning
POLE_GUARD = 1e-300      # |cz + d| below which z is the pole
ENTRY_LIMIT = 2.0 ** 1023  # largest sum of the moduli of the entries at determinant one


class MobiusError(ValueError):
    pass


class PoleError(MobiusError):
    pass


class NotDiskMapError(MobiusError):
    pass


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
        try:
            a, b, c, d = (complex(math.ldexp(w.real, -k), math.ldexp(w.imag, -k))
                          for w in (a, b, c, d))
        except OverflowError:  # such as (1, 1e-311, 1e-309, 0): det 1e-620
            raise MobiusError("no determinant-one form in floating point") from None
        det = a * d - b * c
    if not cmath.isfinite(det):  # exactly when an entry is NaN or infinite
        raise MobiusError("coefficients must be finite, not NaN or infinite")
    if det == 0:
        raise MobiusError("matrix is singular")
    s = cmath.sqrt(det)
    a, b, c, d = a / s, b / s, c / s, d / s
    # dividing by a root |s| < 1 can overflow an entry.  Within ENTRY_LIMIT
    # no entry, nor the sum of two, has a modulus past the float range, where
    # abs() raises OverflowError.  On a disk self-map every entry is at most
    # |d| + 1, so a map past it has m'(0) = 1/d^2 below the float range
    try:
        size = abs(a) + abs(b) + abs(c) + abs(d)
    except OverflowError:  # one modulus alone is past the float range
        size = math.inf
    if not size <= ENTRY_LIMIT:
        raise MobiusError("no determinant-one form in floating point")
    # the sign of the root: the trace, or else the first coefficient that is
    # not zero, points into the right half-plane
    lead = a + d
    if abs(lead) <= TOL:
        lead = next((w for w in (a, b, c, d) if abs(w) > TOL), 0j)
    if lead.real < -TOL or (abs(lead.real) <= TOL and lead.imag < 0):
        a, b, c, d = -a, -b, -c, -d
    return a, b, c, d


def _json_complex(re, im=0) -> complex:
    """complex(re, im) from JSON numbers; a boolean is not a number."""
    if isinstance(re, bool) or isinstance(im, bool):
        raise MobiusError("coefficients must be numbers, not booleans")
    try:
        return complex(re, im)
    except OverflowError:  # an integer beyond the float range
        raise MobiusError("coefficients must lie in the float range") from None


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
                return cls.rotation(_json_complex(*obj["c"]))
            if name == "dilation":
                return cls.dilation(_json_complex(*obj["lambda"]))
            if name == "blaschke_half":
                return cls(1, -0.5, -0.5, 1)
            if name == "blaschke_quarter":
                return cls(1, -0.25, -0.25, 1)
            raise MobiusError("unknown preset %r" % (name,))
        (ar, ai), (br, bi), (cr, ci), (dr, di) = obj["matrix"]
        return cls(_json_complex(ar, ai), _json_complex(br, bi),
                   _json_complex(cr, ci), _json_complex(dr, di))

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
    square = den * den
    if not cmath.isfinite(square):  # inf - inf in the product gives NaN; 1 / den does not overflow
        inverse = 1.0 / den
        return inverse * inverse
    return 1.0 / square  # det is one


def _entries(m: MobiusMap):
    return m.a, m.b, m.c, m.d


def _adjugate(m: MobiusMap):
    """(d, -b, -c, a): the inverse of m, as det m is one."""
    return m.d, -m.b, -m.c, m.a


def _product(m1, m2):
    """The matrix product m1 m2 of two (a, b, c, d) tuples, not normalised."""
    a1, b1, c1, d1 = m1
    a2, b2, c2, d2 = m2
    return a1 * a2 + b1 * c2, a1 * b2 + b1 * d2, c1 * a2 + d1 * c2, c1 * b2 + d1 * d2


def mobius_compose(m1: MobiusMap, m2: MobiusMap) -> MobiusMap:
    """The map z -> m1(m2(z))."""
    return MobiusMap(*_product(_entries(m1), _entries(m2)))


def mobius_inverse(m: MobiusMap) -> MobiusMap:
    return MobiusMap(*_adjugate(m))


def _image_disk(a, b, c, d):
    """Centre c0 and radius r of the image of the closed disk under
    z -> (az + b)/(cz + d) with ad - bc = 1, or None when the pole -d/c
    lies in the closed disk (|d| <= |c|).

    With D = |d|^2 - |c|^2, c0 = (b conj(d) - a conj(c)) / D and r = 1 / D;
    both are divided through by |d|^2, so that no product overflows.
    """
    q = c / d if d else math.inf
    try:
        s = 1 - abs(q) * abs(q)  # D / |d|^2; a product saturates where a square raises
    except OverflowError:  # |q| past the float range: |c| > |d|
        return None
    if not s > 0:
        return None
    return (b - a * q.conjugate()) / d / s, 1 / s / abs(d) / abs(d)


def maps_disk_to_disk(m: MobiusMap) -> bool:
    """m sends the closed disk into itself: max |m(z)| = |c0| + r <= 1."""
    disk = _image_disk(m.a, m.b, m.c, m.d)
    try:
        return disk is not None and abs(disk[0]) + disk[1] <= 1 + TOL
    except OverflowError:  # |c0| past the float range
        return False


def is_disk_automorphism(m: MobiusMap, tol: float = TOL) -> bool:
    """m maps the disk onto itself: while r >= |c0|, the largest value of
    ||m(z)| - 1| on the unit circle is |c0| + |r - 1|."""
    disk = _image_disk(m.a, m.b, m.c, m.d)
    try:
        return disk is not None and abs(disk[0]) + abs(disk[1] - 1) <= tol
    except OverflowError:  # |c0| past the float range
        return False


def _location(z: complex) -> str:
    r = abs(z)
    if abs(r - 1) <= BOUNDARY_BAND:
        return "boundary"
    return "interior" if r < 1 else "exterior"


_INFINITY = complex("inf")


def mobius_fixed_points(m: MobiusMap):
    """Fixed points in the extended plane, as (value, location) pairs.

    With |c| > TOL they are the roots of A z^2 + B z + C for A = c,
    B = d - a and C = -b, by the stable quadratic formula: q = -(B + r)/2
    with r = sqrt(B^2 - 4AC) signed so that Re(conj(B) r) >= 0, which keeps
    B + r from cancelling, and the roots q/A and C/q.  A, B and C are first
    divided by their largest modulus: at determinant one an entry can reach
    1e160, whose square overflows.
    """
    if abs(m.c) > TOL:
        A, B, C = m.c, m.d - m.a, -m.b
        s = max(abs(A), abs(B), abs(C))
        A, B, C = A / s, B / s, C / s
        # as ad - bc = 1, B^2 - 4AC = ((a + d)^2 - 4) / s^2: tr^2 - 4, scaled
        r = cmath.sqrt(B * B - 4 * A * C)
        if (B.conjugate() * r).real < 0:
            r = -r
        q = -(B + r) / 2
        roots = (q / A, C / q) if q != 0 else (-B / (2 * A),) * 2
        return [(z, _location(z)) for z in roots]
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

    # a double fixed point is detected from the trace, which is stable under
    # conjugation, rather than from the numerically split roots; |tr| < 3
    # keeps the square in the float range
    tr = m.a + m.d
    if abs(tr) < 3 and abs(tr ** 2 - 4) <= TRACE_BAND and (auto or abs(m.c) > TOL):
        z = (m.a - m.d) / (2 * m.c) if abs(m.c) > TOL else boundary[0][0]
        kind, lam = (KIND_PARABOLIC, 1.0 + 0.0j) if auto else (KIND_NONELLIPTIC_NONAUTO, mult(z))
        return DiskClassification(kind, ((z, "boundary"),), lam)
    # otherwise the attracting (Denjoy-Wolff) point is the boundary fixed
    # point of least derivative, which has modulus at most one
    candidates = [p for p in boundary if abs(mult(p[0])) <= 1 + MULTIPLIER_BAND]
    if not candidates:
        raise MobiusError("no attracting boundary fixed point found")
    dw = min(candidates, key=lambda p: abs(mult(p[0])))
    rest = [p for p in fps if p is not dw]
    lam = mult(dw[0])
    kind, lam = (KIND_HYPERBOLIC, lam.real) if auto else (KIND_NONELLIPTIC_NONAUTO, lam)
    return DiskClassification(kind, tuple([dw] + rest), lam)


def _halfplane_chart(p: complex) -> MobiusMap:
    """Disk onto the upper half-plane, sending the boundary point p to infinity."""
    return MobiusMap(1j, 1j * p, -1, p)


def normal_form(m: MobiusMap):
    """Kind plus the conjugation-invariant tuple of the map."""
    cl = classify(m)
    return cl.kind, _normal_form(m, cl)[0]


def _normal_form(m: MobiusMap, cl: DiskClassification):
    """Invariants, a chart g and the form g m g^-1 they are read from.

    g is the Blaschke factor at the interior fixed point for elliptic kinds,
    psi(z) = (z - att)/(z - rep) for hyperbolic maps, whose multiplier needs
    no form, and the half-plane chart at the distinguished point otherwise,
    where the form is w -> A w + B.
    """
    if cl.kind == KIND_IDENTITY:
        return (), MobiusMap.identity(), None
    if cl.kind == KIND_HYPERBOLIC:
        (att, _), (rep, _) = cl.fixed_points
        return (float(cl.multiplier.real),), MobiusMap(1, -att, 1, -rep), None
    elliptic = cl.kind in (KIND_ELLIPTIC_AUTO, KIND_ELLIPTIC_NONAUTO)
    g = (MobiusMap.blaschke if elliptic else _halfplane_chart)(cl.distinguished)
    n = MobiusMap(*_product(_product(_entries(g), _entries(m)), _adjugate(g)))
    if elliptic:
        return (complex(n.a / n.d), abs(-n.c / n.d)), g, n
    if abs(n.c) > INFINITY_BAND:
        raise MobiusError("conjugated map does not fix infinity")
    A, B = n.a / n.d, n.b / n.d
    if cl.kind == KIND_PARABOLIC:
        return (1.0 if B.real >= 0 else -1.0,), g, n
    # non-elliptic non-automorphism
    if len(cl.fixed_points) == 1:  # double fixed point: parabolic type
        return ("parabolic_type", complex(B / abs(B))), g, n
    return ("two_fixed_points", float((1.0 / A).real)), g, n


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
    worst = 0.0
    for z in samples:
        worst = max(worst, abs(gamma(m1(z)) - m2(gamma(z))))
    return float(worst)


def disk_samples(count: int = 1000, seed: int = 0) -> list:
    """Deterministic sample points of the closed disk (boundary included)."""
    import numpy as np

    rng = np.random.default_rng(seed)
    r = np.sqrt(rng.random(count))
    r[: count // 4] = 1.0  # keep a boundary share
    theta = rng.random(count) * 2 * math.pi
    return list(r * np.exp(1j * theta))


def witness_bound(gamma: MobiusMap, m1: MobiusMap, m2: MobiusMap) -> float:
    """An upper bound on sup over |z| <= 1 of |gamma(m1(z)) - m2(gamma(z))|.

    With the matrix products L = gamma m1 and R = m2 gamma, and E = R - tL
    for any scalar t, every z satisfies

        L(z) - R(z) = [L(z)(e_c z + e_d) - (e_a z + e_b)] / (c_R z + d_R).

    On the closed disk L(z) = c0 + w with |w| <= r, from L's image disk,
    and |c_R z + d_R| >= |d_R| - |c_R|, so the deviation is at most

        (|c0 e_c - e_a| + |c0 e_d - e_b| + r (|e_c| + |e_d|)) / (|d_R| - |c_R|),

    or infinite when L has no image disk or |d_R| <= |c_R|.  t is the
    least-squares fit of R to L: a multiple of L left in E changes no map,
    yet with t = +-1 that multiple alone put the bound past WITNESS_TOL on
    witnesses whose deviation is a hundredth of it.
    """
    L = _product(_entries(gamma), _entries(m1))
    R = _product(_entries(m2), _entries(gamma))
    disk = _image_disk(*L)
    den = abs(R[3]) - abs(R[2])
    if disk is None or not den > 0:
        return math.inf
    c0, r = disk
    h = math.hypot(*(abs(y) for y in L))  # scales the sums of t, which may overflow
    t = sum(x * (y / h).conjugate() for x, y in zip(R, L)) / h
    ea, eb, ec, ed = (x - t * y for x, y in zip(R, L))
    return (abs(c0 * ec - ea) + abs(c0 * ed - eb) + r * (abs(ec) + abs(ed))) / den


def _verified(gamma: MobiusMap, m1: MobiusMap, m2: MobiusMap):
    if (is_disk_automorphism(gamma, WITNESS_AUTO_TOL)
            and witness_bound(gamma, m1, m2) <= WITNESS_TOL):
        return gamma
    return None


def analytically_conjugate(m1: MobiusMap, m2: MobiusMap):
    """Witness automorphism gamma with gamma o m1 = m2 o gamma, or None."""
    return _conjugate(m1, classify(m1), m2, classify(m2))


def _conjugate(m1: MobiusMap, cl1: DiskClassification,
               m2: MobiusMap, cl2: DiskClassification):
    """The witness g2^-1 o h o g1 for the charts g of the normal forms and
    h(w) = a w + b from a table by kind, or None."""
    kind = cl1.kind
    if kind != cl2.kind:
        return None
    inv1, g1, n1 = _normal_form(m1, cl1)
    inv2, g2, n2 = _normal_form(m2, cl2)
    if not _invariants_match(inv1, inv2):
        return None
    if kind == KIND_IDENTITY:
        return MobiusMap.identity()
    b = 0.0
    if kind in (KIND_ELLIPTIC_AUTO, KIND_ELLIPTIC_NONAUTO):
        # the rotation by kappa1/kappa2 carries lam z/(1 - kappa1 z) to lam z/(1 - kappa2 z)
        k1, k2 = -n1.c / n1.d, -n2.c / n2.d
        a = (k1 / k2) / abs(k1 / k2) if min(abs(k1), abs(k2)) > KAPPA_CUTOFF else 1.0
    elif kind == KIND_HYPERBOLIC:
        # On the circle conj(psi(z)) = psi(z) rep/att, so psi carries the
        # circle to the line through 0 along u = sqrt(att/rep), and the disk to
        # the side of it that holds psi(0) = u^2; u is not real, as att != rep.
        u1, u2 = (cmath.sqrt(cl.fixed_points[0][0] / cl.fixed_points[1][0])
                  for cl in (cl1, cl2))
        a = u2 / u1 if (u1.imag > 0) == (u2.imag > 0) else -u2 / u1
    else:
        (A1, B1), (_, B2) = ((n.a / n.d, n.b / n.d) for n in (n1, n2))
        if len(cl1.fixed_points) == 1:  # parabolic and parabolic-type: A = 1
            a = abs(B2) / abs(B1)
        else:
            # B is real only within TOL of an automorphism, where a translation suffices
            a = B2.imag / B1.imag if min(abs(B1.imag), abs(B2.imag)) > TOL else 1.0
            b = ((B2 - a * B1) / (1 - A1)).real
    witness = _product(_adjugate(g2), _product((a, b, 0, 1), _entries(g1)))
    return _verified(MobiusMap(*witness), m1, m2)


VERDICT_CONJUGATE = "Conjugate"
VERDICT_INVERSE = "InverseConjugate"
VERDICT_NOT_ISOMORPHIC = "NotIsomorphic"


def semicrossed_iso_verdict(m1: MobiusMap, m2: MobiusMap):
    """Isomorphism verdict for the semicrossed products of two disk maps.

    The inverse branch applies only to elliptic automorphisms, where the
    algebra remembers the map up to inversion; everywhere else isomorphism
    forces plain analytic conjugacy.  Each map is classified once: m2^-1
    fixes the points m2 fixes, with the reciprocal multiplier.
    """
    cl1 = classify(m1)
    cl2 = classify(m2)
    w = _conjugate(m1, cl1, m2, cl2)
    if w is not None:
        return VERDICT_CONJUGATE, w
    if cl1.kind == KIND_ELLIPTIC_AUTO and cl2.kind == KIND_ELLIPTIC_AUTO:
        cl2_inv = DiskClassification(cl2.kind, cl2.fixed_points, 1 / cl2.multiplier)
        w = _conjugate(m1, cl1, mobius_inverse(m2), cl2_inv)
        if w is not None:
            return VERDICT_INVERSE, w
    return VERDICT_NOT_ISOMORPHIC, None
