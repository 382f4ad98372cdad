import cmath
import math
import pickle

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from conjalg import diskmaps
from conjalg.diskmaps import (
    BOUNDARY_BAND,
    KIND_ELLIPTIC_AUTO,
    KIND_ELLIPTIC_NONAUTO,
    KIND_HYPERBOLIC,
    KIND_IDENTITY,
    KIND_NONELLIPTIC_NONAUTO,
    KIND_PARABOLIC,
    TOL,
    VERDICT_CONJUGATE,
    VERDICT_INVERSE,
    VERDICT_NOT_ISOMORPHIC,
    WITNESS_TOL,
    MobiusError,
    MobiusMap,
    NotDiskMapError,
    PoleError,
    analytically_conjugate,
    classify,
    disk_samples,
    is_disk_automorphism,
    maps_disk_to_disk,
    mobius_apply,
    mobius_compose,
    mobius_derivative,
    mobius_fixed_points,
    mobius_inverse,
    normal_form,
    semicrossed_iso_verdict,
    verify_conjugacy_witness,
    witness_bound,
)
from conjalg.verify import random_disk_automorphism, random_elliptic_mobius

ETA1 = MobiusMap(1, -0.5, -0.5, 1)   # (z - 1/2)/(1 - z/2)
ETA2 = MobiusMap(1, -0.25, -0.25, 1)
# its pole -d/c lies inside the disk at |z| = 0.937
POLE_REPRODUCER = {"matrix": [[0.861339, -2.808223], [2.863657, 0.496038],
                              [-4.911719, -2.15325], [1.602235, -4.763671]]}


def conj(g, m):
    return mobius_compose(g, mobius_compose(m, mobius_inverse(g)))


def test_apply_basics():
    assert mobius_apply(ETA1, 0) == pytest.approx(-0.5)
    ident = MobiusMap.identity()
    for z in (0, 0.3 + 0.2j, 1j):
        assert mobius_apply(ident, z) == pytest.approx(z)
    m = MobiusMap(2, 1j, 0.5, 1)
    comp = mobius_compose(m, mobius_inverse(m))
    for z in (0, 0.5, -0.3j):
        assert mobius_apply(comp, z) == pytest.approx(z)


def test_pole():
    m = MobiusMap(0, 1, 1, 0)  # z -> 1/z
    with pytest.raises(PoleError):
        mobius_apply(m, 0)


def test_derivative_matches_finite_difference():
    rng = np.random.default_rng(0)
    for _ in range(20):
        m = random_elliptic_mobius(rng)
        z = 0.4 * (rng.random() + 1j * rng.random())
        h = 1e-5
        fd = (mobius_apply(m, z + h) - mobius_apply(m, z - h)) / (2 * h)
        assert abs(fd - mobius_derivative(m, z)) <= 1e-6


def test_disk_predicates():
    assert maps_disk_to_disk(ETA1)
    assert is_disk_automorphism(ETA1)
    assert maps_disk_to_disk(MobiusMap.dilation(0.5))
    assert not is_disk_automorphism(MobiusMap.dilation(0.5))
    assert not maps_disk_to_disk(MobiusMap.dilation(2.0))


@pytest.mark.parametrize("m", [
    MobiusMap.from_json(POLE_REPRODUCER),
    MobiusMap(0, 2.2250738585072014e-308j, 4j, 0),  # |c|^2 overflows once det is one
])
def test_classify_rejects_pole_inside_disk(m):
    assert abs(m.d) < abs(m.c)
    assert not maps_disk_to_disk(m)
    with pytest.raises(NotDiskMapError):
        classify(m)


coords = st.floats(-5, 5)
complexes = st.builds(complex, coords, coords)
angles = st.floats(0, 2 * math.pi)


def mobius_or_skip(*coeffs):
    try:
        return MobiusMap(*coeffs)
    except MobiusError:  # singular
        assume(False)


@given(complexes, complexes, complexes, st.floats(0, 1), angles)
def test_pole_in_closed_disk_is_rejected(a, b, c, t, theta):
    m = mobius_or_skip(a, b, c, t * c * cmath.exp(1j * theta))
    assume(abs(m.d) <= abs(m.c))
    assert not maps_disk_to_disk(m)
    assert not is_disk_automorphism(m)


@st.composite
def disk_automorphisms(draw):
    """A rotation after the Blaschke factor at p, as `random_disk_automorphism`
    builds them, with |p| = |gamma^-1(0)| up to 0.95."""
    return mobius_compose(
        MobiusMap.rotation(cmath.exp(1j * draw(angles))),
        MobiusMap.blaschke(draw(st.floats(0, 0.95)) * cmath.exp(1j * draw(angles))),
    )


@st.composite
def near_disk_maps(draw):
    """rho * g(z) + c0 for a disk automorphism g: |c0| + rho runs up to 1.01."""
    g = draw(disk_automorphisms())
    rho = draw(st.floats(1e-3, 1.0))
    c0 = draw(st.floats(0, 1.01 - rho)) * cmath.exp(1j * draw(angles))
    return mobius_compose(MobiusMap(rho, c0, 0, 1), g)


CIRCLE = np.exp(2j * math.pi * np.arange(720) / 720)
SAMPLES = np.array(disk_samples(1000))


@given(st.one_of(near_disk_maps(), st.builds(mobius_or_skip, complexes, complexes,
                                             complexes, complexes)))
def test_admitted_maps_stay_in_disk_on_samples(m):
    assume(maps_disk_to_disk(m))
    for pts in (CIRCLE, SAMPLES):
        assert np.max(np.abs((m.a * pts + m.b) / (m.c * pts + m.d))) <= 1 + TOL


@given(disk_automorphisms(), near_disk_maps(), st.one_of(st.none(), near_disk_maps()))
def test_witness_bound_is_sound(gamma, m1, other):
    # m2 is gamma m1 gamma^-1, or an unrelated map; either way the bound on
    # the whole closed disk may not read below the samples
    m2 = conj(gamma, m1) if other is None else other
    assume(maps_disk_to_disk(m1) and maps_disk_to_disk(m2))
    dev = verify_conjugacy_witness(gamma, m1, m2, np.concatenate([SAMPLES, CIRCLE]))
    assert witness_bound(gamma, m1, m2) * (1 + 1e-9) + 1e-13 >= dev


def test_random_automorphisms_pass_closed_form():
    rng = np.random.default_rng(5)
    for _ in range(500):
        g = random_disk_automorphism(rng)
        assert is_disk_automorphism(g)
        assert maps_disk_to_disk(g)


@st.composite
def scaled_maps(draw):
    """(u a, v b, c / v, d / u) for a determinant-one (a, b, c, d) with entries
    up to 5: the map between two diagonal ones, with entries at 1e-160 to 1e160,
    where a square of an entry overflows."""
    m = draw(st.builds(mobius_or_skip, complexes, complexes, complexes, complexes))
    u, v = 10.0 ** draw(st.floats(-160, 160)), 10.0 ** draw(st.floats(-160, 8))
    return mobius_or_skip(u * m.a, v * m.b, m.c / v, m.d / u)


@st.composite
def maps_with_c_just_above_tol(draw):
    a = draw(complexes.filter(lambda w: abs(w) >= 0.1))
    b = draw(complexes)
    c = TOL * (1 + draw(st.floats(1e-6, 1))) * cmath.exp(1j * draw(angles))
    return MobiusMap(a, b, c, (1 + b * c) / a)


@st.composite
def near_double_root_maps(draw):
    """g (w -> w + x) g^-1 for |x| <= 1e-3 and g a disk automorphism after
    the half-plane chart: a double fixed point on the circle."""
    x = draw(st.floats(1e-12, 1e-3)) * cmath.exp(1j * draw(angles))
    g = mobius_compose(draw(disk_automorphisms()), HALFPLANE_TO_DISK)
    return conj(g, MobiusMap(1, x, 0, 1))


EPS = 2.0 ** -52


def root_slack(A, B, C, z, gap):
    """How far a root z of A w^2 + B w + C, at distance gap from the other,
    moves when the coefficients move by 16 eps relative: the t with
    |A| t (t + gap) = 16 eps (|A| |z|^2 + |B| |z| + |C|), in units of
    R = max(1, |z|) so that nothing overflows.  It is eps-sized for separate
    roots and sqrt(eps)-sized at a double root, where no method does better."""
    R = max(1.0, abs(z))
    e = 16 * EPS * (abs(z / R) ** 2 + abs(B / A) / R * abs(z / R) + abs(C / A) / R / R)
    g = gap / R
    return R * 2 * e / (g + math.sqrt(g * g + 4 * e)) if e else 0.0


@given(st.one_of(scaled_maps(), maps_with_c_just_above_tol(), near_double_root_maps()))
def test_fixed_points_match_numpy_roots(m):
    assume(abs(m.c) > TOL)
    A, B, C = m.c, m.d - m.a, -m.b
    with np.errstate(all="ignore"):
        oracle = [complex(z) for z in np.roots([A, B, C])]
    assume(all(cmath.isfinite(z) for z in oracle))
    pts = mobius_fixed_points(m)
    z1, z2 = (z for z, _ in pts)
    # Vieta, to 1e-9 of the larger root and of the product
    R = max(1.0, abs(z1), abs(z2))
    assert abs(z1 + z2 - (m.a - m.d) / m.c) <= 1e-9 * R
    assert abs(z1 * z2 + m.b / m.c) <= 1e-9 * max(1.0, abs(z1 * z2))
    # the same multiset as the oracle, to 1e-9 max(1, |z|) beyond the roots'
    # own sensitivity, and the same locations away from the band's edges
    if abs(z1 - oracle[0]) + abs(z2 - oracle[1]) > abs(z1 - oracle[1]) + abs(z2 - oracle[0]):
        oracle.reverse()
    gap = abs(oracle[0] - oracle[1])
    for (z, loc), w in zip(pts, oracle):
        slack = root_slack(A, B, C, w, gap)
        assert abs(z - w) <= 1e-9 * max(1.0, abs(w)) + slack
        if abs(abs(abs(w) - 1) - BOUNDARY_BAND) > max(1e-12, slack):
            assert loc == diskmaps._location(w)


def test_classify_rotation():
    c = cmath.exp(0.8j)
    cl = classify(MobiusMap.rotation(c))
    assert cl.kind == KIND_ELLIPTIC_AUTO
    assert cl.distinguished == pytest.approx(0)
    assert cl.multiplier == pytest.approx(c)


def test_classify_dilation():
    cl = classify(MobiusMap.dilation(0.5))
    assert cl.kind == KIND_ELLIPTIC_NONAUTO
    assert cl.distinguished == pytest.approx(0)
    assert cl.multiplier == pytest.approx(0.5)


def test_classify_identity():
    assert classify(MobiusMap.identity()).kind == KIND_IDENTITY


def test_classify_identity_at_huge_scale():
    # ad - bc of the raw entries overflows
    assert classify(MobiusMap(1e200, 0, 0, 1e200)).kind == KIND_IDENTITY


def test_classify_dilation_at_tiny_scale():
    # ad - bc of the raw entries underflows to zero
    cl = classify(MobiusMap(0.5e-200, 0, 0, 1e-200))
    assert cl.kind == KIND_ELLIPTIC_NONAUTO
    assert cl.multiplier == pytest.approx(0.5)


def test_classify_entries_of_far_apart_scales():
    # z -> 1e-400 z: scaling by the largest entry would underflow the smallest
    assert classify(MobiusMap(1e-200, 0, 0, 1e200)).kind == KIND_ELLIPTIC_NONAUTO


def test_classify_hyperbolic_blaschke_pair():
    for m in (ETA1, ETA2):
        cl = classify(m)
        assert cl.kind == KIND_HYPERBOLIC
        fps = sorted(p[0].real for p in cl.fixed_points)
        assert fps == pytest.approx([-1, 1])
        assert 0 < cl.multiplier.real < 1


def test_classify_parabolic():
    # conjugate w -> w + 1 (upper half-plane) back to the disk
    g = MobiusMap(1j, 1j, -1, 1)  # disk -> H sending 1 to infinity
    m = conj(mobius_inverse(g), MobiusMap(1, 1, 0, 1))
    cl = classify(m)
    assert cl.kind == KIND_PARABOLIC
    assert abs(abs(cl.distinguished) - 1) <= 1e-8
    assert cl.multiplier == pytest.approx(1)


def test_classify_nonelliptic_nonauto():
    m = MobiusMap(0.5, 0.5, 0, 1)  # z/2 + 1/2, fixes 1 with derivative 1/2
    cl = classify(m)
    assert cl.kind == KIND_NONELLIPTIC_NONAUTO
    assert cl.distinguished == pytest.approx(1)
    assert cl.multiplier == pytest.approx(0.5)


# a fixed automorphism that moves the charts' boundary point 1 off the real axis
FIXED_GAMMA = mobius_compose(MobiusMap.rotation(cmath.exp(0.4j)), MobiusMap.blaschke(0.3 + 0.2j))


def test_classify_parabolic_type_nonauto():
    # w -> w + B with Im B > 0 on the upper half-plane: one double fixed
    # point at infinity, so one boundary fixed point in the disk
    B = 0.5 + 0.7j
    m = conj(FIXED_GAMMA, conj(HALFPLANE_TO_DISK, MobiusMap(1, B, 0, 1)))
    cl = classify(m)
    assert cl.kind == KIND_NONELLIPTIC_NONAUTO
    assert [loc for _, loc in cl.fixed_points] == ["boundary"]
    assert cl.distinguished == pytest.approx(mobius_apply(FIXED_GAMMA, 1), abs=1e-9)
    assert cl.multiplier == pytest.approx(1, abs=1e-9)
    kind, inv = normal_form(m)
    assert kind == KIND_NONELLIPTIC_NONAUTO
    assert inv[0] == "parabolic_type"
    assert inv[1] == pytest.approx(B / abs(B), abs=1e-9)


def test_classify_two_fixed_points_nonauto():
    # w -> A w + B with A > 1 and Im B > 0: infinity attracts with derivative
    # 1/A, and B/(1 - A) lies in the lower half-plane, outside the disk
    A, B = 2.0, 0.3 + 0.5j
    m = conj(FIXED_GAMMA, conj(HALFPLANE_TO_DISK, MobiusMap(A, B, 0, 1)))
    cl = classify(m)
    assert cl.kind == KIND_NONELLIPTIC_NONAUTO
    assert [loc for _, loc in cl.fixed_points] == ["boundary", "exterior"]
    assert cl.distinguished == pytest.approx(mobius_apply(FIXED_GAMMA, 1), abs=1e-9)
    assert cl.multiplier == pytest.approx(1 / A, abs=1e-9)
    kind, inv = normal_form(m)
    assert kind == KIND_NONELLIPTIC_NONAUTO
    assert inv[0] == "two_fixed_points"
    assert inv[1] == pytest.approx(1 / A, abs=1e-9)


def test_classify_rejects_non_disk_map():
    with pytest.raises(NotDiskMapError):
        classify(MobiusMap.dilation(3))


def test_normal_form_rotation():
    c = cmath.exp(1.1j)
    kind, inv = normal_form(MobiusMap.rotation(c))
    assert kind == KIND_ELLIPTIC_AUTO
    assert inv[0] == pytest.approx(c)
    assert inv[1] == pytest.approx(0, abs=1e-12)


def test_normal_form_blaschke_dilation_ratios():
    k1, inv1 = normal_form(ETA1)
    k2, inv2 = normal_form(ETA2)
    assert k1 == k2 == KIND_HYPERBOLIC
    assert abs(inv1[0] - 1 / 3) <= 1e-12
    assert abs(inv2[0] - 3 / 5) <= 1e-12


def test_conjugate_trivial_and_negatives():
    c = cmath.exp(0.5j)
    m = MobiusMap.rotation(c)
    w = analytically_conjugate(m, m)
    assert w is not None
    assert analytically_conjugate(MobiusMap.dilation(0.5), MobiusMap.dilation(0.25)) is None
    assert analytically_conjugate(ETA1, ETA2) is None


def test_conjugate_constructs_valid_witness():
    rng = np.random.default_rng(1)
    for _ in range(25):
        m = random_elliptic_mobius(rng)
        g = random_disk_automorphism(rng)
        m2 = conj(g, m)
        w = analytically_conjugate(m, m2)
        assert w is not None
        dev = verify_conjugacy_witness(w, m, m2, disk_samples(300, seed=3))
        assert dev <= 1e-10
        assert is_disk_automorphism(w, 1e-8)


def test_conjugate_hyperbolic_and_parabolic_orbits():
    rng = np.random.default_rng(2)
    g_par = MobiusMap(1j, 1j, -1, 1)
    base_maps = [
        ETA1,
        conj(mobius_inverse(g_par), MobiusMap(1, 2, 0, 1)),      # parabolic auto
        MobiusMap(0.5, 0.5, 0, 1),                               # nonelliptic nonauto
        conj(mobius_inverse(g_par), MobiusMap(1, 1 + 1j, 0, 1)), # parabolic-type contraction
    ]
    for m in base_maps:
        for _ in range(8):
            g = random_disk_automorphism(rng)
            m2 = conj(g, m)
            w = analytically_conjugate(m, m2)
            assert w is not None
            assert verify_conjugacy_witness(w, m, m2, disk_samples(300, seed=4)) <= 1e-10


def test_parabolic_sign_classes_differ():
    g = MobiusMap(1j, 1j, -1, 1)
    plus = conj(mobius_inverse(g), MobiusMap(1, 1, 0, 1))
    minus = conj(mobius_inverse(g), MobiusMap(1, -1, 0, 1))
    assert classify(plus).kind == KIND_PARABOLIC
    assert classify(minus).kind == KIND_PARABOLIC
    assert analytically_conjugate(plus, minus) is None


HALFPLANE_TO_DISK = mobius_inverse(MobiusMap(1j, 1j, -1, 1))  # sends infinity to 1


def test_hyperbolic_witness_aligns_either_side():
    # cores w -> lam w of the upper half-plane, carried to the disk and
    # conjugated, each paired with a conjugate of itself and of w -> w / lam;
    # the chart (z - att)/(z - rep) sends the disk to the side of the line
    # through 0 along u = sqrt(att/rep) holding u^2, and the drawn pairs
    # need both the dilation by u2/u1 and by -u2/u1
    rng = np.random.default_rng(9)
    same_side = set()
    for _ in range(100):
        lam = rng.uniform(0.05, 0.95)
        m1 = conj(random_disk_automorphism(rng), conj(HALFPLANE_TO_DISK, MobiusMap.dilation(lam)))
        for core in (MobiusMap.dilation(lam), MobiusMap.dilation(1 / lam)):
            m2 = conj(random_disk_automorphism(rng), conj(HALFPLANE_TO_DISK, core))
            verdict, w = semicrossed_iso_verdict(m1, m2)
            assert verdict == VERDICT_CONJUGATE
            assert witness_bound(w, m1, m2) <= WITNESS_TOL
            u1, u2 = (cmath.sqrt(fps[0][0] / fps[1][0])
                      for fps in (classify(m).fixed_points for m in (m1, m2)))
            same_side.add((u1.imag > 0) == (u2.imag > 0))
    assert same_side == {True, False}


# one map of each non-identity kind, with a map of the same kind that is not
# conjugate to it
KIND_EXAMPLES = [
    (conj(MobiusMap.blaschke(0.3 + 0.2j), MobiusMap.rotation(cmath.exp(0.7j))),
     MobiusMap.rotation(cmath.exp(1.9j))),
    (MobiusMap(0.4j, 0, -0.2, 1),                                  # 0.4i z/(1 - 0.2 z)
     MobiusMap(0.3j, 0, -0.2, 1)),
    (conj(HALFPLANE_TO_DISK, MobiusMap(1, 2, 0, 1)),               # parabolic
     conj(HALFPLANE_TO_DISK, MobiusMap(1, -2, 0, 1))),
    (ETA1, ETA2),                                                  # hyperbolic
    (MobiusMap(0.5, 0.5, 0, 1),                                    # two fixed points
     MobiusMap(0.25, 0.75, 0, 1)),
    (conj(HALFPLANE_TO_DISK, MobiusMap(1, 1 + 1j, 0, 1)),          # parabolic type
     conj(HALFPLANE_TO_DISK, MobiusMap(1, 1 + 2j, 0, 1))),
]
KIND_IDS = ["elliptic-auto", "elliptic-nonauto", "parabolic", "hyperbolic",
            "two-fixed-points", "parabolic-type"]


@pytest.mark.parametrize("m", [m for m, _ in KIND_EXAMPLES], ids=KIND_IDS)
def test_one_verification_per_decision(monkeypatch, m):
    calls = []
    verified = diskmaps._verified
    monkeypatch.setattr(diskmaps, "_verified",
                        lambda *args: calls.append(args) or verified(*args))
    rng = np.random.default_rng(4)
    for k in range(20):
        assert analytically_conjugate(m, conj(random_disk_automorphism(rng), m)) is not None
        assert len(calls) == k + 1


ROTATION = conj(FIXED_GAMMA, MobiusMap.rotation(cmath.exp(0.6j)))
VERDICT_WITHOUT_NUMPY = """
import pickle
import sys
from conjalg.diskmaps import classify, semicrossed_iso_verdict
m1, m2 = pickle.load(sys.stdin.buffer)
print("same-kind" if classify(m1).kind == classify(m2).kind else "other-kind")
print(semicrossed_iso_verdict(m1, m2)[0])
"""


@pytest.mark.parametrize("m1, m2, expected", [
    *((m, conj(FIXED_GAMMA, m), VERDICT_CONJUGATE) for m, _ in KIND_EXAMPLES),
    *((m, other, VERDICT_NOT_ISOMORPHIC) for m, other in KIND_EXAMPLES),
    (ROTATION, mobius_inverse(ROTATION), VERDICT_INVERSE),
], ids=[*(k + "-yes" for k in KIND_IDS), *(k + "-no" for k in KIND_IDS), "rotation-inverse"])
def test_verdict_path_makes_no_numpy_call(fresh_python, m1, m2, expected):
    """Classified and decided in a fresh interpreter where importing numpy
    raises; the pickled maps keep their stored coefficients bit for bit."""
    done = fresh_python(VERDICT_WITHOUT_NUMPY, stdin=pickle.dumps((m1, m2)), block_numpy=True)
    assert done.returncode == 0, done.stderr.decode()
    assert done.stdout.decode().split() == ["same-kind", expected]


@pytest.mark.parametrize("m1, m2, expected", [
    (KIND_EXAMPLES[0][0], conj(FIXED_GAMMA, KIND_EXAMPLES[0][0]), VERDICT_CONJUGATE),
    (ROTATION, mobius_inverse(ROTATION), VERDICT_INVERSE),
    (*KIND_EXAMPLES[0], VERDICT_NOT_ISOMORPHIC),
], ids=["conjugate", "inverse", "not-isomorphic"])
def test_one_classification_per_map(monkeypatch, m1, m2, expected):
    """m2^-1 takes its classification from m2's, also in the inverse branch."""
    calls = []
    classified = diskmaps.classify
    monkeypatch.setattr(diskmaps, "classify",
                        lambda m: calls.append(m) or classified(m))
    verdict, w = semicrossed_iso_verdict(m1, m2)
    assert verdict == expected and len(calls) == 2
    if verdict == VERDICT_INVERSE:
        assert witness_bound(w, m1, mobius_inverse(m2)) <= WITNESS_TOL


def test_multiplier_invariance_under_conjugation():
    rng = np.random.default_rng(3)
    for _ in range(25):
        m = random_elliptic_mobius(rng)
        g = random_disk_automorphism(rng)
        assert abs(classify(conj(g, m)).multiplier - classify(m).multiplier) <= 1e-10


def test_inverse_multiplier_is_conjugate_for_rotations():
    c = cmath.exp(0.9j)
    m = MobiusMap.rotation(c)
    cl = classify(mobius_inverse(m))
    assert cl.multiplier == pytest.approx(c.conjugate())


def test_verdicts_rotation_dichotomy():
    c = cmath.exp(0.6j)
    assert semicrossed_iso_verdict(MobiusMap.rotation(c), MobiusMap.rotation(c))[0] \
        == VERDICT_CONJUGATE
    assert semicrossed_iso_verdict(
        MobiusMap.rotation(c), MobiusMap.rotation(c.conjugate()))[0] == VERDICT_INVERSE
    c2 = cmath.exp(1.9j)
    assert semicrossed_iso_verdict(
        MobiusMap.rotation(c), MobiusMap.rotation(c2))[0] == VERDICT_NOT_ISOMORPHIC


def test_verdict_elliptic_nonauto_no_inverse_branch():
    assert semicrossed_iso_verdict(
        MobiusMap.dilation(0.5), MobiusMap.dilation(0.25))[0] == VERDICT_NOT_ISOMORPHIC


def test_verdict_same_map():
    for m in (ETA1, MobiusMap.dilation(0.5), MobiusMap.identity()):
        assert semicrossed_iso_verdict(m, m)[0] == VERDICT_CONJUGATE


def test_verdict_same_map_with_real_halfplane_form():
    # within 1e-9 of a hyperbolic automorphism, so its half-plane form
    # w -> A w + B has a real B; this divided by Im B = 0
    m = MobiusMap(complex(0.8431568420118366, 0.537667685256076),
                  complex(0.667117203048414, 0.1698644347189945),
                  complex(0.6538150512198956, 0.21546500188555823), 1)
    cl = classify(m)
    assert cl.kind == KIND_NONELLIPTIC_NONAUTO
    assert [loc for _, loc in cl.fixed_points] == ["boundary", "boundary"]
    verdict, w = semicrossed_iso_verdict(m, m)
    assert verdict == VERDICT_CONJUGATE
    assert verify_conjugacy_witness(w, m, m, disk_samples(1000, seed=3)) <= WITNESS_TOL
    assert analytically_conjugate(m, m) is not None


@pytest.mark.xfail(strict=True, reason="|tr^2 - 4| = 4e^2 falls under TRACE_BAND, so the map "
                   "reads as parabolic at the midpoint 0 of its fixed points, and its "
                   "half-plane chart there is singular")
def test_hyperbolic_near_identity_is_hyperbolic():
    # z -> (z + e)/(e z + 1), exact in floating point, fixes -1 and 1
    e = 2.0 ** -16
    m = MobiusMap(1, e, e, 1)
    cl = classify(m)
    assert cl.kind == KIND_HYPERBOLIC
    assert [loc for _, loc in cl.fixed_points] == ["boundary", "boundary"]
    assert abs(cl.distinguished - 1) <= TOL and abs(cl.fixed_points[1][0] + 1) <= TOL
    assert semicrossed_iso_verdict(m, m)[0] == VERDICT_CONJUGATE


# Pairs whose witnesses a cruder form of the bound rejected, though the
# witness deviates by less than WITNESS_TOL.  The first three are the
# contraction-yes pairs of the disk-verdicts benchmark at seeds 262, 891 and
# 910, as raw matrices.  The bound over both denominators, the moduli of
# the coefficients of the quadratic (a_L z + b_L)(c_R z + d_R) -
# (a_R z + b_R)(c_L z + d_L) over (|d_L| - |c_L|)(|d_R| - |c_R|), read
# 2.9e-9, 1.4e-10 and 7.9e-10 on them.
CRUDE_BOUND_PAIRS = [
    ([(-4.830593242339139-5.724976752891453j), (-8.159751937930505+5.895698920070168j),
      (-8.267733143506968+3.828117758559985j), (4.83059324233914+10.832111093716192j)],
     [(5.225002008265862+1.7489539836284056j), (-4.569456850468207-2.874954601513807j),
      (3.397387259786085-3.977616107137733j), (-5.225002008265862+3.358180357196332j)]),
    ([(-6.246281107981253-5.903322892917914j), (-5.122745029775175+9.637951145341486j),
      (-9.881080200433722+1.9603046962757018j), (6.246281107981252+10.95078718550229j)],
     [(9.009652051534928-1.5847594508869494j), (2.5600096186393047+9.801922140671252j),
      (5.459947739041732+8.0133202293047j), (-9.009652051534928+6.632223743471323j)]),
    ([(-2.8151636601048984-4.999369684830257j), (-3.063083010739291-8.191083657453733j),
      (2.603224313631619+7.080928300089841j), (2.8151636601048993+10.279564154042777j)],
     [(-11.965194097985684+1.3053193611579894j), (6.799511386453414-10.04154601644464j),
      (-4.374805022255032-11.158383933603716j), (11.965194097985682+3.9748751080545333j)]),
]
# (m1, g) with m2 = g m1 g^-1.  With t = +-1 in place of the fitted scalar
# the bound read 1.7e-10 on the parabolic pair (its own value is 2.2e-13);
# with |L(z)| <= |c0| + r in place of the split about c0 it read 2.4e-10
# on the contraction, whose deviation on 200 000 circle points is 3.7e-11.
CONJUGATED_PAIRS = [
    ([(-11.169527178113283+1.9999999999999993j), (9.82419545291431+5.314463386415327j),
      (-9.82419545291431+5.314463386415327j), (11.169527178113283+1.9999999999999998j)],
     [(-0.9856887528159209-0.16857545068067994j), (-0.7242019429395478+0.24078662990315353j),
      (0.6732469952691433+0.35942334183884644j), (1+0j)]),
    ([(18.4370146435432+1.0289686491653736j), (0.045720212360071656-18.493993722454345j),
      (-2.4601427469237014-18.29792634467876j), (-18.437014643543208+3.4513390981339986j)],
     [(-0.09477096173123985-0.9954991033710356j), (0.5940469747273712-0.2616367658890113j),
      (0.20416076274296183-0.6161687986289272j), (1+0j)]),
]


@pytest.mark.parametrize("m1, m2", [
    *((MobiusMap(*t1), MobiusMap(*t2)) for t1, t2 in CRUDE_BOUND_PAIRS),
    *((MobiusMap(*t1), conj(MobiusMap(*g), MobiusMap(*t1))) for t1, g in CONJUGATED_PAIRS),
], ids=["seed-262", "seed-891", "seed-910", "parabolic", "contraction"])
def test_witness_bound_accepts_close_witnesses(m1, m2):
    verdict, w = semicrossed_iso_verdict(m1, m2)
    assert verdict == VERDICT_CONJUGATE
    assert witness_bound(w, m1, m2) <= WITNESS_TOL


def test_verdict_at_extreme_scale():
    # d = 1e160: the sums of the fitted scalar overflow unless rescaled
    m = MobiusMap.dilation(1e-320)
    m2 = conj(random_disk_automorphism(np.random.default_rng(0)), m)
    verdict, w = semicrossed_iso_verdict(m, m2)
    assert verdict == VERDICT_CONJUGATE
    assert witness_bound(w, m, m2) <= WITNESS_TOL


def test_no_determinant_one_form_is_a_mobius_error():
    # det = 5e-620: at determinant one the entry a would be about 2e309
    with pytest.raises(MobiusError):
        MobiusMap(1j, 2.225073858507e-311j, 2.225073858507203e-309j, 0)


def test_radial_square_witness():
    gamma = lambda z: z * abs(z)
    dev = verify_conjugacy_witness(
        gamma, MobiusMap.dilation(0.5), MobiusMap.dilation(0.25),
        disk_samples(1000, seed=5))
    assert dev <= 1e-12


def test_identity_witness_zero_deviation():
    m = MobiusMap.dilation(0.5)
    assert verify_conjugacy_witness(lambda z: z, m, m, disk_samples(200, seed=6)) == 0


def test_cayley_dilation_witness():
    cayley = MobiusMap(1, 1, 1, -1)  # sends the attracting point -1 to 0
    dev1 = verify_conjugacy_witness(
        cayley, ETA1, MobiusMap.dilation(1 / 3), disk_samples(1000, seed=7))
    dev2 = verify_conjugacy_witness(
        cayley, ETA2, MobiusMap.dilation(3 / 5), disk_samples(1000, seed=8))
    assert max(dev1, dev2) <= 1e-10


def test_preset_json():
    assert MobiusMap.from_json({"preset": "blaschke_half"}) == ETA1
    rot = MobiusMap.from_json({"preset": "rotation", "c": [0, 1]})
    assert mobius_apply(rot, 0.5) == pytest.approx(0.5j)
    m = MobiusMap(1, 2j, 0.5, 1)
    m2 = MobiusMap.from_json(m.to_json())
    for z in (0, 0.5, -0.3j):
        assert mobius_apply(m2, z) == pytest.approx(mobius_apply(m, z))
