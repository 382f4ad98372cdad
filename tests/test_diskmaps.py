import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from conjalg.diskmaps import (
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
    NotDecidableError,
    NotDiskMapError,
    PoleError,
    analytically_conjugate,
    classify,
    disk_samples,
    is_disk_automorphism,
    iso_verdict_general,
    maps_disk_to_disk,
    mobius_apply,
    mobius_compose,
    mobius_derivative,
    mobius_inverse,
    normal_form,
    semicrossed_iso_verdict,
    verify_conjugacy_witness,
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
def near_disk_maps(draw):
    """rho * g(z) + c0 for a disk automorphism g: |c0| + rho runs up to 1.01."""
    g = mobius_compose(
        MobiusMap.rotation(cmath.exp(1j * draw(angles))),
        MobiusMap.blaschke(draw(st.floats(0, 0.95)) * cmath.exp(1j * draw(angles))),
    )
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


def test_random_automorphisms_pass_closed_form():
    rng = np.random.default_rng(5)
    for _ in range(500):
        g = random_disk_automorphism(rng)
        assert is_disk_automorphism(g)
        assert maps_disk_to_disk(g)


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


def test_iso_verdict_general_refuses_point_maps():
    with pytest.raises(NotDecidableError):
        iso_verdict_general(lambda z: z / 2, MobiusMap.dilation(0.5))


def test_preset_json():
    assert MobiusMap.from_json({"preset": "blaschke_half"}) == ETA1
    rot = MobiusMap.from_json({"preset": "rotation", "c": [0, 1]})
    assert mobius_apply(rot, 0.5) == pytest.approx(0.5j)
    m = MobiusMap(1, 2j, 0.5, 1)
    m2 = MobiusMap.from_json(m.to_json())
    for z in (0, 0.5, -0.3j):
        assert mobius_apply(m2, z) == pytest.approx(mobius_apply(m, z))
