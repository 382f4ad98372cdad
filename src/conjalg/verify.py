"""Seeded property suite backing the verify-suite CLI command.

Each check returns a dict with a pass flag, the number of cases run, and
the worst deviation observed.  The random generators here are intentionally
independent of the code paths they exercise; in particular skew products
are cross-checked against a one-step term-rewriting oracle and finite
conjugacy against the factorial search oracle.
"""

from __future__ import annotations

import math

import numpy as np

from . import DEFAULT_SEED, charspace, diskmaps, dynsys, reps, skewpoly
from .diskmaps import MobiusMap
from .dynsys import FiniteDynSys
from .skewpoly import SkewPoly


# ---------------------------------------------------------------------------
# generators

def random_system(rng, n: int) -> FiniteDynSys:
    return FiniteDynSys(n, rng.integers(0, n, size=n))


def random_permutation(rng, n: int):
    return tuple(int(v) for v in rng.permutation(n))


def random_poly(rng, sys: FiniteDynSys, max_degree: int) -> SkewPoly:
    d = int(rng.integers(0, max_degree + 1))
    coeffs = rng.normal(size=(d + 1, sys.n)) + 1j * rng.normal(size=(d + 1, sys.n))
    return SkewPoly.make(sys, list(coeffs))


def random_unimodular(rng) -> complex:
    return complex(np.exp(2j * math.pi * rng.random()))


def random_disk_automorphism(rng) -> MobiusMap:
    p = 0.8 * math.sqrt(rng.random()) * np.exp(2j * math.pi * rng.random())
    rot = MobiusMap.rotation(random_unimodular(rng))
    return diskmaps.mobius_compose(rot, MobiusMap.blaschke(complex(p)))


def random_elliptic_mobius(rng) -> MobiusMap:
    """Random Mobius disk map with an interior fixed point."""
    while True:
        if rng.random() < 0.5:
            lam = random_unimodular(rng)
            if abs(lam - 1) < 0.05:
                continue
            core = MobiusMap.rotation(lam)
        else:
            lam = (0.1 + 0.5 * rng.random()) * np.exp(2j * math.pi * rng.random())
            kappa = 0.3 * rng.random() * np.exp(2j * math.pi * rng.random())
            core = MobiusMap(complex(lam), 0, -complex(kappa), 1)
        p = 0.6 * math.sqrt(rng.random()) * np.exp(2j * math.pi * rng.random())
        phi = MobiusMap.blaschke(complex(p))
        m = diskmaps.mobius_compose(
            diskmaps.mobius_inverse(phi), diskmaps.mobius_compose(core, phi)
        )
        try:
            cl = diskmaps.classify(m)
        except diskmaps.NotDiskMapError:
            continue
        if cl.kind in (diskmaps.KIND_ELLIPTIC_AUTO, diskmaps.KIND_ELLIPTIC_NONAUTO):
            return m


def pencil_point(rng, max_n: int = 6):
    """System with a point x satisfying eta(x) != x = fixed eta(x)."""
    n = int(rng.integers(2, max_n + 1))
    table = rng.integers(0, n, size=n)
    x, y = rng.choice(n, size=2, replace=False)
    table[[x, y]] = y
    return FiniteDynSys(n, table), int(x)


# ---------------------------------------------------------------------------
# independent oracles

def term_rewrite_mul(p: SkewPoly, q: SkewPoly) -> SkewPoly:
    """Product by one-step rewriting U g -> (g o eta) U, term by term."""
    sys = p.system
    out = SkewPoly.zero(sys)
    for k, f in enumerate(p.coeffs):
        for j, g in enumerate(q.coeffs):
            for _ in range(k):  # push one U through g at a time
                g = g[sys.map]
            out = out + SkewPoly.monomial(sys, f * g, k + j)
    return out


def poly_close(p: SkewPoly, q: SkewPoly) -> float:
    """The largest coefficient-wise |p - q|."""
    d = max(len(p.coeffs), len(q.coeffs))
    worst = 0.0
    for k in range(d):
        diff = skewpoly.coefficient(p, k) - skewpoly.coefficient(q, k)
        worst = max(worst, float(np.max(np.abs(diff))) if diff.size else 0.0)
    return worst


def mat_dev(a, b) -> float:
    return float(np.max(np.abs(a - b)))


# ---------------------------------------------------------------------------
# individual checks

def check_conjugacy_oracle(seed=DEFAULT_SEED, pairs=10000, max_n=7):
    rng = np.random.default_rng(seed)
    failures = 0
    for _ in range(pairs):
        n = int(rng.integers(1, max_n + 1))
        a = random_system(rng, n)
        if rng.random() < 0.4:
            b = dynsys.relabel(a, random_permutation(rng, n))
        else:
            b = random_system(rng, n)
        fast = dynsys.are_conjugate(a, b)
        slow = dynsys.brute_force_conjugate(a, b)
        if (fast is None) != (slow is None):
            failures += 1
    return {"name": "conjugacy_oracle", "cases": pairs, "failures": failures,
            "max_deviation": 0.0, "passed": failures == 0}


def check_skew_mul(seed=DEFAULT_SEED, cases=1000, max_degree=5, tol=1e-12):
    rng = np.random.default_rng(seed + 1)
    worst = 0.0
    for _ in range(cases):
        sys = random_system(rng, int(rng.integers(1, 6)))
        p = random_poly(rng, sys, max_degree)
        q = random_poly(rng, sys, max_degree)
        worst = max(worst, poly_close(skewpoly.skew_mul(p, q), term_rewrite_mul(p, q)))
    return {"name": "skew_mul_convolution", "cases": cases,
            "max_deviation": worst, "passed": worst <= tol}


def check_associativity(seed=DEFAULT_SEED, cases=200, tol=1e-12):
    rng = np.random.default_rng(seed + 2)
    worst = 0.0
    for _ in range(cases):
        sys = random_system(rng, int(rng.integers(1, 6)))
        p, q, r = (random_poly(rng, sys, 4) for _ in range(3))
        worst = max(worst, poly_close((p * q) * r, p * (q * r)))
    return {"name": "associativity", "cases": cases,
            "max_deviation": worst, "passed": worst <= tol}


def check_covariance(seed=DEFAULT_SEED, cases=200, tol=1e-12):
    rng = np.random.default_rng(seed + 3)
    worst = 0.0
    for _ in range(cases):
        sys = random_system(rng, int(rng.integers(1, 7)))
        f = random_poly(rng, sys, 0)
        u = SkewPoly.shift(sys)
        f_eta = SkewPoly.constant(sys, skewpoly.coefficient(f, 0)[sys.map])
        worst = max(worst, poly_close(u * f, f_eta * u))
    return {"name": "covariance_relation", "cases": cases,
            "max_deviation": worst, "passed": worst <= tol}


def check_transport(seed=DEFAULT_SEED, cases=200, tol=1e-12):
    rng = np.random.default_rng(seed + 4)
    worst = 0.0
    for _ in range(cases):
        n = int(rng.integers(1, 7))
        a = random_system(rng, n)
        sigma = random_permutation(rng, n)
        b = dynsys.relabel(a, sigma)
        w = dynsys.ConjugacyWitness(a, b, sigma)
        p = random_poly(rng, a, 4)
        q = random_poly(rng, a, 4)
        lhs = skewpoly.transport(p * q, w, b)
        rhs = skewpoly.transport(p, w, b) * skewpoly.transport(q, w, b)
        worst = max(worst, poly_close(lhs, rhs))
        # character transport
        fixed = dynsys.fixed_points(a)
        x = int(rng.integers(0, n))
        z = 0.8 * rng.random() * np.exp(2j * math.pi * rng.random()) if x in fixed else 0.0
        ch_a = charspace.Character(a, x, z)
        ch_b = charspace.Character(b, sigma[x], z)
        dev = abs(charspace.eval_character(ch_b, skewpoly.transport(p, w, b))
                  - charspace.eval_character(ch_a, p))
        worst = max(worst, dev)
    return {"name": "transport_homomorphism", "cases": cases,
            "max_deviation": worst, "passed": worst <= tol}


def check_characters(seed=DEFAULT_SEED, cases=300, tol=1e-12):
    rng = np.random.default_rng(seed + 5)
    worst = 0.0
    for _ in range(cases):
        sys = random_system(rng, int(rng.integers(1, 6)))
        fixed = sorted(dynsys.fixed_points(sys))
        x = int(rng.integers(0, sys.n))
        if x in fixed:
            z = 0.9 * rng.random() * np.exp(2j * math.pi * rng.random())
        else:
            z = 0.0
        ch = charspace.Character(sys, x, z)
        p = random_poly(rng, sys, 6)
        q = random_poly(rng, sys, 6)
        dev = abs(charspace.eval_character(ch, p * q)
                  - charspace.eval_character(ch, p) * charspace.eval_character(ch, q))
        worst = max(worst, dev)
    return {"name": "character_multiplicativity", "cases": cases,
            "max_deviation": worst, "passed": worst <= tol}


def check_pencil(seed=DEFAULT_SEED, cases=1000, max_degree=8, tol=1e-12):
    rng = np.random.default_rng(seed + 6)
    worst = 0.0
    umat_dev = 0.0
    for _ in range(cases):
        sys, x = pencil_point(rng)
        z = 0.9 * math.sqrt(rng.random()) * np.exp(2j * math.pi * rng.random())
        rep = reps.build_pencil(sys, x, complex(z))
        p = random_poly(rng, sys, max_degree)
        q = random_poly(rng, sys, max_degree)
        worst = max(worst, mat_dev(rep.apply(p * q), rep.apply(p) @ rep.apply(q)))
        u = rep.apply(SkewPoly.shift(sys))
        umat_dev = max(umat_dev, mat_dev(u, np.array([[0, z], [0, z]])))
    passed = worst <= tol and umat_dev == 0.0
    return {"name": "pencil_homomorphism", "cases": cases,
            "max_deviation": worst, "shift_matrix_deviation": umat_dev,
            "passed": passed}


def check_lemma_y_eq_eta_x(seed=DEFAULT_SEED, cases=400):
    rng = np.random.default_rng(seed + 7)
    failures = 0
    for _ in range(cases):
        sys, x = pencil_point(rng)
        off = reps.build_offfixed(sys, x)
        pen = reps.build_pencil(sys, x, 0.5 * rng.random())
        for nr in (off, pen):
            th1, th2 = reps.extract_characters(nr)
            if th2.point != sys.map[th1.point]:
                failures += 1
    return {"name": "nest_rep_second_point", "cases": 2 * cases,
            "failures": failures, "max_deviation": 0.0, "passed": failures == 0}


def check_fixed_derivative(seed=DEFAULT_SEED, cases=100, tol=1e-6):
    rng = np.random.default_rng(seed + 8)
    worst = 0.0
    for _ in range(cases):
        m = random_elliptic_mobius(rng)
        cl = diskmaps.classify(m)
        x = cl.distinguished
        mult = diskmaps.mobius_derivative(m, x)
        h = 1e-5
        fd = (diskmaps.mobius_apply(m, x + h) - diskmaps.mobius_apply(m, x - h)) / (2 * h)
        worst = max(worst, abs(fd - mult))
        rep = reps.build_fixed_derivative(x, mult, 0.4 + 0.1j, 1.0)
        if rep.theta1_shift != mult * rep.theta2_shift:
            worst = max(worst, abs(rep.theta1_shift - mult * rep.theta2_shift))
    return {"name": "fixed_derivative_multiplier", "cases": cases,
            "max_deviation": worst, "passed": worst <= tol}


def check_rotation_dichotomy(seed=DEFAULT_SEED, cases=50):
    rng = np.random.default_rng(seed + 9)
    failures = 0
    done = 0
    while done < cases:
        c = random_unimodular(rng)
        if abs(c.imag) < 1e-3:
            continue
        done += 1
        m = MobiusMap.rotation(c)
        m_conj = MobiusMap.rotation(c.conjugate())
        if diskmaps.semicrossed_iso_verdict(m, m)[0] != diskmaps.VERDICT_CONJUGATE:
            failures += 1
        if diskmaps.semicrossed_iso_verdict(m, m_conj)[0] != diskmaps.VERDICT_INVERSE:
            failures += 1
        c2 = random_unimodular(rng)
        if abs(c2 - c) > 1e-3 and abs(c2 - c.conjugate()) > 1e-3:
            v = diskmaps.semicrossed_iso_verdict(m, MobiusMap.rotation(c2))[0]
            if v != diskmaps.VERDICT_NOT_ISOMORPHIC:
                failures += 1
    return {"name": "rotation_dichotomy", "cases": cases, "failures": failures,
            "max_deviation": 0.0, "passed": failures == 0}


def check_worked_examples(samples=1000):
    """The closing worked examples: radial square witness and the
    boundary-fixing automorphism pair with dilation ratios 1/3 and 3/5."""
    out = {"name": "worked_examples", "passed": True}
    eta1 = MobiusMap.dilation(0.5)
    eta2 = MobiusMap.dilation(0.25)
    gamma = lambda z: z * abs(z)  # r e^{i t} -> r^2 e^{i t}
    dev = diskmaps.verify_conjugacy_witness(
        gamma, eta1, eta2, diskmaps.disk_samples(samples, seed=11))
    out["radial_square_deviation"] = dev
    out["radial_square_ok"] = dev <= 1e-12
    out["dilation_pair_not_analytic"] = diskmaps.analytically_conjugate(eta1, eta2) is None

    b1 = MobiusMap(1, -0.5, -0.5, 1)
    b2 = MobiusMap(1, -0.25, -0.25, 1)
    k1, inv1 = diskmaps.normal_form(b1)
    k2, inv2 = diskmaps.normal_form(b2)
    out["eta1_ratio"] = inv1[0]
    out["eta2_ratio"] = inv2[0]
    out["ratios_ok"] = (
        k1 == k2 == diskmaps.KIND_HYPERBOLIC
        and abs(inv1[0] - 1 / 3) <= 1e-12
        and abs(inv2[0] - 3 / 5) <= 1e-12
    )
    out["pair_verdict"] = diskmaps.semicrossed_iso_verdict(b1, b2)[0]

    # half-plane chart sending the attracting point -1 to the origin
    cayley = MobiusMap(1, 1, 1, -1)
    dev1 = diskmaps.verify_conjugacy_witness(
        cayley, b1, MobiusMap.dilation(1 / 3), diskmaps.disk_samples(samples, seed=12))
    dev2 = diskmaps.verify_conjugacy_witness(
        cayley, b2, MobiusMap.dilation(3 / 5), diskmaps.disk_samples(samples, seed=13))
    out["cayley_deviation"] = max(dev1, dev2)
    out["cayley_ok"] = max(dev1, dev2) <= 1e-10
    out["max_deviation"] = max(dev, dev1, dev2)
    out["passed"] = bool(
        out["radial_square_ok"] and out["dilation_pair_not_analytic"]
        and out["ratios_ok"] and out["cayley_ok"]
        and out["pair_verdict"] == diskmaps.VERDICT_NOT_ISOMORPHIC
    )
    return out


def check_norm_chain(seed=DEFAULT_SEED, polys=100, n_max=64, tol=1e-9):
    rng = np.random.default_rng(seed + 10)
    sys = FiniteDynSys(2, (1, 0))
    u = SkewPoly.shift(sys)
    rep = reps.TruncatedRep(sys, 0, n_max * 2)
    worst = 0.0
    power = SkewPoly.one(sys)
    for n in range(1, n_max + 1):
        power = skewpoly.skew_mul(power, u)
        worst = max(worst, abs(reps.operator_norm(reps.rep_matrix(rep, power)) - 1.0))
    radius = reps.spectral_radius_estimate(u, n_max)
    worst = max(worst, abs(radius - 1.0))

    monotone = True
    bounded = True
    sizes = (4, 8, 16, 32)
    for _ in range(polys):
        s = random_system(rng, int(rng.integers(1, 6)))
        p = random_poly(rng, s, 3)
        vals = [reps.norm_estimate(p, N) for N in sizes]
        if any(vals[i] > vals[i + 1] + tol for i in range(len(vals) - 1)):
            monotone = False
        if vals[-1] > skewpoly.l1_norm(p) + tol:
            bounded = False
    return {"name": "norm_chain", "cases": polys, "max_deviation": worst,
            "shift_norms_unital": worst <= tol, "monotone": monotone,
            "l1_dominates": bounded,
            "passed": worst <= tol and monotone and bounded}


def check_multiplier_invariance(seed=DEFAULT_SEED, cases=50, tol=1e-10):
    rng = np.random.default_rng(seed + 11)
    worst = 0.0
    for _ in range(cases):
        m = random_elliptic_mobius(rng)
        g = random_disk_automorphism(rng)
        m2 = diskmaps.mobius_compose(g, diskmaps.mobius_compose(m, diskmaps.mobius_inverse(g)))
        worst = max(worst,
                    abs(diskmaps.classify(m2).multiplier - diskmaps.classify(m).multiplier))
    return {"name": "multiplier_invariance", "cases": cases,
            "max_deviation": worst, "passed": worst <= tol}


def check_witness_soundness(seed=DEFAULT_SEED, cases=40, tol=1e-10):
    rng = np.random.default_rng(seed + 12)
    worst = 0.0
    missing = 0
    for _ in range(cases):
        m = random_elliptic_mobius(rng)
        g = random_disk_automorphism(rng)
        m2 = diskmaps.mobius_compose(g, diskmaps.mobius_compose(m, diskmaps.mobius_inverse(g)))
        w = diskmaps.analytically_conjugate(m, m2)
        if w is None:
            missing += 1
            continue
        dev = diskmaps.verify_conjugacy_witness(
            w, m, m2, diskmaps.disk_samples(300, seed=17))
        worst = max(worst, dev)
    return {"name": "witness_soundness", "cases": cases, "failures": missing,
            "max_deviation": worst, "passed": missing == 0 and worst <= tol}


def _jsonable(value):
    """Coerce numpy scalars so reports serialise cleanly."""
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    return value


def run_suite(seed: int = DEFAULT_SEED, oracle_pairs: int | None = None,
              quick: bool = False) -> dict:
    """Run every property check; quick mode shrinks the case counts.

    oracle_pairs defaults to 10 000 conjugacy oracle pairs, 200 in quick mode.
    """
    if oracle_pairs is None:
        oracle_pairs = 200 if quick else 10000
    seeded = {"seed": seed}
    oracle = dict(seeded, pairs=oracle_pairs)
    # each check with its keyword arguments in full mode and in quick mode
    checks = (
        (check_conjugacy_oracle, oracle, oracle),
        (check_skew_mul, seeded, dict(seeded, cases=100)),
        (check_associativity, seeded, seeded),
        (check_covariance, seeded, seeded),
        (check_transport, seeded, seeded),
        (check_characters, seeded, seeded),
        (check_pencil, seeded, dict(seeded, cases=100)),
        (check_lemma_y_eq_eta_x, seeded, seeded),
        (check_fixed_derivative, seeded, seeded),
        (check_rotation_dichotomy, seeded, seeded),
        (check_worked_examples, {"samples": 1000}, {"samples": 200}),
        (check_norm_chain, seeded, dict(seeded, polys=10, n_max=16)),
        (check_multiplier_invariance, seeded, seeded),
        (check_witness_soundness, seeded, seeded),
    )
    results = []
    for fn, full, quick_kwargs in checks:
        r = fn(**(quick_kwargs if quick else full))
        results.append(_jsonable(r))
    # no timing fields: reports must be byte-identical for a fixed seed
    return {
        "seed": seed,
        "checks": results,
        "passed": all(r["passed"] for r in results),
    }
