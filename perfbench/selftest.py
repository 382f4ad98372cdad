"""Self-test of the benchmark's generators and oracles at small sizes.

    python3 perfbench/selftest.py

Checks that the finite "yes" and "no" pairs are what their construction
claims, against `brute_force_conjugate` at n <= 9; that the finite, disc
and estimate oracles accept the program's right answers and reject wrong
ones; and that one round of every workload passes its checks.
"""

from __future__ import annotations

import sys
import tempfile

import numpy as np

from common import ROOT, pin_environment

pin_environment()

import conjalg  # noqa: E402
from conjalg import FiniteDynSys, MobiusMap, SkewPoly, relabel  # noqa: E402

import clisuite  # noqa: E402
import disk  # noqa: E402
import estimates  # noqa: E402
import finite  # noqa: E402


def naive_depths(m):
    """Distance to the cycle by plain iteration: x is on a cycle iff eta^n(x) = x."""
    n = len(m)

    def image(x, k):
        for _ in range(k):
            x = m[x]
        return x

    on_cycle = [any(image(x, k) == x for k in range(1, n + 1)) for x in range(n)]
    depth = []
    for x in range(n):
        d = 0
        while not on_cycle[x]:
            x, d = m[x], d + 1
        depth.append(d)
    return np.array(on_cycle), np.array(depth)


def test_structure(rng):
    for _ in range(200):
        n = int(rng.integers(1, 12))
        m = rng.integers(0, n, n)
        on_cycle, depth, root = finite.structure(m)
        want_cycle, want_depth = naive_depths(m)
        assert np.array_equal(on_cycle, want_cycle) and np.array_equal(depth, want_depth)
        for x in range(n):
            y = x
            for _ in range(depth[x]):
                y = m[y]
            assert root[x] == y


def test_finite_pairs(rng):
    """Every shape's yes and no pairs, decided by brute force at n <= 9."""
    for shape, (make, perturb) in finite.SHAPES.items():
        done = 0
        for _ in range(500):
            if done == 25:
                break
            n = int(rng.integers(6, 10))
            m = make(rng, n)
            try:
                variant = perturb(rng, m)
            except finite.NoVariant:
                continue
            a = FiniteDynSys(n, tuple(m.tolist()))
            yes = relabel(a, rng.permutation(n))
            no = relabel(FiniteDynSys(n, tuple(variant.tolist())), rng.permutation(n))
            assert finite.cheap_invariants(a) == finite.cheap_invariants(no)
            w = conjalg.brute_force_conjugate(a, yes)
            assert w is not None and finite.check_witness(a, yes, w.bijection) is None
            assert conjalg.brute_force_conjugate(a, no) is None, (shape, m, variant)
            assert finite.expected_differs(a, no), (shape, m, variant)
            assert not finite.expected_differs(a, yes)
            assert finite.check_witness(a, no, w.bijection) is not None
            done += 1
        assert done == 25, "%s: too few small systems with a variant" % shape


def test_disk_oracles(rng):
    boundary = np.exp(2j * np.pi * np.arange(20000) / 20000)
    for _ in range(300):
        z = rng.normal(size=4) + 1j * rng.normal(size=4)
        m = MobiusMap(*(complex(x) for x in z))
        admitted, _, _ = disk.closed_form_disc(m)
        den = m.c * boundary + m.d
        inside = (np.all(np.abs(den) > 1e-12)
                  and np.max(np.abs((m.a * boundary + m.b) / den)) <= 1 + 1e-9)
        # dense sampling may miss a small excursion, never invent one
        assert inside or not admitted
    assert not disk.closed_form_disc(MobiusMap.from_json(disk.POLE_REPRODUCER))[0]
    samples = disk.sample_points(rng)
    for label, m1, m2, expected in disk.verdict_pairs(disk.verdict_matrices(rng)):
        assert disk.closed_form_disc(m1)[0] and disk.closed_form_disc(m2)[0], label
        result = conjalg.semicrossed_iso_verdict(m1, m2)
        assert disk.check_verdict(m1, m2, expected, samples, result) is None, label
        if expected != disk.NOT_ISO and not label.startswith("identity"):
            wrong = MobiusMap.rotation(np.exp(0.7j))
            wrong_result = (expected, wrong)
            assert disk.check_verdict(m1, m2, expected, samples, wrong_result) is not None, label


def test_estimate_oracles(rng):
    for _ in range(20):
        n = int(rng.integers(1, 6))
        sys_ = FiniteDynSys(n, tuple(int(v) for v in rng.integers(0, n, n)))
        p = SkewPoly.make(sys_, list(rng.normal(size=(3, n)) + 1j * rng.normal(size=(3, n))))
        for convention in ("backward", "forward"):
            rep = conjalg.TruncatedRep(sys_, int(rng.integers(0, n)), 12, convention)
            mine = estimates.truncated_matrix(sys_.map, p.coeffs, rep.base_point, 12, convention)
            assert np.allclose(mine, conjalg.rep_matrix(rep, p), rtol=0, atol=0)
            sv = np.linalg.svd(mine, compute_uv=False)[0]
            assert abs(estimates.largest_singular_value(mine) - sv) <= 1e-9 * max(1, sv)
    # the fault reproducer: rho = 1, and a Gelfand value at n = N lies in the band
    table, f = (1, 0), np.array([2.0, 0.5])
    assert abs(estimates.rho(table, f) - 1.0) < 1e-12
    lo, hi = estimates.radius_band(table, f, 64)
    M = estimates.truncated_matrix(table, [np.zeros(2), f], 0, 130, "backward")
    gelfand = estimates.largest_singular_value(np.linalg.matrix_power(M, 64)) ** (1 / 64)
    assert lo <= gelfand <= hi and not lo <= 2.0 <= hi
    polys, monomials = estimates.construct(estimates.generate(5))
    for u, N, fault in monomials:
        if fault is None:
            est = conjalg.spectral_radius_estimate(u, 24)
            assert estimates.check_radius(u, 24, est) is None


def test_one_round_each():
    for module in (finite, disk, estimates, clisuite):
        with tempfile.TemporaryDirectory(dir=str(ROOT / "perfbench" / "out")) as workdir:
            ops = module.make_ops(module.construct(module.generate(3)), workdir)
            if module is finite:  # the small slots only: the round is checked by run.py
                ops = [op for op in ops if int(op.label.split("-")[1]) <= 3200]
            for op in ops:
                why = op.check(op.call())
                assert why is None or why == op.known_fault, (op.label, why)


def main():
    (ROOT / "perfbench" / "out").mkdir(exist_ok=True)
    rng = np.random.default_rng(12345)
    tests = [lambda: test_structure(rng), lambda: test_finite_pairs(rng),
             lambda: test_disk_oracles(rng), lambda: test_estimate_oracles(rng),
             test_one_round_each]
    names = ["structure", "finite pairs", "disc oracles", "estimate oracles", "one round each"]
    for name, test in zip(names, tests):
        test()
        print("ok  %s" % name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
