"""End-to-end acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line so the suite can be read as a
checklist when run with ``pytest -s tests/test_acceptance.py``.  The case
counts and tolerances each criterion states are asserted on the report, so
they hold whatever constants the checks run with.
"""

import time

from conjalg import verify

_SUITE_START = time.monotonic()


def _report(name, ok):
    print("criterion %s: %s" % (name, "PASS" if ok else "FAIL"))
    assert ok, name


def test_criterion_1_conjugacy_oracle():
    start = time.monotonic()
    r = verify.check_conjugacy_oracle(pairs=10000)
    elapsed = time.monotonic() - start
    ok = r["passed"] and r["cases"] == 10000 and elapsed < 60.0
    _report("1 (finite conjugacy vs brute force, 10^4 pairs, <60s)", ok)


def test_criterion_2_skew_product_oracle():
    r = verify.check_skew_mul(cases=1000)
    ok = r["passed"] and r["cases"] == 1000 and r["max_deviation"] <= 1e-12
    _report("2 (skew product vs term rewriting, 10^3 cases, 1e-12)", ok)


def test_criterion_3_pencil_homomorphism():
    r = verify.check_pencil(cases=1000)
    ok = (r["passed"] and r["cases"] == 1000 and r["max_deviation"] <= 1e-12
          and r["shift_matrix_deviation"] == 0.0)
    _report("3 (pencil representation multiplicative, exact shift matrix)", ok)


def test_criterion_4_second_character_point():
    r = verify.check_lemma_y_eq_eta_x()
    ok = r["passed"] and r["cases"] == 800  # an off-fixed and a pencil rep at 400 points
    _report("4 (nest representation characters sit at x and eta(x))", ok)


def test_criterion_5_fixed_derivative():
    r = verify.check_fixed_derivative()
    ok = r["passed"] and r["cases"] == 100 and r["max_deviation"] <= 1e-6
    _report("5 (theta1(U) = eta'(x) theta2(U), derivative to 1e-6)", ok)


def test_criterion_6_rotation_dichotomy():
    r = verify.check_rotation_dichotomy()
    _report("6 (rotation pairs: Conjugate / InverseConjugate / NotIsomorphic)",
            r["passed"] and r["cases"] == 50)


def test_criterion_7_worked_examples():
    r = verify.check_worked_examples(samples=1000)
    ok = (
        r["passed"]
        and r["radial_square_deviation"] <= 1e-12
        and abs(r["eta1_ratio"] - 1 / 3) <= 1e-12
        and abs(r["eta2_ratio"] - 3 / 5) <= 1e-12
        and r["cayley_deviation"] <= 1e-10
        and r["pair_verdict"] == "NotIsomorphic"
    )
    _report("7 (worked examples: radial square witness, ratios 1/3 and 3/5)", ok)


def test_criterion_8_norm_chain():
    r = verify.check_norm_chain(n_max=64)
    elapsed = time.monotonic() - _SUITE_START
    ok = (r["passed"] and r["max_deviation"] <= 1e-9 and r["shift_norms_unital"]
          and r["monotone"] and r["l1_dominates"] and elapsed < 120.0)
    _report("8 (shift norms equal one up to n=64, monotone, below l1, <120s)", ok)
