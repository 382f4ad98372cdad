"""norm_estimate at truncations past the benchmark's: exact, and factorised in
narrow blocks.

    python tests/rep_scale_check.py

For the seven polynomials that the benchmark's `rep-estimates` workload draws
for seeds 0 and 801 (degree 3 on n = 2..8 points), at N = 256 and 512, the
script checks that norm_estimate equals the largest of the per-point SVD
values under ==, and that no matrix it hands to np.linalg.cholesky is 64 or
more wide.  It prints the milliseconds each estimate took and the widest
factorised matrix, and exits 1 if any check fails; the times are reported,
never gated.

pytest does not collect this file: its name does not start with `test_`.
`tests/test_reps.py` imports `workload_poly` from it.
"""

from __future__ import annotations

import sys
import time

import numpy as np

from conjalg.dynsys import FiniteDynSys
from conjalg.reps import TruncatedRep, norm_estimate, operator_norm, rep_matrix
from conjalg.skewpoly import SkewPoly

SEEDS = (0, 801)
TRUNCS = (256, 512)
WIDEST = 63


def workload_poly(seed, n):
    """The n-point polynomial of degree 3 that `rep-estimates` draws for the
    seed, one of n = 2..8."""
    rng = np.random.default_rng([seed, 3])
    for m in range(2, 9):
        table, coeffs = rng.integers(0, m, m), rng.normal(size=(4, m)) + 1j * rng.normal(size=(4, m))
        if m == n:
            return SkewPoly.make(FiniteDynSys(m, table), list(coeffs))
    raise ValueError("n must lie in 2..8, not %d" % n)


def main() -> int:
    widths = []
    cholesky = np.linalg.cholesky

    def recorded(H):
        widths.append(H.shape[-1])
        return cholesky(H)

    failed = 0
    for seed in SEEDS:
        for N in TRUNCS:
            for n in range(2, 9):
                p = workload_poly(seed, n)
                widths.clear()
                np.linalg.cholesky = recorded
                try:
                    start = time.perf_counter()
                    value = norm_estimate(p, N)
                    ms = (time.perf_counter() - start) * 1e3
                finally:
                    np.linalg.cholesky = cholesky
                want = max(operator_norm(rep_matrix(TruncatedRep(p.system, x, N), p))
                           for x in range(n))
                widest = max(widths, default=0)
                ok = value == want and widest <= WIDEST
                failed += not ok
                print("seed %-3d N=%-3d n=%d  norm_estimate %7.1f ms  widest Cholesky %2d  %s"
                      % (seed, N, n, ms, widest, "ok" if ok else "FAILED"), flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
