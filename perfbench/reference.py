"""Reference timings of single critline calls, for the figures in README.md.

    python3 perfbench/reference.py

Run from the root of a checkout.  Each figure is the fastest of three calls,
except the full acceptance suite, which runs once; its scan artifact goes to
a temporary directory, so the tracked ``artifacts/`` stay untouched.
"""

from __future__ import annotations

import sys
import tempfile
import time
from pathlib import Path

sys.dont_write_bytecode = True
ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))


def fastest(fn, reps=3):
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def main():
    from critline import bound_engine, explicit_formula, optimal_coeffs, zeta_oracle
    from critline.extremal_poisson import KernelParams
    from critline.prime_arith import lambda_sieve

    def pipeline(K):
        optimal_coeffs.run_pipeline.cache_clear()
        optimal_coeffs.run_pipeline(K, extrapolated=K > optimal_coeffs.K_MAX_GOLDEN)

    for K in (7, 9, 11):
        print(f"run_pipeline K={K}: {fastest(lambda: pipeline(K)):.3f} s")
    for t in (1e3, 1e4, 1e5, 1e6):
        dt = fastest(lambda: zeta_oracle.log_abs_zeta_crit(t - 0.5))
        print(f"log_abs_zeta_crit t={t:.0e}: {dt * 1e3:.1f} ms")
    table = lambda_sieve(10 ** 6)
    for x in (1e4, 1e6):
        dt = fastest(lambda: bound_engine.dirichlet_term(5000.0, x, table))
        print(f"dirichlet_term x={x:.0e}: {dt * 1e3:.1f} ms")
    dt = fastest(lambda: explicit_formula._archimedean("+", KernelParams(1.0, 1.0), 100.0))
    print(f"_archimedean (beta=1, Delta=1, t=100): {dt:.3f} s")
    from critline.selfcheck import CheckContext, run_all
    with tempfile.TemporaryDirectory() as tmp:
        ctx = CheckContext(zeros_path=str(ROOT / "data" / "zeros_height1e4.txt"),
                           artifacts_dir=tmp)
        t0 = time.perf_counter()
        results = run_all(ctx)
        dt = time.perf_counter() - t0
    print(f"selftest: {dt:.1f} s, {sum(r.passed for r in results)}/{len(results)} passed")


if __name__ == "__main__":
    main()
