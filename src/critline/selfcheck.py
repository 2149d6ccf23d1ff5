"""The acceptance suite: eleven numbered criteria, each a callable check.

A criterion returns its ``(ok, label)`` conditions and the detail to show
when all of them hold; ``run_criterion`` alone turns that into PASS/FAIL and
the ``failed: ...`` detail listing the labels that did not hold.

Both the pytest acceptance module and the ``selftest`` CLI subcommand run
these.  The golden strings below are the regression anchor for the exact
coefficient pipeline; they are compared after parsing, i.e. up to canonical
simplification, not textually.
"""

from __future__ import annotations

import math
import random
import statistics
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import bound_engine, optimal_coeffs, series_algebra, special_f
from .errors import DomainError, NearZeroOfZeta
from .extremal_poisson import (
    ORDERING_GRID,
    KernelParams,
    eval_m,
    ft_m,
    l1_dist,
    l1_numeric,
    numeric_ft,
    pointwise_ordered,
)
from .explicit_formula import _archimedean, lemma3_bracket, partial_fraction_residual, verify_gw
from .pari_text import parse_coefficient, series_matches_text
from .prime_arith import lambda_sieve, weighted_psi
from .zeros_table import ZeroTable, load_zeros, sample_gram, turing_certificate, zero_count_check
from .zeta_oracle import T_RS, riemann_siegel_z, theta, zeta_em

GOLDEN_W1 = "1/2/z + 2*L - 4*z + (-8 + 18*Z3/L)*z^2 + (-64/3 - 72*Z3/L)*z^3 + O(z^4)"
GOLDEN_Z = "1/2*z + L*z^2 + (2*L^2 - 1)*z^3 + (4*L^3 - 6*L - 1 + 9/4*Z3/L)*z^4 + O(z^5)"
GOLDEN_C = {
    1: "L/2",
    2: "L^2 + L/2",
    3: "2*L^3 + 2*L^2",
    4: "4*L^4 + 6*L^3 - L + 9/4*Z3",
    5: "8*L^5 + 16*L^4 - 8*L^2 - 4/3*L + (18*L + 9/2)*Z3",
    6: "16*L^6 + 40*L^5 - 40*L^3 - 40/3*L^2 + 4/3*L "
       "+ (90*L^2+45*L-9)*Z3 - 81/16*Z3^2/L + 225/4*Z5",
    7: "32*L^7 + 96*L^6 - 160*L^4 - 80*L^3 + 16*L^2 + 34/5*L "
       "+ 45*(8*L^3 + 6*L^2 - 12/5*L - 1)*Z3 - 81/4*(3-1/L)*Z3^2 + (675*L + 225/2)*Z5",
}
# the closed-form statement of the leading coefficients and the follow-up
# expressions for C_4..C_6, written independently of the script output
STATEMENT_C = {
    1: "1/2*L",
    2: "1/2*L + L^2",
    3: "2*L^2 + 2*L^3",
    4: "-L + 6*L^3 + 4*L^4 + 9/4*Z3",
    5: "-4/3*L - 8*L^2 + 16*L^4 + 8*L^5 + 9/2*Z3 + 18*Z3*L",
    6: "4/3*L - 40/3*L^2 - 40*L^3 + 40*L^5 + 16*L^6 "
       "+ (-9 + 45*L + 90*L^2 - 81/16*Z3/L)*Z3 + 225/4*Z5",
}


class SkipCriterion(Exception):
    """A criterion's input is not configured, so it reports SKIP, not FAIL."""


@dataclass
class CheckContext:
    zeros_path: str | None = None
    artifacts_dir: str | None = None  # where criterion 8 archives its scan; None: nowhere
    _zeros: ZeroTable | None = field(default=None, repr=False)

    def zeros(self) -> ZeroTable:
        if self._zeros is None:
            if self.zeros_path is None:
                raise SkipCriterion(
                    "no zero table configured (flag --zeros or CRITLINE_ZEROS)")
            self._zeros = load_zeros(self.zeros_path)
        return self._zeros


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    seconds: float
    skipped: bool = False

    def line(self) -> str:
        status = "SKIP" if self.skipped else "PASS" if self.passed else "FAIL"
        return f"{status}  criterion {self.number:2d}  {self.name}  [{self.seconds:.2f}s]  {self.detail}"


# --- criteria ----------------------------------------------------------------


def criterion_1(ctx: CheckContext):
    """Symbolic golden match of the K=7 pipeline, under 1 second."""
    optimal_coeffs.run_pipeline.cache_clear()
    t0 = time.perf_counter()
    result = optimal_coeffs.run_pipeline(7)
    elapsed = time.perf_counter() - t0
    conds = [(series_matches_text(result.w1, GOLDEN_W1), "w1 series"),
             (series_matches_text(result.Z, GOLDEN_Z), "Z series")]
    for k, text in GOLDEN_C.items():
        conds.append((result.coefficient(k) == parse_coefficient(text), f"C_{k}"))
    conds.append((elapsed < 1.0, f"runtime {elapsed:.3f}s"))
    return conds, f"7 coefficients + 2 series lines, {elapsed * 1e3:.0f} ms"


def criterion_2(ctx: CheckContext):
    """C_1..C_6 equal the closed-form statement values symbol-for-symbol."""
    result = optimal_coeffs.run_pipeline(7)
    return ([(result.coefficient(k) == parse_coefficient(text), f"C_{k}")
             for k, text in STATEMENT_C.items()], "C_1..C_6 exact")


def criterion_3(ctx: CheckContext):
    """Weight function consistency, envelope bound, and the weight chain."""
    t0 = time.perf_counter()
    conds = []
    for u in np.arange(0.05, 0.951, 0.05):
        vals = [special_f.f_eval(float(u), m) for m in special_f.FMethod]
        conds.append((max(vals) - min(vals) <= 1e-9, f"3-method at u={u:.2f}"))
    for m in special_f.FMethod:
        conds.append((abs(special_f.f_eval(0.5, m) - 1.0) <= 1e-12, f"F(1/2) via {m.value}"))
    grid = np.arange(0.01, 0.9901, 0.01)
    fg = special_f.f_closed_form(grid)
    conds.append((bool(np.all(fg <= 2 * grid / (1 - grid * grid) + 1e-12)),
                  "envelope 2u/(1-u^2)"))
    conds.append((bool(np.all(np.diff(fg) > 0)), "monotonicity"))
    for x in (100, 10 ** 4):
        n = np.arange(2, x + 1, dtype=float)
        logx, logn = math.log(x), np.log(n)
        w = bound_engine.dirichlet_weight(logn, logx)
        upper = 1 / logn - 1 / (2 * logx - logn)
        upper2 = np.minimum(1 / logn, 2 * (logx - logn) / logn ** 2)
        eps = 1e-12
        conds.append((bool(np.all(w >= -eps)), f"w >= 0 (x={x})"))
        conds.append((bool(np.all(w <= upper + eps)), f"w <= 1/log n - 1/log(x^2/n) (x={x})"))
        conds.append((bool(np.all(upper <= upper2 + eps)), f"chain tail (x={x})"))
    elapsed = time.perf_counter() - t0
    conds.append((elapsed < 10.0, f"runtime {elapsed:.1f}s"))
    return conds, f"{len(conds)} checks, {elapsed:.1f}s"


def criterion_4(ctx: CheckContext):
    """Extremal kernel: pointwise ordering, L1 errors, Fourier transforms."""
    t0 = time.perf_counter()
    conds = []
    for beta in (0.1, 0.5, 1.0):
        for delta in (1.0, 2.0):
            p = KernelParams(beta, delta)
            conds.append((pointwise_ordered(p), f"ordering ({beta},{delta})"))
            conds.append((bool(np.all(eval_m("-", p, ORDERING_GRID) >= -1e-12)),
                          f"minorant >= 0 ({beta},{delta})"))
            for sign in "+-":
                rel = abs(l1_numeric(sign, p) - l1_dist(sign, p)) / l1_dist(sign, p)
                conds.append((rel <= 1e-6, f"L1 {sign} ({beta},{delta}) rel={rel:.1e}"))
                for frac in (0.0, 0.5, 1.0):
                    d = abs(numeric_ft(sign, p, frac * delta) - ft_m(sign, p, frac * delta))
                    conds.append((d <= 1e-6, f"FT {sign} xi={frac}D ({beta},{delta})"))
                d = abs(numeric_ft(sign, p, 1.5 * delta))
                conds.append((d <= 1e-6, f"FT {sign} beyond band ({beta},{delta})"))
    elapsed = time.perf_counter() - t0
    conds.append((elapsed < 10.0, f"runtime {elapsed:.1f}s"))
    return conds, f"{len(conds)} checks, {elapsed:.1f}s"


def criterion_5(ctx: CheckContext):
    """Guinand-Weil verification at two parameter points, both signs, with the
    archimedean term cross-checked between its two routes."""
    t0 = time.perf_counter()
    z = ctx.zeros()
    conds = [(z.max_height >= 10 ** 4, "table height >= 1e4")]
    lam = lambda_sieve(600)
    for (t, beta, delta) in ((50.0, 1.0, 1.0), (100.0, 0.5, 1.0)):
        p = KernelParams(beta, delta)
        for sign in "+-":
            # the prime-term forms are cross-checked inside verify_gw
            b = verify_gw(sign, p, t, z, lam)
            conds.append((b.verified, f"GW {sign} (t={t}) residual {b.residual:.1e}"))
            # the Fourier-side archimedean term against the independent y-space route
            gap = abs(b.archimedean_term - _archimedean(sign, p, t))
            conds.append((gap <= 1e-9, f"archimedean {sign} (t={t}) routes differ by {gap:.1e}"))
    elapsed = time.perf_counter() - t0
    conds.append((elapsed < 300.0, f"runtime {elapsed:.1f}s"))
    return conds, f"residuals within tails, archimedean routes agree, {elapsed:.1f}s"


def criterion_6(ctx: CheckContext):
    """Partial-fraction residual at three (beta, t) points."""
    z = ctx.zeros()
    conds = []
    for beta, t in ((1.0, 100.0), (0.25, 500.0), (0.5, 1000.0)):
        r = partial_fraction_residual(beta, t, z)
        conds.append((abs(r.residual) <= 10 / t + r.tail_bound,
                      f"(beta={beta}, t={t}) residual {r.residual:.1e}"))
    return conds, "3 points within 10/t + tail"


def criterion_7(ctx: CheckContext):
    """Log-derivative bracketing at 20 random parameter draws."""
    rng = random.Random(20240618)
    conds = []
    drawn = 0
    while drawn < 20:
        t = 10 ** rng.uniform(3, 5)
        x = rng.uniform(10, 4 * math.log(t) ** 2)
        beta = rng.uniform(0.1, 1.0)
        try:
            br = lemma3_bracket(t, x, beta)
        except NearZeroOfZeta:
            continue
        drawn += 1
        slack = 5 + 5 * math.sqrt(x) * math.log(x) / t
        conds.append((br.left_main - slack <= br.middle <= br.right_main + slack,
                      f"(t={t:.0f}, x={x:.0f}, beta={beta:.2f})"))
    return conds, "20 draws bracketed"


def criterion_8(ctx: CheckContext):
    """Empirical margins over 50 log-spaced t, archived as CSV when the
    context names an artifacts directory."""
    z = ctx.zeros() if ctx.zeros_path is not None else None
    reports = bound_engine.scan_margins(1e3, 1e6, 50, zeros=z)
    margins = [r.margin for r in reports]
    archived = "not archived (no artifacts directory)"
    if ctx.artifacts_dir is not None:
        path = Path(ctx.artifacts_dir)
        path.mkdir(parents=True, exist_ok=True)
        out = path / "scan_t1e3_1e6.csv"
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(bound_engine.CSV_HEADER + "\n")
            for r in reports:
                fh.write(bound_engine.report_csv_row(r) + "\n")
        archived = f"archived {out}"
    lo, mid = min(margins), statistics.median(margins)
    return ([(lo >= -2, f"min margin {lo:.2f}"), (mid > 0, f"median margin {mid:.2f}")],
            f"min {lo:.2f}, median {mid:.2f}, {archived}")


def criterion_9(ctx: CheckContext):
    """Weighted prime-power sum against 2 sqrt(x)."""
    table = lambda_sieve(10 ** 6)
    conds = []
    for x in (10 ** 4, 10 ** 5, 10 ** 6):
        gap = abs(weighted_psi(x, table) - 2 * math.sqrt(x))
        conds.append((gap <= 2 * math.log(x) ** 3, f"x={x} gap {gap:.2f}"))
    return conds, "three decades within 2 log^3 x"


def criterion_10(ctx: CheckContext):
    """Oracle sanity: zeta(2), the first tabulated ordinate, zero counts
    (near 2 log T of the smooth count, exactly n + 1 at good Gram points,
    and proved at the table's top by Turing's method), and Riemann-Siegel
    against Euler-Maclaurin where both serve the line."""
    z = ctx.zeros()
    conds = [(abs(zeta_em(complex(2, 0)) - math.pi ** 2 / 6) <= 1e-12, "zeta(2)"),
             (abs(zeta_em(complex(0.5, z.gammas[0]))) <= 1e-6, "zeta at first ordinate")]
    for t in (T_RS, 5e4, 1e5):
        # 5e-10 is EM's own phase rounding at t <= 1e5
        gap = abs(abs(riemann_siegel_z(t)) - abs(zeta_em(complex(0.5, t))))
        conds.append((gap <= 5e-10, f"RS vs EM at t={t:.0f} gap {gap:.1e}"))
    for T in (100.0, 1000.0, 10000.0):
        c = zero_count_check(z, T)
        conds.append((c.gap <= 2 * math.log(T), f"count at T={T:.0f} gap {c.gap:.2f}"))
        n = int(theta(T) // math.pi)
        gram = sample_gram(n - 3, n + 3)
        turing_certificate(z, gram)  # a count other than n + 1 raises: a FAIL
        conds.append((gram.good.any(), f"exact counts at good Gram points near T={T:.0f}"))
    n = int(theta(z.max_height) // math.pi)
    top = turing_certificate(z, sample_gram(n - 12, n))
    conds.append((top is not None, f"Turing certificate below the table's top {z.max_height:.2f}"))
    return conds, "oracle, ordinate, counts, RS vs EM" + (
        f", Turing-certified below {top:.2f}" if top else "")


def _random_coeff(rng, nonzero=False):
    while True:
        q = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        if q or not nonzero:
            return series_algebra.ExactCoefficient.rational(q)


def criterion_11(ctx: CheckContext):
    """Series-algebra round-trips, g minimization, quadrature identities."""
    rng = random.Random(987654321)
    order = 12
    conds = []
    for i in range(100):
        v = rng.choice([-1, 0, 1])  # reciprocals must stay within the z^-1 head
        coeffs = [_random_coeff(rng, nonzero=(k == 0))
                  for k in range(order - v + 1)]
        a = series_algebra.TruncatedSeries(v, coeffs, order)
        prod = series_algebra.ps_mul(a, series_algebra.ps_recip(a))
        expect = series_algebra.TruncatedSeries.constant(1, prod.order)
        conds.append((prod == expect, f"recip round-trip #{i}"))
    for i in range(100):
        coeffs = [_random_coeff(rng, nonzero=(k == 0)) for k in range(order)]
        a = series_algebra.TruncatedSeries(1, coeffs, order)
        comp = series_algebra.ps_compose(a, series_algebra.ps_revert(a))
        expect = series_algebra.TruncatedSeries.identity(comp.order)
        conds.append((comp == expect, f"revert round-trip #{i}"))
    gm = bound_engine.g_min()
    conds.append((abs(gm.c_star - 2 * math.log(2)) <= 1e-8, "g_min location"))
    for x in (2.0, 100.0, 10 ** 6):
        conds.append((abs(bound_engine.archimedean_identity_check(x)) <= 1e-10,
                      f"arch identity x={x}"))
    for k, x in ((0, math.e ** 2), (1, 10.0), (3, 100.0)):
        mc = bound_engine.gamma_moment_check(k, x)
        conds.append((abs(mc.quadrature - mc.closed) <= 1e-10, f"moment k={k}"))
        conds.append((mc.half_range <= mc.quadrature + 1e-15, f"moment half k={k}"))
    return conds, "200 exact round-trips + identities"


CRITERIA = [
    (1, "symbolic golden match", criterion_1),
    (2, "statement coefficients", criterion_2),
    (3, "weight function consistency", criterion_3),
    (4, "extremal kernel", criterion_4),
    (5, "explicit-formula verification", criterion_5),
    (6, "partial-fraction residual", criterion_6),
    (7, "log-derivative bracketing", criterion_7),
    (8, "empirical margins", criterion_8),
    (9, "prime-sum estimate", criterion_9),
    (10, "oracle sanity", criterion_10),
    (11, "series algebra properties", criterion_11),
]

SLOW_CRITERIA = {5, 8, 9}  # skipped by --quick


def run_criterion(number: int, ctx: CheckContext) -> CriterionResult:
    for num, name, fn in CRITERIA:
        if num == number:
            t0 = time.perf_counter()
            try:
                conds, summary = fn(ctx)
            except SkipCriterion as exc:
                return CriterionResult(num, name, False, str(exc),
                                       time.perf_counter() - t0, skipped=True)
            except Exception as exc:  # surfaced, not swallowed: a crash is a FAIL
                passed, detail = False, f"error: {type(exc).__name__}: {exc}"
            else:
                bad = [label for ok, label in conds if not ok]
                passed, detail = not bad, "failed: " + ", ".join(bad) if bad else summary
            return CriterionResult(num, name, passed, detail, time.perf_counter() - t0)
    raise DomainError(f"no criterion {number}")


def run_all(ctx: CheckContext, quick: bool = False):
    results = []
    for num, name, fn in CRITERIA:
        if quick and num in SLOW_CRITERIA:
            continue
        results.append(run_criterion(num, ctx))
    return results
