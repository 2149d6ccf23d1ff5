"""Numerical verification of the explicit formula and log-derivative brackets.

For the extremal kernels m^{+-} the Guinand-Weil identity reads

    sum_gamma m(t - gamma) = [m(t+i/2) + m(t-i/2)]
                             - (1/2pi) mhat(0) log pi
                             + (1/2pi) int m(t-y) Re psi(1/4 + iy/2) dy
                             - (1/pi) sum_n Lambda(n)/sqrt(n) mhat(log n / 2pi) cos(t log n),

with the zero sum over all ordinates (positive and negative).  This module
evaluates both sides against a finite zero table, with every truncation
surfaced as an explicit bound, and implements the induced two-sided bracket
for -Re zeta'/zeta(1/2+beta+it) as well as the partial-fraction residual

    Re zeta'/zeta(1/2+beta+it) + (1/2) log(t/2pi) - sum_gamma h_beta(t-gamma)  =  O(1/t).

m^+ and m^- share one numerator and differ only in the squared denominator
D^{+-} (``kernel_constants``), so each side of the identity has one sign-free
core, D times its terms: ``_zero_side_numerator`` sums the numerator over
+-gamma and bounds the tail with its envelope A + 2; ``_prime_side_numerators``
holds the boundary, mhat(0), archimedean and prime terms, the last summed
against one cos(t log n) row with the sinh sum S of its cross-check.
``gw_zero_side(sign)`` and ``gw_prime_side(sign)`` divide them by D^{sign}, and
the prime term's cross-check is made per sign on the divided values.  Each core
keeps its last result only (``lru_cache(maxsize=1)``), keyed on (KernelParams,
t, table) with tables hashed by identity, so a "+" call and the "-" call after
it at the same arguments share the work.

Both zero sums, of the numerator of m^{+-} and of h_beta, are one private
``_zero_sum``: it owns the sum over +-gamma, the rule that t is finite and
>= 10 (``DomainError``), the rule that the table must reach 10t
(``InsufficientHeight``) and the density-integral bound on the omitted tail.

The archimedean term has two routes.  ``gw_prime_side`` takes the closed
form, ``_archimedean_numerator`` / D: two digammas and a geometric series.
The y-space quadrature ``_archimedean`` is the deliberately independent
route, kept as the cross-check that criterion 5 and the tests run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
from scipy.special import exp1

from .errors import CrossCheckFailed, DegenerateBeta, DomainError, InsufficientHeight, _real_in
from .extremal_poisson import (
    KernelParams,
    _m_real,
    eval_m,
    ft_numerator,
    kernel_constants,
    m_numerator,
    numerator_constant,
)
from .prime_arith import LambdaTable, covering_table, dirichlet_cos_sum
from .quadrature import geometric_tail, integrate_on_edges, panel_integrate
from .summation import exact_sum
from .zeros_table import ZeroTable
from .zeta_oracle import digamma, re_digamma_quarter, zeta_logderiv

ARCH_WINDOW = 1e4
BETA_FLOOR = 1e-3
ARCH_TERMS = 4096  # terms of the archimedean series summed before its tail is closed


@dataclass(frozen=True)
class ZeroSideSum:
    sum: float
    tail_bound: float


@dataclass(frozen=True)
class GWBreakdown:
    zero_side: float
    boundary_term: float
    ft_zero_term: float
    archimedean_term: float
    prime_term: float
    rhs_total: float
    tail_bound: float

    @property
    def residual(self) -> float:
        return self.zero_side - self.rhs_total

    @property
    def verified(self) -> bool:
        """The verdict on the identity: the residual lies within the zero-sum
        tail bound plus a fixed 1e-3 for the quadrature and prime-sum budgets."""
        return bool(abs(self.residual) <= self.tail_bound + 1e-3)


def _zero_sum(kernel, envelope: float, beta: float, t: float, z: ZeroTable) -> ZeroSideSum:
    """sum over tabulated ordinates, both signs, of kernel(t - gamma), for a
    kernel with |kernel(x)| <= envelope * h_beta(x), h_beta = beta/(beta^2+x^2).

    The omitted |gamma| > height tail is bounded (2x safety) by integrating
    the envelope against the zero density (1/2pi) log(u/2pi); t must be
    finite and >= 10, and the table must reach 10t.
    """
    t = _real_in("t", t, 10)
    if z.max_height < 10 * t:
        raise InsufficientHeight(
            f"table height {z.max_height:.1f} below 10t = {10 * t:.1f}")
    g = z.gammas

    def integrand(u):
        dens = np.log(u / (2 * math.pi)) / (2 * math.pi)
        ker = beta / (beta ** 2 + (t - u) ** 2) + beta / (beta ** 2 + (t + u) ** 2)
        return envelope * ker * dens

    return ZeroSideSum(sum=exact_sum(kernel(t - g) + kernel(t + g)),
                       tail_bound=2.0 * geometric_tail(integrand, z.max_height))


@lru_cache(maxsize=1)
def _zero_side_numerator(p: KernelParams, t: float, z: ZeroTable) -> ZeroSideSum:
    """D times :func:`gw_zero_side`, the same for both signs: the numerator D m
    summed over the zeros, and the tail bound of its envelope A + 2."""
    return _zero_sum(lambda x: _m_real(p, x), numerator_constant(p) + 2, p.beta, t, z)


def gw_zero_side(sign: str, p: KernelParams, t: float, z: ZeroTable) -> ZeroSideSum:
    """sum over tabulated ordinates (both signs) of m^{sign}(t - gamma), with
    a density-integral bound on the omitted tail."""
    _, D = kernel_constants(sign, p)
    side = _zero_side_numerator(p, _real_in("t", t, 10), z)  # a checked float keys the memo
    return ZeroSideSum(sum=side.sum / D, tail_bound=side.tail_bound / D)


def _osc_tail_bound(D: float, beta: float, omega: float, t: float, window: float) -> float:
    # the truncated oscillatory kernel component decays like beta/u^2 against
    # a log-size psi factor; alternating half-period chunks bound the sum by
    # its first term
    return (2 / D) * (math.pi / omega) * beta / window ** 2 * (
        abs(re_digamma_quarter(t + window)) + abs(re_digamma_quarter(t - window)))


def _archimedean(sign: str, p: KernelParams, t: float) -> float:
    """(1/2pi) int m(t-y) Re psi(1/4+iy/2) dy, error budget 1e-6.

    Main range |y - t| <= window by Gauss-Legendre panels sized against the
    cos(2 pi Delta y) oscillation; beyond it the kernel splits into a smooth
    Poisson part (integrated on geometric panels out to 1e16) and an
    oscillatory part whose alternating half-period chunks are bounded by
    their first term.  The window starts at ARCH_WINDOW and doubles while
    tiny beta*Delta inflates that bound (1/D blows up as the kernels
    degenerate).
    """
    beta, delta = p.beta, p.delta
    A, D = kernel_constants(sign, p)
    omega = 2 * math.pi * delta
    window = ARCH_WINDOW
    while _osc_tail_bound(D, beta, omega, t, window) > 2e-7:
        window *= 2
        if window > 2 ** 8 * ARCH_WINDOW:
            raise DomainError(
                f"kernel parameters beta={beta}, delta={delta} are too degenerate "
                "for the archimedean quadrature budget")

    def f(y):
        return eval_m(sign, p, t - y) * re_digamma_quarter(y)

    # resolve the oscillation, the beta-scale kernel peak, and the psi factor
    panel = min(0.25 / max(delta, 1.0), beta / 2)
    main = panel_integrate(f, t - window, t + window, max(1, math.ceil(2 * window / panel)))

    def smooth(u):
        # (A/D) h_beta at distance u from t, against both wings of psi
        return (A / D) * beta / (beta ** 2 + u * u) * (
            re_digamma_quarter(t - u) + re_digamma_quarter(t + u))

    tail_smooth = geometric_tail(smooth, window)
    return (main + tail_smooth) / (2 * math.pi)


def _archimedean_numerator(p: KernelParams, t: float) -> float:
    """D (1/2pi) int m(t-y) Re psi(1/4+iy/2) dy, the same for both signs.

    Gauss's integral for psi (DLMF 5.9.13) against m(t-y), mhat supported on [-Delta,
    Delta], and 1/(1 - e^{-u}) expanded geometrically give (1/2) Re[e^c (psi(z+) + L(z+))
    - e^{-c} (psi(z-) + L(z-))]: c = 2 pi beta Delta, E = 4 pi Delta, z+- = z +- beta/2,
    z = 1/4 + it/2, L(w) = sum_k e^{-(k+w)E}/(k+w).  By psi(z+) - psi(z-) = sum_k
    beta/((k+z+)(k+z-)) that is (1/2) Re[sinh(c) (psi(z+) + psi(z-)) + sum_k G(k)],
    G(x) = (2 sinh^2(c/2) - expm1(-(x+z)E)) beta/((x+z+)(x+z-)), where nothing cancels.
    G(k) is summed for k < K, the least K >= 32 with KE >= 37 (at most ``ARCH_TERMS``,
    |K + z-| >= 32); Euler-Maclaurin's B_2..B_6 terms (G varies on the scale min(1/E,
    |K + z-|)) and the integral of G over [K, inf) at w+- = K + z+-, 2 sinh(c) E1(E w+)
    + sinh(c) log(w+/w-) + e^{-c} int_{E w-}^{E w+} -expm1(-s)/s ds (cosh(c) log(w+/w-)
    within e^{-37} once KE >= 37), give the rest.  7e-16 relative of 40-digit mpmath
    or better, from (beta, Delta, t) = (1, 1e-9, 10) to (1e5, 1e-4, 100).
    """
    # a as kernel_constants takes it, so that sinh(c) and sinh(a)^2 match D's rounding
    beta, a, E = p.beta, math.pi * p.beta * p.delta, 4 * math.pi * p.delta
    c, z = 2 * a, complex(0.25, t / 2)
    sh, h = math.sinh(c) / 2, math.sinh(a) ** 2  # h = (cosh c - 1)/2
    K = min(ARCH_TERMS, max(32, math.ceil(37 / E)))
    K += 64 if abs(K + 0.25 - beta / 2) < 32 else 0
    w = np.arange(K) + z
    # beta/((w+ beta/2)(w- beta/2)) from the reciprocals: the product overflows above t ~ 2.7e154
    out = (sh * np.sum(digamma(np.array([z + beta / 2, z - beta / 2])))
           + np.sum((h - np.expm1(-E * w) / 2) * beta * (1 / (w + beta / 2)) * (1 / (w - beta / 2))))
    w = K + z
    ein = log_ratio = 2 * np.arctanh(beta / (2 * w))  # log(w+/w-)
    if E * K < 37:
        out += 2 * sh * exp1(E * (w + beta / 2))
        # s = E (w- + beta r), r in [0, 1], so that the segment is exactly beta E long
        ein = beta * E * integrate_on_edges(
            lambda r: -np.expm1(-E * (w - beta / 2 + beta * r)) / (E * (w - beta / 2 + beta * r)),
            np.linspace(0, 1, math.ceil(beta * E) + 1), 16)
    out += sh * log_ratio + math.exp(-c) / 2 * ein
    # derivatives at K of G = u v: u = h - expm1(-E(x+z))/2, and v = rm - rp, whose
    # d[m] = rm^(m+1) - rp^(m+1) come from a recurrence that does not cancel
    rp, rm = 1 / (w + beta / 2), 1 / (w - beta / 2)
    d = [beta * rp * rm]
    for m in range(1, 6):
        d.append(rm * d[-1] + d[0] * rp ** m)
    u = [h - np.expm1(-E * w) / 2] + [-(-E) ** j * np.exp(-E * w) / 2 for j in range(1, 6)]
    g = [sum(math.comb(n, j) * u[j] * (-1) ** (n - j) * math.factorial(n - j) * d[n - j]
             for j in range(n + 1)) for n in range(6)]
    return float((out + g[0] / 2 - g[1] / 12 + g[3] / 720 - g[5] / 30240).real)


def _sinh_weight(n: np.ndarray, x: float, beta: float) -> np.ndarray:
    """sinh(beta log(x/n)), the weight of S."""
    return np.sinh(beta * np.log(x / n))


def _xb_minus_one(x: float, beta: float) -> float:
    """x^beta - 1 as expm1(beta log x): no cancellation as beta -> 0."""
    return math.expm1(beta * math.log(x))


def _sinh_norm(sign: str, x: float, beta: float) -> float:
    """2 x^beta/(x^beta -+ 1)^2, the factor in front of S for m^{sign}, with
    x^beta - 1 from ``_xb_minus_one`` and x^beta + 1 as 2 plus that."""
    em1 = _xb_minus_one(x, beta)
    return 2 * (em1 + 1) / (em1 if sign == "+" else em1 + 2) ** 2


@lru_cache(maxsize=1)
def _prime_side_numerators(p: KernelParams, t: float,
                           lambdas: LambdaTable | None) -> tuple[float, ...]:
    """D times :func:`gw_prime_side`'s boundary, mhat(0), archimedean and prime
    terms, the same for both signs, then the sinh sum S of the prime term's
    cross-check and D times the absolute sum of the prime term's terms.  The
    prime term's FT weights and S's sinh weights are summed against one
    cos(t log n) row; the FT weights are >= 0 for n <= x, so the absolute sum
    is the plain sum of their products with Lambda(n)/sqrt(n): a numpy
    reduction, which unlike a BLAS dot runs on one thread."""
    x = p.x
    table = covering_table(x, lambdas)
    k = len(table.prime_powers(x))
    w = np.array([ft_numerator(p, table.log_n[:k] / (2 * math.pi)),
                  _sinh_weight(table.support[:k].astype(float), x, p.beta)])
    ft, S = dirichlet_cos_sum(table, x, t, lambda n, ln, log_x: w).tolist()
    return (2 * m_numerator(p, complex(t, 0.5)).real,
            ft_numerator(p, 0.0) * math.log(math.pi) / (2 * math.pi),
            _archimedean_numerator(p, t),
            ft / math.pi,
            S,
            float(np.sum(table.amp[:k] * w[0])) / math.pi)


def _prime_term(sign: str, p: KernelParams, t: float, lambdas: LambdaTable | None) -> float:
    """The prime-power sum in its FT form, checked against the sinh form: the
    two must agree to 1e-9 times the FT form's absolute sum (the sum with
    every cos(t log n) at 1), or ``CrossCheckFailed`` is raised.

    FT form:    (1/pi) sum Lambda(n)/sqrt(n) mhat(log n/2pi) cos(t log n)
    sinh form:  (2 x^beta/(x^beta -+ 1)^2) Re sum Lambda(n) n^{-1/2-it} sinh(beta log(x/n))

    The tolerance is relative because the terms grow like 1/beta^2 for m^+.
    The sinh form takes x^beta - 1 by expm1, so it keeps its relative
    precision as beta -> 0: measured, the two forms differ by at most
    5.0e-14 of the absolute sum over 6000 log-uniform draws of beta in
    [1e-8, 3], x in [2, 3e5] and t in [10, 1e6].
    """
    _, D = kernel_constants(sign, p)
    *_, ft, S, ft_abs = _prime_side_numerators(p, t, lambdas)
    form_ft = ft / D
    form_sinh = _sinh_norm(sign, p.x, p.beta) * S
    if not abs(form_ft - form_sinh) <= 1e-9 * ft_abs / D:
        raise CrossCheckFailed(f"prime-term forms disagree: {form_ft} vs {form_sinh}")
    return form_ft


def gw_prime_side(sign: str, p: KernelParams, t: float,
                  lambdas: LambdaTable | None = None) -> GWBreakdown:
    """Right-hand side of the identity at t (zero_side/tail filled by verify_gw)."""
    t = _real_in("t", t, 10)
    _, D = kernel_constants(sign, p)
    boundary, ft_zero, arch = (v / D for v in _prime_side_numerators(p, t, lambdas)[:3])
    prime = _prime_term(sign, p, t, lambdas)
    return GWBreakdown(
        zero_side=math.nan,
        boundary_term=boundary,
        ft_zero_term=ft_zero,
        archimedean_term=arch,
        prime_term=prime,
        rhs_total=boundary - ft_zero + arch - prime,
        tail_bound=0.0,
    )


def verify_gw(sign: str, p: KernelParams, t: float, z: ZeroTable,
              lambdas: LambdaTable | None = None) -> GWBreakdown:
    """Both sides of the identity; ``GWBreakdown.verified`` is the verdict."""
    side = gw_zero_side(sign, p, t, z)
    breakdown = gw_prime_side(sign, p, t, lambdas)
    return replace(breakdown, zero_side=side.sum, tail_bound=side.tail_bound)


# ---------------------------------------------------------------------------
# partial-fraction residual and the log-derivative bracket
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ResidualReport:
    residual: float
    tail_bound: float


def partial_fraction_residual(beta: float, t: float, z: ZeroTable) -> ResidualReport:
    """Re zeta'/zeta(1/2+beta+it) + (1/2) log(t/2pi) - sum_gamma h_beta(t-gamma).

    Expected O(1/t) plus the reported zero-sum tail.
    """
    beta = _real_in("beta", beta, 0, 1, "(]")
    side = _zero_sum(lambda x: beta / (beta ** 2 + x ** 2), 1.0, beta, t, z)
    re_ld = zeta_logderiv(complex(0.5 + beta, t)).real
    return ResidualReport(residual=re_ld + 0.5 * math.log(t / (2 * math.pi)) - side.sum,
                          tail_bound=side.tail_bound)


@dataclass(frozen=True)
class LogDerivBracket:
    left_main: float
    middle: float
    right_main: float


def lemma3_bracket(t: float, x: float, beta: float,
                   lambdas: LambdaTable | None = None) -> LogDerivBracket:
    """Main terms of the two-sided bracket for -Re zeta'/zeta(1/2+beta+it):

        -log t/(x^b - 1) + 2x^b/(x^b-1)^2 * S   <~   -Re zeta'/zeta
                                                <~   log t/(x^b + 1) + 2x^b/(x^b+1)^2 * S

    with S = Re sum_{n<=x} Lambda(n) n^{-1/2-it} sinh(beta log(x/n)).  The
    unquantified O-terms are the caller's slack.
    """
    t, x, beta = _real_in("t", t, 10), _real_in("x", x, 2), _real_in("beta", beta, hi=1)
    if beta < BETA_FLOOR:
        raise DegenerateBeta(f"beta={beta} below {BETA_FLOOR}: x^beta - 1 degenerates")
    S = dirichlet_cos_sum(covering_table(x, lambdas), x, t,
                          lambda n, ln, log_x: _sinh_weight(n, x, beta))
    em1 = _xb_minus_one(x, beta)
    logt = math.log(t)
    left = -logt / em1 + _sinh_norm("+", x, beta) * S
    right = logt / (em1 + 2) + _sinh_norm("-", x, beta) * S
    middle = -zeta_logderiv(complex(0.5 + beta, t)).real
    return LogDerivBracket(left_main=left, middle=middle, right_main=right)
