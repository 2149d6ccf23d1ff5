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

Both zero sums, of m^{+-} and of h_beta, are one private ``_zero_sum``: it
owns the sum over +-gamma, the rule that the table must reach 10t
(``InsufficientHeight``) and the density-integral bound on the omitted tail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from math import fsum

import numpy as np

from .errors import CrossCheckFailed, DegenerateBeta, DomainError, InsufficientHeight
from .extremal_poisson import KernelParams, envelope_constant, eval_m, ft_m, kernel_constants
from .prime_arith import LambdaTable, covering_table, dirichlet_cos_sum
from .quadrature import geometric_tail, panel_integrate_chunked
from .zeros_table import ZeroTable
from .zeta_oracle import re_digamma_quarter, zeta_logderiv

ARCH_WINDOW = 1e4
BETA_FLOOR = 1e-3


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
        return abs(self.residual) <= self.tail_bound + 1e-3


def _zero_sum(kernel, envelope: float, beta: float, t: float, z: ZeroTable) -> ZeroSideSum:
    """sum over tabulated ordinates, both signs, of kernel(t - gamma), for a
    kernel with |kernel(x)| <= envelope * h_beta(x), h_beta = beta/(beta^2+x^2).

    The omitted |gamma| > height tail is bounded (2x safety) by integrating
    the envelope against the zero density (1/2pi) log(u/2pi); the table must
    reach 10t.
    """
    if z.max_height < 10 * t:
        raise InsufficientHeight(
            f"table height {z.max_height:.1f} below 10t = {10 * t:.1f}")
    g = z.gammas

    def integrand(u):
        dens = np.log(u / (2 * math.pi)) / (2 * math.pi)
        ker = beta / (beta ** 2 + (t - u) ** 2) + beta / (beta ** 2 + (t + u) ** 2)
        return envelope * ker * dens

    return ZeroSideSum(sum=fsum(kernel(t - g) + kernel(t + g)),
                       tail_bound=2.0 * geometric_tail(integrand, z.max_height))


def gw_zero_side(sign: str, p: KernelParams, t: float, z: ZeroTable) -> ZeroSideSum:
    """sum over tabulated ordinates (both signs) of m^{sign}(t - gamma), with
    a density-integral bound on the omitted tail."""
    return _zero_sum(lambda x: eval_m(sign, p, x), envelope_constant(sign, p), p.beta, t, z)


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
    main = panel_integrate_chunked(f, t - window, t + window, panel)

    def smooth(u):
        # (A/D) h_beta at distance u from t, against both wings of psi
        return (A / D) * beta / (beta ** 2 + u * u) * (
            re_digamma_quarter(t - u) + re_digamma_quarter(t + u))

    tail_smooth = geometric_tail(smooth, window)
    return (main + tail_smooth) / (2 * math.pi)


def _sinh_sum(t: float, x: float, beta: float, lambdas: LambdaTable) -> float:
    """S = Re sum_{n<=x} Lambda(n) n^{-1/2-it} sinh(beta log(x/n))."""
    return dirichlet_cos_sum(lambdas, x, t, lambda n, ln: np.sinh(beta * np.log(x / n)))


def _sinh_norm(sign: str, xb: float) -> float:
    """2 x^beta/(x^beta -+ 1)^2, the factor in front of S for m^{sign}."""
    return 2 * xb / ((xb - 1) ** 2 if sign == "+" else (xb + 1) ** 2)


def _prime_term(sign: str, p: KernelParams, t: float, lambdas: LambdaTable) -> float:
    """The prime-power sum in its FT form, checked against the sinh form: the
    two must agree to 1e-9, or ``CrossCheckFailed`` is raised.

    FT form:    (1/pi) sum Lambda(n)/sqrt(n) mhat(log n/2pi) cos(t log n)
    sinh form:  (2 x^beta/(x^beta -+ 1)^2) Re sum Lambda(n) n^{-1/2-it} sinh(beta log(x/n))
    """
    x = p.x
    form_ft = dirichlet_cos_sum(lambdas, x, t,
                                lambda n, ln: ft_m(sign, p, ln / (2 * math.pi))) / math.pi
    form_sinh = _sinh_norm(sign, x ** p.beta) * _sinh_sum(t, x, p.beta, lambdas)
    if not abs(form_ft - form_sinh) <= 1e-9:
        raise CrossCheckFailed(f"prime-term forms disagree: {form_ft} vs {form_sinh}")
    return form_ft


def gw_prime_side(sign: str, p: KernelParams, t: float,
                  lambdas: LambdaTable | None = None) -> GWBreakdown:
    """Right-hand side of the identity at t (zero_side/tail filled by verify_gw)."""
    if t < 10:
        raise DomainError("t must be >= 10")
    lambdas = covering_table(p.x, lambdas)
    boundary = 2 * eval_m(sign, p, complex(t, 0.5)).real
    ft_zero = ft_m(sign, p, 0.0) * math.log(math.pi) / (2 * math.pi)
    arch = _archimedean(sign, p, t)
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
    if not 0 < beta <= 1:
        raise DomainError("beta must lie in (0, 1]")
    if t < 10:
        raise DomainError("t must be >= 10")
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
    if beta < BETA_FLOOR:
        raise DegenerateBeta(f"beta={beta} below {BETA_FLOOR}: x^beta - 1 degenerates")
    if beta > 1:
        raise DomainError("beta must lie in (0, 1]")
    if t < 10 or x < 2:
        raise DomainError("need t >= 10 and x >= 2")
    S = _sinh_sum(t, x, beta, covering_table(x, lambdas))
    xb = x ** beta
    logt = math.log(t)
    left = -logt / (xb - 1) + _sinh_norm("+", xb) * S
    right = logt / (xb + 1) + _sinh_norm("-", xb) * S
    middle = -zeta_logderiv(complex(0.5 + beta, t)).real
    return LogDerivBracket(left_main=left, middle=middle, right_main=right)
