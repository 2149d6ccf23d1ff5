"""Evaluation of the critical-line bound and its supporting identities.

The main inequality bounds log|zeta(1/2+it)|, for t >= 10 and x >= 2, by

    Re sum_{n<=x} Lambda(n) n^{-1/2-it} F(log(x/n)/log x) / log x
      + log 2 * log t / log x  +  O(sqrt(x) log x / t + 1),

where F is the weight function of :mod:`critline.special_f`.  Margins against
the oracle are measured, never asserted: the O-constant is unknown and is
reported as ``error_scale`` instead of being folded into the bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from math import fsum

import numpy as np
from scipy import integrate, optimize

from .errors import DomainError, NearZeroOfZeta
from .optimal_coeffs import run_pipeline
from .prime_arith import LambdaTable, covering_table, dirichlet_cos_sum
from .series_algebra import coeff_eval
from .special_f import f_closed_form
from .zeros_table import ZeroTable
from .zeta_oracle import constant_env, log_abs_zeta_crit, zeta_real

MARGIN_GUARD_RADIUS = 1e-2  # min distance to a tabulated ordinate: the one such refusal


@dataclass(frozen=True)
class BoundReport:
    t: float
    x: float
    dirichlet_term: float
    archimedean_term: float
    error_scale: float  # sqrt(x) log x / t + 1, reported, never added
    oracle_log_abs_zeta: float
    margin: float

    @property
    def rhs_main(self) -> float:
        return self.dirichlet_term + self.archimedean_term

    @property
    def low_confidence(self) -> bool:
        return self.error_scale > math.log(self.t)


def dirichlet_term(t: float, x: float, table: LambdaTable | None = None) -> float:
    """Re sum_{n<=x} Lambda(n) n^{-1/2-it} F(log(x/n)/log x) / log x."""
    if x < 2:
        return 0.0
    logx = math.log(x)
    return dirichlet_cos_sum(covering_table(x, table), x, t,
                             lambda n, ln: f_closed_form((logx - ln) / logx) / logx)


def archimedean_term(t: float, x: float) -> float:
    """log 2 * log t / log x."""
    return math.log(2) * math.log(t) / math.log(x)


def theorem1_rhs(t: float, x: float, table: LambdaTable | None = None,
                 zeros: ZeroTable | None = None) -> BoundReport:
    """Main terms of the bound at (t, x), with the oracle margin.

    Margins are only meaningful away from zeros: a loaded table rejects t
    within 1e-2 of an ordinate, and the oracle refuses |zeta| < 1e-8.
    """
    if t < 10:
        raise DomainError("t must be >= 10")
    if x < 2:
        raise DomainError("x must be >= 2")
    if zeros is not None and zeros.max_height >= t:
        d = zeros.distance_to_nearest(t)
        if d < MARGIN_GUARD_RADIUS:
            raise NearZeroOfZeta(f"t={t} within {d:.2e} of a tabulated ordinate")
    dir_term = dirichlet_term(t, x, table)
    arch = archimedean_term(t, x)
    oracle = log_abs_zeta_crit(t)
    return BoundReport(
        t=t, x=x,
        dirichlet_term=dir_term,
        archimedean_term=arch,
        error_scale=math.sqrt(x) * math.log(x) / t + 1.0,
        oracle_log_abs_zeta=oracle,
        margin=dir_term + arch - oracle,
    )


# ---------------------------------------------------------------------------
# weight identities
# ---------------------------------------------------------------------------


def w0_weight(n: int, x: float) -> float:
    """integral_0^1 2 x^u/(x^u+1)^2 sinh(u log(x/n)) du, to 1e-10.

    Differs from F(log(x/n)/log x)/log x by O(1/(n log n)).
    """
    if not 2 <= n <= x:
        raise DomainError("need 2 <= n <= x")
    r = math.log(x / n)

    def integrand(u):
        xu = x ** u
        return 2 * xu / (xu + 1) ** 2 * math.sinh(u * r)

    val, err = integrate.quad(integrand, 0.0, 1.0, epsabs=1e-12, epsrel=1e-12, limit=200)
    return val


def archimedean_identity_check(x: float) -> float:
    """Residual of integral_0^inf du/(x^u+1) = log 2/log x (|residual| <= 1e-10)."""
    if x < 2:
        raise DomainError("x must be >= 2")
    logx = math.log(x)
    U = 60.0 / logx  # x^-U = e^-60; tail of the integrand below 1e-26

    def integrand(u):
        return 1.0 / (x ** u + 1.0)

    val, err = integrate.quad(integrand, 0.0, U, epsabs=1e-13, epsrel=1e-13, limit=200)
    tail = math.exp(-60.0) / logx
    return val + tail - math.log(2) / logx


@dataclass(frozen=True)
class MomentCheck:
    quadrature: float
    closed: float
    half_range: float  # integral over [0, 1/2], always <= the full integral


def gamma_moment_check(k: int, x: float) -> MomentCheck:
    """integral_0^inf u^{2k} x^{-u/2} du against the closed form
    2^{2k+1} (2k)! / (log x)^{2k+1}."""
    if k < 0:
        raise DomainError("k must be >= 0")
    if x < 2:
        raise DomainError("x must be >= 2")
    logx = math.log(x)

    def integrand(u):
        return u ** (2 * k) * math.exp(-u * logx / 2)

    # integrand peaks at u* = 4k/log x and decays exponentially past it
    U = 4 * k / logx + 120.0 / logx
    val, err = integrate.quad(integrand, 0.0, U, epsabs=1e-13, epsrel=1e-13, limit=400)
    half, _ = integrate.quad(integrand, 0.0, 0.5, epsabs=1e-13, epsrel=1e-13)
    closed = 2.0 ** (2 * k + 1) * math.factorial(2 * k) / logx ** (2 * k + 1)
    return MomentCheck(quadrature=val, closed=closed, half_range=half)


# ---------------------------------------------------------------------------
# asymptotic bound curves
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CurvePolicy:
    """Which x(t) choice drives the asymptotic bound curve."""
    kind: str  # "exact" | "shifted" | "optimal"
    c: float | None = None
    K: int | None = None

    def __post_init__(self):
        if self.kind not in ("exact", "shifted", "optimal"):
            raise DomainError(f"unknown curve policy {self.kind!r}")
        if self.kind == "shifted" and self.c is None:
            raise DomainError("shifted policy needs c")
        if self.kind == "optimal":
            if self.K is None or not 1 <= self.K <= 7:
                raise DomainError("optimal policy needs 1 <= K <= 7")

    @classmethod
    def exact(cls):
        return cls(kind="exact")

    @classmethod
    def shifted(cls, c: float):
        return cls(kind="shifted", c=c)

    @classmethod
    def optimal(cls, K: int):
        return cls(kind="optimal", K=K)


@lru_cache(maxsize=None)
def optimal_coefficients_numeric(K: int) -> tuple:
    """C_1..C_K evaluated at the oracle's constant bindings."""
    result = run_pipeline(K)
    env = constant_env(max_odd=max(3, 2 * K + 1) | 1)
    return tuple(coeff_eval(c, env) for c in result.C)


def curve_series_value(w: float, policy: CurvePolicy, K: int | None = None) -> float:
    """The bound curve per unit log t, as a series in w = 1/log log t.

    exact    : sqrt(x) = log t pinned into the bound, truncated at K terms;
    shifted  : log x = 2 log log t - 2c, first three displayed terms;
    optimal  : sum_{k<=K} C_k w^k with pipeline constants.

    Separated from :func:`theorem2_curve` so asymptotic comparisons can run
    at small w directly (the corresponding t overflows floats).
    """
    if w <= 0:
        raise DomainError("need w > 0")
    if policy.kind == "exact":
        kk = K if K is not None else (policy.K or 3)
        val = math.log(2) / 2 * w + 2 * math.log(2) * w ** 2
        val += 2 * fsum((1 - 0.25 ** k) * math.factorial(2 * k + 1)
                        * zeta_real(2 * k + 1) * w ** (2 * k + 2)
                        for k in range(1, kk + 1))
        return val
    if policy.kind == "shifted":
        c = policy.c
        L = math.log(2)
        return (L / 2) * w + (c * L / 2 + 2 * math.exp(-c) * L) * w ** 2 \
            + (c * c * L / 4 + 4 * c * math.exp(-c) * L) * w ** 3
    kk = policy.K if K is None else K
    coeffs = optimal_coefficients_numeric(kk)
    return fsum(ck * w ** (k + 1) for k, ck in enumerate(coeffs))


def theorem2_curve(t: float, policy: CurvePolicy, K: int | None = None) -> float:
    """Bound-curve value at t for the chosen x(t) policy (log t times the
    w-series at w = 1/log log t)."""
    loglog = math.log(math.log(t)) if t > 1 else -math.inf
    if loglog <= 0:
        raise DomainError("need log log t > 0")
    return math.log(t) * curve_series_value(1.0 / loglog, policy, K)


# ---------------------------------------------------------------------------
# margin scans
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _z_coefficients_numeric(K: int) -> tuple:
    """z_1, z_2, ... of the stationary-point series z(w) at the oracle's
    constant bindings."""
    Z = run_pipeline(K).Z
    env = constant_env()
    return tuple(coeff_eval(Z.coefficient(k), env) for k in range(1, Z.order + 1))


def optimal_cutoff(t: float, K: int = 3) -> float:
    """The pipeline's optimal Dirichlet cutoff x(t): log x = 1/z(w) with
    z(w) the stationary-point series at w = 1/log log t."""
    loglog = math.log(math.log(t)) if t > 1 else -math.inf
    if loglog <= 0:
        raise DomainError("need log log t > 0")
    w = 1.0 / loglog
    z = fsum(zk * w ** k for k, zk in enumerate(_z_coefficients_numeric(K), 1))
    return max(2.0, math.exp(1.0 / z))


def scan_margins(t_min: float, t_max: float, points: int,
                 zeros: ZeroTable | None = None,
                 x_policy: str = "logsq", x_fixed: float | None = None) -> list:
    """BoundReports at log-spaced t; the workhorse behind the scan CLI.

    x policies: ``logsq`` (x = log^2 t), ``fixed``, or ``optimal`` (the
    stationary-point cutoff from the coefficient pipeline).  Sample points
    falling within 1e-2 of a tabulated ordinate are nudged up by 2e-2
    (deterministically) so margins stay meaningful.
    """
    if points < 1 or t_min < 10 or t_max < t_min:
        raise DomainError("need t_max >= t_min >= 10 and points >= 1")
    if x_policy == "logsq":
        def x_of(t):
            return math.log(t) ** 2
    elif x_policy == "fixed":
        if x_fixed is None or x_fixed < 2:
            raise DomainError("fixed x policy needs x >= 2")

        def x_of(t):
            return x_fixed
    elif x_policy == "optimal":
        def x_of(t):
            return optimal_cutoff(t)
    else:
        raise DomainError(f"unknown x policy {x_policy!r}")
    ts = []
    for t in np.geomspace(t_min, t_max, points):
        t = float(t)
        if zeros is not None:
            while t <= zeros.max_height and zeros.distance_to_nearest(t) < MARGIN_GUARD_RADIUS:
                t += 2 * MARGIN_GUARD_RADIUS
        ts.append(t)
    xs = [max(2.0, x_of(t)) for t in ts]
    table = covering_table(max(xs))
    return [theorem1_rhs(t, x, table, zeros) for t, x in zip(ts, xs)]


CSV_HEADER = "t,x,log_abs_zeta,dirichlet_term,arch_term,rhs_main,margin,error_scale"


def report_csv_row(r: BoundReport) -> str:
    """One CSV row at full 17-significant-digit precision (bit-exact reparse)."""
    vals = (r.t, r.x, r.oracle_log_abs_zeta, r.dirichlet_term, r.archimedean_term,
            r.rhs_main, r.margin, r.error_scale)
    return ",".join(f"{v:.17g}" for v in vals)


@dataclass(frozen=True)
class GMin:
    c_star: float
    g_star: float


def g_curve(c: float) -> float:
    """g(c) = c log2/2 + 2 e^{-c} log 2, the second-order coefficient under
    the shifted policy."""
    L = math.log(2)
    return c * L / 2 + 2 * math.exp(-c) * L


def g_min() -> GMin:
    """Numeric minimizer of g on [0, 10] (central-difference derivative root).

    Lands within 1e-8 of 2 log 2 with minimum value log2/2 + log^2 2.
    """
    h = 1e-5

    def dg(c):
        return (g_curve(c + h) - g_curve(c - h)) / (2 * h)

    c_star = optimize.brentq(dg, 0.0, 10.0, xtol=1e-13, rtol=8.9e-16)
    return GMin(c_star=c_star, g_star=g_curve(c_star))
