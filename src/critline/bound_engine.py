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

from . import optimal_coeffs
from .errors import DomainError, NearZeroOfZeta, _int_in, _points, _real_in
from .prime_arith import LambdaTable, covering_table, dirichlet_cos_sum
from .series_algebra import coeff_eval
from .special_f import f_closed_form, f_taylor
from .zeros_table import ZeroTable
from .zeta_oracle import constant_env, log_abs_zeta_crit

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


def dirichlet_weight(n, log_n, log_x):
    """F(log(x/n)/log x) / log x, the kernel weight of :func:`dirichlet_term`;
    it reads log n and log x (either may be an array), not n."""
    return f_closed_form((log_x - log_n) / log_x) / log_x


def dirichlet_term(t, x: float, table: LambdaTable | None = None):
    """Re sum_{n<=x} Lambda(n) n^{-1/2-it} F(log(x/n)/log x) / log x; ``t``
    may be a 1-D array, as in :func:`~critline.prime_arith.dirichlet_cos_sum`.
    A t or x that is not finite and real (``_points``, ``_real_in``) is
    refused; a finite x < 2 gives 0, the sum over no prime powers."""
    _points(t)
    x = _real_in("x", x)
    return dirichlet_cos_sum(covering_table(x, table), x, t, dirichlet_weight)


def archimedean_term(t: float, x: float) -> float:
    """log 2 * log t / log x."""
    return math.log(2) * math.log(t) / math.log(x)


def theorem1_rhs(t: float, x: float, table: LambdaTable | None = None,
                 zeros: ZeroTable | None = None) -> BoundReport:
    """Main terms of the bound at (t, x), with the oracle margin: one point
    of :func:`scan_margins`'s evaluation.

    Margins are only meaningful away from zeros: a loaded table rejects t
    within 1e-2 of an ordinate, and the oracle refuses |zeta| < 1e-8.
    """
    t, x = _real_in("t", t, 10), _real_in("x", x, 2)
    d = _ordinate_distance(t, zeros)
    if d < MARGIN_GUARD_RADIUS:
        raise NearZeroOfZeta(f"t={t} within {d:.2e} of a tabulated ordinate")
    return _theorem1_rows([t], [x], table)[0]


def _ordinate_distance(t: float, zeros: ZeroTable | None) -> float:
    """Distance from t to the nearest tabulated ordinate; inf without a table
    or above its top, where the table does not know the nearest one."""
    if zeros is None or t > zeros.max_height:
        return math.inf
    return zeros.distance_to_nearest(t)


def _theorem1_rows(ts: list, xs: list, table: LambdaTable | None = None) -> list:
    """BoundReports at checked points (t >= 10, x >= 2): one kernel call, with
    F formed once for all distinct x, and one ``log_abs_zeta_crit`` batch."""
    dir_terms = dirichlet_cos_sum(covering_table(max(xs), table), np.array(xs), np.array(ts),
                                  dirichlet_weight).tolist()
    oracle = log_abs_zeta_crit(np.array(ts)).tolist()
    return [BoundReport(t=t, x=x, dirichlet_term=d, archimedean_term=a,
                        error_scale=math.sqrt(x) * math.log(x) / t + 1.0,
                        oracle_log_abs_zeta=o, margin=d + a - o)
            for t, x, d, a, o in zip(ts, xs, dir_terms, map(archimedean_term, ts, xs), oracle)]


# ---------------------------------------------------------------------------
# weight identities
# ---------------------------------------------------------------------------


def w0_weight(n: int, x: float) -> float:
    """integral_0^1 2 x^u/(x^u+1)^2 sinh(u log(x/n)) du, to 1e-10.

    Differs from F(log(x/n)/log x)/log x by O(1/(n log n)).
    """
    x = _real_in("x", x, 2)
    n = _real_in("n", n, 2, x)
    r = math.log(x / n)

    def integrand(u):
        xu = x ** u
        return 2 * xu / (xu + 1) ** 2 * math.sinh(u * r)

    val, err = integrate.quad(integrand, 0.0, 1.0, epsabs=1e-12, epsrel=1e-12, limit=200)
    return val


def archimedean_identity_check(x: float) -> float:
    """Residual of integral_0^inf du/(x^u+1) = log 2/log x (|residual| <= 1e-10)."""
    x = _real_in("x", x, 2)
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
    k = _int_in("k", k, 0)
    x = _real_in("x", x, 2)
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


@lru_cache(maxsize=None)
def _pipeline_numeric(K: int) -> tuple[tuple, tuple]:
    """The z-coefficients z_1, z_2, ... of the stationary-point series z(w) and
    C_1..C_K of :func:`~critline.optimal_coeffs.run_pipeline`, at the oracle's
    constant bindings."""
    result = optimal_coeffs.run_pipeline(K)
    env = constant_env(max_odd=2 * K + 1)
    Z = result.Z
    return (tuple(coeff_eval(Z.coefficient(k), env) for k in range(1, Z.order + 1)),
            tuple(coeff_eval(c, env) for c in result.C))


def _w_of(t: float) -> float:
    """w = 1/log log t, the variable of the curves and of the cutoff series."""
    loglog = math.log(math.log(_real_in("t", t, math.e, ends="()")))
    if loglog <= 0:  # t within rounding of e
        raise DomainError(f"need log log t > 0, got t = {t}")
    return 1.0 / loglog


@dataclass(frozen=True)
class CurvePolicy:
    """An x(t) choice, held as the coefficients of the bound curve it gives:
    the curve per unit log t is sum_k coeffs[k-1] w^k at w = 1/log log t."""
    coeffs: tuple

    @classmethod
    def exact(cls):
        """sqrt(x) = log t pinned into the bound: L/2, 2L, then
        2(1 - 4^-k)(2k+1)! zeta(2k+1) at w^(2k+2) for k = 1..3."""
        L = math.log(2)
        coeffs = [L / 2, 2 * L]
        for k in range(1, 4):
            coeffs += [0.0, f_taylor(k) * math.factorial(2 * k + 1)]
        return cls(tuple(coeffs))

    @classmethod
    def shifted(cls, c: float):
        """log x = 2 log log t - 2c, first three displayed terms."""
        L = math.log(2)
        return cls((L / 2, g_curve(c), c * c * L / 4 + 4 * c * math.exp(-c) * L))

    @classmethod
    def optimal(cls, K: int):
        """C_1..C_K with pipeline constants, for K within the vetted range."""
        return cls(_pipeline_numeric(_int_in("K", K, 1, optimal_coeffs.K_MAX_GOLDEN))[1])


def curve_series_value(w: float, policy: CurvePolicy) -> float:
    """The bound curve per unit log t, sum_k coeffs[k-1] w^k, as a series in
    w = 1/log log t.

    Separated from :func:`theorem2_curve` so asymptotic comparisons can run
    at small w directly (the corresponding t overflows floats).
    """
    w = _real_in("w", w, 0, ends="()")
    return fsum(ck * w ** k for k, ck in enumerate(policy.coeffs, 1))


def theorem2_curve(t: float, policy: CurvePolicy) -> float:
    """Bound-curve value at t for the chosen x(t) policy (log t times the
    w-series at w = 1/log log t)."""
    return curve_series_value(_w_of(t), policy) * math.log(t)  # _w_of refuses a bad t first


# ---------------------------------------------------------------------------
# margin scans
# ---------------------------------------------------------------------------


def optimal_cutoff(t: float) -> float:
    """The pipeline's optimal Dirichlet cutoff x(t): log x = 1/z(w) with
    z(w) the stationary-point series at w = 1/log log t, from run_pipeline(3)."""
    w = _w_of(t)
    z = fsum(zk * w ** k for k, zk in enumerate(_pipeline_numeric(3)[0], 1))
    return max(2.0, math.exp(1.0 / z))


def scan_margins(t_min: float, t_max: float, points: int,
                 zeros: ZeroTable | None = None,
                 x_policy: str = "logsq", x_fixed: float | None = None) -> list:
    """BoundReports at log-spaced t; the workhorse behind the scan CLI.

    x policies: ``logsq`` (x = log^2 t), ``fixed`` (x = ``x_fixed``, which
    no other policy takes), or ``optimal`` (the stationary-point cutoff from
    the coefficient pipeline).  Sample points
    falling within 1e-2 of a tabulated ordinate are nudged up by 2e-2
    (deterministically) so margins stay meaningful.

    Every row is :func:`theorem1_rhs`'s evaluation at its (t, x), run once
    for the whole grid (one kernel call, one ``hardy_z`` batch).  What
    remains per point is a cos row over the prime powers n <= x with its
    correctly rounded sum, and the double-double theta of a Riemann-Siegel
    point or, below T_RS (about 7.06e3), an Euler-Maclaurin sum of |t|/4
    terms: in a 50-point scan of 1e3..1e6, 14 points are below T_RS.
    """
    t_min = _real_in("t_min", t_min, 10)
    t_max = _real_in("t_max", t_max, t_min)
    points = _int_in("points", points, 1)
    if x_policy == "fixed":
        x_fixed = _real_in("x_fixed", x_fixed, 2)
    elif x_fixed is not None:
        raise DomainError(f"x_fixed={x_fixed!r} is taken by the fixed x policy only, "
                          f"not by {x_policy!r}")
    x_of = {"logsq": lambda t: math.log(t) ** 2, "fixed": lambda t: x_fixed,
            "optimal": optimal_cutoff}.get(x_policy)
    if x_of is None:
        raise DomainError(f"unknown x policy {x_policy!r}")
    ts = []
    for t in np.geomspace(t_min, t_max, points):
        t = float(t)
        while _ordinate_distance(t, zeros) < MARGIN_GUARD_RADIUS:
            t += 2 * MARGIN_GUARD_RADIUS
        ts.append(t)
    # the nudge above keeps every point clear of theorem1_rhs's table refusal
    return _theorem1_rows(ts, [max(2.0, x_of(t)) for t in ts])


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
