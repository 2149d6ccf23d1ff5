"""Ground-truth numerics: zeta, Riemann-Siegel Z and theta, and digamma.

Everything here is independent of the bound machinery it is used to check.
zeta is evaluated by Euler-Maclaurin summation (EM) with the standard
remainder bound verified at runtime.  On the critical line at t >= T_RS
(about 3.30e4) Z(t) comes from the Riemann-Siegel formula with Gabcke's
corrections C0..C4 and double-double phases, whose stated remainder bound
meets the same 1e-12 target; ``log_abs_zeta_crit`` uses it there and EM
below.  EM stays the independent route: every other evaluation, on or off
the line, is EM.  digamma is scipy's ``psi``, real on real input.
Supported window: 0 <= Re s (pole at s=1 excluded), |Im s| <= 1e6.
"""

from __future__ import annotations

import math
from decimal import Context, Decimal, localcontext
from fractions import Fraction
from functools import lru_cache
from math import fsum

import numpy as np
from scipy import special

from .errors import (
    DomainError,
    NearZeroOfZeta,
    PoleAtNonpositiveInteger,
    PoleAtOne,
    WindowExceeded,
)

IM_WINDOW = 1e6
ZERO_GUARD = 1e-8  # |zeta| below this counts as "at a zero"


def _bernoulli_even(n_pairs: int):
    """B_2, B_4, ..., B_{2 n_pairs} as floats (exact recurrence, then rounded)."""
    n_max = 2 * n_pairs
    b = [Fraction(0)] * (n_max + 1)
    b[0] = Fraction(1)
    for m in range(1, n_max + 1):
        s = sum(math.comb(m + 1, k) * b[k] for k in range(m))
        b[m] = Fraction(-s, m + 1)
    return [float(b[2 * j]) for j in range(1, n_pairs + 1)]


_B2J = _bernoulli_even(30)  # B_2 .. B_60
_J_MAX = len(_B2J) - 1
_C2J = [b / math.factorial(2 * j) for j, b in enumerate(_B2J, start=1)]  # B_2j/(2j)!


def _csum(arr: np.ndarray) -> complex:
    """Compensated sum of a complex array: pairwise chunks, exact fsum across."""
    n = len(arr)
    k = 4096
    if n <= k:
        return complex(fsum(arr.real), fsum(arr.imag))
    m = (n // k) * k
    chunks = arr[:m].reshape(-1, k).sum(axis=1)
    re = fsum(chunks.real) + fsum(arr[m:].real)
    im = fsum(chunks.imag) + fsum(arr[m:].imag)
    return complex(re, im)


def _check_window(s: complex):
    if s.real < 0:
        raise WindowExceeded(f"Re s = {s.real} < 0 unsupported")
    if abs(s.imag) > IM_WINDOW:
        raise WindowExceeded(f"|Im s| = {abs(s.imag)} > {IM_WINDOW}")
    if abs(s - 1) < 1e-10:
        raise PoleAtOne("zeta has a pole at s = 1")


def _em_tail(s, M: int, target: float):
    """The Euler-Maclaurin tail of zeta at cutoff M, and its s-derivative.

        zeta(s) = sum_{n<M} n^-s + T(s) + R_J,
        T(s) = M^{1-s}/(s-1) + M^-s/2 + sum_{j<=J} B_{2j}/(2j)! M^{1-s-2j} (s)_{2j-1},

    with |R_J| <= |B_{2J+2}/(2J+2)! (s)_{2J+1} M^{1-Re s-2J-2}| * |s+2J+1|/(Re s+2J+1).
    T'(s) differentiates term by term, (s)_{2j-1} by the product rule.  J is
    the first index at which both that bound and the first omitted term of T'
    are <= target/10.  ``s`` is a complex scalar or a complex ndarray; for an
    array both tests must hold at every entry.  Returns (T, T'), or None when
    J_MAX terms cannot reach the target at this M.
    """
    worst = np.max if isinstance(s, np.ndarray) else float
    sigma = s.real
    ln_m = math.log(M)
    t1 = M ** (1 - s) / (s - 1)
    half = 0.5 * M ** (-s)
    val = t1 + half
    der = -ln_m * t1 - t1 / (s - 1) - ln_m * half
    rising, d_rising = s, 1  # (s)_{2j-1} and its s-derivative
    for j in range(1, _J_MAX + 1):
        coeff = _C2J[j - 1] * M ** (1 - s - 2 * j)
        val += coeff * rising
        der += coeff * (d_rising - ln_m * rising)
        a, b = s + 2 * j - 1, s + 2 * j
        rising, d_rising = rising * a * b, d_rising * a * b + rising * (a + b)
        omitted = abs(_C2J[j]) * M ** (1 - sigma - 2 * j - 2)
        if (worst(omitted * abs(rising) * abs(s + 2 * j + 1) / (sigma + 2 * j + 1)) <= target / 10
                and worst(omitted * (abs(d_rising) + ln_m * abs(rising))) <= target / 10):
            return val, der
    return None


def _em_sum(s: complex, target: float, min_m: int, k: int) -> complex:
    """The k-th derivative of zeta (k = 0, 1): the cutoff M starts at
    max(2|Im s|, 10, min_m) and doubles until the tail meets the target, then
    the head sum_{n<M} (-log n)^k n^-s is added once."""
    s = complex(s)
    _check_window(s)
    M = max(int(math.ceil(2 * abs(s.imag))), 10, min_m)
    while (tail := _em_tail(s, M, target)) is None:
        M *= 2
        if M > 2 ** 25:
            raise WindowExceeded("Euler-Maclaurin failed to converge in the window")
    ln = np.log(np.arange(1, M, dtype=float))
    head = ln * -s
    np.exp(head, out=head)  # in place: one complex buffer of M entries per call, not two
    if k:
        head *= -ln
    return _csum(head) + tail[k]


def zeta_em(s: complex, target: float = 1e-12, min_m: int = 0) -> complex:
    """zeta(s) by Euler-Maclaurin summation (see ``_em_tail``).

    The truncation bound is enforced at runtime; floating rounding adds
    ~1e-16 * |Im s| from the phase arithmetic t log n, negligible below
    |Im s| ~ 1e4: measured against mpmath, 6.6e-10 absolute at t ~ 4.7e5.
    This is every zeta value of the package except log|zeta(1/2+it)| at
    t >= T_RS, which ``log_abs_zeta_crit`` takes from ``riemann_siegel_z``;
    the two routes share none of their numerics, so each checks the other.
    """
    return _em_sum(s, target, min_m, 0)


def zeta_deriv_em(s: complex) -> complex:
    """zeta'(s) by term-by-term differentiation of the Euler-Maclaurin formula.

    The cutoff and the number of correction terms meet both the zeta
    remainder bound and the first-omitted-term test for zeta' at the target
    1e-10 (``_em_tail``).
    """
    return _em_sum(s, 1e-10, 0, 1)


def zeta_logderiv(s: complex) -> complex:
    """zeta'(s)/zeta(s), guarded away from zeros and the pole."""
    z = zeta_em(s)
    if abs(z) <= ZERO_GUARD:
        raise NearZeroOfZeta(f"|zeta({s})| = {abs(z):.2e}")
    return zeta_deriv_em(s) / z


# ---------------------------------------------------------------------------
# theta and the Riemann-Siegel tier
# ---------------------------------------------------------------------------

def _theta_tail(t):
    """theta(t) minus its main term t/2 log(t/2pi) - t/2 - pi/8: the first
    four terms of the asymptotic series, for a float or an ndarray."""
    return (1 / (48 * t) + 7 / (5760 * t ** 3) + 31 / (80640 * t ** 5)
            + 127 / (430080 * t ** 7))


def theta(t):
    """The Riemann-Siegel theta function for t >= 10, a float or an ndarray.

    theta(t) = t/2 log(t/2pi) - t/2 - pi/8 + 1/(48t) + 7/(5760t^3)
    + 31/(80640t^5) + 127/(430080t^7).  The series' terms are all positive,
    and the truncation error is within 5 % above the first omitted term,
    511/(1216512 t^9), for t >= 10: against mpmath.siegeltheta it is 4.4e-13
    at t = 10, 8.3e-16 at t = 20 and 4.2e-22 at t = 100.  Float rounding of
    the main term adds a few 1e-16 t log t (3.6e-12 at t = 1e4);
    ``riemann_siegel_z`` forms that term in decimal instead.
    """
    return t / 2 * np.log(t / (2 * np.pi)) - t / 2 - np.pi / 8 + _theta_tail(t)


#: Gabcke's bound for the remainder after C0..C4: |R_4| <= d_4 (t/2pi)^(-11/4)
#: for t >= 200, with d_4 = 0.017
_GABCKE_D4 = 0.017
#: the least t at which that bound meets the oracle's 1e-12 target (about 3.30e4)
T_RS = 2 * math.pi * (_GABCKE_D4 / 1e-12) ** (4 / 11)

# Taylor coefficients of Psi(p) = cos(2pi(p^2 - p - 1/16)) / cos(2pi p) about
# p = 1/2, at (p - 1/2)^0, ^2, ..., ^68.  Psi is entire and even there; the
# last term is below 1e-36 at |p - 1/2| = 1/2.  Regenerated from
# mpmath.taylor by tests/test_zeta_oracle.py.
_PSI_TAYLOR = (
    0.3826834323650898, 1.7489618723100817, 2.118025207685496, -0.8707216670511481,
    -3.4733112243465167, -1.6626947308999325, 1.216731288919232, 1.3014304161007977,
    0.03051102182736167, -0.3755803051545095, -0.1085784416564066,
    0.051832902999549624, 0.029999480619902277, -0.0022759396706125644,
    -0.004382647416580339, -0.0004064230183729847, 0.0004006097785422114,
    8.971057991388841e-05, -2.3025650027239108e-05, -9.380006601906792e-06,
    6.323514947609108e-07, 6.551022819231502e-07, 2.210523745552697e-08,
    -3.322316176445629e-08, -3.734910989933656e-09, 1.2445067060797738e-09,
    2.476820537650219e-10, -3.284272816891627e-11, -1.1305406852298404e-11,
    4.565463979588694e-13, 3.9598480945249214e-13, 7.849566221259617e-15,
    -1.1059043150991233e-14, -7.738543987641508e-16, 2.4857755550271373e-16,
)

# Gabcke's C_k(p) as sums of coef * Psi^(m)(p): (coef, m) pairs, k = 0..4
_PI2 = math.pi ** 2
_C_TERMS = (
    ((1.0, 0),),
    ((-1 / (96 * _PI2), 3),),
    ((1 / (64 * _PI2), 2), (1 / (18432 * _PI2 ** 2), 6)),
    ((-1 / (64 * _PI2), 1), (-1 / (3840 * _PI2 ** 2), 5), (-1 / (5308416 * _PI2 ** 3), 9)),
    ((1 / (128 * _PI2), 0), (19 / (24576 * _PI2 ** 2), 4), (11 / (5898240 * _PI2 ** 3), 8),
     (1 / (2038431744 * _PI2 ** 4), 12)),
)


@lru_cache(maxsize=None)
def _correction_polys() -> np.ndarray:
    """C_0..C_4 as polynomials in p - 1/2, one column each, all derived from
    the one Taylor table.  Built on first use, not at import."""
    psi = np.zeros(2 * len(_PSI_TAYLOR) - 1)
    psi[::2] = _PSI_TAYLOR
    polys = np.zeros((len(psi), len(_C_TERMS)))
    for k, terms in enumerate(_C_TERMS):
        for coef, m in terms:
            d = np.polynomial.polynomial.polyder(psi, m)
            polys[:len(d), k] += coef * d
    return polys

_DEC = Context(prec=40)
_PI_DEC = Decimal("3.141592653589793238462643383279502884197")
_TWO_PI_HI = 6.283185307179586  # 2pi = _TWO_PI_HI + _TWO_PI_LO to ~1e-32
_TWO_PI_LO = 2.4492935982947064e-16
# (hi, lo) of log n for n = 1..len, swapped in whole; at most
# sqrt(IM_WINDOW/2pi) ~ 399 entries inside the window
_log_cache = [(np.zeros(1), np.zeros(1))]


def _log_pairs(N: int):
    """log n = hi + lo for n = 1..N, lo from a 40-digit decimal log.  Built on
    first use and extended as larger N are asked for."""
    hi, lo = _log_cache[0]
    if len(hi) < N:
        with localcontext(_DEC):
            logs = [Decimal(n).ln() for n in range(len(hi) + 1, N + 1)]
            new_hi = [float(d) for d in logs]
            new_lo = [float(d - Decimal(h)) for d, h in zip(logs, new_hi)]
        hi, lo = np.concatenate([hi, new_hi]), np.concatenate([lo, new_lo])
        _log_cache[0] = (hi, lo)
    return hi[:N], lo[:N]


def _two_product(a, b):
    """Dekker's exact product: a*b = p + e, for floats or ndarrays."""
    p = a * b
    a1 = 134217729.0 * a
    a_hi = a1 - (a1 - a)
    a_lo = a - a_hi
    b1 = 134217729.0 * b
    b_hi = b1 - (b1 - b)
    b_lo = b - b_hi
    return p, ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def riemann_siegel_z(t: float) -> float:
    """Z(t), with |Z(t)| = |zeta(1/2+it)|, by the Riemann-Siegel formula.

        Z(t) = 2 sum_{n<=N} n^-1/2 cos(theta(t) - t log n)
               + (-1)^(N-1) a^-1/2 sum_{k<=4} C_k(p) a^-k + R_4,

    with a = sqrt(t/2pi), N = floor(a), p = a - N, C_k Gabcke's corrections
    and |R_4| <= 0.017 a^-11/2 for t >= 200 (below 1e-12 from T_RS on).
    Each phase is kept in double-double: theta's main term and a are formed
    in 40-digit decimal and reduced mod 2pi there, t log n is an exact
    two-product plus t times log n's low part, and the reduction by k 2pi
    cancels the two large parts exactly before anything small is added.
    Measured against mpmath.siegelz: at most 4.7e-15 at 65 points of
    [T_RS, 1e6]; 1.2e-13 at t = 1e4, 2.6e-11 at t = 1e3 and 2.9e-9 at
    t = 200, where the truncation dominates.  About 0.4 ms a call.
    """
    if t < 200:
        raise DomainError(f"Riemann-Siegel remainder bound needs t >= 200, got {t}")
    _check_window(complex(0.5, t))
    with localcontext(_DEC):
        big_t = Decimal(t)
        a_sq = big_t / (2 * _PI_DEC)
        a_dec = a_sq.sqrt()
        N = int(a_dec)
        p = float(a_dec - N)
        th = (big_t / 2 * (a_sq.ln() - 1) - _PI_DEC / 8).remainder_near(2 * _PI_DEC)
        th_hi = float(th)
        th_lo = float(th - Decimal(th_hi)) + _theta_tail(t)

    log_hi, log_lo = _log_pairs(N)
    big, big_err = _two_product(t, log_hi)  # t log n = big + big_err + t lo
    k = np.round((th_hi - big) / _TWO_PI_HI)
    red, red_err = _two_product(k, _TWO_PI_HI)
    phase = ((-big - red) + th_hi) + (th_lo - big_err - red_err - k * _TWO_PI_LO - t * log_lo)
    main = 2 * fsum(np.cos(phase) / np.sqrt(np.arange(1, N + 1)))

    a = float(a_dec)
    c = np.polynomial.polynomial.polyval(p - 0.5, _correction_polys())
    tail = np.polynomial.polynomial.polyval(1 / a, c) / math.sqrt(a)
    return float(main + (tail if N % 2 else -tail))


def log_abs_zeta_crit(t: float) -> float:
    """log|zeta(1/2+it)| for t >= 10; refuses |zeta| <= ZERO_GUARD (1e-8)
    with ``NearZeroOfZeta``.

    |zeta| is |Z(t)| from ``riemann_siegel_z`` at t >= T_RS, where its
    remainder bound meets 1e-12, and ``zeta_em`` below.  The distance to a
    tabulated ordinate is the caller's rule (``bound_engine``), not the
    oracle's.
    """
    if t < 10:
        raise DomainError("supported for t >= 10")
    z = riemann_siegel_z(t) if t >= T_RS else zeta_em(complex(0.5, t))
    a = abs(z)
    if a <= ZERO_GUARD:
        raise NearZeroOfZeta(f"|zeta(1/2+{t}i)| = {a:.2e}")
    return math.log(a)


# ---------------------------------------------------------------------------
# digamma
# ---------------------------------------------------------------------------

def digamma(z):
    """psi(z) for real or complex scalars and ndarrays, by ``scipy.special.psi``.

    Real input stays real, on scipy's real psi; complex input uses scipy's
    complex psi.  A scalar in gives a scalar out.  Poles at the non-positive
    integers raise instead of returning inf or nan.
    """
    arr = np.asarray(z) if np.iscomplexobj(z) else np.asarray(z, dtype=float)
    nonpositive = arr[arr.real <= 0]
    if np.any(nonpositive == np.round(nonpositive.real)):
        raise PoleAtNonpositiveInteger("digamma pole at a non-positive integer")
    out = special.psi(arr)
    return out.item() if out.ndim == 0 else out


def re_digamma_quarter(y):
    """Re psi(1/4 + i y/2) for real y (vectorized); even in y."""
    y = np.asarray(y, dtype=float)
    return digamma(0.25 + 0.5j * y).real


# ---------------------------------------------------------------------------
# numeric bindings for the symbolic ring
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def zeta_real(m: int) -> float:
    """zeta(m) for integer m >= 2, accurate to ~1e-16 relative.

    The large base cutoff keeps the Euler-Maclaurin correction terms tiny, so
    rounding stays at machine level (bindings must be good to 1e-15).
    """
    if m < 2:
        raise DomainError(f"zeta_real needs m >= 2, got {m}")
    if m > 60:
        return 1.0 + 2.0 ** -m + 3.0 ** -m
    return zeta_em(complex(m, 0), target=1e-14, min_m=256).real


@lru_cache(maxsize=None)
def constant_env(max_odd: int = 7):
    """Bindings {L, Z3, Z5, ...} for coeff_eval, all sourced from this module."""
    env = {"L": math.log(2)}
    for k in range(3, max_odd + 1, 2):
        env[f"Z{k}"] = zeta_real(k)
    return env
