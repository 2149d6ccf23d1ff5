"""Ground-truth numerics: zeta, Hardy's Z and theta, and digamma.

Everything here is independent of the bound machinery it is used to check.
zeta is evaluated by Euler-Maclaurin summation (EM) with Rademacher's
remainder bound verified at runtime.  The cutoff M starts at |Im s|/4, where
at most 59 correction terms meet the bound, so the head sum_{n<M} n^-s costs
about |Im s|/4 terms; its float phases t log n dominate the error (bound in
``zeta_em``; measured against mpmath on the line, 1.3e-11 at t = 1e5 and
9.8e-10 at t ~ 4.7e5).  On the critical line ``hardy_z`` alone picks the
route: at t >= T_RS (about 7.06e3) the Riemann-Siegel formula with the
corrections C0..C7 and double-double phases, whose remainder bound (Gabcke's
d_7 = 9.2) meets the same 1e-12 target, and EM rotated by theta below;
``log_abs_zeta_crit`` is log|Z|.  Riemann-Siegel's theta (``_theta_phase``)
and log n (``_log_pairs``) are float double-doubles on one atanh series,
theta reduced mod 2pi within 2e-31 t of its exact main term from T_RS on.
EM stays the independent route: every other evaluation, on or off the line,
is EM.  digamma is scipy's ``psi``, real on real input.
Supported window: 0 <= Re s (pole at s=1 excluded), |Im s| <= 1e6, no NaN.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache

import numpy as np
from scipy import special

from .errors import (
    DomainError,
    NearZeroOfZeta,
    PoleAtNonpositiveInteger,
    PoleAtOne,
    WindowExceeded,
    _int_in,
    _points,
    _real_in,
    _shaped,
)
from .summation import exact_sum

IM_WINDOW = 1e6
ZERO_GUARD = 1e-8  # |zeta| below this counts as "at a zero"


# B_2j/(2j)! for j = 1..60, each the exact rational correctly rounded; rebuilt
# from the Bernoulli recurrence by tests/test_zeta_oracle.py.
_C2J = (
    0.08333333333333333, -0.001388888888888889, 3.306878306878307e-05,
    -8.267195767195768e-07, 2.08767569878681e-08, -5.284190138687493e-10,
    1.3382536530684679e-11, -3.3896802963225827e-13, 8.586062056277845e-15,
    -2.174868698558062e-16, 5.5090028283602295e-18, -1.3954464685812522e-19,
    3.534707039629467e-21, -8.953517427037546e-23, 2.267952452337683e-24,
    -5.744790668872202e-26, 1.455172475614865e-27, -3.6859949406653103e-29,
    9.336734257095045e-31, -2.36502241570063e-32, 5.990671762482134e-34,
    -1.5174548844682903e-35, 3.843758125454189e-37, -9.736353072646691e-39,
    2.466247044200681e-40, -6.247076741820743e-42, 1.5824030244644914e-43,
    -4.008273685948936e-45, 1.0153075855569557e-46, -2.5718041582418717e-48,
    6.514456035233815e-50, -1.6501309906896525e-51, 4.179830628539476e-53,
    -1.058763466770291e-54, 2.6818791912607708e-56, -6.793279351107421e-58,
    1.7207577616681404e-59, -4.358730329348894e-61, 1.1040792903684666e-62,
    -2.7966655133781345e-64, 7.084036501679471e-66, -1.794407408289224e-67,
    4.545287063611096e-69, -1.1513346631982051e-70, 2.9163647710923614e-72,
    -7.387238263497337e-74, 1.8712093117637953e-75, -4.739828557761799e-77,
    1.2006125993354507e-78, -3.0411872415142924e-80, 7.703417274705106e-82,
    -1.951298390909883e-83, 4.942696565159462e-85, -1.2519996659171848e-86,
    3.1713522017635153e-88, -8.033128970735334e-90, 2.0348153391661465e-91,
    -5.154247466447474e-93, 1.3055861352149468e-94, -3.307088314175091e-96,
)
_J_MAX = len(_C2J) - 1
_M_MAX = 2 ** 25  # the largest Euler-Maclaurin cutoff


def _csum(arr: np.ndarray) -> complex:
    """Sum of a complex array, real and imaginary parts apart, each correctly
    rounded (``exact_sum``, equal to ``math.fsum``) at any length."""
    return complex(exact_sum(arr.real), exact_sum(arr.imag))


def _check_window(s: complex):
    if not s.real >= 0:  # written so that NaN fails, as below
        raise WindowExceeded(f"Re s = {s.real} is outside Re s >= 0")
    if not abs(s.imag) <= IM_WINDOW:
        raise WindowExceeded(f"|Im s| = {abs(s.imag)} is outside |Im s| <= {IM_WINDOW}")
    if abs(s - 1) < 1e-10:
        raise PoleAtOne("zeta has a pole at s = 1")


def _em_tail(s, M: int, target: float):
    """The Euler-Maclaurin tail of zeta at cutoff M, and its s-derivative.

        zeta(s) = sum_{n<M} n^-s + T(s) + R_J,
        T(s) = M^{1-s}/(s-1) + M^-s/2 + M^{-1-s} sum_{j<=J} B_{2j}/(2j)! r_j,
        r_j = (s)_{2j-1} M^{2-2j},

    with Rademacher's |R_J| <= |B_{2J+2}/(2J+2)! r_{J+1}| M^{-1-Re s}
    |s+2J+1|/(Re s+2J+1), for any M >= 1 and Re s > -(2J+1).  The scaled
    rising factorial r_j and its s-derivative are carried by recurrence, so
    no power of M under- or overflows; T'(s) differentiates term by term.
    J (at most J_MAX = 59) is the first index at which both that bound and
    the first omitted term of T' are <= target/10.  Returns (T, T') for a
    complex scalar ``s``, or None when J_MAX terms cannot reach the target
    at this M: from M = |Im s|/4 on the terms fall by about (2/pi)^2 a step.
    """
    sigma = s.real
    ln_m = math.log(M)
    m_s = M ** -s
    t1 = M * m_s / (s - 1)
    half = 0.5 * m_s
    scale = m_s / M  # M^{-1-s}
    inv_m2 = 1 / (M * M)
    rising, d_rising = s, 1  # r_j and its s-derivative
    corr = d_corr = 0
    tol = target / 10
    for j in range(1, _J_MAX + 1):
        corr += _C2J[j - 1] * rising
        d_corr += _C2J[j - 1] * d_rising
        b = s + 2 * j
        a = b - 1  # s + 2j - 1, the same float
        rising, d_rising = rising * a * b * inv_m2, (d_rising * a * b + rising * (a + b)) * inv_m2
        omitted = abs(_C2J[j] * scale)
        r_abs = abs(rising)
        if (omitted * r_abs * abs(b + 1) / (sigma + 2 * j + 1) <= tol
                and omitted * (abs(d_rising) + ln_m * r_abs) <= tol):
            return (t1 + half + scale * corr,
                    -ln_m * (t1 + half) - t1 / (s - 1) + scale * (d_corr - ln_m * corr))
    return None


def _em_sum(s: complex, target: float, min_m: int, orders: tuple[int, ...]) -> list[complex]:
    """zeta^(k)(s) for each k in ``orders``, ascending from (0, 1), all from one
    Euler-Maclaurin pass: the cutoff M starts at max(ceil(|Im s|/4), 10, min_m)
    and doubles until ``_em_tail`` meets the target, and that one tail call
    gives T and T'; the head's terms n^-s are exponentiated once, summed for
    zeta and scaled in place by -log n for zeta'."""
    s = complex(s)
    _check_window(s)
    M = max(math.ceil(abs(s.imag) / 4), 10, min_m)
    while (tail := _em_tail(s, M, target)) is None:
        M *= 2
        if M > _M_MAX:
            raise WindowExceeded("Euler-Maclaurin failed to converge in the window")
    ln = np.log(np.arange(1, M, dtype=float))
    head = ln * -s
    np.exp(head, out=head)  # in place: one complex buffer of M entries per call, not two
    out = []
    for k in orders:
        if k:
            head *= -ln
        out.append(_csum(head) + tail[k])
    return out


def zeta_em(s: complex, target: float = 1e-12, min_m: int = 0) -> complex:
    """zeta(s) by Euler-Maclaurin summation (see ``_em_tail``), at the cutoff
    M of ``_em_sum``: max(ceil(|Im s|/4), 10, min_m), doubled until the tail
    meets the target.  A target that is not finite and > 0, or a min_m that
    is not an integer, is a ``DomainError``, and a min_m above the largest
    cutoff, 2^25, a ``WindowExceeded``, each before anything is allocated.

    The truncation bound is enforced at runtime.  Rounding: the phase of each
    head term n^-s = exp(-s log n) is off by at most about 2 eps |s| log n
    (eps = 2^-52), so the result is within target + 2 eps sum_{n<=M} n^-Re s
    (|s| log n + 2) of zeta(s).  Those errors have random signs and the sum
    is far smaller in practice: against mpmath on the line, 2.6e-14 at
    t = 50, 1.3e-11 at t = 1e5, 9.8e-10 at t ~ 4.7e5 and 1.8e-9 at 1e6 - 0.3,
    against bounds of 1.4e-12, 1.1e-7, 1.4e-6 and 4.6e-6.
    This is every zeta value of the package except Z(t) at t >= T_RS, which
    ``hardy_z`` takes from ``riemann_siegel_z``;
    the two routes share none of their numerics, so each checks the other.
    """
    _real_in("target", target, 0, ends="()")
    min_m = _int_in("min_m", min_m, -math.inf)
    if min_m > _M_MAX:
        raise WindowExceeded(f"min_m = {min_m} is above the largest cutoff {_M_MAX}")
    return _em_sum(s, target, min_m, (0,))[0]


def zeta_deriv_em(s: complex) -> complex:
    """zeta'(s) by term-by-term differentiation of the Euler-Maclaurin formula.

    The cutoff and the number of correction terms meet both the zeta
    remainder bound and the first-omitted-term test for zeta' at the target
    1e-10 (``_em_tail``).  Rounding adds at most about the bound of
    ``zeta_em`` with each term times log n: on the line, 6.1e-12 at t = 50
    and 1.5e-8 at t = 1e6 - 0.3, against bounds of 1.0e-10 and 5.0e-5.
    """
    return _em_sum(s, 1e-10, 0, (1,))[0]


@lru_cache(maxsize=1)
def zeta_logderiv(s: complex) -> complex:
    """zeta'(s)/zeta(s), guarded away from zeros and the pole.

    zeta and zeta' come from one ``_em_sum`` pass at the target 1e-12: zeta
    equals ``zeta_em(s)`` bit for bit, and zeta' is held to that target too,
    tighter than ``zeta_deriv_em``'s 1e-10.  The last result is kept (one slot), so
    the Guinand-Weil checks that take zeta'/zeta at the same s pay for one
    pass; a refusal (``NearZeroOfZeta`` when |zeta| <= ZERO_GUARD) is not
    kept and is raised again on every call.
    """
    z, dz = _em_sum(s, 1e-12, 0, (0, 1))
    if abs(z) <= ZERO_GUARD:
        raise NearZeroOfZeta(f"|zeta({s})| = {abs(z):.2e}")
    return dz / z


# ---------------------------------------------------------------------------
# theta and the Riemann-Siegel tier
# ---------------------------------------------------------------------------

def _theta_tail(t):
    """theta(t) minus its main term t/2 log(t/2pi) - t/2 - pi/8: the first
    four terms of the asymptotic series, for a float or an ndarray."""
    return (1 / (48 * t) + 7 / (5760 * t ** 3) + 31 / (80640 * t ** 5)
            + 127 / (430080 * t ** 7))


def theta(t):
    """The Riemann-Siegel theta function for a float or 1-D array t >= 10 (``_points``).

    theta(t) = t/2 log(t/2pi) - t/2 - pi/8 + 1/(48t) + 7/(5760t^3)
    + 31/(80640t^5) + 127/(430080t^7).  The series' terms are all positive,
    and the truncation error is within 5 % above the first omitted term,
    511/(1216512 t^9), for t >= 10: against mpmath.siegeltheta it is 4.4e-13
    at t = 10, 8.3e-16 at t = 20 and 4.2e-22 at t = 100.  Float rounding of
    the main term adds a few 1e-16 t log t (3.6e-12 at t = 1e4);
    ``riemann_siegel_z`` forms that term in double-double instead
    (``_theta_phase``).
    """
    return _shaped(t, _theta(_points(t, 10)))


def _theta(t):
    """``theta``'s formula, unchecked, for a float or an ndarray of t >= 10."""
    return t / 2 * np.log(t / (2 * np.pi)) - t / 2 - np.pi / 8 + _theta_tail(t)


#: Gabcke's bound for the remainder after C0..C7: |R_7| <= d_7 (t/2pi)^(-17/4)
#: for t >= 200, with d_7 = 9.2 (Gabcke 1979, Satz 4.2.3)
_GABCKE_D7 = 9.2
#: the least t at which that bound meets the oracle's 1e-12 target (about 7.06e3)
T_RS = 2 * math.pi * (_GABCKE_D7 / 1e-12) ** (4 / 17)

# Taylor coefficients of Psi(p) = cos(2pi(p^2 - p - 1/16)) / cos(2pi p) about
# p = 1/2, at (p - 1/2)^0, ^2, ..., ^100.  Psi is entire and even there; on
# |p - 1/2| <= 1/2 the omitted terms of Psi^(21), the highest derivative the
# corrections use, are below 1e-35 of its largest value.  Regenerated from
# mpmath.taylor by tests/test_zeta_oracle.py.
_PSI_TAYLOR = (
    0.3826834323650898, 1.7489618723100817, 2.118025207685496, -0.8707216670511481,
    -3.4733112243465167, -1.6626947308999325, 1.216731288919232, 1.3014304161007977,
    0.03051102182736167, -0.3755803051545095, -0.1085784416564066, 0.051832902999549624,
    0.029999480619902277, -0.0022759396706125644, -0.004382647416580339,
    -0.0004064230183729847, 0.0004006097785422114, 8.971057991388841e-05,
    -2.3025650027239108e-05, -9.380006601906792e-06, 6.323514947609108e-07,
    6.551022819231502e-07, 2.210523745552697e-08, -3.322316176445629e-08,
    -3.734910989933656e-09, 1.2445067060797738e-09, 2.476820537650219e-10,
    -3.284272816891627e-11, -1.1305406852298404e-11, 4.565463979588694e-13,
    3.9598480945249214e-13, 7.849566221259617e-15, -1.1059043150991233e-14,
    -7.738543987641508e-16, 2.4857755550271373e-16, 3.0514797188827216e-17,
    -4.414297887793303e-18, -8.631388878188415e-19, 5.701292196842975e-20,
    1.952964016419934e-20, -3.3707667135349604e-22, -3.679459871576221e-22,
    -7.311865182444788e-24, 5.869094638676539e-24, 3.1307592113656923e-25,
    -7.947839566038058e-26, -7.08420948092837e-27, 9.022840660124028e-28,
    1.224410947927372e-28, -8.218858109260207e-30, -1.761392489687558e-30,
)

# The corrections C_k(p) as sums of coef * Psi^(m)(p): (coef, m) pairs,
# k = 0..7.  C0..C4 are Gabcke's; C5..C7 come from Arias de Reyna's
# recurrence (Math. Comp. 80, 2011), rebuilt exactly by tests/test_zeta_oracle.py.
_PI2 = math.pi ** 2
_C_TERMS = (
    ((1.0, 0),),
    ((-1 / (96 * _PI2), 3),),
    ((1 / (64 * _PI2), 2), (1 / (18432 * _PI2 ** 2), 6)),
    ((-1 / (64 * _PI2), 1), (-1 / (3840 * _PI2 ** 2), 5), (-1 / (5308416 * _PI2 ** 3), 9)),
    ((1 / (128 * _PI2), 0), (19 / (24576 * _PI2 ** 2), 4), (11 / (5898240 * _PI2 ** 3), 8),
     (1 / (2038431744 * _PI2 ** 4), 12)),
    ((-2879 / (1769472 * _PI2 ** 2), 3), (-901 / (82575360 * _PI2 ** 3), 7),
     (-7 / (849346560 * _PI2 ** 4), 11), (-1 / (978447237120 * _PI2 ** 5), 15)),
    ((2879 / (1179648 * _PI2 ** 2), 2), (79267 / (1698693120 * _PI2 ** 3), 6),
     (18889 / (237817036800 * _PI2 ** 4), 10), (17 / (652298158080 * _PI2 ** 5), 14),
     (1 / (563585608581120 * _PI2 ** 6), 18)),
    ((-2879 / (1179648 * _PI2 ** 2), 1), (-2747 / (17694720 * _PI2 ** 3), 5),
     (-1914877 / (3424565329920 * _PI2 ** 4), 9), (-2131 / (5707608883200 * _PI2 ** 5), 13),
     (-1 / (15655155793920 * _PI2 ** 6), 17), (-1 / (378729528966512640 * _PI2 ** 7), 21)),
)


@lru_cache(maxsize=None)
def _correction_polys() -> np.ndarray:
    """C_0..C_7 as polynomials in p - 1/2, one column each, all derived from
    the one Taylor table.  Built on first use, not at import."""
    psi = np.zeros(2 * len(_PSI_TAYLOR) - 1)
    psi[::2] = _PSI_TAYLOR
    polys = np.zeros((len(psi), len(_C_TERMS)))
    for k, terms in enumerate(_C_TERMS):
        for coef, m in terms:
            d = np.polynomial.polynomial.polyder(psi, m)
            polys[:len(d), k] += coef * d
    return polys


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


# Double-double constants, each hi + lo (+ lo2) to 50 digits; rebuilt from
# mpmath by tests/test_zeta_oracle.py
_TWO_PI_HI = 6.283185307179586
_TWO_PI_LO = 2.4492935982947064e-16
_TWO_PI_LO2 = -5.989539619436679e-33
_PI = (_TWO_PI_HI / 2, _TWO_PI_LO / 2)  # halving is exact
_INV_TWO_PI = (0.15915494309189535, -9.839338337591243e-18)
_PI_8 = (0.39269908169872414, 1.5308084989341915e-17)
_LOG2 = (0.6931471805599453, 2.3190468138462996e-17, 5.707708438416212e-34)
# 1/d and its correctly rounded remainder ((1 - p) - e)/d, p + e = (1/d) d, odd d < 45
_ATANH = tuple((1 / d, ((1 - p) - e) / d)
               for d in range(1, 45, 2) for p, e in [_two_product(1 / d, d)])


def _atanh(z, z_lo, terms: int):
    """atanh(z + z_lo) as a double-double, floats or ndarrays: the first ``terms``
    terms of z sum_j z^2j/(2j+1), Horner in z^2; the first omitted is z^(2 terms+1)/(2 terms+1)."""
    w, w_lo = _two_product(z, z)
    w_lo += 2 * z * z_lo
    s, s_lo = _ATANH[terms - 1]
    for c, c_lo in _ATANH[terms - 2::-1]:  # s = c + z^2 s, with |z^2 s| < c
        m, m_lo = _two_product(w, s)
        m_lo += w * s_lo + w_lo * s
        s = c + m
        s_lo = ((c - s) + m) + m_lo + c_lo
    m, m_lo = _two_product(z, s)
    return m, m_lo + (z * s_lo + z_lo * s)


# (hi, lo) of log n for n = 1..len, swapped in whole; 399 entries cover the window
_log_cache = [(np.zeros(1), np.zeros(1))]


def _log_pairs(N: int):
    """log n = hi + lo for n = 1..N, float arrays built on first use and
    extended, one array pass, as larger N are asked for.  With n = 2^k m and
    m in [1/sqrt 2, sqrt 2], log n = k log 2 + 2 atanh((m - 1)/(m + 1)), the
    quotient at most 0.172: 22 terms of ``_atanh`` leave under 1e-35.  hi + lo
    is within 2e-32 max(1, log n) of log n (1.7e-32 max(1, log n) measured
    against mpmath to n = 4e5), so hi is log n correctly rounded but near
    ties.  Cold, N = 4000 takes about 2 ms, N = 4e5 about 0.4 s (2-core x86).
    """
    hi, lo = _log_cache[0]
    if len(hi) < N:
        n = np.arange(len(hi) + 1, N + 1, dtype=float)
        k = np.round(np.log2(n))
        m = n / 2 ** k  # exact, and m - 1, m + 1 too
        z = (m - 1) / (m + 1)
        P, P_lo = _two_product(z, m + 1)
        a, a_lo = _atanh(z, ((m - 1 - P) - P_lo) / (m + 1), len(_ATANH))
        K, K_lo = _two_product(k, _LOG2[0])
        s = K + 2 * a  # |K| >= log 2 > |2a| for n >= 2, so the error is exact
        s_lo = ((K - s) + 2 * a) + (K_lo + (k * _LOG2[1] + (2 * a_lo + k * _LOG2[2])))
        new_hi = s + s_lo
        hi, lo = np.concatenate([hi, new_hi]), np.concatenate([lo, s_lo - (new_hi - s)])
        _log_cache[0] = (hi, lo)
    return hi[:N], lo[:N]


def _less_two_pi(terms: list, k: int):
    """sum(terms) - 2pi k as a double-double (hi, lo), for float terms and an
    integer k: k times each part of 2pi as exact products, all summed
    correctly rounded by ``math.fsum``."""
    K, K_lo = _two_product(k, _TWO_PI_HI)
    M, M_lo = _two_product(k, _TWO_PI_LO)
    terms = terms + [-K, -K_lo, -M, -M_lo, -k * _TWO_PI_LO2]
    hi = math.fsum(terms)
    return hi, math.fsum(terms + [-hi])


def _theta_phase(t: float):
    """(N, p, a, theta_hi, theta_lo) at a float t >= 200: a = sqrt(t/2pi) =
    N + p, and theta reduced mod 2pi into [-pi, pi] as a double-double, in
    floats throughout.

    N = floor(a) is fixed by the sign of t - 2pi N^2 = 2pi p (2N + p), which
    ``_less_two_pi`` forms to about 1e-43, and p is the root of that
    quadratic, one Newton step from the float root: p keeps about 1e-32 of
    its own size however close a is to N.  log a = log N + 2 atanh(z),
    z = p/(2N + p) <= 1/(2N + 1), with log N from ``_log_pairs`` and nine
    terms of ``_atanh``; the first omitted one, 2 z^19/19, is below 1e-32 of
    log a from T_RS on (N >= 33).  t log a - t/2 - pi/8 less k 2pi is a sum
    of exact products and error terms, summed by ``_less_two_pi`` into
    theta_hi and its remainder, to which ``_theta_tail`` is added.  From T_RS
    on it is within 2e-31 t of the exact one (1.7e-31 t measured): t times
    log N's error (``_log_pairs``: 1.2e-31 at N <= 398) and the rounding of t
    times log a's low part (5e-32 t).  So N, p, a and theta_hi are correctly
    rounded but for ties, and theta_lo is within an ulp of its own.
    """
    # the float root is within 3e-16 of a relative, so this is floor(a) or one above
    N = math.floor(math.sqrt(t * _INV_TWO_PI[0]) * (1 + 1e-15))
    e, e_lo = _less_two_pi([t], N * N)
    if e < 0:
        N -= 1
        e, e_lo = _less_two_pi([t], N * N)
    d, d_lo = _two_product(e, _INV_TWO_PI[0])  # p (2N + p) = d + d_lo
    d_lo += e * _INV_TWO_PI[1] + e_lo * _INV_TWO_PI[0]
    p = d / (N + math.sqrt(N * N + d))  # the float root, then one Newton step
    sq, sq_lo = _two_product(p, p)
    m, m_lo = _two_product(2 * N, p)
    p_lo = -math.fsum([sq, sq_lo, m, m_lo, -d, -d_lo]) / (2 * (N + p))
    p, p_lo = p + p_lo, p_lo - ((p + p_lo) - p)
    v = 2 * N + p
    v_lo = (p - (v - 2 * N)) + p_lo  # 2N + p = v + v_lo
    z = p / v
    m, m_lo = _two_product(z, v)
    z_lo = ((p - m) - m_lo + p_lo - z * v_lo) / v
    m, m_lo = _atanh(z, z_lo, 9)
    log_n, log_n_lo = (float(col[N - 1]) for col in _log_pairs(N))
    log_a = log_n + 2 * m
    log_a_lo = ((log_n - log_a) + 2 * m) + 2 * m_lo + log_n_lo
    P, P_lo = _two_product(t, log_a)
    terms = [P, -t / 2, P_lo, t * log_a_lo, -_PI_8[0], -_PI_8[1]]
    k = round((P - t / 2) / _TWO_PI_HI)
    while True:  # k is one off when theta/2pi is within rounding of a half-integer
        th_hi, th_lo = _less_two_pi(terms, k)
        if (th_hi, th_lo) > _PI:
            k += 1
        elif (-th_hi, -th_lo) > _PI:
            k -= 1
        else:
            return N, p, math.fsum([N, p, p_lo]), th_hi, th_lo + _theta_tail(t)


#: points per pass of ``riemann_siegel_z``, so that its flat arrays stay small
_RS_SLICE = 256


def riemann_siegel_z(t):
    """Z(t), with |Z(t)| = |zeta(1/2+it)|, by the Riemann-Siegel formula.

        Z(t) = 2 sum_{n<=N} n^-1/2 cos(theta(t) - t log n)
               + (-1)^(N-1) a^-1/2 sum_{k<=7} C_k(p) a^-k + R_7,

    with a = sqrt(t/2pi), N = floor(a), p = a - N, C_k the corrections
    (``_C_TERMS``) and Gabcke's |R_7| <= 9.2 a^-17/2 for t >= 200 (below
    1e-12 from T_RS on).
    Each phase is kept in double-double: theta, reduced mod 2pi, and a come
    from ``_theta_phase``, t log n is an exact two-product plus t times
    log n's low part, and the reduction by k 2pi cancels the two large parts
    exactly before anything small is added.
    Measured against mpmath.siegelz: at most 8.9e-16 at 65 points of
    [T_RS, 1e6]; 4.4e-16 at t = 1e4, 2.6e-14 at t = 1e3 and 1.6e-12 at
    t = 200, where the truncation dominates.

    ``t`` is a float, which gives a float, or a 1-D array, which gives an
    array whose entries equal the float calls bit for bit; a t that is not
    real (``_points``), or below 200, is a ``DomainError``.  Every t is
    checked before any is evaluated.  Then each slice of ``_RS_SLICE``
    points is one pass: ``_theta_phase`` per point; the phases and the terms
    of every point's main sum over a flat array of sum N entries, each
    point's sum correctly rounded over its own part; and the corrections of
    every point at once, from one cumulative product of powers and two
    contractions.  A float call is a batch of one, about 0.08 ms at 1e5 and
    0.10 ms at 1e6 on a 2-core x86 machine; in a batch of 200 a point at 1e5
    costs about 0.03 ms, of which ``_theta_phase`` is 0.011 ms and the
    corrections 0.0014 ms.
    """
    ts = _points(t, 200)  # where Gabcke's remainder bound holds
    if len(ts):  # _points refused NaN and infinities: only the top can leave the window
        _check_window(complex(0.5, float(ts.max())))
    if len(ts) > _RS_SLICE:
        return np.concatenate([riemann_siegel_z(ts[i:i + _RS_SLICE])
                               for i in range(0, len(ts), _RS_SLICE)])
    ts = ts.tolist()
    Ns, ps, As, th_hi, th_lo = zip(*map(_theta_phase, ts)) if ts else ((),) * 5
    Ns = np.array(Ns, dtype=int)
    ends = np.cumsum(Ns)
    point = np.repeat(np.arange(len(ts)), Ns)  # the point each term belongs to
    n0 = np.arange(len(point)) - (ends - Ns)[point]  # n - 1 within its point
    log_hi, log_lo = (v[n0] for v in _log_pairs(max(Ns, default=0)))
    t_of = np.array(ts)[point]
    big, big_err = _two_product(t_of, log_hi)  # t log n = big + big_err + t lo
    th_hi_of = np.array(th_hi)[point]
    k = np.round((th_hi_of - big) / _TWO_PI_HI)
    red, red_err = _two_product(k, _TWO_PI_HI)
    phase = (((-big - red) + th_hi_of)
             + (np.array(th_lo)[point] - big_err - red_err - k * _TWO_PI_LO - t_of * log_lo))
    terms = np.cos(phase) / np.sqrt(n0 + 1.0)

    main = [2 * exact_sum(terms[end - N:end]) for N, end in zip(Ns.tolist(), ends.tolist())]
    return _shaped(t, np.array(main) + _rs_corrections(Ns, np.array(ps), np.array(As)))


def _rs_corrections(N: np.ndarray, p: np.ndarray, a: np.ndarray) -> np.ndarray:
    """(-1)^(N-1) a^-1/2 sum_{k<=7} C_k(p) a^-k at every point of 1-D arrays.

    Each point's powers (p - 1/2)^j, |p - 1/2| <= 1/2, and a^-j come from one
    cumulative product, and C_k(p) and the sum over k from two einsums, not
    a BLAS matmul, so that no batch size changes the order of a point's sums.
    """
    polys = _correction_polys()
    pw = np.empty((len(a), 2, len(polys)))
    pw[:, 0, 0] = 1.0
    pw[:, 1, 0] = (-1.0) ** (N - 1)  # the sign, carried into every a^-k
    pw[:, 0, 1:] = (p - 0.5)[:, None]
    pw[:, 1, 1:] = (1 / a)[:, None]
    np.cumprod(pw, axis=2, out=pw)
    c = np.einsum("ij,jk->ik", pw[:, 0], polys)  # C_k(p), one row per point
    return np.einsum("ik,ik->i", c, pw[:, 1, :polys.shape[1]]) / np.sqrt(a)


def hardy_z(t):
    """Z(t) = e^{i theta(t)} zeta(1/2+it), real and signed, for t >= 10, and
    the only code that picks a route on the critical line:
    ``riemann_siegel_z`` at t >= T_RS, and below it the real part of
    e^{i theta(t)} times ``zeta_em`` (the imaginary part is rounding).
    Measured against mpmath.siegelz: at most 5.0e-14 on [100, 101], 4.6e-12
    at t = 5000.5 (``zeta_em``'s own error there, 4.8e-12, from the rounding
    of its head's phases: with mpmath's theta Z is off by the same 4.6e-12)
    and 8.9e-16 above T_RS.

    ``t`` is a float, which gives a float, or a 1-D array, which gives an
    array equal to the float calls bit for bit: its points at or above T_RS
    go to ``riemann_siegel_z`` as one batch (about 0.018 ms a point at 7e3),
    and the others to ``zeta_em`` one by one (0.06 ms at 1e3 to 0.12 ms a
    point just below T_RS).  A batch is refused whole, before any point is
    evaluated, if any t is below 10, not finite or above the window, or if t
    is not real or has more than one dimension (``_points``).
    """
    ts = _points(t, 10).tolist()  # lists, not masks: a float call stays cheap
    high = [ti for ti in ts if ti >= T_RS]  # RS first: its window check precedes any EM sum
    rs = iter(riemann_siegel_z(np.array(high)).tolist() if high else ())
    z = [next(rs) if ti >= T_RS else (cmath.exp(1j * _theta(ti)) * zeta_em(complex(0.5, ti))).real
         for ti in ts]
    return _shaped(t, z)


def log_abs_zeta_crit(t):
    """log|zeta(1/2+it)| = log|``hardy_z``(t)| for t >= 10; refuses
    |zeta| <= ZERO_GUARD (1e-8) with ``NearZeroOfZeta``.

    The distance to a tabulated ordinate is the caller's rule
    (``bound_engine``), not the oracle's.  ``t`` is a float or a 1-D array,
    one ``hardy_z`` batch, and gives the same: an array equal to the float
    calls bit for bit, and ``hardy_z``'s refusals.  A batch is refused
    whole, for the first t that a loop over it would refuse at a zero.
    """
    ts = _points(t)
    a = np.abs(hardy_z(ts))
    for ti, ai in zip(ts.tolist(), a.tolist()):
        if ai <= ZERO_GUARD:
            raise NearZeroOfZeta(f"|zeta(1/2+{ti}i)| = {ai:.2e}")
    return _shaped(t, [math.log(ai) for ai in a.tolist()])


# ---------------------------------------------------------------------------
# digamma
# ---------------------------------------------------------------------------

def digamma(z):
    """psi(z) for real or complex scalars and ndarrays, by ``scipy.special.psi``.

    Real input stays real on scipy's real psi, complex input takes its complex
    psi, a scalar gives a scalar, and input that is not numeric is a ``DomainError``.
    Poles at the non-positive integers raise instead of returning inf or nan.
    """
    if np.asarray(z).dtype.kind not in "biufc":
        raise DomainError("z must be a real or complex number or an array of them")
    arr = np.asarray(z) if np.iscomplexobj(z) else np.asarray(z, dtype=float)
    nonpositive = arr[arr.real <= 0]
    if np.any(nonpositive == np.round(nonpositive.real)):
        raise PoleAtNonpositiveInteger("digamma pole at a non-positive integer")
    out = special.psi(arr)
    return out.item() if out.ndim == 0 else out


def re_digamma_quarter(y):
    """Re psi(1/4 + i y/2), even in y, for a real float or a 1-D array y (``_points``)."""
    return _shaped(y, digamma(0.25 + 0.5j * _points(y, name="y")).real)


# ---------------------------------------------------------------------------
# numeric bindings for the symbolic ring
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None, typed=True)  # typed: 3.0 must not find the value of np.int64(3)
def zeta_real(m: int) -> float:
    """zeta(m) for integer m >= 2, accurate to ~1e-16 relative.

    The large base cutoff keeps the Euler-Maclaurin correction terms tiny, so
    rounding stays at machine level (bindings must be good to 1e-15).
    """
    m = _int_in("m", m, 2)
    if m > 60:
        return 1.0 + 2.0 ** -m + 3.0 ** -m
    return zeta_em(complex(m, 0), target=1e-14, min_m=256).real


@lru_cache(maxsize=None, typed=True)
def constant_env(max_odd: int = 7):
    """Bindings {L, Z3, Z5, ...} for coeff_eval, all sourced from this module."""
    env = {"L": math.log(2)}
    for k in range(3, _int_in("max_odd", max_odd, -math.inf) + 1, 2):
        env[f"Z{k}"] = zeta_real(k)
    return env
