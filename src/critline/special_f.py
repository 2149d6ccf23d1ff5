"""The weight function

    F(u) = integral_0^inf sinh(2uy)/cosh^2(y) dy
         = pi u / sin(pi u) - u (psi((u+1)/2) - psi(u/2)) + 1
         = 2 log 2 * u + 2 sum_{k>=1} (1 - 4^-k) zeta(2k+1) u^{2k+1},

analytic on |u| < 1 with poles at +-1, evaluated by three genuinely
independent routes (adaptive quadrature, digamma closed form, power series)
that are cross-checked against each other, plus its derivative F'.
"""

from __future__ import annotations

import enum
import math
from math import fsum

import numpy as np
from scipy import integrate

from .errors import CrossCheckFailed, DomainError, _int_in, _points, _real_in, _shaped
from .zeta_oracle import digamma, zeta_real

U_MAX = 0.99
TWO_LOG2 = 2 * math.log(2)


class FMethod(enum.Enum):
    QUADRATURE = "quadrature"
    CLOSED_FORM = "closed-form"
    SERIES = "series"


def f_quadrature(u: float) -> float:
    """Adaptive Gauss-Kronrod integration of sinh(2uy)/cosh^2(y) on [0, Y].

    Y = max(30, 18/(1-u)) makes the analytic tail
    integral_Y^inf <= 4 e^{-2(1-u)Y} / (2(1-u)) smaller than 1e-12 on the
    whole domain (the exponent is >= 36 for u near 1, >= 60 for small u).
    """
    u = _real_in("u", u, 0, U_MAX)
    if u == 0.0:
        return 0.0
    Y = max(30.0, 18.0 / (1.0 - u))
    tail = 4 * math.exp(-2 * (1 - u) * Y) / (2 * (1 - u))
    if tail > 1e-12:
        raise CrossCheckFailed(f"F quadrature tail bound {tail:.1e} above 1e-12 at u={u}")

    def integrand(y):
        # sinh(2uy)/cosh^2(y), rewritten so nothing overflows for large y
        return (2 * math.exp(-2 * (1 - u) * y) * (1 - math.exp(-4 * u * y))
                / (1 + math.exp(-2 * y)) ** 2)

    val, err = integrate.quad(integrand, 0.0, Y, epsabs=1e-13, epsrel=1e-13, limit=400)
    return val


def f_closed_form(u):
    """pi u / sin(pi u) - u (psi((u+1)/2) - psi(u/2)) + 1; vectorized.

    u = 0 is a removable point and returns exactly 0.  ``u`` is a real float
    or a 1-D array (``_points``).
    """
    arr = _points(u, 0, U_MAX, name="u")
    out = np.zeros_like(arr)
    pos = arr > 0
    if np.any(pos):
        up = arr[pos]
        out[pos] = (np.pi * up / np.sin(np.pi * up)
                    - up * (digamma((up + 1) / 2).real - digamma(up / 2).real) + 1.0)
    return _shaped(u, out)


def f_taylor(k: int) -> float:
    """2 (1 - 4^-k) zeta(2k+1), the coefficient of u^(2k+1) in F, k >= 1."""
    return _taylor(_int_in("k", k, 1))


def _taylor(k: int) -> float:  # f_taylor unchecked, for the series loops
    return 2 * (1 - 0.25 ** k) * zeta_real(2 * k + 1)


def _series_terms(u: float, tol: float) -> int:
    # tail bound: 2 sum_{k>K} zeta(2k+1) u^{2k+1} <= 2 zeta(3) u^{2K+3} / (1-u^2)
    if u == 0.0:
        return 0
    z3 = zeta_real(3)
    k = 1
    while 2 * z3 * u ** (2 * k + 3) / (1 - u * u) > tol:
        k += 1
    return k


def f_series(u: float, terms: int | None = None) -> float:
    """Power series with the term count chosen from the geometric tail bound
    (<= 1e-12) unless ``terms`` is forced."""
    u = _real_in("u", u, 0, U_MAX)
    if u == 0.0:
        return 0.0
    K = _series_terms(u, 1e-12) if terms is None else terms
    vals = [TWO_LOG2 * u]
    u2 = u * u
    upow = u
    for k in range(1, K + 1):
        upow *= u2
        vals.append(_taylor(k) * upow)
    return fsum(vals)


def f_eval(u: float, method: FMethod = FMethod.CLOSED_FORM) -> float:
    """F(u) on [0, 0.99] by the requested route, an ``FMethod`` or its value
    (anything else is a ``DomainError``); |error| <= 1e-10."""
    try:
        method = FMethod(method)
    except ValueError:
        raise DomainError(f"unknown F method {method!r}, expected one of "
                          f"{', '.join(m.value for m in FMethod)}") from None
    if method is FMethod.QUADRATURE:
        return f_quadrature(u)
    if method is FMethod.SERIES:
        return f_series(u)
    return f_closed_form(u)


def f_prime(u: float) -> float:
    """F'(u) = 2 log 2 + 2 sum (1-4^-k)(2k+1) zeta(2k+1) u^{2k} on [0, 1/2].

    All series coefficients are positive, so F' >= 2 log 2.  The tail after K
    terms is below 2 zeta(3) x^{K+1} ((2K+3) + 2x/(1-x))/(1-x) with x = u^2,
    kept under 1e-13.
    """
    u = _real_in("u", u, 0, 0.5)
    if u == 0.0:
        return TWO_LOG2
    x = u * u
    z3 = zeta_real(3)
    K = 1
    while 2 * z3 * x ** (K + 1) * ((2 * K + 3) + 2 * x / (1 - x)) / (1 - x) > 1e-13:
        K += 1
    vals = [TWO_LOG2]
    xpow = 1.0
    for k in range(1, K + 1):
        xpow *= x
        vals.append(_taylor(k) * (2 * k + 1) * xpow)
    return fsum(vals)


def f_pole_bound(u: float) -> float:
    """The elementary envelope 2u/(1-u^2) dominating F on [0, 1)."""
    u = _real_in("u", u, 0, 1, "[)")
    return 2 * u / (1 - u * u)
