"""Vectorized panel quadrature with explicit, checkable tail bounds.

Adaptive library quadrature struggles on long oscillatory ranges (a bounded
envelope times cos(omega x) over thousands of periods), so the heavy
integrals here use fixed-order Gauss-Legendre panels sized against the
oscillation frequency, evaluated in single vectorized calls.  Tails of
Poisson-kernel type integrands are handled analytically: exactly (arctan)
for the non-oscillatory part, by ``TAIL_PARTS`` integrations by parts with a
bounded remainder for the oscillatory part.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache

import numpy as np

from .errors import DomainError

#: integrations by parts in :func:`poisson_cos_tail`
TAIL_PARTS = 8


@lru_cache(maxsize=None)
def _gl_rule(order: int):
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


def panel_integrate(f, a: float, b: float, n_panels: int, order: int = 12) -> float:
    """Integral of f over [a, b] with n_panels uniform Gauss-Legendre panels.

    ``f`` must accept an ndarray.  One vectorized evaluation over all nodes.
    """
    if b <= a:
        return 0.0
    x, w = _gl_rule(order)
    h = (b - a) / n_panels
    mid = a + h * (np.arange(n_panels) + 0.5)
    nodes = (mid[:, None] + (h / 2) * x[None, :]).ravel()
    vals = np.asarray(f(nodes), dtype=float).reshape(n_panels, order)
    return float(h / 2 * np.dot(vals, w).sum())


def panel_integrate_chunked(f, a: float, b: float, panel_len: float) -> float:
    """Like :func:`panel_integrate` at order 12 with a target panel length,
    chunked to at most 4e6 nodes per call to bound peak memory."""
    if b <= a:
        return 0.0
    n_panels = max(1, int(math.ceil((b - a) / panel_len)))
    per_chunk = 4_000_000 // 12
    total = 0.0
    h = (b - a) / n_panels
    for start in range(0, n_panels, per_chunk):
        stop = min(start + per_chunk, n_panels)
        total += panel_integrate(f, a + start * h, a + stop * h, stop - start, 12)
    return total


def geometric_tail(f, start: float) -> float:
    """Integral of f over [start, 1e16] on geometric steps a -> 1.5a, each
    split into two order-16 Gauss-Legendre panels.

    Suited to smooth integrands decaying like log(x)/x^2; with the end at
    1e16 the omitted remainder of such integrands is below 1e-14 of the total.
    """
    total = 0.0
    a = start
    while a < 1e16:
        b = min(a * 1.5, 1e16)
        total += panel_integrate(f, a, b, 2, 16)
        a = b
    return total


def poisson_cos_tail(coef: float, beta: float, omega: float, T: float):
    """(value, error_bound) for integral_T^inf coef*beta/(beta^2+x^2) cos(omega x) dx.

    omega == 0 is exact (arctan).  For omega > 0, g(x) = coef*beta/(beta^2+x^2)
    has the derivatives g^(j)(x) = coef*Im[(-1)^j j!/(x - i beta)^{j+1}], and
    n = ``TAIL_PARTS`` integrations by parts of int_T^inf g e^{i omega x} dx give

        value = -Re[ e^{i omega T} sum_{j<n} (-1)^j g^(j)(T)/(i omega)^{j+1} ]

    with a remainder of at most omega^-n int_T^inf |g^(n)| dx, and so, from
    |g^(n)(x)| <= |coef| n!/x^{n+1}, at most |coef| (n-1)!/(omega T)^n for
    every T > 0 (see :func:`cos_tail_start` for the T that meets a target).
    """
    if omega == 0.0:
        # integral of beta/(beta^2+x^2) is atan(x/beta): no residual beta factor
        return coef * (math.pi / 2 - math.atan(T / beta)), 0.0
    if not T > 0:
        raise DomainError(f"the tail must start at T > 0, got {T}")
    r = 1 / complex(T, -beta)
    rj, fact, s = r, 1.0, 0j
    for j in range(TAIL_PARTS):
        # (-1)^j g^(j)(T) = coef*Im[j!/(T - i beta)^{j+1}]
        s += coef * (fact * rj).imag / (1j * omega) ** (j + 1)
        rj *= r
        fact *= j + 1
    value = -(cmath.exp(1j * omega * T) * s).real
    return value, abs(coef) * math.factorial(TAIL_PARTS - 1) / (omega * T) ** TAIL_PARTS


def cos_tail_start(abs_coef: float, omega: float, target: float) -> float:
    """The T at which :func:`poisson_cos_tail`'s remainder bound
    abs_coef (n-1)!/(omega T)^n equals ``target`` (omega > 0)."""
    return (abs_coef * math.factorial(TAIL_PARTS - 1) / target) ** (1 / TAIL_PARTS) / omega
