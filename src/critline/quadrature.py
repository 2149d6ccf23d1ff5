"""Vectorized panel quadrature with explicit, checkable tail bounds.

Adaptive library quadrature struggles on long oscillatory ranges (a bounded
envelope times cos(omega x) over thousands of periods), so the heavy
integrals here use fixed-order Gauss-Legendre panels sized against the
oscillation frequency, evaluated in single vectorized calls.  Tails of
Poisson-kernel type integrands are handled analytically: exactly (arctan)
for the non-oscillatory part, by two integrations by parts with a bounded
remainder for the oscillatory part.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import DomainError


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

    omega == 0 is exact (arctan).  For omega > 0, two integrations by parts
    give the two boundary terms plus a remainder below 2|coef| beta/(omega^2 T^3)
    (valid for T >= 10 beta).
    """
    if omega == 0.0:
        # integral of beta/(beta^2+x^2) is atan(x/beta): no residual beta factor
        return coef * (math.pi / 2 - math.atan(T / beta)), 0.0
    if T < 10 * beta:
        raise DomainError("tail start too close to the kernel scale")
    g = coef * beta / (beta * beta + T * T)
    gp = -2 * coef * beta * T / (beta * beta + T * T) ** 2
    value = -g * math.sin(omega * T) / omega - gp * math.cos(omega * T) / omega ** 2
    bound = 2.02 * abs(coef) * beta / (omega ** 2 * T ** 3)
    return value, bound
