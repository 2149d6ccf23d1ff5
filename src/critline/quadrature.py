"""Vectorized panel quadrature with explicit, checkable tail bounds.

Adaptive library quadrature struggles on long oscillatory ranges (a bounded
envelope times cos(omega x) over thousands of periods), so the heavy
integrals here use fixed-order Gauss-Legendre panels sized against the
oscillation frequency, evaluated in vectorized calls of at most
``_MAX_NODES`` nodes by the one core :func:`integrate_on_edges`.  Tails of
Poisson-kernel type integrands are handled analytically: exactly (arctan) for
the non-oscillatory part, by ``TAIL_PARTS`` integrations by parts with a
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
    return np.polynomial.legendre.leggauss(order)


#: most nodes per evaluation of f in :func:`integrate_on_edges`, to bound peak memory
_MAX_NODES = 4_000_000


def integrate_on_edges(f, edges, order: int):
    """Sum of order-``order`` Gauss-Legendre over the panels [edges[i], edges[i+1]],
    evaluating f on at most ``_MAX_NODES`` nodes per call; complex edges give the
    integral along the straight path through them."""
    x, w = _gl_rule(order)
    edges = np.asarray(edges)
    half, mid = (edges[1:] - edges[:-1]) / 2, (edges[1:] + edges[:-1]) / 2
    step, total = _MAX_NODES // order, 0.0
    for i in range(0, len(half), step):
        h = half[i:i + step]
        nodes = mid[i:i + step, None] + h[:, None] * x
        total += np.dot(np.dot(np.asarray(f(nodes.ravel())).reshape(-1, order), w), h)
    return total


def panel_integrate(f, a: float, b: float, n_panels: int, order: int = 12) -> float:
    """Integral over [a, b] on n_panels uniform Gauss-Legendre panels."""
    if b <= a:
        return 0.0
    return float(integrate_on_edges(f, np.linspace(a, b, n_panels + 1), order))


def geometric_tail(f, start: float) -> float:
    """Integral of f over [start, 1e16] on geometric steps a -> 1.5a, each
    split into two order-16 Gauss-Legendre panels, all in one evaluation of f.
    Suited to smooth integrands decaying like log(x)/x^2, whose remainder past
    1e16 is then below 1e-14 of the total.  The step ends a, 1.5a, ... are one
    ``cumprod``, the same floats as repeated multiplication, cut after the
    first at or above 1e16, which is clamped to it."""
    ends = np.full(math.ceil(math.log(1e16 / start, 1.5)) + 3 if start < 1e16 else 1, 1.5)
    ends[0] = start
    np.cumprod(ends, out=ends)
    ends = ends[:int(np.argmax(ends >= 1e16)) + 1]
    ends[1:] = np.minimum(ends[1:], 1e16)
    edges = np.empty(2 * len(ends) - 1)
    edges[::2], edges[1::2] = ends, (ends[:-1] + ends[1:]) / 2
    return float(integrate_on_edges(f, edges, 16))


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
