"""Extremal one-sided bandlimited approximations to the Poisson kernel.

For beta, Delta > 0 the Poisson kernel h_beta(x) = beta/(beta^2+x^2) admits a
unique optimal majorant/minorant pair of exponential type 2 pi Delta:

    m^{+-}(z) = (beta/(beta^2+z^2)) *
                (e^{2 pi beta Delta} + e^{-2 pi beta Delta} - 2 cos(2 pi Delta z))
                / (e^{pi beta Delta} -+ e^{-pi beta Delta})^2

with Fourier transforms supported on [-Delta, Delta] and closed-form L^1
errors.  Only these closed forms are implemented; the removable singularity
at z = +-i beta is handled by a local series expansion of the numerator.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

SING_RADIUS = 1e-6


@dataclass(frozen=True)
class KernelParams:
    """Poisson parameter beta and type parameter Delta (type 2 pi Delta)."""
    beta: float
    delta: float

    def __post_init__(self):
        if self.beta <= 0 or self.delta <= 0:
            raise DomainError("beta and delta must be positive")

    @property
    def x(self) -> float:
        """The prime-sum cutoff e^{2 pi Delta} tied to the type."""
        return math.exp(2 * math.pi * self.delta)


def _sign_factor(sign: str) -> int:
    if sign == "+":
        return 1
    if sign == "-":
        return -1
    raise DomainError(f"sign must be '+' or '-', got {sign!r}")


def kernel_constants(sign: str, p: KernelParams) -> tuple[float, float]:
    """(A, D) of m^{sign}: the numerator constant e^{2 pi beta Delta} +
    e^{-2 pi beta Delta} and the squared denominator; rejects a bad sign,
    and beta*Delta so large that A overflows or so small that D is 0."""
    try:
        e = math.exp(math.pi * p.beta * p.delta)
        D = (e - 1 / e) ** 2 if _sign_factor(sign) > 0 else (e + 1 / e) ** 2
        A = e * e + 1 / (e * e)
    except OverflowError:
        A = D = math.inf
    if not (math.isfinite(A) and 0 < D < math.inf):
        raise DomainError(f"kernel constants of m^{sign} are not finite and nonzero "
                          f"at beta={p.beta}, delta={p.delta}: A={A}, D={D}")
    return A, D


def poisson_h(p: KernelParams, x):
    """The Poisson kernel beta/(beta^2 + x^2); vectorized."""
    x = np.asarray(x, dtype=float)
    out = p.beta / (p.beta ** 2 + x * x)
    return float(out) if out.ndim == 0 else out


def eval_m(sign: str, p: KernelParams, z):
    """m^{sign}(z) for real arrays/scalars or a complex scalar.

    Real arguments use the closed form directly (the singularities +-i beta
    are off the real axis).  Complex arguments within 1e-6 of +-i beta switch
    to the de-singularized limit branch: the numerator vanishes there, so it
    is replaced by its local expansion through second order, and the zero of
    beta^2+z^2 is cancelled explicitly.
    """
    A, D = kernel_constants(sign, p)
    beta, delta = p.beta, p.delta
    if not isinstance(z, complex):
        x = np.asarray(z, dtype=float)
        out = (beta / (beta * beta + x * x)
               * (A - 2 * np.cos(2 * math.pi * delta * x)) / D)
        return float(out) if out.ndim == 0 else out
    for pole in (1j * beta, -1j * beta):
        w = z - pole
        if abs(w) < SING_RADIUS:
            tpd = 2 * math.pi * delta
            g1 = 2 * tpd * cmath.sin(tpd * pole)
            g2 = 2 * tpd ** 2 * cmath.cos(tpd * pole)
            g3 = -2 * tpd ** 3 * cmath.sin(tpd * pole)
            # beta^2 + z^2 = (z - pole)(z + pole) for pole = +-i beta
            return beta * (g1 + g2 * w / 2 + g3 * w * w / 6) / (D * (z + pole))
    return beta / (beta * beta + z * z) * (A - 2 * cmath.cos(2 * math.pi * delta * z)) / D


def ft_m(sign: str, p: KernelParams, xi):
    """Fourier transform of m^{sign}: even, continuous, zero outside [-Delta, Delta].

    For |xi| <= Delta:  pi (e^{2 pi beta (Delta-|xi|)} - e^{-2 pi beta (Delta-|xi|)}) / D.
    """
    _, D = kernel_constants(sign, p)
    xi = np.asarray(xi, dtype=float)
    a = 2 * math.pi * p.beta * (p.delta - np.abs(xi))
    out = np.where(np.abs(xi) <= p.delta,
                   math.pi * (np.exp(a) - np.exp(-a)) / D,
                   0.0)
    return float(out) if out.ndim == 0 else out


def l1_dist(sign: str, p: KernelParams) -> float:
    """L^1 distance of m^{sign} to the kernel:
    2 pi e^{-2 pi beta Delta} / (1 -+ e^{-2 pi beta Delta})."""
    s = _sign_factor(sign)
    q = math.exp(-2 * math.pi * p.beta * p.delta)
    return 2 * math.pi * q / (1 - q if s > 0 else 1 + q)


def envelope_constant(sign: str, p: KernelParams) -> float:
    """K with |m^{sign}(x)| <= K * beta/(beta^2+x^2) on the real line
    (numerator bound A + 2 over the denominator)."""
    A, D = kernel_constants(sign, p)
    return (A + 2) / D


# ---------------------------------------------------------------------------
# quadrature cross-checks of the closed forms
# ---------------------------------------------------------------------------

def _kernel_cos_quadrature(coefs, p: KernelParams) -> tuple[float, float]:
    """2 * integral_0^inf [sum_i coefs_i cos(omega_i x)] beta/(beta^2+x^2) dx,
    split at T = max(1e3, 1e3 Delta) into vectorized panels plus analytic
    tails; returns (value, tail error bound).  Each omega must be 0 or at
    least 0.5."""
    from .quadrature import panel_integrate_chunked, poisson_cos_tail

    beta = p.beta
    omegas = [w for _, w in coefs]
    if any(0.0 < w < 0.5 for w in omegas):
        raise DomainError(f"tail handling needs omega = 0 or omega >= 0.5, got "
                          f"{min(w for w in omegas if w > 0):.3g} at delta={p.delta}")
    T = max(1e3, 1e3 * p.delta)

    def f(x):
        env = beta / (beta * beta + x * x)
        out = np.zeros_like(x)
        for c, w in coefs:
            out += c * np.cos(w * x)
        out *= env
        return out

    # panels must resolve both the oscillation and the beta-scale envelope peak
    panel = min(1.5 / (max(omegas) + 1.0), beta / 2)
    main = panel_integrate_chunked(f, 0.0, T, panel)
    tail = 0.0
    bound = 0.0
    for c, w in coefs:
        v, b = poisson_cos_tail(c, beta, w, T)
        tail += v
        bound += b
    return 2.0 * (main + tail), 2.0 * bound


def numeric_ft(sign: str, p: KernelParams, xi: float) -> float:
    """Fourier transform of m^{sign} at xi by direct quadrature (independent of
    the closed form :func:`ft_m`), accurate to ~1e-8 absolute.

    The truncated range [-T, T] is integrated on oscillation-sized panels;
    the |x| > T remainder splits over the three cosine frequencies
    {xi, Delta+xi, |Delta-xi|} and is evaluated exactly (arctan) or by two
    integrations by parts with a bounded remainder.
    """
    A, D = kernel_constants(sign, p)
    xi = abs(float(xi))
    tp = 2 * math.pi
    coefs = [(A / D, tp * xi),
             (-1.0 / D, tp * (p.delta + xi)),
             (-1.0 / D, tp * abs(p.delta - xi))]
    val, _ = _kernel_cos_quadrature(coefs, p)
    return val


def l1_numeric(sign: str, p: KernelParams) -> float:
    """integral over R of |m^{sign} - h| (= +-(m - h) by one-sidedness), by the
    same split quadrature; cross-checks :func:`l1_dist`."""
    A, D = kernel_constants(sign, p)
    coefs = [(A / D - 1.0, 0.0), (-2.0 / D, 2 * math.pi * p.delta)]
    val, _ = _kernel_cos_quadrature(coefs, p)
    return _sign_factor(sign) * val
