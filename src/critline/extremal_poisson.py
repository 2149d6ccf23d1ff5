"""Extremal one-sided bandlimited approximations to the Poisson kernel.

For beta, Delta > 0 the Poisson kernel h_beta(x) = beta/(beta^2+x^2) admits a
unique optimal majorant/minorant pair of exponential type 2 pi Delta:

    m^{+-}(z) = (beta/(beta^2+z^2)) *
                (e^{2 pi beta Delta} + e^{-2 pi beta Delta} - 2 cos(2 pi Delta z))
                / (e^{pi beta Delta} -+ e^{-pi beta Delta})^2

with Fourier transforms supported on [-Delta, Delta] and closed-form L^1
errors.  Only these closed forms are implemented; the removable singularity
at z = +-i beta is handled by a local series expansion of the numerator.

The two kernels share their numerator and differ only in the squared
denominator D^{+-} = (2 sinh(pi beta Delta))^2, (2 cosh(pi beta Delta))^2, so
m^- = tanh^2(pi beta Delta) m^+.  :func:`m_numerator` and :func:`ft_numerator`
are D m and D mhat, written once; :func:`eval_m` and :func:`ft_m` divide them
by the D of their sign.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .quadrature import cos_tail_start, integrate_on_edges, poisson_cos_tail

SING_RADIUS = 1e-6
#: graded panel count above which the quadrature cross-checks refuse (about
#: 1.3e7 integrand nodes): numeric_ft at xi = 0.5 needs about 50 Delta panels
MAX_COS_PANELS = 2 ** 20


@dataclass(frozen=True)
class KernelParams:
    """Poisson parameter beta and type parameter Delta (type 2 pi Delta)."""
    beta: float
    delta: float

    def __post_init__(self):
        if not (0 < self.beta < math.inf and 0 < self.delta < math.inf):
            raise DomainError("beta and delta must be positive and finite")

    @property
    def x(self) -> float:
        """The prime-sum cutoff e^{2 pi Delta} tied to the type; a Delta above
        about 112.9, where it overflows, is refused (``DomainError``)."""
        try:
            return math.exp(2 * math.pi * self.delta)
        except OverflowError:
            raise DomainError(f"delta={self.delta} overflows the prime-sum cutoff "
                              "e^(2 pi delta)") from None


def _sign_factor(sign: str) -> int:
    if sign == "+":
        return 1
    if sign == "-":
        return -1
    raise DomainError(f"sign must be '+' or '-', got {sign!r}")


def numerator_constant(p: KernelParams) -> float:
    """A = 2 cosh(2 pi beta Delta), the constant of the numerator
    A - 2 cos(2 pi Delta z) that m^+ and m^- share (overflows for a huge beta*Delta)."""
    return 2 * math.cosh(2 * math.pi * p.beta * p.delta)


def kernel_constants(sign: str, p: KernelParams) -> tuple[float, float]:
    """(A, D) of m^{sign}: the numerator constant A = 2 cosh(2 pi beta Delta)
    and the squared denominator D = (2 sinh(pi beta Delta))^2 for m^+,
    (2 cosh(pi beta Delta))^2 for m^-, each to full relative precision however
    small beta*Delta is; rejects a bad sign, and beta*Delta so large that A
    overflows or so small that D is 0."""
    a = math.pi * p.beta * p.delta
    try:
        D = (2 * (math.sinh(a) if _sign_factor(sign) > 0 else math.cosh(a))) ** 2
        A = numerator_constant(p)
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


def m_numerator(p: KernelParams, z):
    """D m^{+-}(z), the same for both signs, for real arrays/scalars or a complex scalar.

    Real arguments use the closed form, its numerator A - 2 cos(2 pi Delta x)
    written as 4 (sinh^2(pi beta Delta) + sin^2(pi Delta x)) so that no tiny
    beta*Delta cancels it.  Complex arguments within 1e-6 of +-i beta switch
    to the limit branch: the numerator is replaced by its local expansion
    through second order, and the zero of beta^2+z^2 is cancelled explicitly.
    """
    beta, delta = p.beta, p.delta
    if not isinstance(z, complex):
        x = np.asarray(z, dtype=float)
        num = 4 * (math.sinh(math.pi * beta * delta) ** 2 + np.sin(math.pi * delta * x) ** 2)
        out = beta / (beta * beta + x * x) * num
        return float(out) if out.ndim == 0 else out
    for pole in (1j * beta, -1j * beta):
        w = z - pole
        if abs(w) < SING_RADIUS:
            tpd = 2 * math.pi * delta
            g1 = 2 * tpd * cmath.sin(tpd * pole)
            g2 = 2 * tpd ** 2 * cmath.cos(tpd * pole)
            g3 = -2 * tpd ** 3 * cmath.sin(tpd * pole)
            # beta^2 + z^2 = (z - pole)(z + pole) for pole = +-i beta
            return beta * (g1 + g2 * w / 2 + g3 * w * w / 6) / (z + pole)
    A = numerator_constant(p)
    return beta / (beta * beta + z * z) * (A - 2 * cmath.cos(2 * math.pi * delta * z))


def eval_m(sign: str, p: KernelParams, z):
    """m^{sign}(z) = :func:`m_numerator` / D, for real arrays/scalars or a complex scalar."""
    _, D = kernel_constants(sign, p)
    return m_numerator(p, z) / D


def ft_numerator(p: KernelParams, xi):
    """D mhat^{+-}(xi), the same for both signs: even, continuous, zero outside
    [-Delta, Delta], and 2 pi sinh(2 pi beta (Delta-|xi|)) inside."""
    xi = np.asarray(xi, dtype=float)
    a = 2 * math.pi * p.beta * (p.delta - np.abs(xi))
    out = np.where(np.abs(xi) <= p.delta, 2 * math.pi * np.sinh(a), 0.0)
    return float(out) if out.ndim == 0 else out


def ft_m(sign: str, p: KernelParams, xi):
    """Fourier transform of m^{sign}, :func:`ft_numerator` / D."""
    _, D = kernel_constants(sign, p)
    return ft_numerator(p, xi) / D


def l1_dist(sign: str, p: KernelParams) -> float:
    """L^1 distance of m^{sign} to the kernel:
    2 pi e^{-2 pi beta Delta} / (1 -+ e^{-2 pi beta Delta}), with 1 - q taken
    by expm1, so that a tiny beta*Delta keeps full relative precision.
    Rejects what :func:`kernel_constants` rejects."""
    kernel_constants(sign, p)
    a = 2 * math.pi * p.beta * p.delta
    q = math.exp(-a)
    return 2 * math.pi * q / (-math.expm1(-a) if sign == "+" else 1 + q)


#: where the pointwise ordering is checked: 1e4 equispaced points of [-50, 50]
ORDERING_GRID = np.linspace(-50.0, 50.0, 10 ** 4)


def pointwise_ordered(p: KernelParams) -> bool:
    """m^- <= h_beta <= m^+ at every point of ``ORDERING_GRID``, within 1e-12."""
    lo, hi = eval_m("-", p, ORDERING_GRID), eval_m("+", p, ORDERING_GRID)
    h = poisson_h(p, ORDERING_GRID)
    return bool(np.all(lo <= h + 1e-12) and np.all(h <= hi + 1e-12))


# ---------------------------------------------------------------------------
# quadrature cross-checks of the closed forms
# ---------------------------------------------------------------------------

def _kernel_cos_quadrature(coefs, p: KernelParams) -> tuple[float, float]:
    """2 * integral_0^inf [sum_i c_i cos(omega_i x)] beta/(beta^2+x^2) dx for
    coefs = [(c_i, omega_i)]; returns (value, tail error bound).

    Each omega is 0 or positive, and at least one is positive.  [0, T] is cut
    into order-12 Gauss-Legendre panels on a graded mesh, x -> x + min(max(beta,
    x)/2, P) from x = 0: beta/2 panels cover the Poisson peak and grow by 1.5x
    up to the oscillation panel P = 4/omega_max (0.64 of the fastest period),
    which then runs to T (one ``integrate_on_edges`` call).  Past T each term is
    :func:`~critline.quadrature.poisson_cos_tail`.  T is where the tail's
    remainder bounds, summed and doubled, reach 1e-12 min(1, s), s the sum of
    |c_i| over omega_i > 0 (relative when the coefficients are small, as for
    the L1 distance at large beta*Delta), rounded up to a P panel's end: about
    100 max(1, s)^(1/8)/omega_min.  That bound is returned.  The cost grows
    like log(P/beta) + T/P at a fixed omega_max/omega_min.

    Refusals (``DomainError``): coefficients so large that rounding alone,
    sum |c_i| pi 2^-52, exceeds the 1e-8 that the cross-checks promise (terms
    of size 1/D cancel down to the result; beta = 1e-6 at Delta = 1), and a
    mesh above ``MAX_COS_PANELS`` panels, which bounds the cost and which a
    positive omega near 0 reaches (T grows like 1/omega_min).
    """
    beta = p.beta
    omegas = [w for _, w in coefs if w > 0.0]
    rounding = sum(abs(c) for c, _ in coefs) * math.pi * 2.0 ** -52
    if rounding > 1e-8:
        raise DomainError(f"beta={beta}, delta={p.delta} are ill-conditioned for the "
                          f"quadrature: its rounding {rounding:.2g} exceeds 1e-8")
    scale = sum(abs(c) for c, w in coefs if w > 0.0)
    T = cos_tail_start(scale, min(omegas), 0.5e-12 * min(1.0, scale))
    P = 4.0 / max(omegas)

    edges = [0.0]
    while edges[-1] < T and max(beta, edges[-1]) / 2 < P:
        edges.append(edges[-1] + max(beta, edges[-1]) / 2)
    n_uniform = max(0, math.ceil((T - edges[-1]) / P))
    if len(edges) - 1 + n_uniform > MAX_COS_PANELS:
        raise DomainError(f"beta={beta}, delta={p.delta} need {len(edges) - 1 + n_uniform} "
                          f"quadrature panels, above the cap of {MAX_COS_PANELS}")
    edges = np.append(edges, edges[-1] + P * np.arange(1, n_uniform + 1))
    T = float(edges[-1])

    def f(x):
        env = beta / (beta * beta + x * x)
        out = np.zeros_like(x)
        for c, w in coefs:
            out += c * np.cos(w * x)
        out *= env
        return out

    main = float(integrate_on_edges(f, edges, 12))
    tails = [poisson_cos_tail(c, beta, w, T) for c, w in coefs]
    return 2.0 * (main + sum(v for v, _ in tails)), 2.0 * sum(b for _, b in tails)


def numeric_ft(sign: str, p: KernelParams, xi: float) -> float:
    """Fourier transform of m^{sign} at xi by direct quadrature (independent of
    the closed form :func:`ft_m`), accurate to ~1e-8 absolute.

    m^{sign}(x) cos(2 pi xi x) splits into the cosine frequencies {xi, Delta+xi,
    |Delta-xi|} times the Poisson kernel, for :func:`_kernel_cos_quadrature`
    (tail bound at most 1e-12).  Its refusals (``DomainError``) are a 1/D whose
    rounding exceeds 1e-8 and a mesh above ``MAX_COS_PANELS``: large Delta at
    small xi (about 50 Delta panels at xi = 0.5), or xi or |Delta-xi| near 0.
    """
    A, D = kernel_constants(sign, p)
    xi = abs(float(xi))
    tp = 2 * math.pi
    coefs = [(A / D, tp * xi),
             (-1.0 / D, tp * (p.delta + xi)),
             (-1.0 / D, tp * abs(p.delta - xi))]
    return _kernel_cos_quadrature(coefs, p)[0]


def l1_numeric(sign: str, p: KernelParams) -> float:
    """integral over R of |m^{sign} - h| (= +-(m - h) by one-sidedness), by the
    same graded quadrature and tail; cross-checks :func:`l1_dist`."""
    A, D = kernel_constants(sign, p)
    coefs = [(A / D - 1.0, 0.0), (-2.0 / D, 2 * math.pi * p.delta)]
    return _sign_factor(sign) * _kernel_cos_quadrature(coefs, p)[0]
