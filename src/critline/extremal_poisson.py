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
from functools import lru_cache

import numpy as np

from .errors import DomainError, _points, _real_in, _shaped
from .quadrature import cos_tail_start, integrate_on_edges, poisson_cos_tail

SING_RADIUS = 1e-6
#: the smallest beta taken: beta^2 stays a normal float, so h_beta and the
#: kernels' numerators keep full precision near x = 0
BETA_MIN = 1e-150


@dataclass(frozen=True)
class KernelParams:
    """Poisson parameter beta and type parameter Delta (type 2 pi Delta);
    refuses (``DomainError``) a beta below ``BETA_MIN``."""
    beta: float
    delta: float

    def __post_init__(self):
        _real_in("beta", self.beta, 0, ends="()")
        _real_in("delta", self.delta, 0, ends="()")
        if self.beta < BETA_MIN:
            raise DomainError(f"beta={self.beta} is below {BETA_MIN:g}, where beta^2 is "
                              "no longer a normal float")

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
    """The Poisson kernel beta/(beta^2 + x^2) at a real float or 1-D array x
    (``_points``)."""
    xs = _points(x, name="x")
    return _shaped(x, p.beta / (p.beta ** 2 + xs * xs))


def m_numerator(p: KernelParams, z):
    """D m^{+-}(z), the same for both signs, for a real float or 1-D array or a complex scalar.

    Real arguments use the closed form, its numerator A - 2 cos(2 pi Delta x)
    written as 4 (sinh^2(pi beta Delta) + sin^2(pi Delta x)) so that no tiny
    beta*Delta cancels it.  Complex arguments within 1e-6 of +-i beta switch
    to the limit branch: the numerator is replaced by its local expansion
    through second order, and the zero of beta^2+z^2 is cancelled explicitly.
    """
    if not isinstance(z, complex):
        return _shaped(z, _m_real(p, _points(z, name="z")))
    beta, delta = p.beta, p.delta
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


def _m_real(p: KernelParams, x: np.ndarray) -> np.ndarray:
    """``m_numerator`` unchecked, at an ndarray of finite real x (the zero sums' t -+ gamma)."""
    num = 4 * (math.sinh(math.pi * p.beta * p.delta) ** 2 + np.sin(math.pi * p.delta * x) ** 2)
    return p.beta / (p.beta * p.beta + x * x) * num


def eval_m(sign: str, p: KernelParams, z):
    """m^{sign}(z) = :func:`m_numerator` / D, for a real float or 1-D array or a complex scalar."""
    _, D = kernel_constants(sign, p)
    return m_numerator(p, z) / D


def ft_numerator(p: KernelParams, xi):
    """D mhat^{+-}(xi), the same for both signs, for a real float or 1-D array xi: even,
    continuous, zero outside [-Delta, Delta], and 2 pi sinh(2 pi beta (Delta-|xi|)) inside."""
    # clamped at 0 out of band, where sinh(0) = 0 is the transform and sinh(a) could overflow
    a = 2 * math.pi * p.beta * np.maximum(p.delta - np.abs(_points(xi, name="xi")), 0.0)
    return _shaped(xi, 2 * math.pi * np.sinh(a))


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

#: the largest coefficient sum, sum |c_i|, that the rounding refusal of
#: :func:`_cos_combination` lets through
_MAX_COEF_SUM = 1e-8 / (math.pi * 2.0 ** -52)


def _kernel_cos_quadrature(omega: float, p: KernelParams, target: float) -> tuple[float, float]:
    """I(omega) = 2 * integral_0^inf cos(omega x) beta/(beta^2+x^2) dx for one
    omega >= 0; returns (value, tail error bound), the bound at most 2 target.

    [0, T] is cut into order-12 Gauss-Legendre panels on a graded mesh, x -> x +
    min(max(beta, x)/2, P) from x = 0: beta/2 panels cover the Poisson peak and
    grow by 1.5x up to the oscillation panel P = 4/omega (0.64 of a period),
    which then runs to T (one ``integrate_on_edges`` call).  Past T the
    integral is :func:`~critline.quadrature.poisson_cos_tail`.  For omega > 0,
    T is where its remainder bound, doubled, reaches 2 target, rounded up to a
    P panel's end: about 100 (1e-12/target)^(1/8)/omega, so a call costs about
    log(P/beta) graded and 25 (1e-12/target)^(1/8) uniform panels whatever
    omega is.  omega = 0 has no oscillation panel: its graded mesh stops at
    T = 100 beta, and the arctan tail past it is exact (bound 0).

    Refuses (``DomainError``) a positive omega so small, below about 1e-305,
    that T overflows.
    """
    beta = p.beta
    if omega > 0:
        T, P = cos_tail_start(1.0, omega, target), 4.0 / omega
    else:
        T, P = 100.0 * beta, math.inf
    if not T < math.inf:
        raise DomainError(f"omega={omega} is too small for the quadrature's tail")
    edges = [0.0]
    while edges[-1] < T and max(beta, edges[-1]) / 2 < P:
        edges.append(edges[-1] + max(beta, edges[-1]) / 2)
    n_uniform = math.ceil((T - edges[-1]) / P) if edges[-1] < T else 0
    edges = np.append(edges, edges[-1] + P * np.arange(1, n_uniform + 1))
    T = float(edges[-1])

    def f(x):  # cos(0 x) = 1 exactly, so omega = 0 integrates h itself
        out = np.cos(omega * x)
        out *= beta / (beta * beta + x * x)
        return out

    tail, bound = poisson_cos_tail(1.0, beta, omega, T)
    return 2.0 * (float(integrate_on_edges(f, edges, 12)) + tail), 2.0 * bound


@lru_cache(maxsize=1)
def _cos_integrals(p: KernelParams) -> tuple[float, dict]:
    """The one-slot memo of the cross-checks: the kernel's tail target r and
    its table {omega: I(omega)}, filled as frequencies are asked for.

    r = 0.5e-12 min(1, s)/s, s = (A + 2)/D^+ (D^- when m^+'s constants are
    refused) capped at ``_MAX_COEF_SUM``, is the largest coefficient sum of
    any check on the kernel that the rounding refusal accepts, so every check
    sum c_i I(omega_i) has a tail bound sum |c_i| 2r <= 1e-12 min(1, s), and
    no I(omega) depends on which check asked for it first."""
    try:
        A, D = kernel_constants("+", p)
    except DomainError:
        A, D = kernel_constants("-", p)
    s = min((A + 2) / D, _MAX_COEF_SUM)
    return 0.5e-12 * min(1.0, s) / s, {}


def _cos_combination(p: KernelParams, coefs) -> float:
    """sum_i c_i I(omega_i) for coefs = [(c_i, omega_i)], each I(omega) from the
    kernel's table (:func:`_cos_integrals`), integrated on its first use only.

    Refuses (``DomainError``) coefficients so large that rounding alone,
    sum |c_i| pi 2^-52, exceeds the 1e-8 that the cross-checks promise (terms
    of size 1/D cancel down to the result; beta = 1e-6 at Delta = 1)."""
    rounding = sum(abs(c) for c, _ in coefs) * math.pi * 2.0 ** -52
    if rounding > 1e-8:
        raise DomainError(f"beta={p.beta}, delta={p.delta} are ill-conditioned for the "
                          f"quadrature: its rounding {rounding:.2g} exceeds 1e-8")
    target, table = _cos_integrals(p)
    total = 0.0
    for c, w in coefs:
        if w not in table:
            table[w] = _kernel_cos_quadrature(w, p, target)[0]
        total += c * table[w]
    return total


def numeric_ft(sign: str, p: KernelParams, xi: float) -> float:
    """Fourier transform of m^{sign} at xi by direct quadrature (independent of
    the closed form :func:`ft_m`), accurate to ~1e-8 absolute.

    m^{sign}(x) cos(2 pi xi x) = [A cos(2 pi xi x) - cos(2 pi (Delta+xi) x)
    - cos(2 pi (Delta-xi) x)] h_beta(x)/D, so the transform is
    (A I(2 pi xi) - I(2 pi (Delta+xi)) - I(2 pi |Delta-xi|))/D in the kernel's
    cosine-Poisson integrals I (:func:`_kernel_cos_quadrature`), each computed
    once per kernel to its kernel-wide tail target (:func:`_cos_integrals`):
    tail bound at most 1e-12, and a new frequency costs one single-frequency
    quadrature of a few dozen panels.  Refuses (``DomainError``) a non-finite xi,
    a 1/D whose rounding exceeds 1e-8, and a positive frequency below about
    1e-305.
    """
    A, D = kernel_constants(sign, p)
    xi = abs(_real_in("xi", xi))
    tp = 2 * math.pi
    return _cos_combination(p, [(A / D, tp * xi),
                                (-1.0 / D, tp * (p.delta + xi)),
                                (-1.0 / D, tp * abs(p.delta - xi))])


def l1_numeric(sign: str, p: KernelParams) -> float:
    """integral over R of |m^{sign} - h|, cross-checking :func:`l1_dist`: by
    one-sidedness |m - h| = +-[(A/D - 1) h - (2/D) cos(2 pi Delta x) h], so it
    is +-[(A/D - 1) I(0) - (2/D) I(2 pi Delta)] in the kernel's table of
    cosine-Poisson integrals, as for :func:`numeric_ft`."""
    A, D = kernel_constants(sign, p)
    return _sign_factor(sign) * _cos_combination(
        p, [(A / D - 1.0, 0.0), (-2.0 / D, 2 * math.pi * p.delta)])
