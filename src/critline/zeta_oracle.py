"""Ground-truth numerics: zeta, its logarithmic derivative, and digamma.

Everything here is independent of the bound machinery it is used to check.
zeta is evaluated by Euler-Maclaurin summation with the standard remainder
bound verified at runtime; digamma is scipy's ``psi``, real on real input.
Supported window: 0 <= Re s (pole at s=1 excluded), |Im s| <= 1e6.
"""

from __future__ import annotations

import math
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
CRIT_GUARD_RADIUS = 1e-4  # ordinate distance guard on the critical line


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
    """
    return _em_sum(s, target, min_m, 0)


def zeta_deriv_em(s: complex, target: float = 1e-10) -> complex:
    """zeta'(s) by term-by-term differentiation of the Euler-Maclaurin formula.

    The cutoff and the number of correction terms meet both the zeta
    remainder bound and the first-omitted-term test for zeta' (``_em_tail``).
    """
    return _em_sum(s, target, 0, 1)


def zeta_logderiv(s: complex, target: float = 1e-10) -> complex:
    """zeta'(s)/zeta(s), guarded away from zeros and the pole."""
    z = zeta_em(s, target=min(target, 1e-12))
    if abs(z) <= ZERO_GUARD:
        raise NearZeroOfZeta(f"|zeta({s})| = {abs(z):.2e}")
    return zeta_deriv_em(s, target=target) / z


def log_abs_zeta_crit(t: float, zeros=None) -> float:
    """log|zeta(1/2+it)| for t >= 10; refuses points too close to a zero.

    When an ordinate table is supplied, any t within 1e-4 of a listed
    ordinate is rejected up front; the |zeta| guard applies regardless.
    """
    if t < 10:
        raise DomainError("supported for t >= 10")
    if zeros is not None:
        d = zeros.distance_to_nearest(t)
        if d < CRIT_GUARD_RADIUS:
            raise NearZeroOfZeta(f"t={t} within {d:.2e} of a tabulated ordinate")
    z = zeta_em(complex(0.5, t))
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
