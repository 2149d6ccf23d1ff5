"""Correctly rounded summation of float arrays.

:func:`exact_sum` returns ``math.fsum(a.tolist())`` bit for bit, in a few
whole-array passes instead of one Python step per element.  It splits the
array error-free (Rump, Ogita and Oishi, "Accurate floating-point summation
part I: faithful rounding", SIAM J. Sci. Comput. 31 (2008), ExtractVector):
at each level, with max|p| < 2^e and 2^L >= len(p) + 2, sigma = 2^(e+L) cuts
every p into q = (sigma + p) - sigma and r = p - q, both exact, and sum(q) is
exact in any order; additions that underflow are exact, so this holds down
into the subnormals.

Most sums end after the first level, by the rounding-to-nearest test of part
II ("Accurate floating-point summation part II: sign, K-fold faithful and
rounding to nearest", SIAM J. Sci. Comput. 31 (2008)), in this form: there
|r_i| <= ulp(sigma)/2, so rho = fl(sum r), in any order, is within
gamma_{n-1} n ulp(sigma)/2 of sum r (gamma_k = k u/(1 - k u), u = 2^-53),
and res = fl(tau + rho) with tau = sum q is the correctly rounded sum when
that bound plus the exact error of the addition is below half the gap from
res to its nearer neighbour (a quarter ulp at a power of two, where the gap
below is half an ulp).  Otherwise the levels go on, and their sums and the
last nonzero remainders, whose exact total is the array's, go to ``fsum``,
so the rounding is fsum's.  Either way the result is fsum's.
"""

from __future__ import annotations

import math
from math import fsum

import numpy as np

#: arrays, and remainders, no longer than this go to fsum.  Its one pass over
#: a list costs about 0.03 us an entry, and a level that the test ends about
#: 11 us, so the two meet near 400 entries (2-core x86); up to 512 the
#: difference is below 3 us a sum
CUTOFF = 512
_HUGE = 2.0 ** 900  # below this, sigma and the partial sums stay finite
_TINY = 2.0 ** -900  # above this, the bound of rho is a normal float


def exact_sum(a) -> float:
    """The correctly rounded sum of a 1-D float array, equal to ``math.fsum(a.tolist())``.

    An array that is all zeros, or holds inf, nan or values near overflow,
    goes to ``fsum`` whole, so signed zero, inf, nan and fsum's
    OverflowError come out as fsum gives them.
    """
    p = np.asarray(a, dtype=float)
    taus = []
    while len(p) > CUTOFF:
        top = float(np.max(np.abs(p)))
        if not 0.0 < top < _HUGE:
            break
        e = math.frexp(top)[1] + (len(p) + 1).bit_length()
        sigma = math.ldexp(1.0, e)
        q = (sigma + p) - sigma
        tau = float(np.sum(q))
        p = p - q
        if not taus and top > _TINY:
            res = _rounded_to_nearest(tau, p, e)
            if res is not None:
                return res
        taus.append(tau)
        p = p[p != 0]
    return fsum(taus + p.tolist())


def _rounded_to_nearest(tau: float, r: np.ndarray, e: int) -> float | None:
    """tau + sum(r) correctly rounded, or None where the test cannot prove it,
    for the exact tau and the remainders |r_i| <= 2^(e-53) of a first level."""
    n = len(r)
    rho = float(np.sum(r))
    res = tau + rho
    z = res - tau
    d = (tau - (res - z)) + (rho - z)  # TwoSum: tau + rho = res + d exactly
    # n^2/(2^53 - n) >= gamma_{n-1} n, with room for the division's rounding
    bound = math.ldexp(n * n / (2 ** 53 - n), e - 53)
    half_gap = math.ulp(res) / (4 if abs(math.frexp(res)[0]) == 0.5 else 2)
    # fl(|d| + bound) < half_gap, a float, implies the exact sum is below it
    return res if abs(d) + bound < half_gap else None
