"""Correctly rounded summation of float arrays.

:func:`exact_sum` returns ``math.fsum(a.tolist())`` bit for bit, in a few
whole-array passes instead of one Python step per element.  It splits the
array error-free (Rump, Ogita and Oishi, "Accurate floating-point summation
part I: faithful rounding", SIAM J. Sci. Comput. 31 (2008), ExtractVector):
at each level, with max|p| < 2^e and 2^L >= len(p) + 2, sigma = 2^(e+L) cuts
every p into q = (sigma + p) - sigma and p - q, both exact, and sum(q) is
exact in any order; additions that underflow are exact, so this holds down
into the subnormals.  The level sums and the last nonzero remainders, whose
exact total is the array's, go to ``fsum``, so the rounding is fsum's.
"""

from __future__ import annotations

import math
from math import fsum

import numpy as np

#: arrays, and remainders, no longer than this go to fsum: below about 600
#: entries its one pass over a list is the faster
CUTOFF = 512
_HUGE = 2.0 ** 900  # below this, sigma and the partial sums stay finite


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
        sigma = math.ldexp(1.0, math.frexp(top)[1] + (len(p) + 1).bit_length())
        q = (sigma + p) - sigma
        taus.append(float(np.sum(q)))
        p = p - q
        p = p[p != 0]
    return fsum(taus + p.tolist())
