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

:func:`exact_sums` does the same for each segment of one flat array: the
segments take their first level and its test together, in about 25 numpy
operations, eight of them over the whole array, which cost about 30 to 60 us
a call (2-core x86, the range of repeated runs), plus about 0.2 us a segment
and 0.003 us an entry.
``exact_sum`` per segment costs about 2 us plus 0.03 to 0.05 us an entry, so
the batch pays from a dozen or so segments: 50 rows of 250 terms take about
0.1 ms instead of 0.6 ms.  A correctly rounded sum is unique, so every
segment's sum is still fsum's.
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
#: entries of one flat pass over many segments (``passes``): 512 KiB of complex terms.
#: Passes of 2^13 to 2^16 entries ran about as fast; longer ones slow down
PASS_ENTRIES = 2 ** 15
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


def exact_sums(values, ends) -> np.ndarray:
    """The correctly rounded sum of each segment ``values[ends[i-1]:ends[i]]`` (ends[-1] = 0)
    of a 1-D float array, each equal to ``math.fsum`` of its segment.

    Every segment takes its first level together with the others
    (``_first_levels``).  A segment that its test does not prove, or that
    holds zeros only, inf, nan or values near overflow, goes on to
    ``exact_sum`` alone, and so does a lone segment, for which the vectorised
    level costs more than ``exact_sum``.  An empty segment sums to 0.0.
    """
    if len(ends) == 1:
        return np.array([exact_sum(values[:ends[0]])])
    p = np.asarray(values, dtype=float)
    ends = np.asarray(ends, dtype=np.intp)
    n = ends.copy()
    n[1:] -= ends[:-1]
    out = np.zeros(len(ends))
    full = np.flatnonzero(n)  # fsum([]) is 0.0
    if len(full):
        out[full] = _first_levels(p[:ends[-1]], n[full])
    for i in np.flatnonzero(np.isnan(out)).tolist():
        out[i] = exact_sum(p[ends[i] - n[i]:ends[i]])
    return out


def _first_levels(p: np.ndarray, n: np.ndarray) -> np.ndarray:
    """The sums of the consecutive segments of p, of lengths n >= 1, from one
    first level of each, in whole-array passes: sigma from each segment's
    max|p| and length as in ``exact_sum``, tau and rho by ``np.add.reduceat``
    and the test of ``_rounded_to_nearest``; nan where the test cannot prove
    the sum, or the segment holds zeros only, inf, nan or values near overflow."""
    starts = np.cumsum(n) - n
    top = np.maximum.reduceat(np.abs(p), starts)
    ok = (top > _TINY) & (top < _HUGE)
    if not ok.all():  # no bit of those segments enters the level
        p = np.where(np.repeat(ok, n), p, 0.0)
        top = np.where(ok, top, 1.0)
    e = np.frexp(top)[1] + np.frexp(n + 1.0)[1]  # frexp's exponent of n + 1 is its bit length
    sigma = np.repeat(np.ldexp(1.0, e), n)
    q = (sigma + p) - sigma
    tau = np.add.reduceat(q, starts)
    rho = np.add.reduceat(p - q, starts)
    res = tau + rho
    z = res - tau
    d = (tau - (res - z)) + (rho - z)
    bound = np.ldexp(n * n / (2.0 ** 53 - n), e - 53)
    half_gap = np.abs(np.spacing(res)) / np.where(np.abs(np.frexp(res)[0]) == 0.5, 4, 2)
    return np.where(ok & (np.abs(d) + bound < half_gap), res, np.nan)


def passes(lengths):
    """The flat layout of consecutive segments of the given lengths, cut into passes
    of at most ``PASS_ENTRIES`` entries in all unless a pass is one longer segment,
    so that a flat array over many segments stays small.  Yields (i, j, ends,
    offsets) for each pass, in order: its segments [i, j), the ends of their
    stretches within the pass, as ``exact_sums`` takes them, and the offset of
    each entry within its own segment."""
    lengths = list(lengths)
    i, total = 0, 0
    for j, k in enumerate(lengths + [PASS_ENTRIES + 1]):  # the sentinel ends the last pass
        if total + k > PASS_ENTRIES and j > i:
            if j - i == 1:  # a lone segment: no array of ends, no repeat
                yield i, j, lengths[i:j], np.arange(lengths[i])
            else:
                n = np.array(lengths[i:j])
                ends = np.cumsum(n)
                yield i, j, ends, np.arange(ends[-1]) - np.repeat(ends - n, n)
            i, total = j, 0
        total += k
