"""Von Mangoldt sieve and the one Dirichlet-polynomial kernel.

The table stores the prime p of each prime power n = p^m exactly; log p is
taken in floating point only at use sites.  :func:`covering_table` is the one
rule for whether a table reaches a cutoff x, and :func:`dirichlet_cos_sum` is
the one place that forms Lambda(n)/sqrt(n) cos(t log n).  The bound's
Dirichlet term, both prime-side forms of the explicit formula and the
log-derivative bracket supply only their weights; :func:`weighted_psi` is the
kernel at t = 0.  These polynomials cancel heavily, so every sum is the
correctly rounded one, :func:`~critline.summation.exact_sum` or, for many
short rows at once, :func:`~critline.summation.exact_sums`, equal to
``math.fsum`` bit for bit.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, LimitTooLarge, _int_in, _real_in
from .summation import exact_sum, exact_sums, passes

SIEVE_CAP = 10 ** 8


@dataclass(frozen=True, eq=False)
class LambdaTable:
    """Exact von Mangoldt table up to ``limit``: prime[n] = p at each prime
    power n = p^m and prime[n] == 0 elsewhere; the sieve lists those n
    ascending in ``support``, with log n and Lambda(n)/sqrt(n) = log p/sqrt(n).
    Compared and hashed by identity, so that a table can key a memo."""
    limit: int
    prime: np.ndarray
    support: np.ndarray
    log_n: np.ndarray
    amp: np.ndarray

    def prime_powers(self, up_to: float | None = None) -> np.ndarray:
        """Indices n <= up_to with Lambda(n) != 0, ascending: a read-only view of ``support``."""
        hi = self.limit if up_to is None else math.floor(_real_in("up_to", up_to))
        return self.support[: np.searchsorted(self.support, hi, side="right")]


def lambda_sieve(x: int) -> LambdaTable:
    """Exact table by Eratosthenes plus explicit prime-power marking, for
    2 <= x <= SIEVE_CAP; an integral float is taken as its int."""
    x = _int_in("x", int(x) if isinstance(x, float) and x.is_integer() else x, 2)
    if x > SIEVE_CAP:
        try:
            size = f"x={float(x):.12g}"
        except OverflowError:  # an int beyond float range: its digit count
            e = math.floor(math.log10(x))  # a float log, so up to one off
            e += (x >= 10 ** (e + 1)) - (x < 10 ** e)
            size = f"x of {e + 1} digits"
        raise LimitTooLarge(f"{size} above cap {SIEVE_CAP}")
    is_prime = np.ones(x + 1, dtype=bool)
    is_prime[:2] = False
    for p in range(2, math.isqrt(x) + 1):
        if is_prime[p]:
            is_prime[p * p:: p] = False
    prime = np.zeros(x + 1, dtype=np.int64)
    primes = np.nonzero(is_prime)[0]
    prime[primes] = primes
    higher = []  # the p^m with m >= 2
    for p in primes[primes <= math.isqrt(x)]:
        v = int(p) * int(p)
        while v <= x:
            prime[v] = p
            higher.append(v)
            v *= int(p)
    support = np.sort(np.concatenate([primes, np.array(higher, dtype=primes.dtype)]), kind="stable")
    nsf = support.astype(float)
    log_n, amp = np.log(nsf), np.log(prime[support].astype(float)) / np.sqrt(nsf)
    support.flags.writeable = log_n.flags.writeable = amp.flags.writeable = False
    return LambdaTable(limit=x, prime=prime, support=support, log_n=log_n, amp=amp)


def covering_table(x: float, table: LambdaTable | None = None) -> LambdaTable:
    """``table`` if it holds every n <= x, else a fresh sieve to max(2, floor(x)).

    The limit is compared with floor(x), not with x: a table built to floor(x)
    covers a fractional x.  An x that is not a finite real is refused before
    any sieve.
    """
    n = math.floor(_real_in("x", x))
    if table is None or table.limit < n:
        table = lambda_sieve(max(2, n))
    return table


def dirichlet_cos_sum(table: LambdaTable, x: float, t,
                      weight: Callable | None = None):
    """Re sum_{n<=x} Lambda(n) n^{-1/2-it} w(n)  =  sum Lambda(n)/sqrt(n) cos(t log n) w(n).

    The shared evaluation kernel for every Dirichlet polynomial in the
    package, on slices of the table's n, log n and Lambda(n)/sqrt(n).
    ``weight(n, log n, log x)`` maps the float arrays of prime powers n <= x
    and their logarithms, and ``math.log(x)``, to w(n); None means w = 1.  A
    weight may also return r rows of weights, which are summed against the
    one cos(t log n) row and give a trailing axis of r sums.  ``t`` is a
    float, or a 1-D array for which the weights are formed once and an array
    is returned, each row summed as for a float t, so that the values are
    bit-identical.  Every sum is the correctly rounded one,
    :func:`~critline.summation.exact_sum`.

    ``x`` may also be a 1-D array of one cutoff per t.  The weight is then
    still called once, on the n <= x of every distinct cutoff, concatenated
    in ascending order of cutoff, with log x the array of each entry's; each
    t is summed over its own cutoff's stretch, bit-identical to a call at
    that float x.  A cutoff with no prime powers (x < 2) has zero sums and
    no log: a float one passes NaN as log x.

    The rows are formed in flat passes of consecutive rows, of up to
    ``PASS_ENTRIES`` terms (``passes``), and summed by ``exact_sums``: in a
    50-point logsq scan (rows of about 40 terms) a row costs about 11 us,
    where a loop over the rows costs about 18 us a row (2-core x86).  A row
    that is a pass by itself, the row of a float t or one too long to share
    a pass, such as the 18,120 terms of x = 2e5, is formed from slices of
    the table and summed by ``exact_sum``.
    """
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    per_point = np.ndim(x) > 0
    cut_of = np.asarray(x, dtype=float).tolist() if per_point else [x] * len(ts)
    if len(cut_of) != len(ts):
        raise DomainError(f"x holds {len(cut_of)} cutoffs for {len(ts)} values of t")
    cuts = sorted(set(cut_of)) if per_point else [x]
    # as in prime_powers: integer cutoffs, so that the int64 support is searched uncast
    ks = np.searchsorted(table.support, [math.floor(c) for c in cuts], side="right").tolist()
    stretch = {c: (end - k, k) for c, k, end in zip(cuts, ks, itertools.accumulate(ks))}
    log_cuts = [math.log(c) if k else math.nan for c, k in zip(cuts, ks)]
    if weight is None:
        w = None
    elif not per_point:
        w = weight(table.support[:ks[0]].astype(float), table.log_n[:ks[0]], log_cuts[0])
    else:
        at = np.concatenate([np.arange(k) for k in ks])  # the table index of each entry
        w = weight(table.support[at].astype(float), table.log_n[at], np.repeat(log_cuts, ks))
    sums = np.empty((len(ts),) + np.shape(w)[:-1])
    rows = [stretch[c] for c in cut_of]  # each t's (lo, k)
    lo, k = zip(*rows) if rows else ((), ())
    for a, b, ends, n0 in passes(k):
        if b - a == 1:  # a float t's row, or one too long to share a pass: table slices
            vals = table.amp[:k[a]] * np.cos(ts[a] * table.log_n[:k[a]])
            if w is not None:
                vals = vals * w[..., lo[a]:lo[a] + k[a]]
            sums[a] = exact_sum(vals) if vals.ndim == 1 else [exact_sum(v) for v in vals]
            continue
        vals = table.amp[n0] * np.cos(np.repeat(ts[a:b], k[a:b]) * table.log_n[n0])
        if w is not None:
            vals = vals * w[..., np.repeat(lo[a:b], k[a:b]) + n0]
        sums[a:b] = exact_sums(vals, ends) if vals.ndim == 1 else \
            np.transpose([exact_sums(v, ends) for v in vals])
    out = sums[0] if np.ndim(t) == 0 else sums
    return float(out) if out.ndim == 0 else out


def weighted_psi(x: int, table: LambdaTable | None = None) -> float:
    """sum_{n<=x} Lambda(n)/sqrt(n); under RH this is 2 sqrt(x) + O(log^3 x)."""
    return dirichlet_cos_sum(covering_table(x, table), x, 0.0)
