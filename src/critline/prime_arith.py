"""Von Mangoldt sieve and the one Dirichlet-polynomial kernel.

The table stores each prime power n = p^m as the exact pair (p, m); log p is
taken in floating point only at use sites.  :func:`covering_table` is the one
rule for whether a table reaches a cutoff x, and :func:`dirichlet_cos_sum` is
the one place that forms Lambda(n)/sqrt(n) cos(t log n).  The bound's
Dirichlet term, both prime-side forms of the explicit formula and the
log-derivative bracket supply only their weights; :func:`weighted_psi` is the
kernel at t = 0.  These polynomials cancel heavily, so every sum is the
correctly rounded one, :func:`~critline.summation.exact_sum`, equal to
``math.fsum`` bit for bit.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, LimitTooLarge
from .summation import exact_sum

SIEVE_CAP = 10 ** 8


@dataclass(frozen=True, eq=False)
class LambdaTable:
    """Exact von Mangoldt table up to ``limit``: prime[n], power[n] with
    n = prime[n]**power[n] at prime powers and prime[n] == 0 elsewhere; the sieve
    lists those n ascending in ``support``, with log n and Lambda(n)/sqrt(n).
    Compared and hashed by identity, so that a table can key a memo."""
    limit: int
    prime: np.ndarray
    power: np.ndarray
    support: np.ndarray
    log_n: np.ndarray
    amp: np.ndarray

    def lam(self, n: int) -> float:
        """Lambda(n) = log p if n = p^m else 0."""
        if not 1 <= n <= self.limit:
            raise IndexError(f"n={n} outside table limit {self.limit}")
        p = int(self.prime[n])
        return math.log(p) if p else 0.0

    def prime_powers(self, up_to: float | None = None) -> np.ndarray:
        """Indices n <= up_to with Lambda(n) != 0, ascending: a read-only view of ``support``."""
        hi = self.limit if up_to is None else math.floor(up_to)
        return self.support[: np.searchsorted(self.support, hi, side="right")]

    def log_p(self, ns: np.ndarray) -> np.ndarray:
        """Lambda over an array of prime-power indices."""
        return np.log(self.prime[ns].astype(float))


def lambda_sieve(x: int) -> LambdaTable:
    """Exact table by Eratosthenes plus explicit prime-power marking, for
    2 <= x <= SIEVE_CAP."""
    if x < 2:
        raise DomainError("x must be >= 2")
    if x > SIEVE_CAP:
        raise LimitTooLarge(f"x={x} above cap {SIEVE_CAP}")
    is_prime = np.ones(x + 1, dtype=bool)
    is_prime[:2] = False
    for p in range(2, math.isqrt(x) + 1):
        if is_prime[p]:
            is_prime[p * p:: p] = False
    prime = np.zeros(x + 1, dtype=np.int64)
    power = np.zeros(x + 1, dtype=np.int16)
    primes = np.nonzero(is_prime)[0]
    prime[primes] = primes
    power[primes] = 1
    higher = []  # the p^m with m >= 2
    for p in primes[primes <= math.isqrt(x)]:
        v, m = int(p) * int(p), 2
        while v <= x:
            prime[v], power[v] = p, m
            higher.append(v)
            v, m = v * int(p), m + 1
    support = np.sort(np.concatenate([primes, np.array(higher, dtype=primes.dtype)]), kind="stable")
    nsf = support.astype(float)
    log_n, amp = np.log(nsf), np.log(prime[support].astype(float)) / np.sqrt(nsf)
    support.flags.writeable = log_n.flags.writeable = amp.flags.writeable = False
    return LambdaTable(limit=x, prime=prime, power=power, support=support, log_n=log_n, amp=amp)


def covering_table(x: float, table: LambdaTable | None = None) -> LambdaTable:
    """``table`` if it holds every n <= x, else a fresh sieve to max(2, floor(x)).

    The limit is compared with floor(x), not with x: a table built to floor(x)
    covers a fractional x.
    """
    n = math.floor(x)
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
    """
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    per_point = np.ndim(x) > 0
    cut_of = np.asarray(x, dtype=float).tolist() if per_point else [x] * len(ts)
    cuts = sorted(set(cut_of)) if per_point else [x]
    ks = [len(table.prime_powers(c)) for c in cuts]
    stretch = {c: (end - k, end) for c, k, end in zip(cuts, ks, itertools.accumulate(ks))}
    log_cuts = [math.log(c) if k else math.nan for c, k in zip(cuts, ks)]
    if weight is None:
        w = None
    elif not per_point:
        w = weight(table.support[:ks[0]].astype(float), table.log_n[:ks[0]], log_cuts[0])
    else:
        at = np.concatenate([np.arange(k) for k in ks])  # the table index of each entry
        w = weight(table.support[at].astype(float), table.log_n[at], np.repeat(log_cuts, ks))
    sums = np.empty((len(ts),) + np.shape(w)[:-1])
    for i, (ti, c) in enumerate(zip(ts, cut_of, strict=True)):
        lo, hi = stretch[c]
        vals = table.amp[:hi - lo] * np.cos(ti * table.log_n[:hi - lo])
        if w is not None:
            vals = vals * w[..., lo:hi]
        sums[i] = exact_sum(vals) if vals.ndim == 1 else [exact_sum(v) for v in vals]
    out = sums[0] if np.ndim(t) == 0 else sums
    return float(out) if out.ndim == 0 else out


def weighted_psi(x: int, table: LambdaTable | None = None) -> float:
    """sum_{n<=x} Lambda(n)/sqrt(n); under RH this is 2 sqrt(x) + O(log^3 x)."""
    return dirichlet_cos_sum(covering_table(x, table), x, 0.0)
