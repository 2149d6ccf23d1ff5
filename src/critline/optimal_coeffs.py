"""Optimal bound-coefficient pipeline.

Computes, exactly in Q[L^{+-1}, Z3, Z5, ...], the coefficients C_k of the
critical-line bound

    log|zeta(1/2+it)| <= sum_{k=1}^{K} C_k log t / (log log t)^k + ...

by finding the stationary point of the two-variable bound surface in the
variables w = 1/log log t and z = 1/log x: the stationarity condition is
rewritten as a Laurent relation w1(z) = 1/w, inverted compositionally to get
z(w), and substituted back.  All series manipulation is exact, so the C_k
come out as closed-form ring elements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import CrossCheckFailed, DomainError, OrderTooLarge
from .series_algebra import (
    EC_ZERO,
    ExactCoefficient,
    TruncatedSeries,
    _cauchy,
    coeff_eval,
    ps_add,
    ps_log,
    ps_mul,
    ps_recip,
    ps_revert,
    ps_scale,
    ps_truncate,
)

#: largest order with a vetted golden reference; beyond this the values are
#: computable but labeled extrapolated
K_MAX_GOLDEN = 7


@dataclass(frozen=True)
class PipelineResult:
    order: int
    a: tuple  # a_0 .. a_{K+1}
    b: tuple  # b_0 .. b_K
    w1: TruncatedSeries  # Laurent series in z equal to 1/w at stationarity
    Z: TruncatedSeries   # z as a series in w (compositional inverse of 1/w1)
    B: TruncatedSeries   # normalized bound series in w through w^K; C_k = coeff of w^k
    C: tuple  # C_1 .. C_K

    def coefficient(self, k: int) -> ExactCoefficient:
        if not 1 <= k <= self.order:
            raise IndexError(f"C_{k} not computed (order {self.order})")
        return self.C[k - 1]


def a_coeff(m: int) -> ExactCoefficient:
    """Dirichlet-sum expansion coefficients: a_1 = 8L, a_m = 8(2^{m-1}-1) m! Z_m
    for odd m > 1, zero for even m (and a_0 = 0)."""
    if m < 0:
        raise DomainError("m must be >= 0")
    if m == 0 or m % 2 == 0:
        return EC_ZERO
    if m == 1:
        return ExactCoefficient.log2_power(1, 8)
    factor = 8 * (2 ** (m - 1) - 1) * math.factorial(m)
    return ExactCoefficient.zeta_odd(m, 1, factor)


def b_coeff(m: int) -> ExactCoefficient:
    """Stationarity-series coefficients b_m = (a_{m+1}/2 - (m+1) a_m) / L."""
    if m < 0:
        raise DomainError("m must be >= 0")
    num = a_coeff(m + 1) * Fraction(1, 2) - a_coeff(m) * (m + 1)
    return num * ExactCoefficient.log2_power(-1)


@lru_cache(maxsize=None)
def run_pipeline(K: int, extrapolated: bool = False) -> PipelineResult:
    """Produce C_1..C_K exactly.

    K <= 7 matches the vetted golden output; larger K requires
    ``extrapolated=True`` (the ring handles the extra Z symbols, but the
    values have no golden reference).
    """
    if K < 1:
        raise DomainError("K must be >= 1")
    if K > K_MAX_GOLDEN and not extrapolated:
        raise OrderTooLarge(
            f"K={K} beyond the vetted range (<= {K_MAX_GOLDEN}); "
            "pass extrapolated=True to compute anyway")
    a = [a_coeff(m) for m in range(K + 2)]
    b = [b_coeff(m) for m in range(K + 1)]

    # w1 = 1/(2z) + 2L + log(1 + sum_{m>=1} (b_m / b_0) z^m); b_0 = 4
    m_log = max(1, K - 1)
    log_arg = TruncatedSeries(
        0, [ExactCoefficient.rational(1)]
        + [b_coeff(m) * Fraction(1, 4) for m in range(1, m_log + 1)], m_log)
    w1 = ps_add(
        ps_add(TruncatedSeries.monomial(-1, Fraction(1, 2), m_log),
               TruncatedSeries.constant(ExactCoefficient.log2_power(1, 2), m_log)),
        ps_log(log_arg))

    # z as a function of w: compositional inverse of 1/w1
    Zser = ps_revert(ps_recip(w1))  # order m_log + 2 >= K + 1

    # B/e^{1/w} = L*Z + (sum_{m>=1} a_m Z^{m+1}) / (sum_{m>=0} b_m Z^m), kept
    # through w^K: Z and each of its powers are cut there.  The numerator
    # starts at Z^2, so a_m Z^{m+1} for m >= K and b_m Z^m for m >= K-1 only
    # reach w^{K+1} and beyond.  One chain powers[m] = Z^{m+1}, up to Z^K,
    # feeds both sums.
    Zk = ps_truncate(Zser, K)
    powers = [Zk]
    for _ in range(K - 1):
        powers.append(_cauchy(powers[-1], Zk, K))
    numer = TruncatedSeries.zero(K)
    denom = TruncatedSeries.constant(4, K)
    for m in range(1, K):
        if not a[m].is_zero():
            numer = ps_add(numer, ps_scale(powers[m], a[m]))
        if m < K - 1 and not b[m].is_zero():
            denom = ps_add(denom, ps_scale(powers[m - 1], b[m]))
    B = ps_add(ps_scale(Zk, ExactCoefficient.log2_power(1)),
               ps_mul(numer, ps_recip(denom)))
    if B.order < K:
        raise CrossCheckFailed("internal truncation bookkeeping failed")
    B = ps_truncate(B, K)
    C = tuple(B.coefficient(k) for k in range(1, K + 1))
    return PipelineResult(order=K, a=tuple(a), b=tuple(b), w1=w1, Z=Zser, B=B, C=C)


def format_report(result: PipelineResult, constants=None) -> str:
    """Human/golden-file text: the w1 and Z series plus one line per C_k.

    With a ``constants`` environment, a numeric column is appended.
    """
    from .pari_text import format_coefficient, format_series

    lines = [f"w1 = {format_series(result.w1)}",
             f"Z = {format_series(result.Z)}"]
    for k in range(1, result.order + 1):
        line = f"C_{k} = {format_coefficient(result.coefficient(k))}"
        if constants is not None:
            line += f"  = {coeff_eval(result.coefficient(k), constants):.15g}"
        if k > K_MAX_GOLDEN:
            line += "  (extrapolated)"
        lines.append(line)
    return "\n".join(lines) + "\n"

