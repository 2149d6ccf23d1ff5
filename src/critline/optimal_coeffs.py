"""Optimal bound-coefficient pipeline.

Computes, exactly in Q[L^{+-1}, Z3, Z5, ...], the coefficients C_k of the
critical-line bound

    log|zeta(1/2+it)| <= sum_{k=1}^{K} C_k log t / (log log t)^k + ...

by finding the stationary point of the two-variable bound surface in the
variables w = 1/log log t and z = 1/log x: the stationarity condition is
rewritten as a Laurent relation w1(z) = 1/w, so z(w) solves z = w h(z) with
h = z w1.  The Lagrange-Buermann formula [w^k] H(z(w)) = [z^(k-1)] H' h^k / k
reads both z(w) (H = id) and the bound series (H = R, the bound as a function
of z) off one set of powers of h.  All series manipulation is exact, so the
C_k come out as closed-form ring elements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import CrossCheckFailed, OrderTooLarge, _int_in
from .series_algebra import (
    EC_ZERO,
    ExactCoefficient,
    TruncatedSeries,
    _lagrange,
    coeff_eval,
    ps_add,
    ps_log,
    ps_mul,
    ps_recip,
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
    m = _int_in("m", m, 0)
    if m == 0 or m % 2 == 0:
        return EC_ZERO
    if m == 1:
        return ExactCoefficient.log2_power(1, 8)
    factor = 8 * (2 ** (m - 1) - 1) * math.factorial(m)
    return ExactCoefficient.zeta_odd(m, 1, factor)


def _b_from_a(a_m: ExactCoefficient, a_next: ExactCoefficient, m: int) -> ExactCoefficient:
    """b_m = (a_{m+1}/2 - (m+1) a_m) / L from a_m and a_{m+1}."""
    return (a_next * Fraction(1, 2) - a_m * (m + 1)) * ExactCoefficient.log2_power(-1)


def b_coeff(m: int) -> ExactCoefficient:
    """Stationarity-series coefficients b_m = (a_{m+1}/2 - (m+1) a_m) / L."""
    m = _int_in("m", m, 0)
    return _b_from_a(a_coeff(m), a_coeff(m + 1), m)


def run_pipeline(K: int, extrapolated: bool = False) -> PipelineResult:
    """Produce C_1..C_K exactly.

    K <= 7 matches the vetted golden output; larger K requires
    ``extrapolated=True`` (the ring handles the extra Z symbols, but the
    values have no golden reference).

    w1 has order m = max(1, K - 1), so h = z w1 is known through z^(m+1)
    and Z = z(w), the compositional inverse of 1/w1, through w^(m+2), which
    is K + 1 for K >= 2 and 3 for K = 1.  B = R(Z) is kept through w^K,
    which needs R through y^K: with R(y) = L y + P(y)/Q(y), P = sum_{m>=1}
    a_m y^(m+1) and Q = sum_{m>=0} b_m y^m, that is a_m for m < K and b_m
    for m < K - 1.  Both Z and B come from one Lagrange-Buermann pass over
    the powers of h, with R' multiplied into its giant steps.

    Each result is cached by the order alone, as a Python int, so a numpy
    integer K and either value of ``extrapolated`` share it;
    ``run_pipeline.cache_clear()`` empties the cache.
    """
    K = _int_in("K", K, 1)
    if K > K_MAX_GOLDEN and not extrapolated:
        raise OrderTooLarge(
            f"K={K} beyond the vetted range (<= {K_MAX_GOLDEN}); "
            "pass extrapolated=True to compute anyway")
    return _pipeline(K)


@lru_cache(maxsize=None)
def _pipeline(K: int) -> PipelineResult:
    """:func:`run_pipeline` for a checked int K."""
    a = [a_coeff(m) for m in range(K + 2)]
    b = [_b_from_a(a[m], a[m + 1], m) for m in range(K + 1)]

    # w1 = 1/(2z) + 2L + log(1 + sum_{m>=1} (b_m / b_0) z^m); b_0 = 4
    m_log = max(1, K - 1)
    log_arg = TruncatedSeries(
        0, [ExactCoefficient.rational(1)]
        + [b[m] * Fraction(1, 4) for m in range(1, m_log + 1)], m_log)
    w1 = ps_add(
        ps_add(TruncatedSeries.monomial(-1, Fraction(1, 2), m_log),
               TruncatedSeries.constant(ExactCoefficient.log2_power(1, 2), m_log)),
        ps_log(log_arg))

    # B/e^{1/w} = R(Z), R(y) = L y + P(y)/Q(y) through y^K: P starts at y^2,
    # so P/Q needs Q only through y^(K-2)
    P = TruncatedSeries(0, [EC_ZERO, EC_ZERO] + a[1:K], K)
    Q = TruncatedSeries(0, b[:max(1, K - 1)], max(0, K - 2))
    R = ps_add(TruncatedSeries.monomial(1, ExactCoefficient.log2_power(1), K),
               ps_mul(P, ps_recip(Q)))
    dR = TruncatedSeries(0, [R.coefficient(k) * k for k in range(1, K + 1)], K - 1)

    h = TruncatedSeries(0, w1.coeffs, m_log + 1)  # z w1: 1/w1 = z/h
    zc, C = _lagrange(h, m_log + 2, dR)
    if len(C) < K:
        raise CrossCheckFailed("internal truncation bookkeeping failed")
    Zser = TruncatedSeries(1, zc, m_log + 2)
    B = TruncatedSeries(1, C, K)
    return PipelineResult(order=K, a=tuple(a), b=tuple(b), w1=w1, Z=Zser, B=B, C=tuple(C))


run_pipeline.cache_clear = _pipeline.cache_clear


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

