import math
from fractions import Fraction

import pytest

from critline import optimal_coeffs
from critline.errors import DomainError, OrderTooLarge
from critline.optimal_coeffs import a_coeff, b_coeff, format_report, run_pipeline
from critline.pari_text import parse_coefficient, series_matches_text
from critline.selfcheck import GOLDEN_C, GOLDEN_W1, GOLDEN_Z, STATEMENT_C
from critline.series_algebra import (
    EC_ZERO,
    ExactCoefficient,
    TruncatedSeries,
    _cauchy,
    coeff_eval,
    ps_add,
    ps_compose,
    ps_log,
    ps_mul,
    ps_recip,
    ps_revert,
    ps_scale,
)
from critline.zeta_oracle import constant_env
from conftest import agree, ps_truncate

EC = ExactCoefficient


def test_a_coefficients():
    assert a_coeff(0) == EC_ZERO
    assert a_coeff(1) == EC.log2_power(1, 8)
    assert a_coeff(3) == EC.zeta_odd(3, 1, 144)
    assert a_coeff(4) == EC_ZERO
    assert a_coeff(5) == EC.zeta_odd(5, 1, 14400)
    assert a_coeff(7) == EC.zeta_odd(7, 1, 2540160)


def test_b_coefficients():
    assert b_coeff(0) == EC.rational(4)
    assert b_coeff(1) == EC.rational(-16)
    assert b_coeff(2) == EC.zeta_odd(3, 1, 72) * EC.log2_power(-1)
    assert b_coeff(3) == EC.zeta_odd(3, 1, -576) * EC.log2_power(-1)


def test_pipeline_small_orders():
    r2 = run_pipeline(2)
    assert r2.C == (parse_coefficient("L/2"), parse_coefficient("L^2 + L/2"))
    r4 = run_pipeline(4)
    assert r4.coefficient(4) == parse_coefficient("4*L^4 + 6*L^3 - L + 9/4*Z3")


def test_pipeline_golden_and_statement():
    r = run_pipeline(7)
    for k, text in GOLDEN_C.items():
        assert r.coefficient(k) == parse_coefficient(text), f"C_{k}"
    for k, text in STATEMENT_C.items():
        assert r.coefficient(k) == parse_coefficient(text), f"C_{k} statement"
    assert series_matches_text(r.w1, GOLDEN_W1)
    assert series_matches_text(r.Z, GOLDEN_Z)


def test_pipeline_cache_takes_numpy_integers():
    # one cached result per order, whatever integer type and extrapolated flag
    import numpy as np
    run_pipeline.cache_clear()
    result = run_pipeline(3)
    assert run_pipeline(np.int64(3)) is result
    assert run_pipeline(np.int32(3), extrapolated=True) is result
    run_pipeline.cache_clear()
    assert run_pipeline(np.int64(3)) is not result


def test_pipeline_result_structure():
    r = run_pipeline(5)
    assert len(r.a) == 7 and len(r.b) == 6
    assert r.b[0] == EC.rational(4)
    assert r.w1.valuation == -1
    assert r.Z.valuation == 1
    with pytest.raises(IndexError):
        r.coefficient(6)


def test_truncation_monotonicity_across_orders():
    r7 = run_pipeline(7)
    for k in range(1, 7):
        rk = run_pipeline(k)
        assert rk.C == r7.C[:k], f"prefix at K={k}"


def test_reversion_roundtrip_inside_pipeline():
    for r in (run_pipeline(6), run_pipeline(9, extrapolated=True)):
        comp = ps_compose(ps_recip(r.w1), r.Z)
        assert comp == TruncatedSeries.identity(order=comp.order)
        assert comp.order >= r.order + 1


def test_stationarity_identity():
    # substituting z(w) back: 1/w == 1/(2z) + log(sum_m b_m z^m) as w-series
    r = run_pipeline(6)
    Z = r.Z
    sb = TruncatedSeries.constant(4, Z.order)
    zpow = TruncatedSeries.constant(1, Z.order)
    for m in range(1, r.order + 1):
        zpow = ps_mul(zpow, Z)
        if not r.b[m].is_zero():
            sb = ps_add(sb, ps_scale(zpow, r.b[m]))
    lhs = ps_add(ps_recip(ps_scale(Z, 2)), ps_log(sb))
    one_over_w = ps_recip(TruncatedSeries.identity(order=r.order + 1))
    assert agree(lhs, one_over_w)


# --- the Lagrange-Buermann pass against the route it replaced ----------------
#
# The reference inverts w1 twice (ps_revert(ps_recip(w1))) and substitutes Z
# into the bound through a chain of powers Z^2..Z^K; the ring's normal form is
# canonical, so the one-pass pipeline must return the very same fields.


def _reference_pipeline(K):
    a = tuple(a_coeff(m) for m in range(K + 2))
    b = tuple(b_coeff(m) for m in range(K + 1))
    m_log = max(1, K - 1)
    log_arg = TruncatedSeries(
        0, [EC.rational(1)] + [b_coeff(m) * Fraction(1, 4) for m in range(1, m_log + 1)], m_log)
    w1 = ps_add(ps_add(TruncatedSeries.monomial(-1, Fraction(1, 2), m_log),
                       TruncatedSeries.constant(EC.log2_power(1, 2), m_log)),
                ps_log(log_arg))
    Z = ps_revert(ps_recip(w1))
    Zk = ps_truncate(Z, K)
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
    B = ps_truncate(ps_add(ps_scale(Zk, EC.log2_power(1)),
                           ps_mul(numer, ps_recip(denom))), K)
    return dict(order=K, a=a, b=b, w1=w1, Z=Z, B=B,
                C=tuple(B.coefficient(k) for k in range(1, K + 1)))


@pytest.mark.parametrize("K", range(1, 16))
def test_pipeline_equals_the_power_chain_route(K):
    r = run_pipeline(K, extrapolated=True)
    for field, value in _reference_pipeline(K).items():
        assert getattr(r, field) == value, field
    assert r.Z.order == max(K + 1, 3)


# coefficient pairs the reference route hands to _dot at K = 11
REFERENCE_PAIRS_K11 = 1136


def test_pipeline_product_count(dot_pairs):
    assert dot_pairs(_reference_pipeline, 11) == REFERENCE_PAIRS_K11
    assert dot_pairs(optimal_coeffs._pipeline.__wrapped__, 11) <= 0.75 * REFERENCE_PAIRS_K11


@pytest.mark.parametrize("K", [1, 7, 11])
def test_pipeline_builds_each_a_once(K, monkeypatch):
    # b_m is formed from the pipeline's a list, not from fresh a_coeff calls
    calls = []
    monkeypatch.setattr(optimal_coeffs, "a_coeff", lambda m: calls.append(m) or a_coeff(m))
    optimal_coeffs._pipeline.__wrapped__(K)
    assert sorted(calls) == list(range(K + 2))


def test_numeric_coefficients_positive():
    r = run_pipeline(3)
    env = constant_env()
    vals = [coeff_eval(c, env) for c in r.C]
    assert all(math.isfinite(v) and v > 0 for v in vals)
    assert abs(vals[0] - math.log(2) / 2) < 1e-15
    assert abs(vals[1] - (math.log(2) / 2 + math.log(2) ** 2)) < 1e-14
    assert abs(vals[2] - (2 * math.log(2) ** 2 + 2 * math.log(2) ** 3)) < 1e-14


@pytest.mark.parametrize("call", [lambda: a_coeff(-1), lambda: b_coeff(-1),
                                  lambda: run_pipeline(0)],
                         ids=["a_coeff", "b_coeff", "run_pipeline"])
def test_negative_index_and_zero_order_are_domain_errors(call):
    with pytest.raises(DomainError):
        call()


def test_order_cap_and_extrapolation():
    with pytest.raises(OrderTooLarge):
        run_pipeline(8)
    r8 = run_pipeline(8, extrapolated=True)
    assert r8.C[:7] == run_pipeline(7).C
    # the eighth coefficient involves zeta(7) but nothing beyond
    syms = {k for key in r8.coefficient(8).terms for k, _ in key[1]}
    assert syms <= {3, 5, 7}


def test_golden_file_regression(repo_root):
    expected = (repo_root / "data" / "coeffs_K7.txt").read_text(encoding="utf-8")
    assert format_report(run_pipeline(7)) == expected


def test_format_report_numeric_column():
    text = format_report(run_pipeline(2), constants=constant_env())
    assert "C_1 = L/2  = 0.346573590279973" in text
    assert "C_2 = L^2 + L/2  = 0.827026604198174" in text


# --- independent floating-point pipeline ------------------------------------
#
# The exact engine is cross-checked end-to-end by redoing the whole
# computation in plain float arrays with *different* series algorithms
# (integral-form logarithm, back-substitution reversion instead of Lagrange
# inversion).


def _f_mul(a, b, n):
    out = [0.0] * (n + 1)
    for i, ai in enumerate(a[: n + 1]):
        if ai:
            for j, bj in enumerate(b[: n + 1 - i]):
                out[i + j] += ai * bj
    return out


def _f_recip(a, n):
    out = [1.0 / a[0]] + [0.0] * n
    for k in range(1, n + 1):
        out[k] = -sum(a[j] * out[k - j] for j in range(1, k + 1)
                      if j < len(a)) / a[0]
    return out


def _f_log1(a, n):
    # log of a series with a[0] == 1 via integrating a'/a
    da = [(k + 1) * a[k + 1] if k + 1 < len(a) else 0.0 for k in range(n)]
    q = _f_mul(da, _f_recip(a, n), n - 1)
    return [0.0] + [q[k - 1] / k for k in range(1, n + 1)]


def _f_compose(outer, inner, n):
    out = [0.0] * (n + 1)
    out[0] = outer[0]
    power = [1.0] + [0.0] * n
    for i in range(1, len(outer)):
        power = _f_mul(power, inner, n)
        for k in range(n + 1):
            out[k] += outer[i] * power[k]
    return out


def _f_revert(f, n):
    # back-substitution: g_k fixed by [z^k] f(g) = delta_{k,1}
    g = [0.0, 1.0 / f[1]]
    for k in range(2, n + 1):
        comp = _f_compose(f, g + [0.0], k)
        g.append(-comp[k] / f[1])
    return g


def test_numeric_pipeline_cross_check():
    import critline.zeta_oracle as zo

    K, n = 7, 9
    L = math.log(2)
    a = [0.0] * (K + 2)
    for m in range(1, K + 2):
        if m == 1:
            a[m] = 8 * L
        elif m % 2:
            a[m] = 8 * (2 ** (m - 1) - 1) * math.factorial(m) * zo.zeta_real(m)
    b = [(a[m + 1] / 2 - (m + 1) * a[m]) / L if m + 1 < len(a) else 0.0
         for m in range(K + 1)]

    log_arg = [1.0] + [b[m] / 4 for m in range(1, K)]
    lg = _f_log1(log_arg, n)
    # w1 = 1/(2z) + 2L + lg  ->  1/w1 = 2z / (1 + 2z(2L + lg))
    one_plus_u = [1.0, 4 * L] + [2 * lg[k - 1] for k in range(2, n + 2)]
    inv_w1 = _f_mul([0.0, 2.0], _f_recip(one_plus_u, n), n)
    Z = _f_revert(inv_w1, n)
    numer = [0.0] * (n + 1)
    denom = [4.0] + [0.0] * n
    zpow = Z[: n + 1]
    for m in range(1, K + 2):
        zpow = _f_mul(zpow, Z, n)
        for k in range(n + 1):
            numer[k] += a[m] * zpow[k]
    zpow = [1.0] + [0.0] * n
    for m in range(1, K + 1):
        zpow = _f_mul(zpow, Z, n)
        for k in range(n + 1):
            denom[k] += b[m] * zpow[k]
    B = _f_mul(numer, _f_recip(denom, n), n)
    for k in range(min(n + 1, len(Z))):
        B[k] += L * Z[k]

    exact = run_pipeline(K)
    env = constant_env()
    for k in range(1, K + 1):
        sym = coeff_eval(exact.coefficient(k), env)
        assert abs(B[k] - sym) <= 1e-9 * max(1.0, abs(sym)), k
