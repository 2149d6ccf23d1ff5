import math
import random
from fractions import Fraction

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from critline.errors import (
    DomainError,
    MissingConstant,
    NonInvertibleLeadingCoefficient,
    NonInvertibleLinearCoefficient,
    PositiveValuationRequired,
    UnsupportedConstantTerm,
)
from critline import series_algebra
from critline.series_algebra import (
    EC_ONE,
    EC_ZERO,
    EXPONENT_MAX,
    ZETA_INDEX_MAX,
    ExactCoefficient,
    L,
    TruncatedSeries,
    Z,
    _dot,
    _lagrange,
    coeff_eval,
    ps_add,
    ps_compose,
    ps_log,
    ps_mul,
    ps_recip,
    ps_revert,
    ps_scale,
)
from conftest import agree, ps_truncate

EC = ExactCoefficient
TS = TruncatedSeries


def rational(n, d=1):
    return EC.rational(n, d)


def series(valuation, coeffs, order=None):
    return TS(valuation, coeffs, order)


# --- coefficient ring --------------------------------------------------------


def test_coefficient_basics():
    assert rational(0).is_zero()
    assert (L * L - L * L).is_zero()
    assert L + rational(0) == L
    assert (L * Z(3)) == (Z(3) * L)
    assert EC.log2_power(-1) * L == EC_ONE
    assert str(EC.zeta_odd(3, 1, Fraction(9, 4)) * EC.log2_power(-1)) == "9/4*Z3/L"


def test_coefficient_zeta_symbol_validation():
    with pytest.raises(DomainError):
        EC.zeta_odd(4)
    with pytest.raises(DomainError):
        EC.zeta_odd(2)
    with pytest.raises(DomainError):
        EC({(0, ((3, -1),)): Fraction(1)})


def test_monomial_inverse():
    c = EC.log2_power(2, Fraction(3, 4))
    assert c.monomial_inverse() * c == EC_ONE
    with pytest.raises(NonInvertibleLeadingCoefficient):
        (L + rational(1)).monomial_inverse()
    with pytest.raises(NonInvertibleLeadingCoefficient):
        Z(3).monomial_inverse()


def test_rational_equals_and_hashes_as_its_fraction():
    half, three_halves_L = rational(1, 2), EC.log2_power(1, Fraction(3, 2))
    assert len({EC_ONE, 1}) == len({EC_ONE, Fraction(1)}) == 1
    assert len({EC_ZERO, 0, Fraction(0)}) == 1
    assert {Fraction(1, 2): "half"}[half] == "half"
    assert {half: "half"}[Fraction(1, 2)] == "half"
    assert {1: "one"}[EC_ONE] == "one" and {EC_ONE: "one"}[1] == "one"
    assert {0: "zero"}[EC_ZERO] == "zero"
    assert rational(-7, 3) in {Fraction(-7, 3)} and 5 in {rational(5)}
    # elements beyond Q hash as before and still find themselves
    assert three_halves_L not in {Fraction(3, 2)}
    assert {three_halves_L: 1}[L * Fraction(3, 2)] == 1
    assert len({L, L + rational(1) - rational(1), Z(3)}) == 2


@pytest.mark.parametrize("num", [0, 1, -3, Fraction(1, 2)])
def test_rational_refuses_a_zero_denominator(num):
    with pytest.raises(DomainError):
        EC.rational(num, 0)
    with pytest.raises(DomainError):
        EC.rational(num, Fraction(0))


def test_series_keeps_ring_coefficients_as_they_are():
    c = L * Fraction(2, 3)
    assert TS(0, [c, EC_ONE], 1).coeffs[0] is c


def _random_coeff(rng):
    c = EC_ZERO
    for _ in range(rng.randint(1, 3)):
        key = (rng.randint(-2, 2),
               tuple((k, rng.randint(1, 2)) for k in rng.sample([3, 5], rng.randint(0, 2))))
        c = c + EC({key: Fraction(rng.randint(-6, 6), rng.randint(1, 6))})
    return c


def test_ring_axioms_randomized():
    rng = random.Random(42)
    for _ in range(200):
        a, b, c = (_random_coeff(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c


def test_coeff_eval():
    env = {"L": math.log(2), "Z3": 1.2020569031595943}
    assert coeff_eval(EC_ZERO, env) == 0.0
    assert abs(coeff_eval(L * Fraction(1, 2), env) - 0.34657359027997264) < 1e-15
    val = coeff_eval(L * L + L * Fraction(1, 2), env)
    assert abs(val - 0.8270266041981745) < 1e-14
    with pytest.raises(MissingConstant):
        coeff_eval(Z(5), env)


class _RefCoefficient:
    """Independent reference for the ring: monomial (eL, zpart) -> Fraction
    in a dict, with the per-term arithmetic the ring used before it went
    fraction-free."""

    def __init__(self, terms=None):
        clean = {}
        for (eL, zpart), q in (terms or {}).items():
            q = Fraction(q)
            if q:
                key = (eL, tuple(sorted((k, e) for k, e in zpart if e)))
                clean[key] = clean.get(key, Fraction(0)) + q
                if not clean[key]:
                    del clean[key]
        self.terms = clean

    def __eq__(self, other):
        return self.terms == other.terms

    def __add__(self, other):
        out = dict(self.terms)
        for key, q in other.terms.items():
            out[key] = out.get(key, Fraction(0)) + q
        return _RefCoefficient(out)

    def __neg__(self):
        return _RefCoefficient({k: -q for k, q in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        out = {}
        for (eL1, zp1), q1 in self.terms.items():
            for (eL2, zp2), q2 in other.terms.items():
                zc = dict(zp1)
                for k, e in zp2:
                    zc[k] = zc.get(k, 0) + e
                key = (eL1 + eL2, tuple(sorted(zc.items())))
                out[key] = out.get(key, Fraction(0)) + q1 * q2
        return _RefCoefficient(out)

    def __pow__(self, n):
        out = _RefCoefficient({(0, ()): 1})
        for _ in range(n):
            out = out * self
        return out

    def monomial_inverse(self):
        (eL, zpart), q = next(iter(self.terms.items()))
        assert len(self.terms) == 1 and not zpart
        return _RefCoefficient({(-eL, ()): 1 / q})


# exponents drawn up to half the field bound, so that one product stays inside it
_HALF_FIELD = EXPONENT_MAX // 2


def _random_terms(rng, edge=False):
    """A random {(eL, zpart): q}: negative L powers, up to three of several Z
    symbols, numerators now and then beyond 64 bits, and with ``edge``
    exponents next to half the field bound."""
    def exponent(lo):
        if edge and rng.random() < 0.5:
            return rng.choice([_HALF_FIELD, _HALF_FIELD - 1])
        return rng.randint(lo, 3)

    terms = {}
    for _ in range(rng.randint(0, 5)):
        eL = exponent(-3) * rng.choice([1, -1])
        zpart = tuple((k, exponent(1)) for k in sorted(rng.sample([3, 5, 7, 11, 255],
                                                                  rng.randint(0, 3))))
        big = rng.random() < 0.2
        num = rng.randint(-2 ** 70, 2 ** 70) if big else rng.randint(-9, 9)
        terms[(eL, zpart)] = Fraction(num, rng.randint(1, 2 ** 70 if big else 12))
    return terms


def _pair(rng, edge=False):
    terms = _random_terms(rng, edge)
    return EC(terms), _RefCoefficient(terms)


def test_ring_agrees_with_the_reference():
    rng = random.Random(1811)
    for trial in range(300):
        edge = trial % 3 == 0
        (a, ra), (b, rb) = _pair(rng, edge), _pair(rng, edge)
        assert a.terms == ra.terms, trial
        for got, want in ((a + b, ra + rb), (a - b, ra - rb), (a * b, ra * rb),
                          (-a, -ra), (a ** 2, ra ** 2), (a + b - b, ra)):
            assert got.terms == want.terms, trial
        if not edge:
            assert (a ** 3).terms == (ra ** 3).terms, trial
        # equal values built two ways are equal and hash alike
        assert a * b == b * a and hash(a * b) == hash(b * a), trial
        assert (a + b) - b == a and hash((a + b) - b) == hash(a), trial
        assert (a == b) == (ra == rb), trial
        q = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        assert (a * q).terms == (ra * _RefCoefficient({(0, ()): q})).terms, trial


def test_monomial_inverse_agrees_with_the_reference():
    rng = random.Random(1812)
    for eL in (0, 1, -2, 7, EXPONENT_MAX, -EXPONENT_MAX):
        terms = {(eL, ()): Fraction(rng.choice([-1, 1]) * rng.randint(1, 2 ** 70),
                                    rng.randint(1, 99))}
        c, ref = EC(terms), _RefCoefficient(terms)
        assert c.monomial_inverse().terms == ref.monomial_inverse().terms
        if abs(eL) <= _HALF_FIELD:  # the product's bound is twice |eL|
            assert c.monomial_inverse() * c == EC_ONE


def test_exponents_at_the_field_bound():
    top = {(-EXPONENT_MAX, ((3, EXPONENT_MAX), (ZETA_INDEX_MAX, EXPONENT_MAX))): Fraction(-3, 7)}
    assert EC(top).terms == top
    assert EC.log2_power(_HALF_FIELD) * EC.log2_power(EXPONENT_MAX - _HALF_FIELD) \
        == EC.log2_power(EXPONENT_MAX)


@pytest.mark.parametrize("call", [
    lambda: EC.log2_power(EXPONENT_MAX + 1),
    lambda: EC.log2_power(-EXPONENT_MAX - 1),
    lambda: EC.zeta_odd(3, EXPONENT_MAX + 1),
    lambda: EC({(0, ((5, EXPONENT_MAX), (5, 1))): 1}),
    lambda: EC.zeta_odd(ZETA_INDEX_MAX + 2),
    lambda: L ** (EXPONENT_MAX + 1),
    lambda: EC.zeta_odd(3, _HALF_FIELD + 1) ** 2,
    lambda: EC.log2_power(-_HALF_FIELD - 1) * EC.log2_power(-_HALF_FIELD - 1),
    lambda: ps_mul(series(0, [EC.log2_power(_HALF_FIELD + 1)], 0),
                   series(0, [EC.log2_power(_HALF_FIELD + 1)], 0)),
], ids=["L-up", "L-down", "Z-power", "Z-repeated", "Z-index", "pow", "Z-square",
        "L-product", "series-product"])
def test_exponents_beyond_the_field_are_refused(call):
    with pytest.raises(DomainError):
        call()


def _ref_series(a):
    return [_RefCoefficient(c.terms) for c in a.coeffs]


def _ref_mul(a, b, n):
    # the per-term convolution: one ring operation per pair of coefficients
    out = [_RefCoefficient()] * n
    for i, ca in enumerate(_ref_series(a)):
        for j, cb in enumerate(_ref_series(b)):
            if i + j < n:
                out[i + j] = out[i + j] + ca * cb
    return out


def _ref_recip(a):
    u = _ref_series(a)
    head_inv = u[0].monomial_inverse()
    u = [head_inv * c for c in u]
    r = [_RefCoefficient({(0, ()): 1})]
    for k in range(1, len(u)):
        acc = _RefCoefficient()
        for j in range(1, k + 1):
            acc = acc + u[j] * r[k - j]
        r.append(-acc)
    return [head_inv * c for c in r]


def _random_series(rng, valuation, order, head_monomial=False):
    coeffs = [EC(_random_terms(rng)) for _ in range(order - valuation + 1)]
    if head_monomial:
        coeffs[0] = EC.log2_power(rng.randint(-3, 3), Fraction(rng.choice([-5, 1, 3]),
                                                               rng.randint(1, 7)))
    coeffs[rng.randrange(1, len(coeffs))] = EC_ZERO  # a gap inside the series
    return series(valuation, coeffs, order)


def test_series_products_agree_with_the_per_term_reference():
    rng = random.Random(1813)
    for trial in range(40):
        a = _random_series(rng, rng.choice([-1, 0, 1]), 5, head_monomial=True)
        b = _random_series(rng, rng.choice([0, 1, 2]), 6)
        prod = ps_mul(a, b)
        want = _ref_mul(a, b, prod.order - (a.valuation + b.valuation) + 1)
        got = [prod.coefficient(k) for k in range(a.valuation + b.valuation, prod.order + 1)]
        assert [c.terms for c in got] == [c.terms for c in want], trial
        inv = ps_recip(a)
        assert [c.terms for c in inv.coeffs] == [c.terms for c in _ref_recip(a)], trial


# --- series: add / mul --------------------------------------------------------


def test_add_cancellation():
    a = series(1, [1, 1])          # z + z^2
    b = series(1, [-1, 0])         # -z
    out = ps_add(a, b)
    assert out.valuation == 2 and out.order == 2
    assert out.coefficient(2) == EC_ONE


def test_add_identity():
    a = series(0, [2, 0, 5], 2)
    zero = TS.zero(order=2)
    assert ps_add(a, zero) == a


def test_add_mixed_symbols():
    a = series(1, [Fraction(1, 2)], 1)
    b = series(1, [L], 1)
    out = ps_add(a, b)
    assert out.coefficient(1) == EC.rational(1, 2) + L
    assert len(out.coefficient(1).terms) == 2


def test_mul_examples():
    z = TS.monomial(1, 1, 4)
    zinv = TS.monomial(-1, 1, 4)
    prod = ps_mul(z, zinv)
    assert prod.coefficient(0) == EC_ONE and prod.valuation == 0
    a = series(0, [1, 1], 1)       # 1 + z
    b = series(0, [1, -1], 1)      # 1 - z
    out = ps_mul(a, b)
    assert out.coefficient(0) == EC_ONE
    assert out.coefficient(1).is_zero()
    # order: min(1 + 0, 1 + 0) = 1, so z^2 is beyond knowledge
    assert out.order == 1


def test_mul_exponent_vectors_add():
    a = series(1, [L], 1)
    b = series(1, [EC.log2_power(-1)], 1)
    out = ps_mul(a, b)
    assert out.valuation == 2
    assert out.coefficient(2) == EC_ONE


def test_mul_order_rule():
    a = series(-1, [1] * 5, 3)   # valuation -1, order 3
    b = series(2, [1] * 4, 5)    # valuation 2, order 5
    out = ps_mul(a, b)
    assert out.valuation == 1
    assert out.order == min(3 + 2, 5 - 1)


# --- recip ---------------------------------------------------------------------


def test_recip_geometric():
    a = series(0, [1, -1, 0, 0, 0, 0], 5)   # 1 - z
    out = ps_recip(a)
    for k in range(6):
        assert out.coefficient(k) == EC_ONE


def test_recip_monomial():
    out = ps_recip(series(1, [2, 0, 0], 3))
    assert out.valuation == -1
    assert out.coefficient(-1) == rational(1, 2)


def test_recip_roundtrip_with_symbols():
    a = series(0, [rational(4), L, Z(3) * Fraction(1, 3), EC.log2_power(-2)], 3)
    prod = ps_mul(a, ps_recip(a))
    assert prod == TS.constant(1, prod.order)


def test_recip_errors():
    with pytest.raises(NonInvertibleLeadingCoefficient):
        ps_recip(series(0, [L + rational(1), 1], 1))
    with pytest.raises(NonInvertibleLeadingCoefficient):
        ps_recip(series(0, [Z(3), 1], 1))


# --- log -----------------------------------------------------------------------


def test_log_one():
    out = ps_log(TS.constant(1, 3))
    assert out.is_zero()


def test_log_four():
    a = series(0, [4, 4, 0, 0], 3)  # 4 + 4z = 4(1+z)
    out = ps_log(a)
    assert out.coefficient(0) == EC.log2_power(1, 2)
    assert out.coefficient(1) == EC_ONE
    assert out.coefficient(2) == rational(-1, 2)
    assert out.coefficient(3) == rational(1, 3)


def test_log_rejects_non_power_of_two():
    for c0 in (3, Fraction(1, 2), -4, 0):
        with pytest.raises(UnsupportedConstantTerm):
            ps_log(series(0, [c0, 1], 1))
    with pytest.raises(UnsupportedConstantTerm):
        ps_log(series(0, [L, 1], 1))
    with pytest.raises(UnsupportedConstantTerm):
        ps_log(series(-1, [1, 1], 0))  # Laurent part has no ring logarithm


def test_series_immutable():
    a = series(0, [1, 2], 1)
    with pytest.raises(AttributeError):
        a.order = 5


def test_log_multiplicative():
    rng = random.Random(3)
    for ja, jb in ((0, 1), (2, 1), (3, 0)):
        a = series(0, [2 ** ja] + [rational(rng.randint(-4, 4), rng.randint(1, 4))
                                   for _ in range(6)], 6)
        b = series(0, [2 ** jb] + [rational(rng.randint(-4, 4), rng.randint(1, 4))
                                   for _ in range(6)], 6)
        lhs = ps_log(ps_mul(a, b))
        rhs = ps_add(ps_log(a), ps_log(b))
        assert agree(lhs, rhs)


def test_log_pipeline_series():
    # log of the stationarity series through z^3
    from critline.optimal_coeffs import b_coeff
    arg = series(0, [1] + [b_coeff(m) * Fraction(1, 4) for m in (1, 2, 3)], 3)
    out = ps_log(arg)
    assert out.coefficient(1) == rational(-4)
    assert out.coefficient(2) == rational(-8) + EC.zeta_odd(3, 1, 18) * EC.log2_power(-1)
    assert out.coefficient(3) == rational(-64, 3) - EC.zeta_odd(3, 1, 72) * EC.log2_power(-1)


# --- compose / revert -------------------------------------------------------------


def test_compose_polynomial():
    outer = TS.monomial(2, 1, 4)       # z^2 known through z^4
    inner = series(1, [1, 1, 0, 0], 4)  # z + z^2
    out = ps_compose(outer, inner)
    assert out.coefficient(2) == EC_ONE
    assert out.coefficient(3) == rational(2)
    assert out.coefficient(4) == EC_ONE


def test_compose_identity():
    a = series(0, [3, L, Z(5), 2], 3)
    out = ps_compose(a, TS.identity(order=3))
    assert agree(out, a)


def test_compose_requires_positive_valuation():
    a = series(0, [1, 1], 1)
    with pytest.raises(PositiveValuationRequired):
        ps_compose(a, series(0, [1, 1], 1))
    with pytest.raises(PositiveValuationRequired):
        ps_compose(series(-1, [1, 1], 0), TS.identity(order=3))


def test_revert_identity():
    assert agree(ps_revert(TS.identity(order=5)), TS.identity(order=5))


def test_revert_catalan_signs():
    a = series(1, [1, 1, 0, 0], 4)  # z + z^2
    g = ps_revert(a)
    assert g.coefficient(1) == EC_ONE
    assert g.coefficient(2) == rational(-1)
    assert g.coefficient(3) == rational(2)
    assert g.coefficient(4) == rational(-5)
    # independent check: brute-force composition returns the identity
    comp = ps_compose(a, g)
    assert comp == TS.identity(order=comp.order)


def test_revert_errors():
    with pytest.raises(PositiveValuationRequired):
        ps_revert(series(0, [1, 1], 1))
    with pytest.raises(NonInvertibleLinearCoefficient):
        ps_revert(series(1, [Z(3), 1], 2))
    with pytest.raises(NonInvertibleLinearCoefficient):
        ps_revert(series(1, [L + rational(2), 1], 2))


def test_revert_with_symbolic_linear_coeff():
    a = series(1, [EC.log2_power(1, 2), Z(3), rational(1, 3)], 3)
    g = ps_revert(a)
    comp = ps_compose(a, g)
    assert comp == TS.identity(order=comp.order)


def _newton_revert(f):
    # independent reversion reference: Newton's g <- g - (f(g) - z) / f'(g),
    # doubling the number of known coefficients per step from g = z / f_1
    n = f.order
    fprime = TS(0, [f.coefficient(k) * k for k in range(1, n + 1)], n - 1)
    g = TS(1, [f.coefficient(1).monomial_inverse()], 1)
    while g.order < n:
        target = min(2 * g.order, n)
        # zero-padded candidate: no claim that the new coefficients are right
        gp = TS(1, list(g.coeffs) + [EC_ZERO] * (target - g.order), target)
        residual = ps_compose(ps_truncate(f, target), gp) - TS.identity(target)
        if residual.is_zero():
            g = gp
            continue
        deriv = ps_compose(ps_truncate(fprime, min(fprime.order, target)), gp)
        g = ps_truncate(gp - ps_mul(residual, ps_recip(deriv)), target)
    return g


def test_newton_reversion_agrees_with_lagrange():
    rng = random.Random(2718)
    cases = []
    for _ in range(25):
        coeffs = [rational(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(10)]
        while coeffs[0].is_zero():
            coeffs[0] = rational(rng.randint(1, 9))
        cases.append(series(1, coeffs, 10))
    # a symbolic series with an invertible monomial linear term, and order 1
    cases.append(series(1, [EC.log2_power(-1, Fraction(1, 2)), Z(3), L, rational(7, 3)], 4))
    cases += [series(1, [rational(-3, 7)], 1), series(1, [EC.log2_power(2, Fraction(5, 2))], 1)]
    for trial, a in enumerate(cases):
        g = ps_revert(a)
        assert g == _newton_revert(a), trial
        assert ps_compose(a, g) == TS.identity(order=a.order), trial


def test_pipeline_reversion_agrees_with_newton():
    from critline.optimal_coeffs import run_pipeline
    r = run_pipeline(7)
    f = ps_recip(r.w1)
    assert ps_revert(f) == _newton_revert(f) == r.Z


# --- truncation + structure -----------------------------------------------------


def test_truncate_never_extends():
    a = series(0, [1, 2, 3], 2)
    assert ps_truncate(a, 1).order == 1
    with pytest.raises(DomainError):
        ps_truncate(a, 5)


def test_coefficient_beyond_order_rejected():
    a = series(0, [1, 2], 1)
    with pytest.raises(DomainError):
        a.coefficient(2)
    assert a.coefficient(-1) == EC_ZERO  # below valuation: exactly zero


def test_laurent_head_normalized():
    a = series(-1, [0, 3, 1], 1)
    assert a.valuation == 0
    assert a.coefficient(0) == rational(3)


def test_truncation_monotonicity_random_ops():
    rng = random.Random(11)
    for _ in range(20):
        lo = [rational(rng.randint(-5, 5), rng.randint(1, 5)) for _ in range(9)]
        hi = lo + [rational(rng.randint(-5, 5), rng.randint(1, 5)) for _ in range(4)]
        lo[0] = hi[0] = rational(rng.randint(1, 5))
        a8, a12 = series(0, lo, 8), series(0, hi, 12)
        assert agree(ps_recip(a12), ps_recip(a8))
        assert agree(ps_mul(a12, a12), ps_mul(a8, a8))


def test_scale_and_sub():
    a = series(0, [1, 2], 1)
    assert ps_scale(a, L).coefficient(1) == L * 2
    assert (a - a).is_zero()


# --- Horner, baby-step/giant-step and a'/a against the algorithms they replace --
#
# The references below are the textbook forms: outer(inner) over one chain of
# powers inner^i, Lagrange inversion over the chain h, h^2, ..., h^n, and log
# as the series sum (-1)^(m+1) u^m / m.  The ring is exact and its normal form
# canonical, so the fast ops must return the very same series.


def _chain_compose(outer, inner):
    cap = (outer.order + 1) * inner.valuation - 1
    acc = TS.constant(outer.coefficient(0), cap)
    power = TS.constant(1, cap)
    for i in range(1, outer.order + 1):
        power = ps_mul(power, inner)
        ci = outer.coefficient(i)
        if not ci.is_zero():
            acc = ps_add(acc, ps_scale(power, ci))
        if power.valuation > acc.order:
            break
    return acc


def _chain_revert(a):
    n = a.order
    h = ps_recip(TS(0, a.coeffs, n - 1))
    hk, coeffs = h, []
    for k in range(1, n + 1):
        coeffs.append(hk.coefficient(k - 1) * Fraction(1, k))
        if k < n:
            hk = ps_mul(hk, h)
    return TS(1, coeffs, n)


def _series_log(a):
    q = a.coefficient(0).rational_value()  # 2^j
    j, n = q.numerator.bit_length() - 1, a.order
    u = TS(0, [EC_ZERO] + [c * Fraction(1, q.numerator) for c in a.coeffs[1:]], n)
    out = TS.constant(EC.log2_power(1, j) if j else EC_ZERO, n)
    power = TS.constant(1, n)
    for m in range(1, n + 1):
        power = ps_mul(power, u)
        out = ps_add(out, ps_scale(power, Fraction((-1) ** (m + 1), m)))
    return out


def _compose_order(outer, inner):
    # the stated rule: min(cap, inner.order + (i1 - 1) v), i1 the first i >= 1
    # with c_i != 0, and cap alone when there is none
    v = inner.valuation
    cap = (outer.order + 1) * v - 1
    i1 = next((i for i in range(1, outer.order + 1) if not outer.coefficient(i).is_zero()),
              None)
    return cap if i1 is None else min(cap, inner.order + (i1 - 1) * v)


PROPERTY = settings(max_examples=100, deadline=None, derandomize=True)
_rationals = st.fractions(min_value=-9, max_value=9, max_denominator=9).map(EC.rational)
_symbolic = st.sampled_from([L, EC.log2_power(-1, Fraction(-1, 2)), Z(3),
                             Z(3) * L + rational(1, 3), EC.log2_power(-2, 3) - Z(3)])
_units = st.sampled_from([rational(1), rational(-3, 7), rational(5, 2), L,
                          EC.log2_power(-1, Fraction(2, 3))])
_coeffs = st.one_of(st.just(EC_ZERO), _rationals, _symbolic)


@st.composite
def _series(draw, valuation, max_order=12, head=_coeffs):
    order = draw(st.integers(valuation, max_order))
    coeffs = [draw(head)] + draw(st.lists(_coeffs, min_size=order - valuation,
                                          max_size=order - valuation))
    return TS(valuation, coeffs, order)


@PROPERTY
@given(st.integers(0, 2).flatmap(_series),
       st.integers(1, 3).flatmap(lambda v: _series(v, head=_units)))
def test_compose_equals_the_power_chain(outer, inner):
    got = ps_compose(outer, inner)
    assert got == _chain_compose(outer, inner)
    assert got.order == _compose_order(outer, inner)


@PROPERTY
@given(_series(1, head=_units))
def test_revert_equals_the_lagrange_chain(a):
    assert ps_revert(a) == _chain_revert(a)


@PROPERTY
@given(st.sampled_from([1, 2, 4, 8]).flatmap(
    lambda q: _series(0, head=st.just(rational(q)))))
def test_log_equals_the_power_series(a):
    assert ps_log(a) == _series_log(a)


def _derivative(H):
    return TS(0, [H.coefficient(k) * k for k in range(1, H.order + 1)], H.order - 1)


@PROPERTY
@given(_series(0, max_order=10, head=_units), st.integers(1, 3).flatmap(_series))
def test_lagrange_core_equals_compose_after_revert(h, H):
    # w = z/h(z) inverts to z(w); the core reads z(w) and H(z(w)) off the
    # powers of h, which must agree with reverting z/h and composing
    n = h.order + 1
    zc, hc = _lagrange(h, n, _derivative(H))
    z_of_w = ps_revert(TS(1, ps_recip(h).coeffs, n))
    assert TS(1, zc, n) == z_of_w
    composed = ps_compose(H, z_of_w)
    assert len(hc) == min(n, H.order) <= composed.order
    assert hc == [composed.coefficient(k) for k in range(1, len(hc) + 1)]


# --- _dot: the one-sum route and the dict route ---------------------------------

_big = st.integers(-2 ** 70, 2 ** 70).map(Fraction)
_q = st.one_of(st.fractions(min_value=-9, max_value=9, max_denominator=9), _big)


def _monomial(eL, e3, q):
    """q * L^eL * Z3^e3."""
    return EC({(eL, ((3, e3),)): q})


_one_term = st.one_of(
    _q.map(EC.rational),
    st.builds(EC.log2_power, st.integers(-3, 3), _q),
    st.builds(_monomial, st.integers(-3, 3), st.integers(1, 2), _q))
_dot_elements = st.one_of(st.just(EC_ZERO), _one_term,
                          st.tuples(_one_term, _one_term).map(lambda xy: xy[0] + xy[1]))


@st.composite
def _dots(draw):
    """Pairs for _dot: every product on one monomial, or any elements."""
    n = draw(st.integers(1, 5))
    if not draw(st.booleans()):
        return [(draw(_dot_elements), draw(_dot_elements)) for _ in range(n)]
    eL, e3 = draw(st.integers(-3, 3)), draw(st.integers(0, 2))
    pairs = []
    for _ in range(n):
        a, b = draw(st.integers(-3, 3)), draw(st.integers(0, e3))
        pair = [_monomial(a, b, draw(_q)), _monomial(eL - a, e3 - b, draw(_q))]
        if draw(st.integers(0, 4)) == 0:
            pair[draw(st.integers(0, 1))] = EC_ZERO
        pairs.append(tuple(pair))
    return pairs


@PROPERTY
@given(_dots())
def test_dot_equals_the_fraction_reference(pairs):
    products = [_RefCoefficient(x.terms) * _RefCoefficient(y.terms) for x, y in pairs]
    ref = sum(products, _RefCoefficient())
    # a product of Laurent polynomials is one term only when both factors are
    monomials = [tuple(p.terms) for p in products if p.terms]
    one_key = all(len(m) == 1 for m in monomials) and len(set(monomials)) <= 1
    with mock.patch.object(series_algebra, "_normalised",
                           wraps=series_algebra._normalised) as normalised:
        got = _dot(pairs)
    want = EC(ref.terms)  # canonical, by the constructor
    assert got.terms == ref.terms
    assert got == want
    assert got._keys is want._keys
    assert type(got._nums) is type(want._nums) and list(got._nums) == list(want._nums)
    assert got._den == want._den
    assert got._deg == (max(x._deg + y._deg for x, y in pairs) if ref.terms else 0)
    # only a dot on several keys forms the per-key dict
    assert normalised.called == (not one_key)


def test_dot_one_sum_cancels_to_zero():
    assert _dot([(rational(1, 2), rational(2)), (rational(-1, 3), rational(3))]) is EC_ZERO
    assert _dot([(L, rational(3, 4)), (EC.log2_power(1, 3), rational(-1, 4))]) is EC_ZERO
    assert _dot([(EC_ZERO, L), (rational(5), EC_ZERO)]) is EC_ZERO


def test_dot_one_sum_beyond_int64_stores_a_tuple():
    got = _dot([(rational(2 ** 40, 3), rational(2 ** 40)), (rational(1, 3), rational(1))])
    assert type(got._nums) is tuple and got._nums == (2 ** 80 + 1,) and got._den == 3
    assert got == rational(2 ** 80 + 1, 3)
    small = _dot([(rational(2 ** 40, 3), rational(-2 ** 40, 5)),
                  (rational(2 ** 80, 3), rational(1, 5))])
    assert small is EC_ZERO
    fits = _dot([(rational(2 ** 62, 7), rational(1)), (rational(-1, 7), rational(1))])
    assert fits._nums.typecode == "q" and fits == rational(2 ** 62 - 1, 7)


def test_dot_keeps_the_degree_of_zero_pairs():
    got = _dot([(EC_ZERO, L ** 7), (rational(1, 2), rational(3))])
    assert got == rational(3, 2) and got._deg == 7
    got = _dot([(L ** 2, Z(3)), (EC_ZERO, Z(3) ** 9)])
    assert got == L ** 2 * Z(3) and got._deg == 9


def test_dot_on_two_keys_takes_the_dict_route():
    pairs = [(L, rational(2, 3)), (rational(1, 2), rational(5)), (Z(3), L)]
    with mock.patch.object(series_algebra, "_normalised",
                           wraps=series_algebra._normalised) as normalised:
        got = _dot(pairs)
    assert normalised.call_count == 1
    assert got == L * Fraction(2, 3) + rational(5, 2) + Z(3) * L
    # the same value as the sum of the one-pair dots, which take the one-sum route
    assert got == sum((_dot([p]) for p in pairs), EC_ZERO)


# --- _cauchy: the integer route against _dot --------------------------------------


def _dot_cauchy(a, b, order):
    """_cauchy's product with every coefficient one _dot over its index pairs."""
    v = a.valuation + b.valuation
    if v > order or a.is_zero() or b.is_zero():
        return TS.zero(order)
    return TS(v, [_dot([(a.coeffs[i], b.coeffs[k - i]) for i in range(k + 1)])
                  for k in range(order - v + 1)], order)


def _assert_same_fields(got, want):
    assert (got.valuation, got.order) == (want.valuation, want.order)
    assert len(got.coeffs) == len(want.coeffs)
    for x, y in zip(got.coeffs, want.coeffs):
        assert x._keys is y._keys
        assert type(x._nums) is type(y._nums) and list(x._nums) == list(y._nums)
        assert x._den == y._den and x._deg == y._deg


def _ps_mul_order(a, b):
    return min(a.order + b.valuation, b.order + a.valuation)


@st.composite
def _one_key_series(draw, eL, e3, valuation, order):
    """Coefficients q L^eL Z3^e3 or zero; a factor L^p L^-p (key 0, degree
    bound 2p) makes the degree bounds of the nonzero ones differ."""
    coeffs = []
    for _ in range(order - valuation + 1):
        if draw(st.integers(0, 3)) == 0:
            coeffs.append(EC_ZERO)
            continue
        p = draw(st.sampled_from([0, 0, 1, 4]))
        coeffs.append(_monomial(eL, e3, draw(_q)) * (L ** p * EC.log2_power(-p)))
    return TS(valuation, coeffs, order)


@st.composite
def _one_key_pairs(draw):
    eL, e3 = draw(st.integers(-3, 3)), draw(st.integers(0, 2))
    va = draw(st.integers(-1, 1))
    vb = draw(st.integers(max(-1, -1 - va), 1))  # ps_mul's floor: va + vb >= -1
    na = draw(st.integers(max(va, 0), 14))
    nb = draw(st.integers(max(vb, 0), 14).filter(lambda n: n != na))
    # the second factor's key may differ from the first's
    eLb, e3b = draw(st.sampled_from([(eL, e3), (0, 0), (-eL, 1)]))
    return (draw(_one_key_series(eL, e3, va, na)), draw(_one_key_series(eLb, e3b, vb, nb)))


@PROPERTY
@given(_one_key_pairs())
def test_integer_route_equals_the_dot_route(ab):
    a, b = ab
    order = _ps_mul_order(a, b)
    got = series_algebra._cauchy(a, b, order)
    _assert_same_fields(got, _dot_cauchy(a, b, order))
    n = order - a.valuation - b.valuation + 1
    if n > 0 and not (a.is_zero() or b.is_zero()):
        assert series_algebra._kronecker(a.coeffs[:n], b.coeffs[:n]) is not None


def test_integer_route_stores_a_tuple_beyond_int64():
    a, b = series(0, [2 ** 40, 1, rational(1, 3)]), series(0, [2 ** 40, 3, 0])
    got = series_algebra._cauchy(a, b, 2)
    assert type(got.coeffs[0]._nums) is tuple and got.coeffs[0] == 2 ** 80
    assert got.coeffs[1]._nums.typecode == "q" and got.coeffs[1] == 2 ** 42
    _assert_same_fields(got, _dot_cauchy(a, b, 2))


@pytest.mark.parametrize("a", [
    series(0, [rational(1, 2), L + 1, rational(3)]),  # one coefficient on two keys
    series(0, [L, rational(2), Z(3)]),                # one key per coefficient, two keys
])
def test_integer_route_falls_back_to_dot(a):
    b = series(-1, [rational(2, 3), L, rational(-5), rational(1, 7)])
    assert series_algebra._kronecker(a.coeffs, b.coeffs[:3]) is None
    for x, y in ((a, b), (b, a)):
        order = _ps_mul_order(x, y)
        _assert_same_fields(series_algebra._cauchy(x, y, order), _dot_cauchy(x, y, order))


def _wide_L(deg):
    """L with degree bound deg (odd): L^p L^(1-p), p = (deg + 1)/2."""
    p = (deg + 1) // 2
    return L ** p * EC.log2_power(1 - p)


def test_integer_route_refuses_where_dot_does():
    # degree bounds (MAX, 1) times (3, 5): z^0 reaches MAX + 3 first and z^1
    # MAX + 5, so both routes name MAX + 3
    a = series(0, [_wide_L(EXPONENT_MAX), L])
    b = series(0, [_wide_L(3), _wide_L(5)])
    for x, y in ((a, b), (b, a)):
        with pytest.raises(DomainError) as want:
            _dot_cauchy(x, y, 1)
        with pytest.raises(DomainError) as got:
            series_algebra._cauchy(x, y, 1)
        assert str(got.value) == str(want.value) and str(EXPONENT_MAX + 3) in str(got.value)
    # z^1 is L (-L) + L L = 0, and is refused all the same
    a = series(0, [L, _wide_L(EXPONENT_MAX)])
    b = series(0, [L, -L])
    with pytest.raises(DomainError, match=str(EXPONENT_MAX + 1)):
        series_algebra._cauchy(a, b, 1)
    with pytest.raises(DomainError, match=str(EXPONENT_MAX + 1)):
        _dot_cauchy(a, b, 1)


def test_compose_order_rule_cases():
    inner = series(2, [1, 1], 3)                    # z^2 + z^3, v = 2
    # c_1 != 0: inner.order + 0 = 3, below cap (2 + 1) * 2 - 1 = 5
    assert ps_compose(series(0, [1, 1, 1], 2), inner).order == 3
    # c_1 = 0, c_2 != 0: 3 + 2 = 5 = cap
    assert ps_compose(series(0, [1, 0, 1], 2), inner).order == 5
    # a constant outer: cap alone
    assert ps_compose(TS.constant(3, 2), inner) == TS.constant(3, 5)


# --- product counts -------------------------------------------------------------

# pairs of coefficients handed to _dot by the power-chain algorithms on the
# dense inputs below: order-12 revert and compose, order-10 log
CHAIN_PAIRS = {"revert": 935, "compose": 1080, "log": 650}


def _dense(valuation, order, head):
    rng = random.Random(order)
    return series(valuation, [head] + [rational(rng.choice([-7, -2, 1, 3, 5]), rng.randint(1, 9))
                                       for _ in range(order - valuation)], order)


def test_product_counts_stay_below_the_power_chains(dot_pairs):
    b, a = _dense(1, 12, rational(3, 2)), _dense(0, 10, rational(4))
    g = ps_revert(b)
    assert dot_pairs(_chain_revert, b) == CHAIN_PAIRS["revert"]
    assert dot_pairs(_chain_compose, b, g) == CHAIN_PAIRS["compose"]
    assert dot_pairs(_series_log, a) == CHAIN_PAIRS["log"]
    assert dot_pairs(ps_revert, b) <= 0.6 * CHAIN_PAIRS["revert"]
    assert dot_pairs(ps_compose, b, g) <= 0.5 * CHAIN_PAIRS["compose"]
    assert dot_pairs(ps_log, a) <= 0.3 * CHAIN_PAIRS["log"]


# --- an independent cross-check: sympy's ring series ----------------------------


def test_ops_agree_with_sympy_ring_series():
    sympy = pytest.importorskip("sympy")
    from sympy.polys.ring_series import rs_log, rs_mul, rs_series_reversion
    R, x, y = sympy.polys.rings.ring("x, y", sympy.QQ)

    def poly(s, var):
        return sum((s.coefficient(k).rational_value() * var ** k
                    for k in range(s.valuation, s.order + 1)), R(0))

    def coeffs(p, var, order):
        return [p.coeff(var ** k) if k else p.coeff(1) for k in range(order + 1)]

    def ours(s, start=0):
        return [s.coefficient(k).rational_value() for k in range(start, s.order + 1)]

    rng = random.Random(1973)
    for trial in range(6):
        b = _dense(1, 12, rational(rng.choice([-2, 1, 5]), rng.randint(1, 4)))
        rev = rs_series_reversion(poly(b, x), x, 13, y)
        assert ours(ps_revert(b)) == coeffs(rev, y, 12), trial
        c = _dense(0, 12, rational(rng.choice([1, 4])))
        j = c.coefficient(0).rational_value().numerator.bit_length() - 1
        log = rs_log(poly(c, x) / 2 ** j, x, 13)
        got = ps_log(c)
        assert got.coefficient(0) == (EC.log2_power(1, j) if j else EC_ZERO), trial
        assert ours(got, 1) == coeffs(log, x, 12)[1:], trial
        inner = _dense(1, 12, rational(rng.randint(1, 5)))
        outer = _dense(0, 12, rational(rng.randint(-3, 3)))
        acc = R(0)  # the substitution outer(inner), expanded through x^12
        for k in range(12, -1, -1):
            acc = rs_mul(acc, poly(inner, x), x, 13) + outer.coefficient(k).rational_value()
        assert ours(ps_compose(outer, inner)) == coeffs(acc, x, 12), trial
