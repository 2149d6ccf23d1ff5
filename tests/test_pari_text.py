from fractions import Fraction

import pytest

from critline.errors import ParseError
from critline.pari_text import (
    format_coefficient,
    format_series,
    parse_coefficient,
    parse_laurent,
    series_matches_text,
)
from critline.series_algebra import EC_ONE, ExactCoefficient, L, TruncatedSeries, Z

EC = ExactCoefficient


def test_format_monomials():
    assert format_coefficient(EC.zeta_odd(3, 1, Fraction(9, 4)) * EC.log2_power(-1)) == "9/4*Z3/L"
    assert format_coefficient(L * Fraction(1, 2)) == "L/2"
    assert format_coefficient(EC.rational(-4)) == "-4"
    assert format_coefficient(EC.rational(0)) == "0"
    assert format_coefficient(EC.log2_power(2) + L * Fraction(1, 2)) == "L^2 + L/2"


def test_parse_simple():
    lp, o = parse_laurent("1/2/z + 2*L - 4*z")
    assert o is None
    assert lp[-1] == EC.rational(1, 2)
    assert lp[0] == EC.log2_power(1, 2)
    assert lp[1] == EC.rational(-4)


def test_parse_o_marker():
    lp, o = parse_laurent("z - z^2 + O(z^3)")
    assert o == 3
    assert lp[1] == EC_ONE and lp[2] == EC.rational(-1)


def test_parse_grouped_products():
    c = parse_coefficient("45*(8*L^3 + 6*L^2 - 12/5*L - 1)*Z3")
    expect = (EC.log2_power(3, 360) + EC.log2_power(2, 270)
              + EC.log2_power(1, -108) + EC.rational(-45)) * Z(3)
    assert c == expect
    c2 = parse_coefficient("-81/4*(3-1/L)*Z3^2")
    expect2 = (EC.rational(-243, 4) + EC.log2_power(-1, Fraction(81, 4))) * Z(3) * Z(3)
    assert c2 == expect2


def test_parse_rejects_z_in_coefficient():
    with pytest.raises(ParseError):
        parse_coefficient("L + z")


@pytest.mark.parametrize("text", [
    "1.5*L",  # not an integer literal
    "Q3",  # unknown symbol
    '__import__("os")',  # calls are not in the dialect
    "L.real",  # nor is attribute access
    "L^(1/2)",  # fractional exponent
    "(L + 1",  # syntax error
    "(1+z)*(1+z)",  # neither factor is a single z-monomial
    "1/(1+z)",  # nor is the divisor
    "1/(L+1)",  # a divisor of two monomials leaves the ring
])
def test_parse_rejects_outside_dialect(text):
    with pytest.raises(ParseError):
        parse_laurent(text)


def test_round_trip_through_text():
    c = (EC.log2_power(-1, Fraction(-81, 16)) * Z(3) * Z(3)
         + EC.zeta_odd(5, 1, Fraction(225, 4)) + EC.log2_power(6, 16))
    assert parse_coefficient(format_coefficient(c)) == c


def test_series_round_trip():
    ts = TruncatedSeries(-1, [Fraction(1, 2), EC.log2_power(1, 2), EC.rational(-4),
                              EC.rational(-8) + EC.zeta_odd(3, 1, 18) * EC.log2_power(-1)], 2)
    text = format_series(ts)
    assert series_matches_text(ts, text)


def test_series_matches_detects_difference():
    ts = TruncatedSeries(1, [Fraction(1, 2), L], 2)
    assert series_matches_text(ts, "1/2*z + L*z^2 + O(z^3)")
    assert not series_matches_text(ts, "1/2*z + 2*L*z^2 + O(z^3)")
    assert not series_matches_text(ts, "1/2*z + L*z^2 + z^2 + O(z^3)")


def test_series_matches_zero_text():
    # no O() and nothing left after cancellation: the zero series through ts.order
    assert series_matches_text(TruncatedSeries(0, [0, 0, 0], 2), "z - z")
    assert not series_matches_text(TruncatedSeries(1, [Fraction(1, 2), L], 2), "z - z")
    assert not series_matches_text(TruncatedSeries(0, [0, 0, 1], 2), "z^2 - z^2")


def test_series_matches_refuses_beyond_order():
    ts = TruncatedSeries(1, [Fraction(1, 2)], 1)
    with pytest.raises(ParseError):
        series_matches_text(ts, "1/2*z + L*z^2 + O(z^5)")
