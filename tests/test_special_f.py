import math

import numpy as np
import pytest

from critline.errors import DomainError
from critline.special_f import (
    TWO_LOG2,
    FMethod,
    f_closed_form,
    f_eval,
    f_pole_bound,
    f_prime,
    f_quadrature,
    f_series,
    f_taylor,
)
from critline.zeta_oracle import zeta_real


def test_zero_is_exact():
    for m in FMethod:
        assert f_eval(0.0, m) == 0.0


def test_value_at_half_is_one():
    # digamma reflection makes F(1/2) exactly 1
    for m in FMethod:
        assert abs(f_eval(0.5, m) - 1.0) <= 1e-12, m


def test_three_method_agreement_on_grid():
    for u in np.arange(0.05, 0.951, 0.05):
        vals = [f_eval(float(u), m) for m in FMethod]
        assert max(vals) - min(vals) <= 1e-9, u


def test_method_by_member_or_value():
    for m in FMethod:
        assert f_eval(0.5, m.value) == f_eval(0.5, m)


@pytest.mark.parametrize("bad", [3, "quad", None, FMethod])
def test_unknown_method_is_refused(bad):
    # neither a member nor a value string: no silent fallback to the closed form
    with pytest.raises(DomainError, match="unknown F method"):
        f_eval(0.5, bad)


def test_cross_method_at_edge():
    assert abs(f_quadrature(0.9) - f_series(0.9)) <= 1e-10


def test_domain_errors():
    for bad in (-0.01, 0.991, 1.5, math.nan):
        for m in FMethod:
            with pytest.raises(DomainError):
                f_eval(bad, m)
    for bad in ([0.5, math.nan], [math.nan, 0.5], [0.5, 1.5]):
        with pytest.raises(DomainError):
            f_closed_form(np.array(bad))
    # the kernel sends an empty array for a cutoff below 2
    assert f_closed_form(np.array([])).shape == (0,)
    with pytest.raises(DomainError):
        f_prime(0.51)
    with pytest.raises(DomainError):
        f_prime(-0.1)


def _series_reference(u, terms):
    """2 log 2 u + the first ``terms`` Taylor terms f_taylor(k) u^(2k+1), each
    power formed as f_series forms it, summed by fsum."""
    vals, upow = [TWO_LOG2 * u], u
    for k in range(1, terms + 1):
        upow *= u * u
        vals.append(f_taylor(k) * upow)
    return math.fsum(vals)


def test_taylor_coefficients_are_the_series_route():
    # f_series and f_prime sum the same coefficients, times u^(2k+1) and (2k+1) u^2k;
    # at u = 0.3 the tail bound 2 zeta(3) u^(2K+3) / (1 - u^2) first drops below 1e-12 at K = 11
    assert f_taylor(1) == 2 * 0.75 * zeta_real(3)
    assert 2 * zeta_real(3) * 0.3 ** 23 / 0.91 > 1e-12 >= 2 * zeta_real(3) * 0.3 ** 25 / 0.91
    assert f_series(0.3) == _series_reference(0.3, 11)


def test_envelope_and_monotonicity():
    grid = np.arange(0.01, 0.9901, 0.01)
    vals = f_closed_form(grid)
    assert np.all(vals <= 2 * grid / (1 - grid * grid) + 1e-12)
    assert np.all(np.diff(vals) > 0)
    assert np.all(vals > 0)


def test_fprime_constant_term():
    assert f_prime(0.0) == 2 * math.log(2)


def test_fprime_lower_bound():
    for u in np.arange(0.02, 0.501, 0.02):
        assert f_prime(float(u)) >= 2 * math.log(2)


def test_fprime_against_central_difference():
    u, h = 0.25, 1e-5
    fd = (f_eval(u + h) - f_eval(u - h)) / (2 * h)
    assert abs(f_prime(u) - fd) <= 1e-8


def test_weight_chain_small_x():
    x = 100
    n = np.arange(2, x + 1, dtype=float)
    logx, logn = math.log(x), np.log(n)
    w = f_closed_form((logx - logn) / logx) / logx
    upper = 1 / logn - 1 / (2 * logx - logn)
    upper2 = np.minimum(1 / logn, 2 * (logx - logn) / logn ** 2)
    assert np.all(w >= -1e-12)
    assert np.all(w <= upper + 1e-12)
    assert np.all(upper <= upper2 + 1e-12)


def test_series_stays_within_its_tail_bound_of_more_terms():
    assert abs(_series_reference(0.4, 80) - f_series(0.4)) <= 1e-12
