import math

import numpy as np
import pytest

from critline.errors import DomainError
from critline.special_f import (
    FMethod,
    f_closed_form,
    f_eval,
    f_pole_bound,
    f_prime,
    f_quadrature,
    f_series,
)


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
    for bad in (-0.01, 0.991, 1.5):
        with pytest.raises(DomainError):
            f_eval(bad)
    with pytest.raises(DomainError):
        f_prime(0.51)
    with pytest.raises(DomainError):
        f_prime(-0.1)


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


def test_series_term_override():
    # forcing extra terms must not change the value beyond the tail bound
    assert abs(f_series(0.4, terms=80) - f_series(0.4)) <= 1e-12
