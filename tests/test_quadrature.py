import math

import numpy as np
import pytest
from scipy import integrate

from critline.errors import DomainError
from critline.quadrature import (
    geometric_tail,
    panel_integrate,
    panel_integrate_chunked,
    poisson_cos_tail,
)


def test_panel_integrate_polynomial_exact():
    # degree-7 polynomial is exact for order >= 4 Gauss-Legendre
    val = panel_integrate(lambda x: x ** 7 - 3 * x ** 2, 0.0, 2.0, 3, order=6)
    assert val == pytest.approx(2 ** 8 / 8 - 2 ** 3, rel=1e-14)


def test_panel_integrate_oscillatory_vs_scipy():
    f = lambda x: np.cos(7.3 * x) / (1 + x * x)
    mine = panel_integrate_chunked(f, 0.0, 50.0, 0.1)
    ref, _ = integrate.quad(lambda x: math.cos(7.3 * x) / (1 + x * x), 0, 50,
                            limit=2000, epsabs=1e-13)
    assert mine == pytest.approx(ref, abs=1e-12)


def test_empty_interval():
    assert panel_integrate(lambda x: x, 1.0, 1.0, 4) == 0.0
    assert panel_integrate_chunked(lambda x: x, 2.0, 1.0, 0.1) == 0.0


def test_geometric_tail_log_over_square():
    # integral_T^inf log(x)/x^2 dx = (log T + 1)/T
    T = 50.0
    val = geometric_tail(lambda x: np.log(x) / x ** 2, T)
    assert val == pytest.approx((math.log(T) + 1) / T, rel=1e-12)


def test_poisson_cos_tail_zero_frequency_exact():
    beta, T = 0.3, 100.0
    val, bound = poisson_cos_tail(2.5, beta, 0.0, T)
    assert bound == 0.0
    assert val == pytest.approx(2.5 * (math.pi / 2 - math.atan(T / beta)), abs=1e-16)


def test_poisson_cos_tail_vs_bruteforce():
    beta, omega, T = 0.5, 3.0, 200.0
    val, bound = poisson_cos_tail(1.0, beta, omega, T)
    # brute force over many decaying oscillations, far beyond where the
    # integrand matters
    ref = panel_integrate_chunked(
        lambda x: beta * np.cos(omega * x) / (beta ** 2 + x ** 2), T, 20000.0, 0.2)
    assert abs(val - ref) <= bound + 1e-10


def test_poisson_cos_tail_guards():
    with pytest.raises(DomainError):
        poisson_cos_tail(1.0, 1.0, 2.0, 5.0)  # T too close to the kernel scale
