import math

import numpy as np
import pytest
from scipy import integrate

from critline.errors import DomainError
from critline import quadrature
from critline.quadrature import (
    geometric_tail,
    integrate_on_edges,
    panel_integrate,
    poisson_cos_tail,
)


def test_panel_integrate_polynomial_exact():
    # degree-7 polynomial is exact for order >= 4 Gauss-Legendre
    val = panel_integrate(lambda x: x ** 7 - 3 * x ** 2, 0.0, 2.0, 3, order=6)
    assert val == pytest.approx(2 ** 8 / 8 - 2 ** 3, rel=1e-14)


def test_panel_integrate_oscillatory_vs_scipy():
    f = lambda x: np.cos(7.3 * x) / (1 + x * x)
    mine = panel_integrate(f, 0.0, 50.0, 500)
    ref, _ = integrate.quad(lambda x: math.cos(7.3 * x) / (1 + x * x), 0, 50,
                            limit=2000, epsabs=1e-13)
    assert mine == pytest.approx(ref, abs=1e-12)


def test_empty_interval():
    assert panel_integrate(lambda x: x, 1.0, 1.0, 4) == 0.0
    assert panel_integrate(lambda x: x, 2.0, 1.0, 4) == 0.0
    assert integrate_on_edges(lambda x: x, [1.0], 12) == 0.0


def test_geometric_tail_log_over_square():
    # integral_T^inf log(x)/x^2 dx = (log T + 1)/T
    T = 50.0
    val = geometric_tail(lambda x: np.log(x) / x ** 2, T)
    assert val == pytest.approx((math.log(T) + 1) / T, rel=1e-12)


def test_geometric_tail_evaluates_f_once():
    calls = []

    def f(x):
        calls.append(len(x))
        return 1 / x ** 2

    assert geometric_tail(f, 10.0) == pytest.approx(0.1, rel=1e-13)
    assert len(calls) == 1 and calls[0] % 32 == 0  # two order-16 panels per 1.5x step


@pytest.mark.parametrize("start", [10.0, 1e4 + 0.3, 1e16 / 1.5, 1e16 / 1.5 ** 2, 9.9e15, 1e16, 2e16])
def test_geometric_tail_edges_are_the_stepwise_ones(start):
    # the cumprod edges are the floats of a -> min(1.5 a, 1e16) step by step
    edges = [start]
    while edges[-1] < 1e16:
        b = min(edges[-1] * 1.5, 1e16)
        edges += [(edges[-1] + b) / 2, b]
    got, want = [], []
    geometric_tail(lambda x: got.append(x.copy()) or x, start)
    integrate_on_edges(lambda x: want.append(x.copy()) or x, edges, 16)
    assert len(got) == len(want) == (start < 1e16)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


def test_integrate_on_edges_along_a_complex_segment():
    # int e^{-s} ds from a to b along the straight path is e^{-a} - e^{-b}
    a, b = 1 + 2j, 3 + 5j
    val = integrate_on_edges(lambda s: np.exp(-s), np.linspace(0, 1, 5) * (b - a) + a, 16)
    assert abs(val - (np.exp(-a) - np.exp(-b))) <= 1e-15


def test_integrate_on_edges_bounds_the_nodes_per_call(monkeypatch):
    f = lambda x: np.cos(3 * x) / (1 + x * x)
    edges = np.linspace(0.0, 5.0, 11)
    whole = integrate_on_edges(f, edges, 12)
    calls = []

    def recording(x):
        calls.append(len(x))
        return f(x)

    monkeypatch.setattr(quadrature, "_MAX_NODES", 48)
    chunked = integrate_on_edges(recording, edges, 12)
    assert calls == [48, 48, 24]  # 10 order-12 panels, 4 per call
    assert abs(chunked - whole) <= 4 * math.ulp(whole)


def test_poisson_cos_tail_zero_frequency_exact():
    beta, T = 0.3, 100.0
    val, bound = poisson_cos_tail(2.5, beta, 0.0, T)
    assert bound == 0.0
    assert val == pytest.approx(2.5 * (math.pi / 2 - math.atan(T / beta)), abs=1e-16)


def test_poisson_cos_tail_vs_bruteforce():
    beta, omega, T = 0.5, 3.0, 200.0
    val, bound = poisson_cos_tail(1.0, beta, omega, T)
    # brute force over many decaying oscillations, to X = 1e5: its own
    # truncation is at most 2 g(X)/omega = 3.3e-11 (second mean value theorem)
    ref = panel_integrate(
        lambda x: beta * np.cos(omega * x) / (beta ** 2 + x ** 2), T, 1e5, math.ceil(1e5 - T))
    assert abs(val - ref) <= bound + 1e-10


@pytest.mark.parametrize("beta,omega,T", [
    (1.0, 0.5, 20.0), (1e-3, 6.0, 15.0), (2.0, 12.0, 4.0), (0.25, 1.57, 60.0),
])
def test_poisson_cos_tail_against_mpmath(beta, omega, T):
    mp = pytest.importorskip("mpmath")
    val, bound = poisson_cos_tail(1.0, beta, omega, T)
    with mp.workdps(30):
        ref = mp.quadosc(lambda x: beta * mp.cos(omega * x) / (beta ** 2 + x ** 2),
                         [T, mp.inf], omega=omega)
    assert abs(val - float(ref)) <= bound


def test_poisson_cos_tail_guards():
    # the remainder bound holds for every T > 0, and only there
    with pytest.raises(DomainError):
        poisson_cos_tail(1.0, 1.0, 2.0, 0.0)
