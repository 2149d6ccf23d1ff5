import math

import numpy as np
import pytest

from critline.errors import DomainError
from critline.extremal_poisson import (
    KernelParams,
    envelope_constant,
    eval_m,
    ft_m,
    kernel_constants,
    l1_dist,
    l1_numeric,
    numeric_ft,
    poisson_h,
)
from critline.quadrature import panel_integrate

PARAM_GRID = [KernelParams(b, d) for b in (0.1, 0.5, 1.0) for d in (1.0, 2.0)]


def test_poisson_kernel_values():
    p = KernelParams(1.0, 1.0)
    assert poisson_h(p, 0.0) == 1.0
    assert poisson_h(p, 1.0) == 0.5


def test_poisson_kernel_mass():
    p = KernelParams(0.7, 1.0)
    main = panel_integrate(lambda y: poisson_h(p, y), -1e3, 1e3, 4000, 12)
    tail = 2 * (math.pi / 2 - math.atan(1e3 / p.beta))
    assert abs(main + tail - math.pi) <= 1e-8


def test_params_validation():
    with pytest.raises(DomainError):
        KernelParams(0.0, 1.0)
    with pytest.raises(DomainError):
        KernelParams(1.0, -2.0)
    assert abs(KernelParams(1.0, 1.0).x - math.exp(2 * math.pi)) < 1e-9


def test_minorant_nonnegative_random():
    rng = np.random.default_rng(123)
    x = rng.uniform(-200, 200, 10 ** 4)
    for p in PARAM_GRID:
        assert np.all(eval_m("-", p, x) >= -1e-15)


def test_pointwise_ordering_grid():
    grid = np.linspace(-50, 50, 10 ** 4)
    for p in PARAM_GRID:
        lo, hi, h = eval_m("-", p, grid), eval_m("+", p, grid), poisson_h(p, grid)
        assert np.all(lo <= h + 1e-12)
        assert np.all(h <= hi + 1e-12)


def test_evenness_exact():
    p = KernelParams(0.5, 1.5)
    xs = np.array([0.3, 1.7, 9.4, 25.0])
    assert np.array_equal(eval_m("+", p, xs), eval_m("+", p, -xs))
    assert ft_m("-", p, 0.7) == ft_m("-", p, -0.7)


def test_boundary_evaluation_scale():
    # complex evaluation at t +- i/2 stays within the sqrt(x) log x / t scale
    p = KernelParams(1.0, 1.0)
    t = 100.0
    val = eval_m("+", p, complex(t, 0.5)) + eval_m("+", p, complex(t, -0.5))
    assert abs(val.imag) < 1e-12
    scale = math.sqrt(p.x) * math.log(p.x) / t
    assert abs(val) <= 10 * scale


def test_singular_branch_agrees_with_direct_form():
    import cmath
    p = KernelParams(1.0, 1.0)
    A = math.exp(2 * math.pi) + math.exp(-2 * math.pi)
    D = (math.exp(math.pi) - math.exp(-math.pi)) ** 2
    for off in (0.9e-6, 0.9e-6j, -0.5e-6 + 0.5e-6j):
        z = 1j * p.beta + off
        branch = eval_m("+", p, z)  # |z - i beta| < 1e-6: limit branch
        direct = p.beta / (p.beta ** 2 + z * z) * (A - 2 * cmath.cos(2 * math.pi * z)) / D
        assert abs(branch - direct) < 1e-8
    assert np.isfinite(eval_m("-", p, 1j * p.beta).real)
    assert np.isfinite(eval_m("-", p, -1j * p.beta).real)


def test_ft_zero_values():
    for p in PARAM_GRID:
        x = p.x
        xb = x ** p.beta
        assert abs(ft_m("+", p, 0.0) - math.pi * (xb + 1) / (xb - 1)) <= 1e-12 * xb
        assert abs(ft_m("-", p, 0.0) - math.pi * (xb - 1) / (xb + 1)) <= 1e-12


def test_ft_support():
    p = KernelParams(0.5, 1.0)
    assert ft_m("+", p, p.delta) == 0.0
    assert ft_m("-", p, p.delta) == 0.0
    assert ft_m("+", p, 1.2 * p.delta) == 0.0
    arr = ft_m("+", p, np.array([-2.0, -0.5, 0.0, 0.5, 2.0]))
    assert arr[0] == 0.0 and arr[-1] == 0.0 and arr[2] > 0


def test_l1_closed_values():
    p = KernelParams(1.0, 1.0)
    q = math.exp(-2 * math.pi)
    assert abs(l1_dist("+", p) - 2 * math.pi * q / (1 - q)) < 1e-15
    # majorant error always exceeds minorant error
    for pp in PARAM_GRID:
        assert l1_dist("+", pp) > l1_dist("-", pp)
    # decreasing in Delta
    vals = [l1_dist("+", KernelParams(1.0, d)) for d in (1, 2, 4, 8)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_l1_quadrature_matches_closed():
    for p in (KernelParams(0.5, 1.0), KernelParams(1.0, 2.0)):
        for sign in "+-":
            closed = l1_dist(sign, p)
            assert abs(l1_numeric(sign, p) - closed) / closed <= 1e-6


def test_numeric_ft_matches_closed():
    p = KernelParams(0.5, 1.0)
    for sign in "+-":
        for xi in (0.0, 0.5, 1.0):
            assert abs(numeric_ft(sign, p, xi) - ft_m(sign, p, xi)) <= 1e-6
        # bandlimited: essentially zero beyond the band
        assert abs(numeric_ft(sign, p, 1.5)) <= 1e-6


def test_decay_envelope_constant():
    # majorant <= C/(beta (1+x^2)): the fitted C stays modest (reported, the
    # universal constant itself is not pinned anywhere)
    grid = np.linspace(-100, 100, 20001)
    for p in PARAM_GRID:
        vals = eval_m("+", p, grid)
        fitted = float(np.max(vals * p.beta * (1 + grid ** 2)))
        assert fitted <= 100.0, (p, fitted)
        # the explicit closed-form envelope dominates the fit (beta <= 1 here)
        assert fitted <= envelope_constant("+", p) + 1e-9


def test_kernel_constants_match_the_closed_form():
    for p in PARAM_GRID:
        q = math.exp(2 * math.pi * p.beta * p.delta)
        e = math.exp(math.pi * p.beta * p.delta)
        for sign, D in (("+", (e - 1 / e) ** 2), ("-", (e + 1 / e) ** 2)):
            A, got_D = kernel_constants(sign, p)
            assert got_D == D
            assert A == pytest.approx(q + 1 / q, rel=1e-15)


@pytest.mark.parametrize("fn", [eval_m, ft_m])
def test_bad_sign_rejected(fn):
    with pytest.raises(DomainError):
        fn("*", KernelParams(0.5, 1.0), 0.3)
