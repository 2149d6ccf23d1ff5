import math
import time

import numpy as np
import pytest

from critline import extremal_poisson
from critline.errors import DomainError
from critline.extremal_poisson import (
    KernelParams,
    eval_m,
    ft_m,
    ft_numerator,
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


@pytest.mark.parametrize("beta", [1e-300, 1e-160])
def test_params_refuse_a_beta_whose_square_leaves_the_normal_floats(beta):
    # 1e-300: the quadratures divided by zero; 1e-160: l1_numeric("-") read
    # 3.1415550 against pi
    with pytest.raises(DomainError, match="normal float"):
        KernelParams(beta, 1e-5)


def test_l1_numeric_at_the_smallest_beta():
    p = KernelParams(1e-150, 1e-5)
    assert l1_dist("-", p) == pytest.approx(math.pi, rel=1e-15)
    assert abs(l1_numeric("-", p) - math.pi) <= 1e-8
    assert abs(numeric_ft("-", p, 0.5e-5) - ft_m("-", p, 0.5e-5)) <= 1e-8


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


def test_pointwise_ordered_checks_both_sides(monkeypatch):
    assert all(extremal_poisson.pointwise_ordered(p) for p in PARAM_GRID)
    p = PARAM_GRID[0]
    h = poisson_h
    # a kernel above the majorant at the interpolation points, then one below the minorant
    monkeypatch.setattr(extremal_poisson, "poisson_h", lambda p, x: 2 * h(p, x))
    assert not extremal_poisson.pointwise_ordered(p)
    monkeypatch.setattr(extremal_poisson, "poisson_h", lambda p, x: h(p, x) - 1e-3)
    assert not extremal_poisson.pointwise_ordered(p)


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


def test_l1_dist_rejects_a_degenerate_majorant():
    # D of m^+ underflows to 0: a DomainError, not a ZeroDivisionError
    with pytest.raises(DomainError):
        l1_dist("+", KernelParams(1e-100, 1e-100))
    with pytest.raises(DomainError):
        l1_dist("*", KernelParams(0.5, 1.0))
    # 1 - e^{-2 pi beta Delta} by expm1: a tiny beta*Delta is not degenerate
    assert l1_dist("+", KernelParams(1e-9, 1e-9)) == pytest.approx(1e18, rel=1e-15)


@pytest.mark.parametrize("beta,delta,xi", [
    # at xi = 0.5 the fast frequencies 2 pi (Delta +- 1/2) get their own short
    # panels, so the slow one's long tail no longer sets their panel count
    (1e-3, 1e5, 0.5),
    # |Delta - xi| = 1e-9: omega ~ 6e-9 has its tail start T ~ 100/omega near
    # 1e10, and as many panels as any other frequency on its own mesh
    (0.5, 1.0, 1.0 - 1e-9),
])
def test_quadrature_takes_what_the_panel_cap_refused(beta, delta, xi):
    p = KernelParams(beta, delta)
    t0 = time.perf_counter()
    value = numeric_ft("+", p, xi)
    assert time.perf_counter() - t0 < 0.1
    assert abs(value - ft_m("+", p, xi)) <= 1e-10


def test_quadrature_takes_a_slow_frequency():
    # omega = 2 pi 0.05 is below the 0.5 that the tail rule once required
    p = KernelParams(0.5, 0.05)
    for sign in "+-":
        assert abs(l1_numeric(sign, p) - l1_dist(sign, p)) <= 1e-12 * l1_dist(sign, p)
        assert abs(numeric_ft(sign, p, 0.025) - ft_m(sign, p, 0.025)) <= 1e-12


@pytest.mark.parametrize("beta,tol", [(1e-3, 1e-10), (1e-4, 1e-8)])
def test_quadrature_of_a_narrow_kernel(beta, tol):
    # beta/2 panels cover only the peak, so a narrow kernel costs log(1/beta)
    # more panels; its accuracy is set by rounding, about sum |c| pi 2^-52
    p = KernelParams(beta, 1.0)
    t0 = time.perf_counter()
    for sign in "+-":
        assert abs(l1_numeric(sign, p) - l1_dist(sign, p)) <= tol * l1_dist(sign, p)
        for frac in (0.0, 0.5, 1.0, 1.5):
            assert abs(numeric_ft(sign, p, frac) - ft_m(sign, p, frac)) <= tol
    assert time.perf_counter() - t0 < 0.1


def _quadrature_calls(monkeypatch):
    """(omega, kernel, tail bound) of every ``_kernel_cos_quadrature`` call."""
    calls = []
    quadrature = extremal_poisson._kernel_cos_quadrature

    def recording(omega, p, target):
        val, bound = quadrature(omega, p, target)
        calls.append((omega, p, bound))
        return val, bound

    monkeypatch.setattr(extremal_poisson, "_kernel_cos_quadrature", recording)
    return calls


def _checks(p):
    """Criterion 4's cross-checks on one kernel, as calls: the L1 distance and
    the transform at 0, Delta/2, Delta and 3 Delta/2, for + then -."""
    return [f for sign in "+-" for f in (
        lambda sign=sign: l1_numeric(sign, p),
        *(lambda sign=sign, frac=frac: numeric_ft(sign, p, frac * p.delta)
          for frac in (0.0, 0.5, 1.0, 1.5)))]


def _all_checks(p):
    return [f() for f in _checks(p)]


def test_kernel_quadrature_tail_bound_at_criterion_4_grid(monkeypatch):
    calls = _quadrature_calls(monkeypatch)
    for p in PARAM_GRID:
        _all_checks(p)
    # the frequencies 0, pi Delta, ..., 5 pi Delta, each integrated once
    assert len(calls) == len(PARAM_GRID) * 6
    assert max(bound for *_, bound in calls) <= 1e-12


def test_each_frequency_of_a_kernel_is_one_quadrature(monkeypatch):
    calls = _quadrature_calls(monkeypatch)
    p, tp = KernelParams(0.5, 1.0), 2 * math.pi
    numeric_ft("+", p, 0.5)  # pi, 3 pi and pi again
    numeric_ft("-", p, 1.5)  # 3 pi, 5 pi and pi: only 5 pi is new
    l1_numeric("+", p)
    assert [w for w, *_ in calls] == [tp * 0.5, tp * 1.5, tp * 2.5, 0.0, tp]
    before = len(calls)
    _all_checks(p)  # of criterion 4's frequencies only 4 pi, from xi = Delta, is new
    assert [w for w, *_ in calls[before:]] == [tp * 2]
    _all_checks(p)
    assert len(calls) == before + 1
    assert {q for _, q, _ in calls} == {p}


def test_cross_checks_do_not_depend_on_the_order_of_requests():
    p = KernelParams(0.4, 1.9)
    forward = _all_checks(p)
    extremal_poisson._cos_integrals.cache_clear()
    assert [f() for f in reversed(_checks(p))] == forward[::-1]
    extremal_poisson._cos_integrals.cache_clear()
    assert numeric_ft("-", p, 1.5 * p.delta) == forward[9]
    assert l1_numeric("-", p) == forward[5]
    # a kernel asked for in between empties the one-slot memo; the values stay
    _all_checks(KernelParams(0.5, 1.0))
    assert _all_checks(p) == forward


def test_each_cross_check_is_one_core_call(monkeypatch):
    # the graded and uniform panels of one frequency's mesh are integrated together
    core = extremal_poisson.integrate_on_edges
    calls = []

    def recording(f, edges, order):
        calls.append(len(edges))
        return core(f, edges, order)

    monkeypatch.setattr(extremal_poisson, "integrate_on_edges", recording)
    p = KernelParams(0.5, 1.0)
    numeric_ft("+", p, 0.5)  # pi and 3 pi
    assert len(calls) == 2
    l1_numeric("-", p)  # 0 and 2 pi
    assert len(calls) == 4
    numeric_ft("-", p, 0.5)
    assert len(calls) == 4


def test_cross_checks_refuse_a_nonfinite_xi_and_a_vanishing_frequency():
    p = KernelParams(0.5, 1.0)
    for xi in (math.inf, math.nan):
        with pytest.raises(DomainError, match="finite"):
            numeric_ft("+", p, xi)
    # a positive frequency so small that the tail start overflows
    with pytest.raises(DomainError, match="too small"):
        numeric_ft("+", p, 1e-310)


@pytest.mark.parametrize("beta,delta", [
    # corners and interior points of the benchmark's draw box
    (0.25, 0.5), (0.25, 2.0), (1.0, 0.5), (1.0, 2.0),
    (0.5, 1.0), (0.268, 0.512), (0.75, 1.5), (0.4, 1.9),
])
def test_quadrature_matches_closed_forms_over_the_draw_box(beta, delta):
    p = KernelParams(beta, delta)
    for sign in "+-":
        closed = l1_dist(sign, p)
        assert abs(l1_numeric(sign, p) - closed) <= 1e-10 * closed
        for frac in (0.0, 0.5, 1.0, 1.5):
            assert abs(numeric_ft(sign, p, frac * delta) - ft_m(sign, p, frac * delta)) <= 1e-10


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
        # the envelope of the zero-sum tail bound, numerator bound A + 2 over D,
        # dominates the fit (beta <= 1 here)
        A, D = kernel_constants("+", p)
        assert fitted <= (A + 2) / D + 1e-9


def test_kernel_constants_match_the_closed_form():
    # against 30 digits, down to beta*Delta = 1e-18, where e - 1/e in floating
    # point would lose all of D
    mp = pytest.importorskip("mpmath")
    for p in PARAM_GRID + [KernelParams(1e-3, 1e-2), KernelParams(1e-9, 1e-9)]:
        with mp.workdps(30):
            e = mp.exp(mp.pi * mp.mpf(p.beta) * mp.mpf(p.delta))
            A = float(e ** 2 + e ** -2)
            Ds = {"+": float((e - 1 / e) ** 2), "-": float((e + 1 / e) ** 2)}
        for sign, D in Ds.items():
            got_A, got_D = kernel_constants(sign, p)
            assert got_D == pytest.approx(D, rel=1e-15)
            assert got_A == pytest.approx(A, rel=1e-15)


@pytest.mark.parametrize("sign", "+-")
def test_eval_m_at_a_tiny_beta_delta_against_mpmath(sign):
    # beta*Delta = 1e-5: A - 2 cos(2 pi Delta x) would cancel near x = 0
    mp = pytest.importorskip("mpmath")
    beta, delta = 1e-3, 1e-2
    p = KernelParams(beta, delta)
    for x in (0.0, 0.37, 5.0):
        with mp.workdps(40):
            b, d, xx = mp.mpf(beta), mp.mpf(delta), mp.mpf(x)
            e = mp.exp(mp.pi * b * d)
            den = (e - 1 / e) ** 2 if sign == "+" else (e + 1 / e) ** 2
            ref = float(b / (b ** 2 + xx ** 2) * (e ** 2 + e ** -2 - 2 * mp.cos(2 * mp.pi * d * xx))
                        / den)
        assert abs(eval_m(sign, p, x) - ref) <= 1e-14 * ref, x
        assert abs(eval_m(sign, p, np.array([x]))[0] - ref) <= 1e-14 * ref, x


@pytest.mark.parametrize("fn", [eval_m, ft_m])
def test_bad_sign_rejected(fn):
    with pytest.raises(DomainError):
        fn("*", KernelParams(0.5, 1.0), 0.3)


def test_ft_out_of_band_is_zero_without_evaluating_a_large_sinh():
    # sinh(2 pi beta (Delta - |xi|)) at xi = 200 overflowed, a RuntimeWarning
    # that this suite turns into an error, before the band test dropped it
    p = KernelParams(1.0, 1.0)
    assert ft_m("+", p, 200.0) == 0.0
    assert ft_numerator(p, np.array([-1e300, -200.0, 1.5, 200.0])).tolist() == [0.0] * 4
    # in band the clamp changes no bit
    xi = np.linspace(-1.0, 1.0, 17)
    ref = 2 * math.pi * np.sinh(2 * math.pi * p.beta * (p.delta - np.abs(xi)))
    assert ft_numerator(p, xi).tolist() == ref.tolist()
