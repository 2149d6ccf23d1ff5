import dataclasses
import json
import math
import random
import time
import warnings

import numpy as np
import pytest

from conftest import load_perfbench
from critline import explicit_formula
from critline.errors import CrossCheckFailed, DegenerateBeta, DomainError, InsufficientHeight
from critline.explicit_formula import (
    _archimedean,
    _archimedean_numerator,
    _prime_term,
    _zero_sum,
    gw_prime_side,
    gw_zero_side,
    lemma3_bracket,
    partial_fraction_residual,
    verify_gw,
)
from critline.extremal_poisson import KernelParams, eval_m, ft_m, kernel_constants
from critline.prime_arith import lambda_sieve
from critline.zeros_table import ZeroTable


def _archimedean_closed(sign, p, t):
    """The closed-form archimedean term of m^{sign}, as ``gw_prime_side`` forms
    it: the numerator shared by both signs over the D of this one."""
    return _archimedean_numerator(p, t) / kernel_constants(sign, p)[1]


@pytest.fixture(scope="module")
def lam600():
    return lambda_sieve(600)


@pytest.fixture(scope="module")
def lam_bench():
    # covers x = e^{2 pi Delta} for Delta <= 2, as the benchmark's sieve does
    return lambda_sieve(290000)


def test_zero_side_finite_and_small_tail(zeros):
    p = KernelParams(0.5, 1.0)
    out = gw_zero_side("+", p, 100.0, zeros)
    assert np.isfinite(out.sum)
    assert 0 < out.tail_bound < 1e-2


def test_zero_side_sign_ordering(zeros):
    p = KernelParams(0.5, 1.0)
    minus = gw_zero_side("-", p, 100.0, zeros)
    plus = gw_zero_side("+", p, 100.0, zeros)
    assert minus.sum <= plus.sum


def test_zero_side_monotone_in_height(zeros):
    p = KernelParams(1.0, 1.0)
    sums = []
    for hi in (2000, 6000, len(zeros.gammas)):
        sub = ZeroTable(gammas=zeros.gammas[:hi], source="sub")
        sums.append(gw_zero_side("+", p, 50.0, sub).sum)
    assert sums[0] <= sums[1] <= sums[2]  # the kernel is non-negative


def test_insufficient_height(zeros):
    p = KernelParams(0.5, 1.0)
    with pytest.raises(InsufficientHeight):
        gw_zero_side("+", p, zeros.max_height / 5, zeros)
    with pytest.raises(InsufficientHeight):
        partial_fraction_residual(0.5, zeros.max_height / 5, zeros)


def test_prime_forms_agree_randomized(lam600):
    rng = random.Random(99)
    for _ in range(100):
        beta = rng.uniform(0.05, 1.0)
        delta = rng.uniform(math.log(2) / (2 * math.pi), 1.0)
        t = rng.uniform(10, 500)
        p = KernelParams(beta, delta)
        # raises CrossCheckFailed unless the FT and sinh forms agree to 1e-9
        _prime_term("+" if rng.random() < 0.5 else "-", p, t, lam600)


def test_prime_forms_disagreement_raises(lam600, monkeypatch):
    # perturb the FT form only: the check must raise, also under python -O
    ft = explicit_formula.ft_numerator
    monkeypatch.setattr(explicit_formula, "ft_numerator", lambda *a: 1.001 * ft(*a))
    with pytest.raises(CrossCheckFailed, match="prime-term forms disagree"):
        _prime_term("+", KernelParams(0.5, 1.0), 100.0, lam600)


@pytest.mark.parametrize("beta", [1e-7, 1e-8])
@pytest.mark.parametrize("sign", "+-")
def test_prime_forms_agree_at_a_tiny_beta(lam600, sign, beta):
    # x^beta - 1 by subtraction put the sinh form 1.9e-9 off the FT form at
    # beta = 1e-7, x = 2.1, and the cross-check refused a correct value
    p = KernelParams(beta, math.log(2.1) / (2 * math.pi))
    gw_prime_side(sign, p, 100.0, lam600)
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        xb = mp.mpf(p.x) ** mp.mpf(beta)
        ref = 2 * xb / (xb - 1 if sign == "+" else xb + 1) ** 2
    got = explicit_formula._sinh_norm(sign, p.x, beta)
    assert abs(got - float(ref)) <= 4 * 2.0 ** -53 * got


def test_archimedean_rejects_bad_sign():
    with pytest.raises(DomainError):
        explicit_formula._archimedean("*", KernelParams(0.5, 1.0), 100.0)


def test_prime_term_small_cutoff(lam600):
    # delta just above log 2/(2 pi): only n = 2 contributes
    delta = (math.log(2) + 0.2) / (2 * math.pi)
    p = KernelParams(0.5, delta)
    assert p.x < 3
    t = 25.0
    val = _prime_term("+", p, t, lam600)
    expect = (math.log(2) / math.sqrt(2) * ft_m("+", p, math.log(2) / (2 * math.pi))
              * math.cos(t * math.log(2)) / math.pi)
    assert abs(val - expect) <= 1e-14


def test_gw_breakdown_invariant(zeros, lam600):
    p = KernelParams(0.5, 1.0)
    b = verify_gw("+", p, 100.0, zeros, lam600)
    assert b.rhs_total == pytest.approx(
        b.boundary_term - b.ft_zero_term + b.archimedean_term - b.prime_term, abs=0)
    assert b.ft_zero_term == pytest.approx(
        ft_m("+", p, 0.0) * math.log(math.pi) / (2 * math.pi), abs=1e-15)
    assert b.tail_bound > 0


@pytest.mark.parametrize("sign", "+-")
def test_gw_breakdown_dumps_to_json(zeros, lam600, sign):
    # criterion 5's first point
    b = verify_gw(sign, KernelParams(1.0, 1.0), 50.0, zeros, lam600)
    text = json.dumps({**dataclasses.asdict(b), "verified": b.verified})
    assert json.loads(text)["verified"] is True


def test_gw_identity_third_point(zeros):
    # extra parameter point beyond the acceptance pair
    p = KernelParams(0.5, 0.8)
    for sign in "+-":
        b = verify_gw(sign, p, 200.0, zeros)
        assert abs(b.residual) <= b.tail_bound + 1e-3, sign


def test_gw_identity_wide_cutoff(zeros):
    # Delta = 1.5 pushes the prime sum past 1e4 terms (x = e^{3 pi})
    p = KernelParams(0.3, 1.5)
    for sign in "+-":
        b = verify_gw(sign, p, 500.0, zeros)
        assert abs(b.residual) <= b.tail_bound + 1e-3, sign


def test_gw_prime_side_requires_t_ge_10(lam600):
    with pytest.raises(DomainError):
        gw_prime_side("+", KernelParams(0.5, 1.0), 5.0, lam600)


@pytest.mark.parametrize("delta", [113.0, 200.0])
def test_gw_refuses_a_delta_whose_cutoff_overflows(zeros, delta):
    # x = e^{2 pi Delta} overflows a float above Delta ~ 112.9
    p = KernelParams(0.5, delta)
    with pytest.raises(DomainError, match="overflows"):
        p.x
    with pytest.raises(DomainError, match="overflows"):
        gw_prime_side("+", p, 100.0)
    with pytest.raises(DomainError, match="overflows"):
        verify_gw("-", p, 100.0, zeros)


@pytest.mark.parametrize("sign", "+-")
@pytest.mark.parametrize("t,beta,delta", [(50.0, 1.0, 1.0), (100.0, 0.5, 1.0)])
def test_archimedean_routes_agree_at_criterion_5_points(sign, t, beta, delta):
    p = KernelParams(beta, delta)
    gap = _archimedean_closed(sign, p, t) - _archimedean(sign, p, t)
    assert abs(gap) <= 1e-9


@pytest.mark.parametrize("t,beta,delta", [
    # corners of the benchmark's draw box t in [50, 1000], beta in [0.25, 1],
    # Delta in [0.5, 2], and a draw near the y-space route's largest error
    (1000.0, 0.25, 0.5), (50.0, 0.25, 2.0), (500.0, 1.0, 0.5), (1000.0, 1.0, 2.0),
    (337.9, 0.268, 0.512),
])
def test_archimedean_routes_agree_over_the_draw_region(t, beta, delta):
    p = KernelParams(beta, delta)
    for sign in "+-":
        gap = _archimedean_closed(sign, p, t) - _archimedean(sign, p, t)
        assert abs(gap) <= 1e-7, (sign, gap)


def _mpmath_archimedean_ft(mp, beta, delta, t, sign="+"):
    """The archimedean term from its definition on the Fourier side, at
    mpmath's working precision: Gauss's integral for psi against m(t-y), a
    u-integral over [0, 4 pi Delta] plus mhat(0) E1(4 pi Delta), by
    Gauss-Legendre over the periods of cos(tu/2), at 60 digits inside."""
    b, d, tt = mp.mpf(beta), mp.mpf(delta), mp.mpf(t)
    e = mp.exp(mp.pi * b * d)
    D = (e - 1 / e) ** 2 if sign == "+" else (e + 1 / e) ** 2

    def mhat(xi):
        a = 2 * mp.pi * b * (d - xi)
        return mp.pi * (mp.exp(a) - mp.exp(-a)) / D

    def f(u):
        with mp.workdps(60):  # the two terms cancel as u -> 0
            return +(mhat(0) * mp.exp(-u) / u
                     - mp.cos(tt * u / 2) * mhat(u / (4 * mp.pi)) * mp.exp(-u / 4)
                     / (1 - mp.exp(-u)))

    end = 4 * mp.pi * d
    periods = int(t * delta) + 1  # 4 pi Delta over the period 4 pi/t
    pts = [end * k / periods for k in range(periods + 1)]
    return (mp.quad(f, pts, method="gauss-legendre") + mhat(0) * mp.e1(end)) / (2 * mp.pi)


def test_archimedean_ft_against_mpmath():
    mp = pytest.importorskip("mpmath")
    beta, delta, t = 0.5, 1.0, 100.0
    with mp.workdps(25):
        ref = _mpmath_archimedean_ft(mp, beta, delta, t)
    assert abs(_archimedean_closed("+", KernelParams(beta, delta), t) - float(ref)) <= 1e-12


@pytest.mark.parametrize("sign", "+-")
@pytest.mark.parametrize("beta,delta,t", [(0.5, 1.0, 100.0), (100.0, 0.5, 10.0)])
def test_archimedean_closed_form_against_the_mpmath_u_integral(sign, beta, delta, t):
    # beta = 100: e^{+-c} of 1e136 and psi(z-) at real part -49.75
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        ref = float(_mpmath_archimedean_ft(mp, beta, delta, t, sign))
    got = _archimedean_closed(sign, KernelParams(beta, delta), t)
    assert abs(got - ref) <= 1e-12 * abs(ref)


def _mpmath_archimedean_closed(mp, sign, beta, delta, t):
    """(1/2D) Re[e^c (psi(z+) + L(z+)) - e^{-c} (psi(z-) + L(z-))] term by
    term, with mp.digamma and L(w) = e^{-wE} Phi(e^{-E}, 1, w) (Lerch)."""
    b, d = mp.mpf(beta), mp.mpf(delta)
    e = mp.exp(mp.pi * b * d)
    D = (e - 1 / e) ** 2 if sign == "+" else (e + 1 / e) ** 2
    c, E = 2 * mp.pi * b * d, 4 * mp.pi * d
    total = 0
    for s, w in ((1, mp.mpc(0.25, t / 2) + b / 2), (-1, mp.mpc(0.25, t / 2) - b / 2)):
        lerch = mp.exp(-w * E) * mp.lerchphi(mp.exp(-E), 1, w)
        total += s * mp.exp(s * c) * (mp.digamma(w) + lerch)
    return mp.re(total) / (2 * D)


@pytest.mark.parametrize("sign", "+-")
@pytest.mark.parametrize("beta,delta,t", [(0.5, 2.0, 1e5), (1e-3, 1.0, 50.0)])
def test_archimedean_closed_form_against_mpmath_digammas(sign, beta, delta, t):
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        ref = float(_mpmath_archimedean_closed(mp, sign, beta, delta, t))
    got = _archimedean_closed(sign, KernelParams(beta, delta), t)
    assert abs(got - ref) <= 1e-12 * abs(ref)


# values of the closed form with (w+ beta/2)(w- beta/2) formed as a product, which
# overflows above t ~ 2.7e154, computed under np.errstate(over="ignore")
ARCH_AT_HUGE_T = {
    (1e155, "+", 0.5, 1.0): 194.19213601759972, (1e155, "-", 0.5, 1.0): 163.34828967088478,
    (1e155, "+", 1.0, 1e-3): 56692.37762278958, (1e155, "-", 1.0, 1e-3): 0.5595276581460455,
    (1e200, "+", 0.5, 1.0): 250.68020520478987, (1e200, "-", 0.5, 1.0): 210.8642688334079,
    (1e200, "+", 1.0, 1e-3): 73183.4828509241, (1e200, "-", 1.0, 1e-3): 0.722287271968079,
    (1e300, "+", 0.5, 1.0): 376.20924784299024, (1e300, "-", 0.5, 1.0): 316.4553336390148,
    (1e300, "+", 1.0, 1e-3): 109830.3833578897, (1e300, "-", 1.0, 1e-3): 1.0839753026837087,
}


def test_archimedean_closed_form_is_quiet_at_huge_t():
    # Delta = 1e-3 takes the E1 and segment-integral tail, Delta = 1 does not
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for (t, sign, beta, delta), want in ARCH_AT_HUGE_T.items():
            got = _archimedean_closed(sign, KernelParams(beta, delta), t)
            assert abs(got - want) <= 1e-15 * abs(want), (t, sign, beta, delta)


@pytest.mark.parametrize("beta,delta,t", [(1.0, 1e-6, 1e4), (1e-3, 1e-7, 1e3), (8200.0, 1e-4, 10.0)])
def test_archimedean_closed_form_tail_at_a_tiny_delta(beta, delta, t):
    # E = 4 pi Delta below 37/ARCH_TERMS: the series is cut at ARCH_TERMS and
    # its tail is closed by Euler-Maclaurin, E1 and a segment integral
    mp = pytest.importorskip("mpmath")
    p = KernelParams(beta, delta)
    assert 4 * math.pi * delta * explicit_formula.ARCH_TERMS < 37
    for sign in "+-":
        with mp.workdps(40):
            ref = float(_mpmath_archimedean_closed(mp, sign, beta, delta, t))
        assert abs(_archimedean_closed(sign, p, t) - ref) <= 1e-12 * abs(ref), sign


def test_gw_prime_side_cost_does_not_grow_with_t(lam_bench):
    # the u-integral it replaced ran 8 t Delta panels: about 1.4 s at t = 1e5;
    # the timed call is at a second t, so it is computed, not served from the memo
    p = KernelParams(0.5, 2.0)
    gw_prime_side("+", p, 1e5, lam_bench)
    t0 = time.perf_counter()
    gw_prime_side("+", p, 1e5 + 1, lam_bench)
    assert time.perf_counter() - t0 < 0.1


def test_archimedean_ft_at_a_tiny_beta_delta_against_mpmath():
    # beta*Delta = 1e-5: mhat and D of m^+ are differences of nearly equal
    # exponentials unless taken through sinh
    mp = pytest.importorskip("mpmath")
    beta, delta, t = 1e-3, 1e-2, 100.0
    with mp.workdps(30):
        ref = _mpmath_archimedean_ft(mp, beta, delta, t)
    assert abs(_archimedean_closed("+", KernelParams(beta, delta), t) - float(ref)) <= 1e-10


def test_gw_prime_side_takes_the_fourier_route(lam600):
    # the closed form is the Fourier-side integral summed in closed form
    p = KernelParams(0.5, 1.0)
    b = gw_prime_side("-", p, 100.0, lam600)
    assert b.archimedean_term == _archimedean_closed("-", p, 100.0)


def test_archimedean_rejects_degenerate_kernels():
    # beta*Delta so small that even a 256x window cannot meet the budget
    with pytest.raises(DomainError, match="degenerate"):
        _archimedean("+", KernelParams(1e-3, 0.05), 50.0)


def test_partial_fraction_residuals(zeros):
    for beta, t in ((1.0, 100.0), (0.25, 500.0)):
        r = partial_fraction_residual(beta, t, zeros)
        assert abs(r.residual) <= 10 / t + r.tail_bound
        assert isinstance(r.residual, float)


def test_partial_fraction_validation(zeros):
    with pytest.raises(DomainError):
        partial_fraction_residual(1.5, 100.0, zeros)
    with pytest.raises(DomainError):
        partial_fraction_residual(0.5, 5.0, zeros)


def test_bracket_main_point(zeros):
    br = lemma3_bracket(1000.0, 50.0, 0.5)
    slack = 5 + 5 * math.sqrt(50) * math.log(50) / 1000
    assert br.left_main - slack <= br.middle <= br.right_main + slack
    assert br.left_main < br.right_main


def test_bracket_degenerate_beta():
    with pytest.raises(DegenerateBeta):
        lemma3_bracket(1000.0, 50.0, 5e-4)


def test_bracket_small_x_single_term(lam600):
    # for x < 3 the Dirichlet sum S reduces to its n = 2 term
    t, x, beta = 2 * math.pi * 40 / math.log(2), 2.5, 0.5
    br = lemma3_bracket(t, x, beta, lam600)
    S2 = (math.log(2) / math.sqrt(2) * math.cos(t * math.log(2))
          * math.sinh(beta * math.log(x / 2)))
    xb = x ** beta
    expect_right = math.log(t) / (xb + 1) + 2 * xb / (xb + 1) ** 2 * S2
    assert br.right_main == pytest.approx(expect_right, abs=1e-12)


GW_SIGN_POINTS = [(50.0, 1.0, 1.0), (100.0, 0.5, 1.0), (100.0, 1e-3, 1e-2), (200.0, 1.0, 0.25),
                  (500.0, 0.3, 2.0)]
EF_DRAWS = [d for seed in (101, 19) for d in load_perfbench("workloads").ef_draws(seed)]


@pytest.mark.parametrize("t, beta, delta", GW_SIGN_POINTS)
def test_gw_sign_enters_only_through_d(zeros, t, beta, delta):
    # m^+ and m^- share one numerator, and D^- / D^+ = tanh^2(pi beta Delta)
    p = KernelParams(beta, delta)
    plus, minus = verify_gw("+", p, t, zeros), verify_gw("-", p, t, zeros)
    ratio = math.tanh(math.pi * beta * delta) ** 2
    for field in dataclasses.fields(plus):
        want = ratio * getattr(plus, field.name)
        assert abs(getattr(minus, field.name) - want) <= 1e-13 * abs(want), field.name


def _per_sign_breakdown(sign, p, t, z, table):
    """verify_gw written per sign, as before both signs shared one core: m^{sign}
    summed over +-gamma against its own envelope, and the prime sum against
    the weights mhat^{sign}.  The archimedean term is the closed form."""
    A, D = kernel_constants(sign, p)
    side = _zero_sum(lambda x: eval_m(sign, p, x), (A + 2) / D, p.beta, t, z)
    ns = table.prime_powers(p.x)
    ln = np.log(ns.astype(float))
    base = np.log(table.prime[ns].astype(float)) / np.sqrt(ns.astype(float)) * np.cos(t * ln)
    prime = math.fsum(base * ft_m(sign, p, ln / (2 * math.pi))) / math.pi
    boundary = 2 * eval_m(sign, p, complex(t, 0.5)).real
    ft_zero = ft_m(sign, p, 0.0) * math.log(math.pi) / (2 * math.pi)
    arch = _archimedean_closed(sign, p, t)
    return explicit_formula.GWBreakdown(
        zero_side=side.sum, boundary_term=boundary, ft_zero_term=ft_zero, archimedean_term=arch,
        prime_term=prime, rhs_total=boundary - ft_zero + arch - prime, tail_bound=side.tail_bound)


@pytest.mark.parametrize("t, beta, delta", GW_SIGN_POINTS + EF_DRAWS)
def test_shared_core_matches_the_per_sign_route(zeros, lam_bench, t, beta, delta):
    p = KernelParams(beta, delta)
    for sign in "+-":
        got = verify_gw(sign, p, t, zeros, lam_bench)
        ref = _per_sign_breakdown(sign, p, t, zeros, lam_bench)
        for field in dataclasses.fields(ref):
            want = getattr(ref, field.name)
            gap = abs(getattr(got, field.name) - want)
            assert gap <= 1e-14 * max(1.0, abs(want)), (sign, field.name, gap)


def test_memo_serves_only_its_own_arguments(zeros, lam600):
    sub = ZeroTable(gammas=zeros.gammas[:9000], source="sub")
    p, q = KernelParams(0.5, 1.0), KernelParams(1.0, 0.8)
    calls = [("+", p, 100.0, zeros), ("+", q, 100.0, zeros), ("-", q, 100.0, zeros),
             ("-", p, 100.0, zeros), ("+", p, 100.0, zeros), ("+", p, 200.0, zeros),
             ("-", p, 100.0, sub), ("+", p, 100.0, sub), ("+", p, 100.0, zeros),
             ("-", q, 200.0, sub), ("+", q, 200.0, zeros)]
    cold = []
    for call in calls:
        explicit_formula._zero_side_numerator.cache_clear()
        explicit_formula._prime_side_numerators.cache_clear()
        cold.append(verify_gw(*call, lam600))
    assert cold[6] != cold[3]  # the sub-table's zero sum differs
    for call, want in zip(calls, cold):
        assert verify_gw(*call, lam600) == want, call


def test_a_sign_pair_forms_one_cos_row_and_one_zero_sum(zeros, lam600, monkeypatch):
    calls = {"cos": 0, "zero": 0}

    def counting(key, fn):
        def wrapped(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(explicit_formula, "dirichlet_cos_sum",
                        counting("cos", explicit_formula.dirichlet_cos_sum))
    monkeypatch.setattr(explicit_formula, "_zero_sum", counting("zero", explicit_formula._zero_sum))
    p = KernelParams(0.5, 1.0)
    for sign in "+-":
        verify_gw(sign, p, 100.0, zeros, lam600)
    assert calls == {"cos": 1, "zero": 1}
    for sign in "+-":
        verify_gw(sign, p, 101.0, zeros, lam600)
    assert calls == {"cos": 2, "zero": 2}
