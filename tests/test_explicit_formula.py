import math
import random

import numpy as np
import pytest

from critline import explicit_formula
from critline.errors import CrossCheckFailed, DegenerateBeta, DomainError, InsufficientHeight
from critline.explicit_formula import (
    _prime_term,
    gw_prime_side,
    gw_zero_side,
    lemma3_bracket,
    partial_fraction_residual,
    verify_gw,
)
from critline.extremal_poisson import KernelParams, ft_m
from critline.prime_arith import lambda_sieve
from critline.zeros_table import ZeroTable


@pytest.fixture(scope="module")
def lam600():
    return lambda_sieve(600)


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
    ft = explicit_formula.ft_m
    monkeypatch.setattr(explicit_formula, "ft_m", lambda *a: 1.001 * ft(*a))
    with pytest.raises(CrossCheckFailed, match="prime-term forms disagree"):
        _prime_term("+", KernelParams(0.5, 1.0), 100.0, lam600)


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


def test_archimedean_rejects_degenerate_kernels():
    from critline.explicit_formula import _archimedean
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
