"""The one Dirichlet-polynomial kernel and the one sieve-cover rule.

Every prime-power sum in the package goes through
:func:`critline.prime_arith.dirichlet_cos_sum`.  The ``ref_*`` functions
below are the formulas each caller used to write out inline; the kernel keeps
their arithmetic and its order, so the values are compared with ``==``.
"""

import math
import random
from math import fsum

import numpy as np
import pytest

from critline import prime_arith
from critline.bound_engine import dirichlet_term, scan_margins
from critline.explicit_formula import _prime_term, lemma3_bracket
from critline.extremal_poisson import KernelParams, ft_numerator, kernel_constants
from critline.prime_arith import covering_table, lambda_sieve, weighted_psi
from critline.special_f import f_closed_form


def ref_dirichlet_term(t, x, table):
    ns = table.prime_powers(x)
    nsf = ns.astype(float)
    ln = np.log(nsf)
    logx = math.log(x)
    weights = f_closed_form((logx - ln) / logx) / logx
    return fsum(np.log(table.prime[ns].astype(float)) / np.sqrt(nsf) * np.cos(t * ln) * weights)


def ref_prime_term(sign, p, t, table):
    # the sum is shared by both signs: the numerator D mhat, over the D of the sign
    ns = table.prime_powers(p.x)
    nsf = ns.astype(float)
    ln = np.log(nsf)
    base = np.log(table.prime[ns].astype(float)) / np.sqrt(nsf) * np.cos(t * ln)
    return fsum(base * ft_numerator(p, ln / (2 * math.pi))) / math.pi / kernel_constants(sign, p)[1]


def ref_bracket_sides(t, x, beta, table):
    ns = table.prime_powers(x)
    nsf = ns.astype(float)
    S = fsum(np.log(table.prime[ns].astype(float)) / np.sqrt(nsf) * np.cos(t * np.log(nsf))
             * np.sinh(beta * np.log(x / nsf)))
    em1 = math.expm1(beta * math.log(x))  # x^beta - 1 without cancellation
    logt = math.log(t)
    return (-logt / em1 + 2 * (em1 + 1) / em1 ** 2 * S,
            logt / (em1 + 2) + 2 * (em1 + 1) / (em1 + 2) ** 2 * S)


def ref_weighted_psi(x, table):
    ns = table.prime_powers(x)
    return fsum(np.log(table.prime[ns].astype(float)) / np.sqrt(ns.astype(float)))


def _grid(n=25, seed=4417):
    """Seeded (t, x, beta, Delta) draws; x is fractional and p.x stays below 1e4."""
    rng = random.Random(seed)
    return [(rng.uniform(10, 2000), rng.uniform(2, 9000), rng.uniform(0.1, 1.0),
             rng.uniform(math.log(2) / (2 * math.pi), 1.4)) for _ in range(n)]


@pytest.mark.parametrize("t,x,beta,delta", _grid())
def test_kernel_callers_bit_identical(lam_small, t, x, beta, delta):
    assert dirichlet_term(t, x, lam_small) == ref_dirichlet_term(t, x, lam_small)
    p = KernelParams(beta, delta)
    for sign in ("+", "-"):
        assert _prime_term(sign, p, t, lam_small) == ref_prime_term(sign, p, t, lam_small)
    br = lemma3_bracket(t, x, beta, lam_small)
    assert (br.left_main, br.right_main) == ref_bracket_sides(t, x, beta, lam_small)
    assert weighted_psi(int(x), lam_small) == ref_weighted_psi(int(x), lam_small)


def test_batched_t_is_bit_identical_to_scalar_t(lam_small):
    ts = [t for t, *_ in _grid()] + [1e5 + 0.3, 987654.321]
    x = 8765.4
    batched = dirichlet_term(np.array(ts), x, lam_small)
    assert batched.tolist() == [ref_dirichlet_term(t, x, lam_small) for t in ts]
    assert batched.tolist() == [dirichlet_term(t, x, lam_small) for t in ts]
    assert prime_arith.dirichlet_cos_sum(lam_small, 1.5, np.array(ts)).tolist() == [0.0] * len(ts)
    # the fixed-x scan takes all its points through one batched call
    for r in scan_margins(1e3, 2e3, 7, x_policy="fixed", x_fixed=1234.5):
        assert r.dirichlet_term == ref_dirichlet_term(r.t, r.x, lam_small)


def test_kernel_weight_sees_n_and_log_n(lam_small):
    seen = {}

    def weight(n, ln, log_x):
        seen["n"], seen["ln"], seen["log_x"] = n, ln, log_x
        return np.ones_like(n)

    assert prime_arith.dirichlet_cos_sum(lam_small, 30.5, 7.0, weight) == \
        prime_arith.dirichlet_cos_sum(lam_small, 30.5, 7.0)
    assert list(seen["n"]) == [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29]
    assert np.array_equal(seen["ln"], np.log(seen["n"]))
    assert seen["log_x"] == math.log(30.5)


def test_cover_rule_compares_floor_of_x():
    table = lambda_sieve(1234)
    assert covering_table(1234.5, table) is table
    assert covering_table(1234, table) is table
    assert covering_table(1235.0, table).limit == 1235
    assert covering_table(1.5).limit == 2
    assert covering_table(77.9).limit == 77


def test_fractional_fixed_x_scan_sieves_once(sieve_calls):
    reports = scan_margins(1e3, 2e3, 5, x_policy="fixed", x_fixed=1234.5)
    assert sieve_calls == [1234]
    assert all(r.x == 1234.5 for r in reports)


def test_dirichlet_term_without_table_sieves_to_floor(sieve_calls):
    val = dirichlet_term(500.0, 99.75)
    assert sieve_calls == [99]
    assert val == ref_dirichlet_term(500.0, 99.75, lambda_sieve(99))


def test_weight_rows_are_summed_as_separate_weights(lam_small):
    ts = np.array([10.5, 777.7, 1e5 + 0.3])

    def rows(n, ln, log_x):
        return np.array([np.sqrt(n), 1 / ln])

    for x in (1.5, 30.5, 8765.4):
        both = prime_arith.dirichlet_cos_sum(lam_small, x, ts, rows)
        assert both.shape == (3, 2)
        for j in range(2):
            one = prime_arith.dirichlet_cos_sum(lam_small, x, ts, lambda *a: rows(*a)[j])
            assert both[:, j].tolist() == one.tolist()
        assert prime_arith.dirichlet_cos_sum(lam_small, x, ts[1], rows).tolist() == both[1].tolist()


def test_per_point_cutoffs_equal_float_cutoffs(lam_small):
    # repeated cutoffs, two below 2 (no terms; no log is taken of 0.0), weight
    # rows, and the weight called once
    ts = np.array([10.5, 777.7, 1e5 + 0.3, 42.0, 3e3, 9.25, 500.0])
    xs = np.array([30.5, 1.5, 8765.4, 30.5, 2.0, 8765.4, 0.0])
    calls = []

    def rows(n, ln, log_x):
        calls.append(len(n))
        return np.array([np.sqrt(n), (log_x - ln) / log_x])

    both = prime_arith.dirichlet_cos_sum(lam_small, xs, ts, rows)
    assert both.shape == (7, 2) and calls == [0 + 0 + 1 + 16 + 1143]  # the distinct cutoffs, once
    assert both[1].tolist() == both[6].tolist() == [0.0, 0.0]
    plain = prime_arith.dirichlet_cos_sum(lam_small, xs, ts)
    for i, (t, x) in enumerate(zip(ts.tolist(), xs.tolist())):
        # the same weight as the per-point call: a float cutoff passes log x as a float
        one = prime_arith.dirichlet_cos_sum(lam_small, x, t, rows)
        assert both[i].tolist() == one.tolist(), (t, x)
        assert plain[i] == prime_arith.dirichlet_cos_sum(lam_small, x, t), (t, x)
