"""exact_sum is math.fsum, bit for bit, on arrays drawn to break it."""

import math
import struct

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from critline import bound_engine, summation
from critline.summation import CUTOFF, exact_sum
from critline.zeta_oracle import zeta_em

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True)

#: the fsum-only lengths, both sides of the cutoff, and lengths that take several levels
lengths = (st.sampled_from([0, 1, CUTOFF - 1, CUTOFF, CUTOFF + 1])
           | st.integers(CUTOFF + 2, 6 * CUTOFF))
seeds = st.integers(0, 2 ** 32 - 1)
#: lengths past the cutoff, with every step of (n + 1).bit_length() from 2^10 to 2^14
long_lengths = (st.sampled_from([2 ** L + k for L in range(10, 15) for k in (-2, -1, 0)])
                | st.integers(CUTOFF + 1, 6 * CUTOFF))


def outcome(f, a):
    """The bits of f(a), or the type and message of what it raised."""
    try:
        return struct.pack("<d", f(a))
    except (OverflowError, ValueError) as exc:
        return type(exc), str(exc)


def assert_fsum(a):
    a = np.asarray(a, dtype=float)
    assert outcome(exact_sum, a) == outcome(lambda v: math.fsum(v.tolist()), a)


def mixed(rng, n, lo=-300, hi=300):
    """Uniform mantissas times 10^k, k uniform in [lo, hi]."""
    return rng.uniform(-1, 1, n) * 10.0 ** rng.integers(lo, hi + 1, n)


@PROPERTY
@given(lengths, seeds, st.integers(-300, 300), st.integers(0, 600))
def test_mixed_exponents(n, seed, lo, width):
    assert_fsum(mixed(np.random.default_rng(seed), n, lo, min(300, lo + width)))


@PROPERTY
@given(lengths, seeds, st.sampled_from([1.0, -1.0]), st.floats(0.0, 1.0), st.integers(-1074, 960))
def test_one_signed_partial_sums_grow_like_n(n, seed, sign, lo, scale):
    # the partial sums of q reach n max|q|: the case that sizes sigma
    rng = np.random.default_rng(seed)
    assert_fsum(np.ldexp(sign * rng.uniform(lo, 1.0, n), scale))


@PROPERTY
@given(lengths, seeds, st.floats(min_value=0, max_value=1e-300) | st.sampled_from([5e-324, 1.0]))
def test_exact_cancellation(n, seed, tiny):
    rng = np.random.default_rng(seed)
    v = mixed(rng, n // 2)
    a = np.concatenate([v, -v, [tiny]])
    rng.shuffle(a)
    assert_fsum(a)


@PROPERTY
@given(lengths, seeds, st.lists(st.sampled_from([1.0, -1.0]), min_size=3, max_size=3),
       st.integers(-1000, 970), st.booleans())
def test_half_ulp_ties(n, seed, signs, scale, tie_breaker):
    # 1 + 2^-53 is a tie that rounds to even; 2^-106 breaks it
    tie = np.ldexp(np.array([1.0, 2.0 ** -53, 2.0 ** -106 if tie_breaker else 0.0]) * signs, scale)
    rng = np.random.default_rng(seed)
    v = rng.uniform(-1, 1, n // 2) * 2.0 ** rng.integers(-60, 60, n // 2)
    a = np.concatenate([tie, v, -v])
    rng.shuffle(a)
    assert_fsum(a)


@PROPERTY
@given(lengths, seeds, st.floats(-1e-300, 1e-300) | st.floats(-2.0, 2.0))
def test_subnormals_and_signed_zeros(n, seed, extra):
    rng = np.random.default_rng(seed)
    pool = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310])
    a = np.concatenate([rng.choice(pool, n), rng.uniform(-1, 1, n) * 1e-310, [extra]])
    rng.shuffle(a)
    assert_fsum(a)
    assert_fsum(np.full(n, -0.0))


@PROPERTY
@given(lengths, seeds, st.sampled_from([math.inf, -math.inf, math.nan, 1.5e308, -1.7e308]),
       st.integers(0, 3))
def test_specials_and_overflow_match_fsum(n, seed, special, copies):
    rng = np.random.default_rng(seed)
    hi = rng.integers(290, 309)  # drawn evenly: every largest exponent up to overflow
    a = np.concatenate([mixed(rng, n, hi - 20, hi), [special] * copies])
    rng.shuffle(a)
    assert_fsum(a)


def test_fixed_cases():
    big = CUTOFF + 1
    for a in ([], [-0.0], [1e308, 1e308, -1e308] + [0.0] * big,  # fsum's intermediate overflow
              [math.inf, -math.inf] + [1.0] * big, [1.0, 2.0 ** -53, 2.0 ** -106] + [0.0] * big,
              [2.0 ** -1074] * (3 * big)):
        assert_fsum(a)


def first_level(n, e, tau, rs, rng):
    """A shuffled array of length n whose first level has max|p| = 0.75 2^e,
    q-parts summing exactly to tau and remainders rs: the pair +-0.75 2^e,
    tau and rs, filled with cancelling pairs of multiples of ulp(sigma).
    tau must be a multiple of ulp(sigma) = 2^(e + L - 52), 2^L >= n + 2,
    and each remainder below half of it."""
    ulp_sigma = 2.0 ** (e + (n + 1).bit_length() - 52)
    k = (n - 3 - len(rs)) // 2
    v = rng.integers(1, 2 ** 20, k) * ulp_sigma
    a = np.concatenate([[0.75 * 2.0 ** e, -0.75 * 2.0 ** e, tau], rs, v, -v,
                        np.zeros(n - 3 - len(rs) - 2 * k)])
    rng.shuffle(a)
    return a


@PROPERTY
@given(long_lengths, seeds, st.integers(-850, 850), st.booleans(), st.sampled_from([-1, 0, 1]),
       st.sampled_from([-1, 0, 1]), st.sampled_from([1.0, -1.0]))
def test_sums_on_and_near_half_ulp_ties(n, seed, scale, odd, near, lost, sign):
    # tau + rho lands on the tie 2^scale (1 + odd 2^-52 + 2^-53), or an ulp or two of
    # rho beside it, after the cancellation of +-0.75 2^(scale+20); the lost part is
    # below half an ulp of rho, so only the exact sum sees which side of the tie it is on
    rs = [sign * 2.0 ** (scale - 53) * (1 + 2 * odd) + sign * near * 2.0 ** (scale - 104),
          sign * lost * 2.0 ** (scale - 110)]
    assert_fsum(first_level(n, scale + 20, sign * 2.0 ** scale, rs, np.random.default_rng(seed)))


@PROPERTY
@given(long_lengths, seeds, st.integers(-850, 850),
       st.sampled_from([0.0, -2.0 ** -54, -2.0 ** -54 + 2.0 ** -105, -2.0 ** -54 - 2.0 ** -105]),
       st.sampled_from([-1, 0, 1]), st.sampled_from([1.0, -1.0]))
def test_sums_on_and_just_below_a_power_of_two(n, seed, scale, below, lost, sign):
    # exactly 2^scale, or on, or an ulp of rho beside, the tie 2^scale - 2^(scale-54)
    # with the neighbour below, whose gap is half the gap above
    rs = [sign * below * 2.0 ** scale, sign * 2.0 ** (scale - 60), -sign * 2.0 ** (scale - 60),
          sign * lost * 2.0 ** (scale - 112)]
    assert_fsum(first_level(n, scale + 20, sign * 2.0 ** scale, rs, np.random.default_rng(seed)))


@PROPERTY
@given(st.integers(10, 13), st.integers(0, 40), st.integers(-850, 850), st.floats(0.55, 0.999),
       st.sampled_from([1.0, -1.0]), seeds)
def test_equal_remainders_whose_rounded_sum_drifts(L, short, scale, c, sign, seed):
    # n - 3 equal remainders c ulp(sigma)/2 whose float sum can drift from the exact
    # one by more than gamma_{n-1} ulp(sigma)/2, the bound without its factor n; the
    # tau 2^(L+1) ulp(sigma)/2 puts the result where half a gap is about that drift
    n = 2 ** L - 2 - short
    half = 2.0 ** (scale + L - 53)  # ulp(sigma)/2 at max|p| = 0.75 2^scale
    a = np.concatenate([[0.75 * 2.0 ** scale, -0.75 * 2.0 ** scale, sign * 2 ** (L + 1) * half],
                        np.full(n - 3, c * half)])
    np.random.default_rng(seed).shuffle(a)
    assert_fsum(a)


def test_kernel_rows_and_em_heads_end_at_the_first_level(monkeypatch):
    def no_fsum(values):
        raise AssertionError(f"a sum of {len(values)} terms fell back to fsum")

    monkeypatch.setattr(summation, "fsum", no_fsum)
    # the fixed-x scan's 50 rows, 18,120 terms each, and heads of 524 to 1762 terms
    bound_engine.dirichlet_term(np.geomspace(1.02e3, 0.98e4, 50), 2e5)
    for t in np.geomspace(2100.0, 7050.0, 20).tolist():
        zeta_em(complex(0.5, t))
