"""exact_sum is math.fsum, bit for bit, on arrays drawn to break it."""

import math
import struct

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from critline.summation import CUTOFF, exact_sum

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True)

#: the fsum-only lengths, both sides of the cutoff, and lengths that take several levels
lengths = (st.sampled_from([0, 1, CUTOFF - 1, CUTOFF, CUTOFF + 1])
           | st.integers(CUTOFF + 2, 6 * CUTOFF))
seeds = st.integers(0, 2 ** 32 - 1)


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
