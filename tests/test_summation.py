"""exact_sum is math.fsum, bit for bit, on arrays drawn to break it, and exact_sums
is fsum of each segment of a flat array."""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from critline import bound_engine, prime_arith, summation
from critline.summation import CUTOFF, exact_sum, exact_sums
from critline.zeta_oracle import hardy_z, zeta_em

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
    # and the segmented sums of a logsq scan: 50 kernel rows, 36 Riemann-Siegel sums
    # and 14 heads, of 255 to 1765 terms, each batch one pass
    ts = np.geomspace(1.02e3, 0.98e6, 50)
    prime_arith.dirichlet_cos_sum(prime_arith.lambda_sieve(200), np.log(ts) ** 2, ts,
                                  bound_engine.dirichlet_weight)
    hardy_z(ts)


# --- exact_sums: many segments of one flat array ----------------------------------


def sums_outcome(values, ends):
    """The bits of each of exact_sums' results, or the type and message of what it raised."""
    try:
        return [struct.pack("<d", v) for v in exact_sums(values, ends).tolist()]
    except (OverflowError, ValueError) as exc:
        return type(exc), str(exc)


def assert_segments_fsum(values, lengths):
    """exact_sums over segments of these lengths is fsum of each, or raises as the
    first segment whose fsum raises."""
    values = np.asarray(values, dtype=float)
    ends = np.cumsum(np.asarray(lengths, dtype=np.intp))
    want = [outcome(lambda v: math.fsum(v.tolist()), values[end - k:end])
            for end, k in zip(ends.tolist(), lengths)]
    raised = [w for w in want if isinstance(w, tuple)]
    assert sums_outcome(values, ends) == (raised[0] if raised else want)


def segment_values(rng, lengths, kind):
    """One flat array for segments of these lengths, drawn to break a segmented sum."""
    parts = []
    for k in lengths:
        if kind == "cancel":  # p and -p shuffled, and one small rest
            v = mixed(rng, k // 2, -20, 20)
            part = np.concatenate([v, -v, mixed(rng, k % 2, -40, -20)])
            rng.shuffle(part)
        elif kind == "zeros":
            part = rng.choice(np.array([0.0, -0.0, 5e-324, -5e-324, 1.0]), k)
        elif kind == "specials":  # one inf, nan or value near overflow in a third of them
            part = mixed(rng, k, -20, 20)
            if k and rng.random() < 0.3:
                part[rng.integers(k)] = rng.choice([math.inf, -math.inf, math.nan, 1e305, -1e305])
        else:  # magnitudes from 1e-20 to 1e20
            part = mixed(rng, k, -20, 20)
        parts.append(part)
    return np.concatenate(parts) if parts else np.zeros(0)


#: segment lengths: empty, lone entries, both sides of the cutoff and beyond it
segment_lengths = st.lists(st.sampled_from([0, 1, 2, CUTOFF, CUTOFF + 1])
                           | st.integers(0, 60) | st.integers(CUTOFF + 1, 3 * CUTOFF),
                           max_size=24)
kinds = st.sampled_from(["mixed", "cancel", "zeros", "specials"])


@PROPERTY
@given(segment_lengths, seeds, kinds)
def test_segmented_sums_are_fsum_of_each_segment(lengths, seed, kind):
    assert_segments_fsum(segment_values(np.random.default_rng(seed), lengths, kind), lengths)


@PROPERTY
@given(st.integers(0, 3 * CUTOFF), seeds, kinds)
def test_a_lone_segment_is_fsum(n, seed, kind):
    assert_segments_fsum(segment_values(np.random.default_rng(seed), [n], kind), [n])


@pytest.mark.parametrize("kind", ["mixed", "cancel", "zeros", "specials"])
def test_fifty_thousand_seeded_segments_are_fsum(kind):
    # kernel-row and Riemann-Siegel lengths, with an empty segment and a long one among them
    rng = np.random.default_rng(101)
    for _ in range(24):  # 13,008 segments a kind
        lengths = rng.integers(1, 60, 500).tolist() + [0, CUTOFF + 7] \
            + rng.integers(60, 400, 40).tolist()
        rng.shuffle(lengths)
        assert_segments_fsum(segment_values(rng, lengths, kind), lengths)


@PROPERTY
@given(segment_lengths, st.integers(1, 2000))
def test_passes_lay_out_every_segment_once_and_stay_capped(lengths, cap):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(summation, "PASS_ENTRIES", cap)
        cuts = list(summation.passes(lengths))
    assert [i for i, _, _, _ in cuts] == ([0] + [j for _, j, _, _ in cuts])[:-1]
    assert (cuts[-1][1] if cuts else 0) == len(lengths)
    for i, j, ends, offsets in cuts:
        n = lengths[i:j]
        assert list(ends) == np.cumsum(n).tolist()
        assert offsets.tolist() == [m for k in n for m in range(k)]
        assert sum(n) <= cap or j - i == 1  # over the cap only as one longer segment


def test_segments_cover_the_rounding_cases_of_exact_sum():
    # the arrays drawn for exact_sum above, end to end as segments of one array
    rng = np.random.default_rng(7)
    tie = [1.0, 2.0 ** -53, 2.0 ** -106]
    arrays = [tie, tie[:2], [-0.0], [], [2.0 ** -1074] * 3, [1e308, 1e308, -1e308],
              first_level(CUTOFF + 40, 20, 1.0, [2.0 ** -53], rng), mixed(rng, 90, -300, 300)]
    assert_segments_fsum(np.concatenate(arrays[:-3] + arrays[-2:]),
                         [len(a) for a in arrays[:-3] + arrays[-2:]])
    assert_segments_fsum(np.concatenate(arrays), [len(a) for a in arrays])  # fsum's overflow
    # inf - inf is fsum's ValueError, raised for the first segment that holds it
    assert_segments_fsum([1.0, 2.0, math.inf, -math.inf, 3.0, 1e308, 1e308], [2, 2, 1, 2])
