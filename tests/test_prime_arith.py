import math

import numpy as np
import pytest

from critline.errors import DomainError, LimitTooLarge
from critline.prime_arith import (
    covering_table,
    dirichlet_cos_sum,
    lambda_sieve,
    weighted_psi,
)
from critline.summation import exact_sum


def chebyshev_psi(x: int, table=None) -> float:
    """sum_{n<=x} Lambda(n)."""
    table = covering_table(x, table)
    return exact_sum(np.log(table.prime[table.prime_powers(x)].astype(float)))


def _is_prime(n):
    return n >= 2 and all(n % q for q in range(2, int(n ** 0.5) + 1))


def _lam(table, n):
    """Lambda(n) read off the table's prime, 0 where n is no prime power."""
    p = int(table.prime[n])
    return math.log(p) if p else 0.0


def test_lambda_values(lam_small):
    assert _lam(lam_small, 9) == math.log(3)
    assert _lam(lam_small, 12) == 0.0
    assert _lam(lam_small, 1) == 0.0
    assert _lam(lam_small, 2) == math.log(2)
    assert _lam(lam_small, 8) == math.log(2)
    assert _lam(lam_small, 9973) == math.log(9973)  # largest prime below 1e4


def test_amp_is_lambda_over_sqrt_n(lam_small):
    n = lam_small.support
    assert np.array_equal(lam_small.amp, np.log(lam_small.prime[n].astype(float)) / np.sqrt(n))
    assert np.array_equal(lam_small.amp[:4], np.log([2.0, 3.0, 2.0, 5.0]) / np.sqrt([2, 3, 4, 5]))


def test_prime_power_count_matches_bruteforce(lam_small):
    x = 10 ** 4
    count = len(lam_small.prime_powers(x))
    expected = 0
    m = 1
    while 2 ** m <= x:
        expected += sum(1 for p in range(2, int(x ** (1 / m)) + 1)
                        if _is_prime(p) and p ** m <= x)
        m += 1
    assert count == expected


@pytest.mark.parametrize("x", [5000, 5000.7, 1.5, 10 ** 4, 10 ** 4 + 0.5, 3e4])
def test_prime_powers_slice_the_support(lam_small, x):
    # integer, fractional, below 2, and at or past the table's limit
    expect = np.nonzero(lam_small.prime[: math.floor(x) + 1])[0]
    assert np.array_equal(lam_small.prime_powers(x), expect)
    assert np.array_equal(lam_small.prime_powers(), np.nonzero(lam_small.prime)[0])


def test_prime_power_views_are_read_only(lam_small):
    # every caller shares the sieve's arrays through these slices
    with pytest.raises(ValueError):
        lam_small.prime_powers(100)[0] = 4


def test_tables_compare_by_identity():
    a, b = lambda_sieve(100), lambda_sieve(100)
    assert (a == b) is False and a == a


def test_table_stores_the_exact_prime(lam_small):
    assert lam_small.prime[243] == 3  # 3^5
    assert lam_small.prime[64] == 2  # 2^6
    assert lam_small.prime[100] == 0


def test_chebyshev_matches_bruteforce(lam_small):
    x = 10 ** 4
    brute = math.fsum(math.log(p) for p in range(2, x + 1) if _is_prime(p)
                      for _ in range(int(math.log(x) / math.log(p))))
    assert abs(chebyshev_psi(x, lam_small) - brute) < 1e-9


def test_weighted_psi_single_term():
    assert abs(weighted_psi(2) - math.log(2) / math.sqrt(2)) < 1e-15


def test_weighted_psi_near_two_sqrt(lam_small):
    for x in (100, 10 ** 4):
        gap = abs(weighted_psi(x, lam_small) - 2 * math.sqrt(x))
        assert gap <= 2 * math.log(x) ** 3


def test_weighted_psi_ratio():
    table = lambda_sieve(10 ** 5)
    # the sum carries a constant-order deficit (~2.5), so the relative band
    # only tightens to 1% from 1e5 up; at 1e4 the ratio sits near 0.9873
    ratio4 = weighted_psi(10 ** 4, table) / (2 * math.sqrt(10 ** 4))
    assert 0.98 <= ratio4 <= 1.0
    ratio5 = weighted_psi(10 ** 5, table) / (2 * math.sqrt(10 ** 5))
    assert 0.99 <= ratio5 <= 1.01


def test_sieve_cap():
    with pytest.raises(LimitTooLarge):
        lambda_sieve(10 ** 9)
    with pytest.raises(DomainError):
        lambda_sieve(1)


@pytest.mark.parametrize("x, size", [
    (10 ** 9, "x=1000000000"), (10 ** 8 + 1, "x=100000001"), (1e300, "x=1e+300"),
    (10 ** 400, "x of 401 digits"), (10 ** 400 - 1, "x of 400 digits"),
    (10 ** 5000 + 1, "x of 5001 digits")],
    ids=["1e9", "cap+1", "float", "1e400", "1e400-1", "1e5000+1"])
def test_sieve_cap_message_gives_a_readable_size(x, size):
    with pytest.raises(LimitTooLarge) as info:
        lambda_sieve(x)
    assert str(info.value) == f"{size} above cap 100000000"


@pytest.mark.parametrize("x", [2.5, math.nan, math.inf, -math.inf, "1000", None, 1e3 + 0.5],
                         ids=["2.5", "nan", "inf", "-inf", "str", "None", "1000.5"])
def test_sieve_refuses_what_is_not_an_integer(x):
    with pytest.raises(DomainError, match="must be an integer"):
        lambda_sieve(x)


def test_sieve_takes_an_integral_float_as_its_int():
    a, b = lambda_sieve(1000.0), lambda_sieve(1000)
    assert a.limit == 1000 and type(a.limit) is int
    for name in ("prime", "support", "log_n", "amp"):
        assert np.array_equal(getattr(a, name), getattr(b, name))
    assert lambda_sieve(np.float64(30.0)).limit == 30 and lambda_sieve(np.int64(30)).limit == 30


def test_dirichlet_cos_sum_matches_direct(lam_small):
    t, x = 37.5, 50.0
    direct = math.fsum(
        _lam(lam_small, n) / math.sqrt(n) * math.cos(t * math.log(n))
        for n in range(2, int(x) + 1))
    assert abs(dirichlet_cos_sum(lam_small, x, t) - direct) < 1e-12
