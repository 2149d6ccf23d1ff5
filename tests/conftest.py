import pathlib

import pytest

from critline import prime_arith
from critline.prime_arith import lambda_sieve
from critline.zeros_table import load_zeros

REPO = pathlib.Path(__file__).resolve().parents[1]
ZEROS_PATH = REPO / "data" / "zeros_height1e4.txt"


@pytest.fixture(scope="session")
def zeros():
    return load_zeros(ZEROS_PATH)


@pytest.fixture(scope="session")
def lam_small():
    return lambda_sieve(10 ** 4)


@pytest.fixture(scope="session")
def repo_root():
    return REPO


@pytest.fixture
def sieve_calls(monkeypatch):
    """The limits of every lambda_sieve call made through the cover rule."""
    calls = []

    def counting_sieve(x):
        calls.append(x)
        return lambda_sieve(x)

    monkeypatch.setattr(prime_arith, "lambda_sieve", counting_sieve)
    return calls


@pytest.fixture
def dot_pairs(monkeypatch):
    """pairs(call, *args): the coefficient pairs call(*args) hands to _dot."""
    from critline import series_algebra
    count = [0]
    dot = series_algebra._dot

    def counting(pairs):
        count[0] += len(pairs)
        return dot(pairs)

    monkeypatch.setattr(series_algebra, "_dot", counting)

    def pairs(call, *args):
        count[0] = 0
        call(*args)
        return count[0]
    return pairs
