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
