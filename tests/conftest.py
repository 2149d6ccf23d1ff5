import importlib.util
import pathlib

import pytest

from critline import explicit_formula, extremal_poisson, prime_arith, zeta_oracle
from critline.errors import DomainError
from critline.prime_arith import lambda_sieve
from critline.series_algebra import TruncatedSeries
from critline.zeros_table import load_zeros

REPO = pathlib.Path(__file__).resolve().parents[1]
ZEROS_PATH = REPO / "data" / "zeros_height1e4.txt"


def load_perfbench(name):
    """The benchmark's module ``perfbench/<name>.py``, loaded from its file."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", REPO / "perfbench" / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def ps_truncate(a: TruncatedSeries, order: int) -> TruncatedSeries:
    """Drop knowledge beyond ``order`` (never extends); a reference helper of
    the series tests."""
    if order > a.order:
        raise DomainError("cannot extend a truncated series")
    if order == a.order:
        return a
    v = min(a.valuation, order)
    return TruncatedSeries(v, [a.coefficient(k) for k in range(v, order + 1)], order)


@pytest.fixture(scope="session")
def zeros():
    return load_zeros(ZEROS_PATH)


@pytest.fixture(scope="session")
def lam_small():
    return lambda_sieve(10 ** 4)


@pytest.fixture(scope="session")
def repo_root():
    return REPO


@pytest.fixture(autouse=True)
def _cold_gw_memos():
    """Every test starts with empty Guinand-Weil memos (the two sides' cores,
    the kernels' cosine-Poisson integrals and zeta'/zeta), so that a test
    that monkeypatches what a memoised core calls is not served an earlier
    result."""
    explicit_formula._zero_side_numerator.cache_clear()
    explicit_formula._prime_side_numerators.cache_clear()
    extremal_poisson._cos_integrals.cache_clear()
    zeta_oracle.zeta_logderiv.cache_clear()


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
