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


def agree(a: TruncatedSeries, b: TruncatedSeries) -> bool:
    """a and b have the same coefficients through the smaller of their orders."""
    order = min(a.order, b.order)
    return ps_truncate(a, order) == ps_truncate(b, order)


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
    """pairs(call, *args): the coefficient pairs call(*args) hands to _dot,
    plus, for each product taken as one integer product, the n(n + 1)/2 pairs
    of its n output coefficients that the _dot route would have handed."""
    from critline import series_algebra
    count = [0]
    dot, kronecker = series_algebra._dot, series_algebra._kronecker

    def counting(pairs):
        count[0] += len(pairs)
        return dot(pairs)

    def counting_kronecker(aw, bw):
        out = kronecker(aw, bw)
        if out is not None:
            count[0] += len(out) * (len(out) + 1) // 2
        return out

    monkeypatch.setattr(series_algebra, "_dot", counting)
    monkeypatch.setattr(series_algebra, "_kronecker", counting_kronecker)

    def pairs(call, *args):
        count[0] = 0
        call(*args)
        return count[0]
    return pairs
