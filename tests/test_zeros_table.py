import math

import mpmath
import numpy as np
import pytest

from critline import zeros_table
from critline.errors import (
    CrossCheckFailed,
    HeightExceeded,
    NotAscending,
    ParseError,
    SuspiciousFirstZero,
)
from critline.zeros_table import (
    TURING_MIN_HEIGHT,
    ZeroTable,
    gram_point,
    load_zeros,
    sample_gram,
    search_zeros,
    turing_certificate,
    verify_ordinates,
    zero_count_check,
    zero_count_predicted,
)
from critline.zeta_oracle import hardy_z, theta, zeta_em

THREE = "14.134725142\n21.022039639\n25.010857580\n"


def test_load_small_table(tmp_path):
    f = tmp_path / "z.txt"
    f.write_text("# a comment\n" + THREE)
    t = load_zeros(f)
    assert len(t) == 3
    assert t.max_height == pytest.approx(25.010857580)
    assert t.count_below(22.0) == 2


def test_tables_compare_by_identity_and_are_read_only(tmp_path):
    # a table keys the Guinand-Weil memos: == must not compare the arrays
    # elementwise (which raised), and the ordinates must not change under it
    f = tmp_path / "z.txt"
    f.write_text(THREE)
    a, b = load_zeros(f), load_zeros(f)
    assert (a == b) is False and a == a
    assert hash(a) != hash(b)
    with pytest.raises(ValueError):
        a.gammas[0] = 1.0


def test_parse_error_reports_line(tmp_path):
    f = tmp_path / "z.txt"
    f.write_text("14.134725142\nabc\n25.010857580\n")
    with pytest.raises(ParseError) as exc:
        load_zeros(f)
    assert exc.value.line == 2


def test_empty_file_rejected(tmp_path):
    f = tmp_path / "z.txt"
    f.write_text("# nothing but comments\n")
    with pytest.raises(ParseError):
        load_zeros(f)


def test_not_ascending(tmp_path):
    f = tmp_path / "z.txt"
    f.write_text("14.134725142\n25.010857580\n21.022039639\n")
    with pytest.raises(NotAscending):
        load_zeros(f)


def test_suspicious_first_zero(tmp_path):
    f = tmp_path / "z.txt"
    f.write_text("14.20\n21.022039639\n")
    with pytest.raises(SuspiciousFirstZero):
        load_zeros(f)


def test_negative_ordinate_rejected(tmp_path):
    f = tmp_path / "z.txt"
    f.write_text("-14.134725142\n")
    with pytest.raises(ParseError):
        load_zeros(f)


def test_nonfinite_ordinate_rejected(tmp_path):
    f = tmp_path / "z.txt"
    f.write_text("14.134725142\n1e999\n")
    with pytest.raises(ParseError) as exc:
        load_zeros(f)
    assert exc.value.line == 2


def test_low_precision_warns(tmp_path):
    f = tmp_path / "z.txt"
    # 8 significant digits: close enough to the first zero, but flagged
    f.write_text("14.134725\n21.022040\n25.010858\n")
    with pytest.warns(UserWarning, match="significant digits"):
        load_zeros(f)


def test_count_checks(zeros):
    assert zero_count_check(zeros, 100.0).counted == 29
    assert zero_count_check(zeros, 14.0).counted == 0
    for T in (100.0, 1000.0, 10000.0):
        c = zero_count_check(zeros, T)
        assert c.gap <= 2 * math.log(T)
    with pytest.raises(HeightExceeded):
        zero_count_check(zeros, 2 * zeros.max_height)


def test_table_ordinates_are_zeros(zeros):
    rng = np.random.default_rng(5)
    for g in rng.choice(zeros.gammas, 50, replace=False):
        assert abs(zeta_em(complex(0.5, g))) <= 1e-5


def test_verify_ordinates_sample(zeros):
    assert verify_ordinates(zeros, sample=25) <= 1e-5


def test_verify_ordinates_rejects_a_non_zero(tmp_path):
    f = tmp_path / "z.txt"
    f.write_text("14.134725142\n21.022039639\n25.500000000\n")
    with pytest.raises(CrossCheckFailed):
        verify_ordinates(load_zeros(f))


def test_zero_count_predicted_on_arrays():
    Ts = np.array([20.0, 100.0, 1e4])
    assert np.array_equal(zero_count_predicted(Ts), [zero_count_predicted(T) for T in Ts])


@pytest.mark.parametrize("T", [100.0, 1e3, 1e4])
def test_zero_count_predicted_is_theta_over_pi_plus_one(T):
    # N(T) - S(T) = theta(T)/pi + 1; the 7/8 form drops theta's 1/(48T) term,
    # 6.6e-5 at T = 100
    with mpmath.workdps(30):
        ref = float(mpmath.siegeltheta(T) / mpmath.pi + 1)
    assert abs(zero_count_predicted(T) - ref) <= 1e-11


def test_gap_sanity(zeros):
    g = zeros.gammas
    gaps = np.diff(g)
    assert np.all(gaps > 0)
    assert np.all(gaps[g[:-1] > 50] < 10)


def test_distance_to_nearest(zeros):
    g0 = zeros.gammas[0]
    assert zeros.distance_to_nearest(g0) == 0.0
    assert zeros.distance_to_nearest(g0 + 1e-3) == pytest.approx(1e-3, rel=1e-6)
    assert zeros.distance_to_nearest(5.0) == pytest.approx(g0 - 5.0)


def test_gram_points_solve_theta():
    n = np.array([0, 1, 2, 28, 647, 10141, 10197])
    g = gram_point(n)
    assert np.all(np.abs(theta(g) - n * math.pi) <= 4e-15 * np.maximum(1.0, n * math.pi))
    assert g[0] == pytest.approx(17.8455995404, abs=1e-10)
    assert gram_point(10197) == g[-1]
    # (-1)^n Z(g_n) > 0 marks a good Gram point; g_126 is the first bad one
    gram = sample_gram(120, 130)
    assert list(gram.good) == [(-1) ** n * hardy_z(float(t)) > 0
                               for n, t in zip(range(120, 131), gram.g)]
    assert not gram.good[6] and gram.good[:6].all()


@pytest.fixture(scope="module")
def searched():
    return search_zeros(1000.0)


def test_search_reproduces_the_tracked_ordinates_and_certifies(searched, zeros):
    gammas, gram = searched
    tracked = zeros.gammas[zeros.gammas <= 1000.0]
    assert len(gammas) == len(tracked) == 649
    assert np.max(np.abs(gammas - tracked)) <= 1e-10
    # the search's Gram points run to the first good one above the height
    assert gram.first == 0 and gram.g[-2] <= 1000.0 < gram.g[-1] and gram.good[-1]
    certified = turing_certificate(ZeroTable(gammas, "search"), gram)
    assert TURING_MIN_HEIGHT < certified < 1000.0


def test_search_runs_on_past_a_bad_gram_point(zeros):
    # g_125 < 282 < g_126 = 282.455, and g_126 is bad: its block ends at g_127
    gammas, gram = search_zeros(282.0)
    assert len(gram.g) == 128 and gram.good[-1] and not gram.good[-2]
    tracked = zeros.gammas[zeros.gammas <= 282.0]
    assert len(gammas) == len(tracked)
    assert np.max(np.abs(gammas - tracked)) <= 1e-10


def test_a_block_that_does_not_fill_raises(monkeypatch):
    calls = []

    def fake_hardy_z(t):
        calls.append(len(t))
        return np.ones(len(t))

    monkeypatch.setattr(zeros_table, "hardy_z", fake_hardy_z)
    ts, zs = np.array([100.0, 100.5, 101.0]), np.array([1.0, 1.0, -1.0])
    with pytest.raises(CrossCheckFailed, match="1 of its 3 sign changes"):
        zeros_table._block_brackets(ts, zs, 3)
    # each doubling is checked, the last one included: one batch of midpoints each
    assert len(calls) == zeros_table.MAX_DOUBLINGS
    assert sum(calls) == 2 * (2 ** zeros_table.MAX_DOUBLINGS - 1)


def test_searched_ordinates_against_mpmath_zetazero(searched):
    mp = pytest.importorskip("mpmath")
    gammas, _ = searched
    with mp.workdps(20):
        for k in (0, 1, 100, 377, len(gammas) - 1):
            assert abs(gammas[k] - float(mp.zetazero(k + 1).imag)) <= 1e-10, k


def _top_gram(table, below):
    n = int(theta(table.max_height) // math.pi)
    return sample_gram(n - below, n)


def test_turing_certificate_on_the_tracked_table(zeros):
    # Brent's rule at K = 2 near 1e4, from Gram points below the table's top
    certified = turing_certificate(zeros, _top_gram(zeros, 12))
    assert certified == pytest.approx(10046.888, abs=1e-3)
    assert certified == gram_point(10197)


@pytest.mark.parametrize("edit", ["delete", "spurious"])
def test_turing_certificate_catches_one_wrong_ordinate(zeros, edit):
    g = zeros.gammas
    if edit == "delete":
        table = ZeroTable(np.delete(g, 5000), edit)
    else:
        table = ZeroTable(np.insert(g, np.searchsorted(g, 5000.123), 5000.123), edit)
    with pytest.raises(CrossCheckFailed, match="good Gram point"):
        turing_certificate(table, _top_gram(table, 12))


def test_turing_certificate_below_its_range_checks_counts_only(zeros):
    low = ZeroTable(zeros.gammas[zeros.gammas <= 200.0], "low")
    assert turing_certificate(low, sample_gram(0, 80)) is None
    with pytest.raises(CrossCheckFailed, match="g_"):
        turing_certificate(ZeroTable(np.delete(low.gammas, 3), "short"), sample_gram(0, 80))
