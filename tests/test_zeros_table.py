import math

import mpmath
import numpy as np
import pytest

from critline.errors import (
    CrossCheckFailed,
    HeightExceeded,
    NotAscending,
    ParseError,
    SuspiciousFirstZero,
)
from critline.zeros_table import (
    load_zeros,
    verify_ordinates,
    zero_count_check,
    zero_count_predicted,
)
from critline.zeta_oracle import zeta_em

THREE = "14.134725142\n21.022039639\n25.010857580\n"


def test_load_small_table(tmp_path):
    f = tmp_path / "z.txt"
    f.write_text("# a comment\n" + THREE)
    t = load_zeros(f)
    assert len(t) == 3
    assert t.max_height == pytest.approx(25.010857580)
    assert t.count_below(22.0) == 2


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
        verify_ordinates(load_zeros(f), full=True)


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
