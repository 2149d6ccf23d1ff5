import itertools
import math
import warnings
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from critline import zeros_table
from critline.errors import (
    CritlineError,
    CrossCheckFailed,
    HeightExceeded,
    NotAscending,
    ParseError,
    SuspiciousFirstZero,
)
from critline.zeros_table import (
    TURING_MIN_HEIGHT,
    ZeroTable,
    FIRST_ZERO,
    _significant_digits,
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
from conftest import ZEROS_PATH

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
    # an exponent carries no significant digits: 8 here as well
    f.write_text("1.4134725e1\n21.022039639\n25.010857580\n")
    with pytest.warns(UserWarning, match="^1 ordinate"):
        load_zeros(f)


@pytest.mark.parametrize("text, digits", [
    ("1.2345678e+05", 8), ("1.41e1", 3), ("1.4134725141735E1", 14), ("0014.134725", 8),
    ("-0.00123", 3), ("+14.134725142", 11), ("1_4.134725", 8), ("14.10000000", 10)])
def test_significant_digits_count_the_mantissa(text, digits):
    assert _significant_digits(text) == digits


def load_zeros_line_by_line(path):
    """The reference loader: one line at a time, each check in turn."""
    gammas = []
    low_precision = 0
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                val = float(line)
            except ValueError:
                raise ParseError(f"not a decimal ordinate: {line!r}", line=lineno) from None
            if not math.isfinite(val) or val <= 0:
                raise ParseError(f"ordinate must be a positive real, got {line!r}",
                                 line=lineno)
            if gammas and val <= gammas[-1]:
                raise NotAscending(
                    f"line {lineno}: {val} does not exceed previous ordinate {gammas[-1]}")
            if _significant_digits(line) < 9:
                low_precision += 1
            gammas.append(val)
    if not gammas:
        raise ParseError(f"{path}: no ordinates found")
    if abs(gammas[0] - FIRST_ZERO) > 1e-6:
        raise SuspiciousFirstZero(
            f"first ordinate {gammas[0]} is not the known first zero ~{FIRST_ZERO:.6f}")
    if low_precision:
        warnings.warn(
            f"{low_precision} ordinate(s) carry fewer than 9 significant digits; "
            "explicit-formula residuals will degrade", stacklevel=2)
    return ZeroTable(np.asarray(gammas, dtype=float), str(path))


def _outcome(load, path):
    """The ordinates and the warnings' texts, or the error's class and text."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            gammas = load(path).gammas
        except CritlineError as exc:
            return type(exc), str(exc)
    return gammas, [str(w.message) for w in caught]


def assert_loads_as_line_by_line(path, block):
    """``load_zeros`` reading ``block`` characters at a time gives what the
    reference gives, to the bit and to the warning, or raises as it does."""
    with mock.patch.object(zeros_table, "_BLOCK_CHARS", block):
        got = _outcome(load_zeros, path)
    want = _outcome(load_zeros_line_by_line, path)
    if isinstance(want[0], np.ndarray):
        gammas = got[0]
        assert isinstance(gammas, np.ndarray), got
        assert gammas.dtype == np.float64 and gammas.ndim == 1 and not gammas.flags.writeable
        assert gammas.tobytes() == want[0].tobytes() and got[1] == want[1]
    else:
        assert got == want
    return got


def _file(lines, endings, final):
    """The bytes of ``lines`` ended by ``endings`` in turn, the last line's
    ending dropped unless ``final``."""
    ends = [endings[i % len(endings)] for i in range(len(lines))]
    if lines and not final:
        ends[-1] = ""
    return "".join(map(str.__add__, lines, ends)).encode("utf-8")


# surrounding whitespace, Unicode included; \x0c, \x85 and \u2028 end a line
# for str.splitlines but not in a file, which must not split there
_SPACE = ["", " ", "\t", "  ", "\xa0", "\u3000", "\x0c", "\x85", "\u2028"]
_FORMATS = ["{:.12f}", "{:.9f}", "{:.6f}", "{:.8e}", "{:.12E}", "{!r}", "+{:.10f}",
            "00{:.9f}", "{:.3e}"]
_BAD = ["abc", "14.5 # note", "30.5 31.5", "inf", "-inf", "nan", "0", "-0.0", "-12.5",
        "1e999", "1__4.5", "0x1p4", "\ufeff20.5"]
_FIRST = ["14.134725141735", "14.134725142", "14.1347251", "1.4134725141735e1",
          "1_4.134725141735", "14.2"]


@st.composite
def zero_files(draw):
    """A zero-table text: ordinates from a first zero up, in varied formats
    and whitespace, with comments, blank lines and, now and then, a bad
    line, an equal or a descending neighbour."""
    lines, last = [draw(st.sampled_from(_FIRST))], 14.2
    kinds = ["value"] * 20 + ["comment", "blank", "comment", "blank", "bad", "equal", "down"]
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=25)):
        pad = draw(st.sampled_from(_SPACE)), draw(st.sampled_from(_SPACE))
        if kind == "value":
            last += draw(st.floats(0.001, 5.0))
            text = draw(st.sampled_from(_FORMATS)).format(last)
            if draw(st.booleans()) and text[:2].isdigit():
                text = text[0] + "_" + text[1:]
        elif kind == "comment":
            text = "# " + draw(st.sampled_from(["note", "14.5", "ordinates", ""]))
        elif kind == "blank":
            text = ""
        elif kind == "bad":
            text = draw(st.sampled_from(_BAD))
        else:
            text = repr(last if kind == "equal" else last - 1.0)
        lines.append(pad[0] + text + pad[1])
    if draw(st.booleans()):
        lines.insert(0, "# leading comment")
    endings = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=1, max_size=3))
    return _file(lines, endings, draw(st.booleans()))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(zero_files(), st.integers(1, 48))
def test_block_loader_matches_the_line_by_line_reference(tmp_path_factory, content, block):
    path = tmp_path_factory.getbasetemp() / "zero-file.txt"
    path.write_bytes(content)
    assert_loads_as_line_by_line(path, block)


LINES = ["14.134725142", "21.022039639", "25.010857580", "30.424876126"]


@pytest.mark.parametrize("lines, outcome", [
    (["# head", "", *LINES], np.ndarray),
    (["  \u3000 14.134725142 \xa0", "\t21.022039639", "+25.010857580", "3.0424876126e1"],
     np.ndarray),
    (["14.134725142", "2.1022e1", "2_5.010857580"], np.ndarray),  # one low-precision line
    ([], ParseError),  # an empty file
    (["# comments only", ""], ParseError),
    (["14.2", "21.022039639"], SuspiciousFirstZero),
    (["14.134725142", "21.022039639 # note", "25.010857580"], ParseError),
    (["14.134725142", "21.022039639 25.010857580"], ParseError),
    (["14.134725142", "21.022039639", "inf"], ParseError),
    (["14.134725142", "nan", "21.022039639"], ParseError),
    (["0", "14.134725142"], ParseError),
    (["14.134725142", "-21.022039639"], ParseError),
    (["14.134725142", "21.022039639", "21.022039639"], NotAscending),
    (["14.134725142", "25.010857580", "21.022039639"], NotAscending),
    (["14.134725142", "25.010857580", "21.0", "abc"], NotAscending),  # the first offence
    (["14.134725142", "21.022039639", "abc", "20.0"], ParseError),
], ids=["comments", "whitespace-signs-exponent", "low-precision", "empty", "no-ordinates",
        "wrong-first", "inline-note", "two-numbers", "inf", "nan", "zero", "negative",
        "equal", "descending", "descending-then-junk", "junk-then-descending"])
def test_block_loader_cases(tmp_path, lines, outcome):
    # blocks of 13 and 14 characters end on either side of the first line's end
    path = tmp_path / "z.txt"
    for ending, block, final in itertools.product(["\n", "\r\n", "\r"],
                                                  [1, 7, 13, 14, 27, 1 << 18], [True, False]):
        path.write_bytes(_file(lines, [ending], final))
        got = assert_loads_as_line_by_line(path, block)
        assert isinstance(got[0], outcome) if outcome is np.ndarray else got[0] is outcome


@pytest.mark.parametrize("content, match, line", [
    (b"14.134725141735\n21.02203963\xff\n", "z.txt is not UTF-8", 2),
    (b"14.134725141735\n21.02203963\xff", "z.txt is not UTF-8", 2),  # no final newline
    (b"# \xe9t\xe9\n14.134725141735\n", "not UTF-8", 1),  # Latin-1 in a comment
    (b"14.134725141735\nabc\n\xff\n", "not a decimal", 2),  # the earlier line raises first
])
@pytest.mark.parametrize("block", [1, 16, 29, 1 << 18])
def test_a_file_that_is_not_utf8_is_a_parse_error(tmp_path, content, match, line, block):
    path = tmp_path / "z.txt"
    path.write_bytes(content)
    with mock.patch.object(zeros_table, "_BLOCK_CHARS", block):
        with pytest.raises(ParseError, match=match) as exc:
            load_zeros(path)
        assert exc.value.line == line
        path.write_bytes("# \u00e9t\u00e9 \u2014 UTF-8\n14.134725141735\n".encode())
        assert len(load_zeros(path)) == 1


def test_tracked_table_as_numpy_parses_it(zeros):
    # an independent route: numpy's own text parser
    ref = np.loadtxt(ZEROS_PATH, comments="#", dtype=float)
    assert ref.tobytes() == zeros.gammas.tobytes()
    assert not zeros.gammas.flags.writeable


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
