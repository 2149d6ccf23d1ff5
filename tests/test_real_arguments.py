"""Every public entry point that takes a real number refuses anything else
with a ``CritlineError``: complex, a string, None and NaN alike, never a
``TypeError``, a ``ValueError`` or a value.  So does every one that takes an
integer (``_int_in``) or a real float or 1-D array (``_points``), with a
``DomainError`` that names the argument."""

import ast
import math
import warnings

import numpy as np
import pytest

from conftest import REPO

from critline import bound_engine as be
from critline import explicit_formula as ef
from critline import extremal_poisson as ep
from critline import optimal_coeffs as oc
from critline import prime_arith as pa
from critline import series_algebra as sa
from critline import special_f as sf
from critline import zeros_table as zt
from critline import zeta_oracle as zo
from critline.errors import CritlineError, DomainError, WindowExceeded, _int_in, _real_in
from critline.zeros_table import ZeroTable

_TABLE = ZeroTable(np.array([14.134725141734693, 21.022039638771555]), "two ordinates")
_P = ep.KernelParams(0.5, 1.0)
_EXACT = be.CurvePolicy.exact()

#: entry point -> (good value, call with a value in its place) for each real argument
_ENTRY_POINTS = {
    "dirichlet_term": [(1000.0, lambda v: be.dirichlet_term(v, 100.0)),
                       (100.0, lambda v: be.dirichlet_term(1000.0, v))],
    "theorem1_rhs": [(1000.0, lambda v: be.theorem1_rhs(v, 100.0)),
                     (100.0, lambda v: be.theorem1_rhs(1000.0, v))],
    "w0_weight": [(100.0, lambda v: be.w0_weight(3, v))],
    "archimedean_identity_check": [(100.0, be.archimedean_identity_check)],
    "gamma_moment_check": [(100.0, lambda v: be.gamma_moment_check(1, v))],
    "curve_series_value": [(0.3, lambda v: be.curve_series_value(v, _EXACT))],
    "theorem2_curve": [(1000.0, lambda v: be.theorem2_curve(v, _EXACT))],
    "optimal_cutoff": [(1000.0, be.optimal_cutoff)],
    "scan_margins": [(1000.0, lambda v: be.scan_margins(v, 1e4, 2)),
                     (1e4, lambda v: be.scan_margins(1e3, v, 2)),
                     (100.0, lambda v: be.scan_margins(1e3, 1e4, 2, x_policy="fixed",
                                                       x_fixed=v))],
    "gw_zero_side": [(100.0, lambda v: ef.gw_zero_side("+", _P, v, _TABLE))],
    "gw_prime_side": [(100.0, lambda v: ef.gw_prime_side("+", _P, v))],
    "verify_gw": [(100.0, lambda v: ef.verify_gw("+", _P, v, _TABLE))],
    "partial_fraction_residual": [(0.5, lambda v: ef.partial_fraction_residual(v, 100.0, _TABLE)),
                                  (100.0, lambda v: ef.partial_fraction_residual(0.5, v, _TABLE))],
    "lemma3_bracket": [(100.0, lambda v: ef.lemma3_bracket(v, 10.0, 0.5)),
                       (10.0, lambda v: ef.lemma3_bracket(100.0, v, 0.5)),
                       (0.5, lambda v: ef.lemma3_bracket(100.0, 10.0, v))],
    "KernelParams": [(0.5, lambda v: ep.KernelParams(v, 1.0)),
                     (1.0, lambda v: ep.KernelParams(0.5, v))],
    "numeric_ft": [(0.3, lambda v: ep.numeric_ft("+", _P, v))],
    "poisson_h": [(0.3, lambda v: ep.poisson_h(_P, v))],
    "covering_table": [(100.0, pa.covering_table)],
    "weighted_psi": [(100.0, pa.weighted_psi)],
    "f_eval": [(0.5, lambda v, m=m: sf.f_eval(v, m)) for m in sf.FMethod],
    "f_closed_form": [(0.5, sf.f_closed_form)],
    "f_prime": [(0.3, sf.f_prime)],
    "zeta_em": [(1e-12, lambda v: zo.zeta_em(complex(0.5, 20.0), target=v))],
    "hardy_z": [(1000.0, zo.hardy_z)],
    "riemann_siegel_z": [(1e4, zo.riemann_siegel_z)],
    "log_abs_zeta_crit": [(1000.0, zo.log_abs_zeta_crit)],
    "search_zeros": [(30.0, zt.search_zeros)],
    "zero_count_check": [(20.0, lambda v: zt.zero_count_check(_TABLE, v))],
}

#: each bad value made from a good one, so that only its kind is wrong
_BAD = {"complex": complex, "str": repr, "None": lambda good: None, "NaN": lambda good: math.nan}


def test_the_table_probes_28_entry_points():
    assert len(_ENTRY_POINTS) == 28


@pytest.mark.parametrize("bad", _BAD)
@pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
def test_a_real_argument_that_is_not_one_is_a_critline_error(entry, bad):
    for good, call in _ENTRY_POINTS[entry]:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # refused before any cast
            with pytest.raises(CritlineError):
                call(_BAD[bad](good))


@pytest.mark.parametrize("lo, hi, ends, inside, outside, message", [
    (10, math.inf, "[]", [10, 10.5, 1e300], [9.99, math.inf], "t must be finite and >= 10"),
    (0, math.inf, "()", [5e-324, 1], [0, -1], "t must be finite and > 0"),
    (-math.inf, 1, "[]", [-1e300, 1], [1.5, -math.inf], "t must be finite and <= 1"),
    (0, 1, "(]", [1e-300, 1], [0, 1.01], "t must be finite and > 0 and <= 1,"),
    (10, 1e6, "(]", [10.5, 1e6], [10, 1e6 + 1], r"t must be finite and > 10 and <= 1e\+06,"),
    (-math.inf, math.inf, "[]", [-1e300, 0, 1e300], [math.inf, -math.inf], "t must be finite"),
])
def test_the_rule_takes_its_interval_ends_as_written(lo, hi, ends, inside, outside, message):
    for v in inside:
        assert _real_in("t", v, lo, hi, ends) == v
    for v in outside:
        with pytest.raises(DomainError, match=message):
            _real_in("t", v, lo, hi, ends)


def test_the_rule_returns_a_float_and_names_what_it_refuses():
    assert type(_real_in("t", 1000, 10)) is float
    assert type(_real_in("t", np.int64(1000), 10)) is float
    for value, shown in [(10 ** 400, "an int beyond float range"),
                         (10 ** 5000, "an int beyond float range"),  # no repr either
                         ("12", "'12'"), (None, "None"), (12 + 0j, r"\(12\+0j\)")]:
        with pytest.raises(DomainError, match=f"got {shown}$"):
            _real_in("t", value, 10)


def test_an_array_is_refused_on_its_least_or_greatest_point():
    for ts in ([100.0, 5.0, 200.0], [100.0, 300.0, math.nan], [math.nan, 100.0]):
        with pytest.raises(DomainError, match="t must be finite and >= 10"):
            zo.hardy_z(np.array(ts))
    for ts in ("1000", None, ["100", "200"], np.array([100.0, 200.0], dtype=object)):
        with pytest.raises(DomainError, match="real float or a 1-D array"):
            zo.hardy_z(ts)


# --- integers ------------------------------------------------------------------

_TS = sa.TruncatedSeries
_EC = sa.ExactCoefficient

#: entry point -> (argument, good value, call with a value in its place, a value
#: below its range or None where every integer is taken) for each integer argument
_INT_ENTRY_POINTS = {
    "gamma_moment_check": [("k", 1, lambda v: be.gamma_moment_check(v, 100.0), -1)],
    "scan_margins": [("points", 2, lambda v: be.scan_margins(1e3, 1e4, v), 0)],
    "CurvePolicy.optimal": [("K", 3, be.CurvePolicy.optimal, 0)],
    "run_pipeline": [("K", 1, oc.run_pipeline, 0)],
    "a_coeff": [("m", 3, oc.a_coeff, -1)],
    "b_coeff": [("m", 3, oc.b_coeff, -1)],
    "lambda_sieve": [("x", 100, pa.lambda_sieve, 1)],
    "ExactCoefficient.__pow__": [("n", 2, lambda v: sa.L ** v, -1)],
    "ExactCoefficient.zeta_odd": [("index", 3, _EC.zeta_odd, 1),
                                  ("exponent", 1, lambda v: _EC.zeta_odd(3, v), -1)],
    "ExactCoefficient.log2_power": [("exponent", 1, _EC.log2_power, -sa.EXPONENT_MAX - 1)],
    "TruncatedSeries.constant": [("order", 2, lambda v: _TS.constant(1, v), -1)],
    "TruncatedSeries.zero": [("order", 2, _TS.zero, -2)],
    "TruncatedSeries.monomial": [("exponent", 1, lambda v: _TS.monomial(v, 1, 3), None),
                                 ("order", 3, lambda v: _TS.monomial(1, 1, v), 0)],
    "TruncatedSeries.identity": [("order", 2, _TS.identity, 0)],
    "zeta_em": [("min_m", 0, lambda v: zo.zeta_em(complex(0.5, 20.0), min_m=v), None)],
    "zeta_real": [("m", 3, zo.zeta_real, 1)],
    "constant_env": [("max_odd", 7, zo.constant_env, None)],
    "f_taylor": [("k", 1, sf.f_taylor, 0)],
    "sample_gram": [("first", 0, lambda v: zt.sample_gram(v, 2), -1),
                    ("last", 2, lambda v: zt.sample_gram(0, v), None)],
}


def test_the_integer_table_probes_19_entry_points():
    assert len(_INT_ENTRY_POINTS) == 19


@pytest.mark.parametrize("entry", sorted(_INT_ENTRY_POINTS))
def test_an_integer_argument_takes_its_good_value(entry):
    for _, good, call, _ in _INT_ENTRY_POINTS[entry]:
        call(good)
        call(np.int64(good))  # numpy integers are integers


@pytest.mark.parametrize("entry", sorted(_INT_ENTRY_POINTS))
def test_an_integer_argument_that_is_not_one_is_a_domain_error(entry):
    integral_float = [] if entry == "lambda_sieve" else [1.0]  # the sieve takes 1000.0 as 1000
    for name, good, call, below in _INT_ENTRY_POINTS[entry]:
        for bad in [2.5, "3", None] + integral_float + ([] if below is None else [below]):
            with pytest.raises(DomainError, match=f"^{name} must be an integer"):
                call(bad)


def test_the_integer_rule_returns_an_int_and_states_its_range():
    assert type(_int_in("k", np.int64(3), 0)) is int and _int_in("k", True, 0) == 1
    assert _int_in("k", 10 ** 400, 0) == 10 ** 400
    for value, lo, hi, message in [
            (2.5, 0, math.inf, "k must be an integer >= 0, got 2.5$"),
            (-1, 0, math.inf, "k must be an integer >= 0, got -1$"),
            (np.float64(3.0), 0, math.inf, r"k must be an integer >= 0, got np.float64\(3.0\)$"),
            (256, 3, 255, "k must be an integer >= 3 and <= 255, got 256$"),
            ("3", -math.inf, math.inf, "k must be an integer, got '3'$"),
            (None, -math.inf, 7, "k must be an integer <= 7, got None$"),
            (10 ** 5000, 3, 255, "k must be an integer >= 3 and <= 255, "
                                 "got an int of over 3000 digits$")]:
        with pytest.raises(DomainError, match=message):
            _int_in("k", value, lo, hi)


def test_a_numpy_integer_keeps_its_zeta_symbol():
    # packed with int64 shifts, a numpy index's Z5 exponent would fall out of the key
    assert oc.a_coeff(np.int64(5)) == oc.a_coeff(5)
    assert _EC.zeta_odd(np.int64(5)) == _EC.zeta_odd(5) == sa.Z(5)


def test_a_cached_integer_does_not_answer_for_a_float():
    zo.zeta_real(np.int64(9))
    zo.constant_env(np.int64(9))
    for call in (zo.zeta_real, zo.constant_env):
        with pytest.raises(DomainError, match="must be an integer"):
            call(9.0)


# --- floats and 1-D arrays ---------------------------------------------------------

#: entry point -> (argument, good value, call with a value in its place, whether a
#: complex scalar is taken) for each argument that is a real float or a 1-D array
_ARRAY_ENTRY_POINTS = {
    "m_numerator": ("z", 0.5, lambda v: ep.m_numerator(_P, v), True),
    "eval_m": ("z", 0.5, lambda v: ep.eval_m("+", _P, v), True),
    "ft_numerator": ("xi", 0.5, lambda v: ep.ft_numerator(_P, v), False),
    "ft_m": ("xi", 0.5, lambda v: ep.ft_m("-", _P, v), False),
    "poisson_h": ("x", 0.5, lambda v: ep.poisson_h(_P, v), False),
    "gram_point": ("n", 5.0, zt.gram_point, False),
    "theta": ("t", 100.0, zo.theta, False),
    "zero_count_predicted": ("t", 100.0, zt.zero_count_predicted, False),  # theta's t
    "re_digamma_quarter": ("y", 0.5, zo.re_digamma_quarter, False),
    "f_closed_form": ("u", 0.5, sf.f_closed_form, False),
    "dirichlet_term": ("t", 1000.0, lambda v: be.dirichlet_term(v, 100.0), False),
    "hardy_z": ("t", 1000.0, zo.hardy_z, False),
    "riemann_siegel_z": ("t", 1e4, zo.riemann_siegel_z, False),
    "log_abs_zeta_crit": ("t", 1000.0, zo.log_abs_zeta_crit, False),
}

#: each bad value made from a good one; complex is bad as a scalar where no
#: complex scalar is taken, and as an array everywhere
_BAD_POINTS = {"str": repr, "None": lambda good: None,
               "2-D": lambda good: np.full((2, 2), good), "NaN": lambda good: math.nan,
               "complex array": lambda good: np.array([complex(good)])}


@pytest.mark.parametrize("bad", _BAD_POINTS)
@pytest.mark.parametrize("entry", sorted(_ARRAY_ENTRY_POINTS))
def test_a_point_that_is_not_a_real_float_is_a_domain_error(entry, bad):
    name, good, call, takes_complex = _ARRAY_ENTRY_POINTS[entry]
    shown = np.asarray(call(good))
    assert call(np.array([good, good])).tolist() == [shown.item()] * 2
    values = [_BAD_POINTS[bad](good)] + ([complex(good)] if bad == "complex array"
                                          and not takes_complex else [])
    for value in values:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # refused before any cast
            with pytest.raises(DomainError, match=f"^{name} must be"):
                call(value)


@pytest.mark.parametrize("call, value", [(zo.theta, 9.99), (zt.zero_count_predicted, 5.0),
                                         (zt.gram_point, -1), (zt.gram_point, [3, -1])])
def test_theta_and_gram_points_keep_to_their_stated_ranges(call, value):
    with pytest.raises(DomainError, match=">= (10|0)"):
        call(value)


def test_digamma_takes_any_numeric_input_and_refuses_the_rest():
    assert zo.digamma(np.full((2, 2), 0.5)).shape == (2, 2)
    assert isinstance(zo.digamma(0.5 + 1j), complex) and isinstance(zo.digamma(3), float)
    for value in ("0.5", None, np.array([0.5], dtype=object), ["0.5"]):
        with pytest.raises(DomainError, match="z must be a real or complex number"):
            zo.digamma(value)


def test_the_pole_bound_stops_short_of_the_pole():
    assert sf.f_pole_bound(0.5) == 2 * 0.5 / 0.75 and sf.f_pole_bound(0) == 0.0
    for value in (1.0, 1.5, -0.1, "0.5", None, math.nan, 0.5j):
        with pytest.raises(DomainError, match=r"u must be finite and >= 0 and < 1,"):
            sf.f_pole_bound(value)


def test_riemann_siegel_checks_the_window_at_its_highest_point():
    with pytest.raises(WindowExceeded, match=r"\|Im s\| = 2000000.0"):
        zo.riemann_siegel_z(np.array([1e4, 2e6, 5e3, 1.5e6]))


# --- one place for the rules -------------------------------------------------------

_RULES = {"_real_in", "_int_in", "_points", "_shaped"}


def test_only_errors_imports_numbers_or_defines_a_rule():
    for path in sorted((REPO / "src" / "critline").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {a.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                    for a in node.names}
        imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
        defined = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
        if path.name == "errors.py":
            assert "numbers" in imported and _RULES <= defined
        else:
            assert "numbers" not in imported and not _RULES & defined, path.name
