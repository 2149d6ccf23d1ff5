"""Every public entry point that takes a real number refuses anything else
with a ``CritlineError``: complex, a string, None and NaN alike, never a
``TypeError``, a ``ValueError`` or a value."""

import math
import warnings

import numpy as np
import pytest

from critline import bound_engine as be
from critline import explicit_formula as ef
from critline import extremal_poisson as ep
from critline import prime_arith as pa
from critline import special_f as sf
from critline import zeros_table as zt
from critline import zeta_oracle as zo
from critline.errors import CritlineError, DomainError, _real_in
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
