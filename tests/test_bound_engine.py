import math

import numpy as np
import pytest
from scipy import integrate

from critline.bound_engine import (
    CSV_HEADER,
    BoundReport,
    CurvePolicy,
    archimedean_identity_check,
    archimedean_term,
    curve_series_value,
    dirichlet_term,
    g_curve,
    g_min,
    gamma_moment_check,
    optimal_cutoff,
    report_csv_row,
    scan_margins,
    theorem1_rhs,
    theorem2_curve,
    w0_weight,
)
from critline.errors import DomainError, NearZeroOfZeta
from critline.optimal_coeffs import run_pipeline
from critline.special_f import f_closed_form, f_taylor
from critline.zeta_oracle import log_abs_zeta_crit, zeta_real


def test_dirichlet_empty_below_two(lam_small):
    assert dirichlet_term(100.0, 1.5, lam_small) == 0.0


def test_dirichlet_triangle_inequality(lam_small):
    t, x = 321.0, 500.0
    val = dirichlet_term(t, x, lam_small)
    ns = lam_small.prime_powers(x)
    nsf = ns.astype(float)
    logx = math.log(x)
    bound = float(np.sum(np.log(lam_small.prime[ns].astype(float)) / np.sqrt(nsf)
                         * f_closed_form((logx - np.log(nsf)) / logx) / logx))
    assert abs(val) <= bound + 1e-12


def test_dirichlet_weight_chain_transfer(lam_small):
    # |sum| <= sum Lambda(n)/sqrt(n) * min(1/log n, 2 log(x/n)/log^2 n)
    t, x = 777.0, 300.0
    val = dirichlet_term(t, x, lam_small)
    ns = lam_small.prime_powers(x)
    nsf = ns.astype(float)
    logn = np.log(nsf)
    logx = math.log(x)
    weights = np.minimum(1 / logn, 2 * (logx - logn) / logn ** 2)
    bound = float(np.sum(np.log(lam_small.prime[ns].astype(float)) / np.sqrt(nsf) * weights))
    assert abs(val) <= bound + 1e-12


def test_dirichlet_determinism(lam_small):
    t, x = 1000.0, math.log(1000.0) ** 2
    assert dirichlet_term(t, x, lam_small) == dirichlet_term(t, x, lam_small)


def test_report_fields(lam_small, zeros):
    t = 1000.0
    r = theorem1_rhs(t, math.log(t) ** 2, lam_small, zeros)
    assert r.rhs_main == r.dirichlet_term + r.archimedean_term
    assert r.margin == pytest.approx(r.rhs_main - r.oracle_log_abs_zeta, abs=0)
    assert not r.low_confidence
    assert r.error_scale == pytest.approx(
        math.sqrt(r.x) * math.log(r.x) / t + 1, abs=1e-14)


def test_ordinate_guard_at_the_top_of_the_table(lam_small, zeros):
    top = zeros.max_height
    # at the top ordinate and just below it: refused, and nudged off it
    for t in (top, top - 5e-3):
        with pytest.raises(NearZeroOfZeta):
            theorem1_rhs(t, 50.0, lam_small, zeros)
        assert scan_margins(t, t, 1, zeros=zeros, x_policy="fixed", x_fixed=50.0)[0].t > t
    # above the top the table knows no nearest ordinate: neither refused nor nudged
    t = top + 5e-3
    assert theorem1_rhs(t, 50.0, lam_small, zeros).t == t
    assert scan_margins(t, t, 1, zeros=zeros, x_policy="fixed", x_fixed=50.0)[0].t == t


def test_report_guards(lam_small, zeros):
    with pytest.raises(DomainError):
        theorem1_rhs(5.0, 100.0, lam_small)
    with pytest.raises(DomainError):
        theorem1_rhs(100.0, 1.0, lam_small)
    near = float(zeros.gammas[100]) + 1e-3
    with pytest.raises(NearZeroOfZeta):
        theorem1_rhs(near, 50.0, lam_small, zeros)


def test_low_confidence_flag(lam_small):
    r = theorem1_rhs(10.0, 10 ** 4, lam_small)
    assert r.error_scale > math.log(10.0)
    assert r.low_confidence


def test_archimedean_term_algebra():
    t = math.exp(math.exp(2.0))
    assert archimedean_term(t, math.log(t) ** 2) == pytest.approx(
        math.log(2) * math.exp(2.0) / 4, rel=1e-12)


def test_w0_weight_against_f(lam_small):
    for x in (100.0, 1000.0):
        for n in (2, 5, 31, 97):
            w0 = w0_weight(n, x)
            fv = f_closed_form(math.log(x / n) / math.log(x)) / math.log(x)
            assert abs(w0 - fv) <= 2 / (n * math.log(n)), (n, x)
            assert w0 > 0


def test_w0_weight_at_cutoff():
    assert w0_weight(100, 100.0) == pytest.approx(0.0, abs=1e-12)


def test_archimedean_identity():
    for x in (2.0, 100.0, 10 ** 6):
        assert abs(archimedean_identity_check(x)) <= 1e-10
    # the [0,1] portion is strictly below the full integral
    part, _ = integrate.quad(lambda u: 1 / (2.0 ** u + 1), 0, 1)
    assert part < math.log(2) / math.log(2.0)


def test_gamma_moments():
    mc = gamma_moment_check(0, math.e ** 2)
    assert mc.closed == pytest.approx(1.0, abs=1e-15)
    for k, x in ((1, 10.0), (3, 100.0)):
        mc = gamma_moment_check(k, x)
        assert abs(mc.quadrature - mc.closed) <= 1e-10
        assert mc.half_range <= mc.quadrature


def test_curve_policies():
    coeffs = CurvePolicy.optimal(3).coeffs
    L = math.log(2)
    assert coeffs[0] == pytest.approx(L / 2, abs=1e-15)
    assert coeffs[1] == pytest.approx(L / 2 + L ** 2, abs=1e-14)
    assert coeffs[2] == pytest.approx(2 * L ** 2 + 2 * L ** 3, abs=1e-14)
    # the shifted policy at its optimal c reproduces the second coefficient
    assert g_curve(2 * L) == pytest.approx(L / 2 + L ** 2, abs=1e-15)
    with pytest.raises(DomainError):
        CurvePolicy.optimal(9)
    with pytest.raises(DomainError):
        CurvePolicy.optimal(0)


@pytest.mark.parametrize("c", [0.0, 2 * math.log(2), 3.0])
def test_curve_coefficients_match_the_closed_forms(c):
    # the curves as closed forms in w, term by term as first stated
    L = math.log(2)

    def exact(w):
        return L / 2 * w + 2 * L * w ** 2 + 2 * math.fsum(
            (1 - 0.25 ** k) * math.factorial(2 * k + 1) * zeta_real(2 * k + 1) * w ** (2 * k + 2)
            for k in range(1, 4))

    def shifted(w):
        return (L / 2) * w + (c * L / 2 + 2 * math.exp(-c) * L) * w ** 2 \
            + (c * c * L / 4 + 4 * c * math.exp(-c) * L) * w ** 3

    for w in np.linspace(0.002, 0.5, 25):
        w = float(w)
        assert curve_series_value(w, CurvePolicy.exact()) == pytest.approx(exact(w), rel=1e-15)
        assert curve_series_value(w, CurvePolicy.shifted(c)) == pytest.approx(shifted(w),
                                                                              rel=1e-15)


def test_curve_ordering_small_w():
    for w in np.linspace(0.002, 0.05, 25):
        opt = curve_series_value(float(w), CurvePolicy.optimal(3))
        exact = curve_series_value(float(w), CurvePolicy.exact())
        assert opt <= exact


def test_theorem2_curve_values():
    t = 1e6
    v = theorem2_curve(t, CurvePolicy.optimal(3))
    w = 1 / math.log(math.log(t))
    expect = math.log(t) * sum(c * w ** (k + 1)
                               for k, c in enumerate(CurvePolicy.optimal(3).coeffs))
    assert v == pytest.approx(expect, rel=1e-15)
    with pytest.raises(DomainError):
        theorem2_curve(1.5, CurvePolicy.exact())


def test_g_min():
    gm = g_min()
    assert abs(gm.c_star - 2 * math.log(2)) <= 1e-8
    assert abs(gm.g_star - (math.log(2) / 2 + math.log(2) ** 2)) <= 1e-12
    assert g_curve(0.0) == pytest.approx(2 * math.log(2), abs=1e-15)
    assert g_curve(0.0) > gm.g_star
    h = 1e-5
    assert abs((g_curve(gm.c_star + h) - g_curve(gm.c_star - h)) / (2 * h)) <= 1e-10


def test_scan_small(zeros):
    reports = scan_margins(1e3, 1e4, 5, zeros=zeros)
    assert len(reports) == 5
    ts = [r.t for r in reports]
    assert ts == sorted(ts)
    for r in reports:
        row = report_csv_row(r)
        parsed = [float(v) for v in row.split(",")]
        assert parsed[0] == r.t and parsed[6] == r.margin  # 17g round-trips
    assert len(CSV_HEADER.split(",")) == len(report_csv_row(reports[0]).split(","))


def test_scan_validation():
    with pytest.raises(DomainError):
        scan_margins(5.0, 100.0, 3)
    for x_fixed in (None, 1.5, 100 + 0j, "50"):
        with pytest.raises(DomainError):
            scan_margins(1e3, 1e4, 2, x_policy="fixed", x_fixed=x_fixed)


@pytest.mark.parametrize("x_fixed", [5.0, math.nan])
@pytest.mark.parametrize("policy", ["logsq", "optimal"])
def test_scan_refuses_a_fixed_x_under_another_policy(policy, x_fixed):
    # such a call once scanned at the policy's own x (47.7 and 84.8 under logsq)
    with pytest.raises(DomainError, match="fixed x policy only"):
        scan_margins(1e3, 1e4, 2, x_policy=policy, x_fixed=x_fixed)


def test_optimal_cutoff_policy():
    from critline.bound_engine import optimal_cutoff
    # same scale as log^2 t but shifted down by the stationary-point series
    for t in (1e3, 1e5, 1e8):
        x = optimal_cutoff(t)
        assert 2.0 <= x <= math.log(t) ** 2
        assert x >= math.log(t) ** 2 / 20
    reports = scan_margins(1e3, 1e4, 3, x_policy="optimal")
    assert all(r.x <= math.log(r.t) ** 2 for r in reports)
    assert all(math.isfinite(r.margin) for r in reports)


# --- the scan in one pass: the per-point route it replaced -----------------------

SCAN_CASES = {  # policy -> (t_min, t_max, points, x_fixed)
    "logsq": (1e3, 1e6, 30, None),
    "fixed": (1e3, 1e6, 30, 5e3),
    "optimal": (1e3, 1e6, 20, None),
}


def _reference_row(t, x, table):
    """One BoundReport from the per-point calls, the arithmetic written out."""
    d = dirichlet_term(t, x, table)
    arch = archimedean_term(t, x)
    oracle = log_abs_zeta_crit(t)
    return BoundReport(t=t, x=x, dirichlet_term=d, archimedean_term=arch,
                       error_scale=math.sqrt(x) * math.log(x) / t + 1.0,
                       oracle_log_abs_zeta=oracle, margin=d + arch - oracle)


@pytest.mark.parametrize("policy", SCAN_CASES)
def test_scan_rows_equal_the_per_point_reference(lam_small, zeros, policy):
    t_min, t_max, points, x_fixed = SCAN_CASES[policy]
    x_of = {"logsq": lambda t: max(2.0, math.log(t) ** 2),
            "fixed": lambda t: x_fixed,
            "optimal": optimal_cutoff}[policy]
    reports = scan_margins(t_min, t_max, points, zeros=zeros, x_policy=policy, x_fixed=x_fixed)
    assert len(reports) == points
    for r in reports:
        assert r == _reference_row(r.t, x_of(r.t), lam_small), r.t


@pytest.mark.parametrize("points", [3, 40])
@pytest.mark.parametrize("policy", SCAN_CASES)
def test_scan_is_one_weight_pass_and_one_rs_batch(monkeypatch, policy, points):
    from critline import bound_engine, zeta_oracle
    calls = {"f": 0, "rs": 0}

    def counting(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)
        return wrapped

    monkeypatch.setattr(bound_engine, "f_closed_form", counting("f", bound_engine.f_closed_form))
    # at most _RS_SLICE (256) points: one riemann_siegel_z call is one RS batch
    monkeypatch.setattr(zeta_oracle, "riemann_siegel_z",
                        counting("rs", zeta_oracle.riemann_siegel_z))
    t_min, t_max, _, x_fixed = SCAN_CASES[policy]
    reports = scan_margins(t_min, t_max, points, x_policy=policy, x_fixed=x_fixed)
    assert sum(r.t >= zeta_oracle.T_RS for r in reports) >= 1
    assert calls == {"f": 1, "rs": 1}


@pytest.mark.parametrize("call", [
    lambda: archimedean_identity_check(math.nan),
    lambda: archimedean_identity_check(math.inf),
    lambda: gamma_moment_check(1, math.nan),
    lambda: gamma_moment_check(1, math.inf),
    lambda: w0_weight(2, math.inf),
    lambda: gamma_moment_check(1.5, 10),
    lambda: optimal_cutoff(math.inf),
    lambda: optimal_cutoff(math.nan),
    lambda: theorem2_curve(math.inf, CurvePolicy.exact()),
    lambda: run_pipeline(2.5),
    lambda: CurvePolicy.optimal(2.5),
    lambda: scan_margins(1e3, 1e6, 2.5),
], ids=["identity-nan", "identity-inf", "moment-nan", "moment-inf", "w0-inf", "moment-half-k",
        "cutoff-inf", "cutoff-nan", "curve-inf", "pipeline-half-k", "policy-half-k",
        "scan-half-points"])
def test_bad_numbers_are_a_domain_error(call):
    # each of these once gave a NaN, a silent 0.0, a scipy IntegrationWarning,
    # a bare ZeroDivisionError or a bare TypeError
    with pytest.raises(DomainError):
        call()


def test_integer_arguments_may_be_numpy_integers():
    assert run_pipeline(np.int64(3)).C == run_pipeline(3).C
    assert gamma_moment_check(np.int64(1), 10).closed == pytest.approx(
        gamma_moment_check(1, 10).closed, rel=1e-15)
    assert len(scan_margins(1e3, 1e4, np.int64(2))) == 2


def test_exact_policy_takes_f_taylor_coefficients():
    coeffs = CurvePolicy.exact().coeffs
    assert coeffs[3::2] == tuple(f_taylor(k) * math.factorial(2 * k + 1) for k in range(1, 4))
