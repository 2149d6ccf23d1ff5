import decimal
import math
import warnings
from fractions import Fraction
from functools import lru_cache

import mpmath
import numpy as np
import pytest

from critline.errors import (
    CritlineError,
    DomainError,
    NearZeroOfZeta,
    PoleAtNonpositiveInteger,
    PoleAtOne,
    WindowExceeded,
)
from critline import bound_engine, explicit_formula, extremal_poisson, prime_arith, zeta_oracle
from critline.zeros_table import ZeroTable
from critline.zeta_oracle import (
    _C2J,
    _C_TERMS,
    _PI2,
    _PSI_TAYLOR,
    T_RS,
    _correction_polys,
    _em_tail,
    constant_env,
    digamma,
    hardy_z,
    log_abs_zeta_crit,
    riemann_siegel_z,
    theta,
    zeta_deriv_em,
    zeta_em,
    zeta_logderiv,
    zeta_real,
)

mpmath.mp.dps = 25

GAMMA1 = 14.134725141734693


def test_zeta_two():
    assert abs(zeta_em(complex(2, 0)) - math.pi ** 2 / 6) <= 1e-12


def test_zeta_three_against_independent_run():
    # independent: same expansion with a forced much larger cutoff
    a = zeta_em(complex(3, 0))
    b = zeta_em(complex(3, 0), min_m=4096)
    assert abs(a - b) <= 1e-13
    assert abs(a - complex(mpmath.zeta(3))) <= 1e-13


def test_zeta_vanishes_at_first_ordinate():
    assert abs(zeta_em(complex(0.5, GAMMA1))) <= 1e-6


def test_zeta_against_mpmath_window():
    for s in (complex(0.5, 100), complex(1.5, 1000), complex(3, 10),
              complex(0.25, 35.7), complex(2.5, 0)):
        ref = complex(mpmath.zeta(mpmath.mpc(s.real, s.imag)))
        assert abs(zeta_em(s) - ref) <= 1e-11, s


def test_zeta_errors():
    with pytest.raises(PoleAtOne):
        zeta_em(complex(1, 0))
    with pytest.raises(WindowExceeded):
        zeta_em(complex(-0.5, 3))
    with pytest.raises(WindowExceeded):
        zeta_em(complex(0.5, 2e6))


def test_self_consistency_doubling_cutoff():
    rng = np.random.default_rng(17)
    for _ in range(20):
        s = complex(rng.uniform(0, 3), rng.uniform(-500, 500))
        if abs(s - 1) < 0.1:
            continue
        a = zeta_em(s)
        b = zeta_em(s, min_m=2 * max(int(2 * abs(s.imag)), 10))
        # truncation obeys the 1e-12 target; the |t|-proportional allowance
        # is binary64 phase rounding (eps * t * log n), irreducible here
        assert abs(a - b) <= 1e-12 + 4e-15 * abs(s.imag), s


def test_conjugation_symmetry():
    t = 73.4
    assert abs(zeta_em(complex(0.5, t))) == abs(zeta_em(complex(0.5, -t)))


def test_logderiv_against_dirichlet_series():
    # independent oracle for Re s > 1: -sum Lambda(n) n^-s
    from critline.prime_arith import lambda_sieve
    table = lambda_sieve(200000)
    ns = table.prime_powers()
    nsf = ns.astype(float)
    lam = table.log_p(ns)
    for s in (complex(2, 0), complex(3, 10), complex(2.5, 0)):
        series = -np.sum(lam * np.exp(-s * np.log(nsf)))
        tail = 2 * 200000.0 ** (1 - s.real) / (s.real - 1)  # psi(u)~u integrated
        assert abs(zeta_logderiv(s) - series) <= abs(tail) + 1e-9, s


def test_logderiv_derivative_against_mpmath():
    for s in (complex(0.5, 100), complex(1.5, 50), complex(2, 0), complex(0.5, 0),
              complex(0, 0), complex(7.5, 0), complex(0.5, 1e4), complex(1.2, -1e4)):
        ref = complex(mpmath.zeta(mpmath.mpc(s.real, s.imag), derivative=1))
        assert abs(zeta_deriv_em(s) - ref) <= 1e-9, s


def test_em_tail_refuses_a_short_cutoff():
    # at M = 10 the correction terms grow long before t = 1e3 is reached
    assert _em_tail(complex(0.5, 1e3), 10, 1e-12) is None
    assert _em_tail(complex(0.5, 1e3), 2000, 1e-12) is not None


def test_c2j_table_is_the_exact_recurrence_rounded():
    b = [Fraction(1)]
    for m in range(1, 2 * len(_C2J) + 1):
        b.append(Fraction(-sum(math.comb(m + 1, k) * b[k] for k in range(m)), m + 1))
    assert len(_C2J) == 60
    for j, c in enumerate(_C2J, start=1):
        assert c == float(b[2 * j] / math.factorial(2 * j)), j


def _em_cutoffs(monkeypatch):
    """The cutoffs M at which ``_em_tail`` met its target, in call order."""
    cutoffs, tail = [], zeta_oracle._em_tail

    def recording(s, M, target):
        out = tail(s, M, target)
        if out is not None:
            cutoffs.append(M)
        return out
    monkeypatch.setattr(zeta_oracle, "_em_tail", recording)
    return cutoffs


@pytest.mark.parametrize("sigma", [0.0, 0.5, 1.5, 3.0])
def test_em_within_its_stated_bound(monkeypatch, sigma):
    # zeta_em's docstring: target plus 2 eps sum_{n<=M} n^-sigma (|s| log n + 2),
    # each term times log n for zeta'
    cutoffs = _em_cutoffs(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for t in (50.0, 1e3, 1e4, 1e5, 1e6 - 0.3):
            s = complex(sigma, t)
            for k, f, target in ((0, zeta_em, 1e-12), (1, zeta_deriv_em, 1e-10)):
                got = f(s)
                ln = np.log(np.arange(1, cutoffs[-1] + 1))
                bound = target + 2 * 2.0 ** -52 * np.sum(
                    np.exp(-sigma * ln) * (abs(s) * ln + 2) * ln ** k)
                ref = complex(mpmath.zeta(mpmath.mpc(sigma, t), derivative=k))
                assert abs(got - ref) <= bound, (t, k)


def test_em_tail_at_a_quarter_of_a_large_height_is_finite():
    t = 1e6
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for target in (1e-12, 1e-10):
            val, der = _em_tail(complex(0.5, t), math.ceil(t / 4), target)
            assert all(math.isfinite(x) for x in (val.real, val.imag, der.real, der.imag))


def test_em_cutoff_stays_near_a_quarter_of_the_height(monkeypatch):
    # the head costs M terms: at most one doubling from ceil(|t|/4)
    cutoffs = _em_cutoffs(monkeypatch)
    for t in (1e3, -2e3, 1e4, 1e5, 1e6 - 0.3):
        for f in (zeta_em, zeta_deriv_em):
            f(complex(0.5, t))
            assert cutoffs[-1] <= math.ceil(abs(t) / 2), (t, f)


def _rs_coefficients(order):
    """r[k][j] for k <= order: C_k = sum_j r_kj Psi^(3k-4j)(p) / pi^(2k-2j).

    Arias de Reyna's d[0, n, k] recurrence (Math. Comp. 80, 2011, as in
    mpmath's rszeta) at sigma = 1/2, in exact rationals; odd k vanish there,
    and r_kj = (-2)^(-3k) (-4)^j d[k, 2j]."""
    d = {(0, 0): Fraction(1)}
    for n in range(1, order + 1):
        for k in range(3 * n // 2 + 1):
            m = 3 * n - 2 * k
            if m:
                d[n, k] = (-(m + 1) * d.get((n - 1, k - 2), 0)
                           + Fraction(1, 4 * m) * d.get((n - 1, k), 0))
            else:
                d[n, k] = -sum((-1) ** (k - r) * d[n, r]
                               * Fraction(math.factorial(2 * k - 2 * r), math.factorial(k - r))
                               for r in range(k))
    return [[Fraction(-2) ** (-3 * k) * Fraction(-4) ** j * d[k, 2 * j]
             for j in range(3 * k // 4 + 1)] for k in range(order + 1)]


def test_correction_table_is_the_recurrence():
    # Every term of C_1..C_7 with a derivative of Psi is the recurrence's
    # rational over its power of pi, evaluated as the table writes it.  The
    # recurrence's Psi(p) term of C_4 is 143/18432, not Gabcke's 1/128
    # (mpmath.siegelz at t = 200 is 1.6e-12 from Z with 1/128 and 9.6e-10
    # with 143/18432), so C_0..C_4 stay Gabcke's literals, and the table
    # stops at C_7, the last order without a Psi(p) term.
    r = _rs_coefficients(7)
    assert len(_C_TERMS) == 8 and _C_TERMS[0] == ((1.0, 0),)
    assert _C_TERMS[4][0] == (1 / (128 * _PI2), 0) and r[4][3] == Fraction(143, 18432)
    for k in range(1, 8):
        want = {3 * k - 4 * j: q.numerator / (q.denominator * _PI2 ** (k - j))
                for j, q in enumerate(r[k]) if 3 * k - 4 * j > 0}
        got = {m: c for c, m in _C_TERMS[k] if m > 0}
        assert got == want, k


def test_correction_product_matches_horner():
    polys = _correction_polys()
    for p in np.linspace(0, 1, 200, endpoint=False):
        horner = np.polynomial.polynomial.polyval(p - 0.5, polys)
        product = ((p - 0.5) ** np.arange(len(polys))) @ polys
        # two units in the last place of |C_k| < 1
        assert np.all(np.abs(product - horner) <= 2 * 2.0 ** -53), p


def test_hardy_z_against_mpmath():
    # Euler-Maclaurin rotated by theta on [100, 101], Riemann-Siegel above T_RS
    for t in [*np.linspace(100.0, 101.0, 21), T_RS, T_RS + 0.37, 5e4 + 0.1]:
        t = float(t)
        assert abs(hardy_z(t) - float(mpmath.siegelz(t))) <= 1e-9, t
    with pytest.raises(DomainError):
        hardy_z(9.5)


def test_logderiv_guards():
    with pytest.raises(NearZeroOfZeta):
        zeta_logderiv(complex(0.5, GAMMA1))
    val = zeta_logderiv(complex(1.0, 100.0))
    assert np.isfinite(val.real) and np.isfinite(val.imag)


def test_log_abs_crit():
    v = log_abs_zeta_crit(100.0)
    # frozen golden from a verified high-precision run
    assert abs(v - 0.9905433146180622) <= 1e-11
    ref = float(mpmath.log(abs(mpmath.zeta(mpmath.mpc(0.5, 100)))))
    assert abs(v - ref) <= 1e-10
    assert np.isfinite(log_abs_zeta_crit(10.0))
    with pytest.raises(NearZeroOfZeta):
        log_abs_zeta_crit(GAMMA1)  # |zeta| = 1.2e-15 there, below ZERO_GUARD
    with pytest.raises(DomainError):
        log_abs_zeta_crit(5.0)


# the three margin-scan points where Euler-Maclaurin's float phases put
# log|zeta| 1.6e-8 to 2.9e-8 away from mpmath
EM_PHASE_FAILURES = (472953.876651, 677976.038577, 648739.743288)


def test_log_abs_crit_at_large_t_against_mpmath():
    for t in EM_PHASE_FAILURES:
        ref = float(mpmath.log(abs(mpmath.zeta(mpmath.mpc(0.5, t)))))
        assert abs(log_abs_zeta_crit(t) - ref) <= 1e-11, t


def test_riemann_siegel_against_mpmath():
    rng = np.random.default_rng(2024)
    for t in np.exp(rng.uniform(math.log(T_RS), math.log(1e6), 12)):
        assert abs(riemann_siegel_z(float(t)) - float(mpmath.siegelz(t))) <= 1e-13, t


def test_riemann_siegel_from_the_switch_within_gabckes_bound():
    # where C_5..C_7 moved the switch down: C_0..C_4 alone are up to 2.7e-13 off here
    for t in [T_RS, *np.geomspace(T_RS, 3.30e4, 41)]:
        t = float(t)
        err = abs(riemann_siegel_z(t) - float(mpmath.siegelz(t)))
        assert err <= min(1e-13, 9.2 * (t / (2 * math.pi)) ** (-17 / 4)), t


def test_riemann_siegel_against_euler_maclaurin():
    # |Z| = |zeta| on the line; the tolerance is EM's own phase rounding
    for t in np.geomspace(T_RS, 1e5, 5):
        t = float(t)
        assert abs(abs(riemann_siegel_z(t)) - abs(zeta_em(complex(0.5, t)))) <= 5e-10, t


def test_riemann_siegel_domain():
    with pytest.raises(DomainError):
        riemann_siegel_z(150.0)
    with pytest.raises(WindowExceeded):
        riemann_siegel_z(2e6)


def test_psi_taylor_table_against_mpmath():
    degree = 2 * len(_PSI_TAYLOR) - 2
    with mpmath.workdps(20):
        def psi(p):
            return mpmath.cos(2 * mpmath.pi * (p * p - p - mpmath.mpf(1) / 16)) \
                / mpmath.cos(2 * mpmath.pi * p)
        ref = [float(c) for c in mpmath.taylor(psi, mpmath.mpf(1) / 2, degree + 20)]
    for j, c in enumerate(_PSI_TAYLOR):
        assert abs(c - ref[2 * j]) <= 1e-15 * abs(c), 2 * j
    assert all(abs(c) <= 1e-18 for c in ref[1::2])  # Psi is even about 1/2
    # on |p - 1/2| <= 1/2 the terms the table omits are below an ulp of the
    # largest value of every derivative Psi^(m) that the corrections use
    for m in range(max(m for terms in _C_TERMS for _, m in terms) + 1):
        def series(lo, u):
            return sum(ref[n] * math.perm(n, m) * u ** (n - m) for n in range(lo, len(ref)))
        omitted = series(degree + 1, 0.5)
        largest = max(abs(series(m, i / 20)) for i in range(11))
        assert abs(omitted) <= 2.0 ** -53 * largest, m


def test_log_abs_crit_below_the_switch_is_euler_maclaurin():
    # log|Z| below T_RS is log|zeta_em| up to the rounding of the theta rotation
    rng = np.random.default_rng(11)
    ts = [T_RS - 1e-3, math.nextafter(T_RS, 0), 5e3, *rng.uniform(10, T_RS, 200).tolist()]
    for t in ts:
        v = log_abs_zeta_crit(t)
        assert v == math.log(abs(hardy_z(t))), t
        assert abs(v - math.log(abs(zeta_em(complex(0.5, t))))) <= 1e-15, t


def _rs_grid():
    """200 log-spaced t in [T_RS, 1e6], T_RS itself, and t on either side of
    2 pi N^2, where N = floor(sqrt(t/2pi)) steps, for N from 34 to 398."""
    steps = [2 * math.pi * N * N for N in (34, 35, 100, 150, 250, 398)]
    near = [math.nextafter(s, side) for s in steps for side in (0, math.inf)]
    return np.array(sorted([T_RS, *np.geomspace(T_RS, 1e6, 200), *steps, *near]))


def test_riemann_siegel_array_equals_the_scalar_loop():
    ts = _rs_grid()
    batch = riemann_siegel_z(ts)
    assert batch.shape == ts.shape
    assert batch.tolist() == [riemann_siegel_z(t) for t in ts.tolist()]
    # the grid's N run from T_RS's 33 to 398, and step within it
    assert {zeta_oracle._theta_phase(t)[0] for t in ts.tolist()} >= {33, 34, 397, 398}
    one = riemann_siegel_z(np.array([5e4]))
    assert isinstance(one, np.ndarray) and one.tolist() == [riemann_siegel_z(5e4)]
    assert type(riemann_siegel_z(5e4)) is float
    assert riemann_siegel_z(np.array([])).shape == (0,)


# A 40-digit decimal _theta_phase: the reference that the float
# double-double one is held to.
_DEC = decimal.Context(prec=40)
_PI_DEC = decimal.Decimal("3.141592653589793238462643383279502884197")


def _decimal_theta_main(t):
    """t/2 log(t/2pi) - t/2 - pi/8, unreduced, in 40-digit decimal."""
    with decimal.localcontext(_DEC):
        t = decimal.Decimal(t)
        return t / 2 * ((t / (2 * _PI_DEC)).ln() - 1) - _PI_DEC / 8


def _decimal_theta_phase(t):
    with decimal.localcontext(_DEC):
        a = (decimal.Decimal(t) / (2 * _PI_DEC)).sqrt()
        N = int(a)
        th = _decimal_theta_main(t).remainder_near(2 * _PI_DEC)
        th_hi = float(th)
        return (N, float(a - N), float(a), th_hi,
                float(th - decimal.Decimal(th_hi)) + zeta_oracle._theta_tail(t))


def _half_turn_fraction(t):
    """How far theta's main term over 2pi is from a half-integer at t."""
    with decimal.localcontext(_DEC):
        f = _decimal_theta_main(t) / (2 * _PI_DEC)
        return float(abs(f - f.to_integral_value(decimal.ROUND_FLOOR) - decimal.Decimal("0.5")))


@lru_cache(maxsize=None)
def _theta_points(kind):
    """Float t in [T_RS, 1e6]: "seeded" are 5000 uniform draws; "n_steps" are
    t = 2pi N^2, where a is an integer, and its float neighbours for N = 34..398;
    "ties" are the float t nearest to where theta's main term is an odd
    multiple of pi, and their neighbours, from 150 log-uniform starts by
    Newton's method in decimal.  There theta/2pi is within 1e-12 of a
    half-integer up to t ~ 2e4, and within the float spacing of t times
    theta' above, so the reduction's k is the nearer of two."""
    rng = np.random.default_rng(30)
    if kind == "seeded":
        return rng.uniform(T_RS, 1e6, 5000).tolist()
    if kind == "n_steps":
        steps = [2 * math.pi * N * N for N in range(34, 399)]
        return [u for s in steps for u in (math.nextafter(s, 0), s, math.nextafter(s, math.inf))]
    out = []
    for t0 in np.exp(rng.uniform(math.log(T_RS), math.log(1e6), 150)).tolist():
        with decimal.localcontext(_DEC):
            f = _decimal_theta_main(t0) / (2 * _PI_DEC)
            target = (f.to_integral_value() + decimal.Decimal("0.5")) * 2 * _PI_DEC
            t = decimal.Decimal(t0)
            for _ in range(4):
                t += (target - _decimal_theta_main(t)) / ((t / (2 * _PI_DEC)).ln() / 2)
        t = float(t)
        out += [math.nextafter(t, 0), t, math.nextafter(t, math.inf)]
    return out


@pytest.mark.parametrize("kind", ["seeded", "n_steps", "ties"])
def test_theta_phase_equals_the_decimal_reference(kind):
    for t in _theta_points(kind):
        N, p, a, th_hi, th_lo = zeta_oracle._theta_phase(t)
        ref = _decimal_theta_phase(t)
        assert (N, p, a, th_hi) == ref[:4], t
        assert abs(th_lo - ref[4]) <= math.ulp(ref[4]), t


@pytest.mark.parametrize("kind", ["seeded", "n_steps", "ties"])
def test_riemann_siegel_equals_the_decimal_theta_route(monkeypatch, kind):
    ts = np.array(_theta_points(kind))
    z = riemann_siegel_z(ts)
    monkeypatch.setattr(zeta_oracle, "_theta_phase", _decimal_theta_phase)
    assert z.tolist() == riemann_siegel_z(ts).tolist()


def test_theta_points_reach_the_cases_they_name(monkeypatch):
    steps = _theta_points("n_steps")
    assert {zeta_oracle._theta_phase(t)[0] for t in steps} == set(range(33, 399))
    ties = _theta_points("ties")
    near = [_half_turn_fraction(t) for t in ties]
    assert max(near) < 2e-10 and sum(d < 1e-12 for d in near) >= 30
    # at some ties the float quotient picks the wrong k and the reduction steps it
    reductions = []
    less_two_pi = zeta_oracle._less_two_pi
    monkeypatch.setattr(zeta_oracle, "_less_two_pi",
                        lambda *args: reductions.append(1) or less_two_pi(*args))
    counts = []
    for t in ties:
        reductions.clear()
        zeta_oracle._theta_phase(t)
        counts.append(len(reductions))
    assert set(counts) == {2, 3}


def test_double_double_constants_against_mpmath():
    with mpmath.workdps(50):
        def parts(x, n):
            out = []
            for _ in range(n):
                out.append(float(x))
                x -= out[-1]
            return tuple(out)
        two_pi = 2 * mpmath.pi
        assert (zeta_oracle._TWO_PI_HI, zeta_oracle._TWO_PI_LO,
                zeta_oracle._TWO_PI_LO2) == parts(two_pi, 3)
        assert zeta_oracle._PI == parts(mpmath.pi, 2)
        assert zeta_oracle._INV_TWO_PI == parts(1 / two_pi, 2)
        assert zeta_oracle._PI_8 == parts(mpmath.pi / 8, 2)
        assert zeta_oracle._LOG2 == parts(mpmath.log(2), 3)
        assert len(zeta_oracle._ATANH) == 22
        assert zeta_oracle._ATANH == tuple(parts(mpmath.mpf(1) / (2 * j + 1), 2)
                                           for j in range(len(zeta_oracle._ATANH)))


def _atanh_terms(monkeypatch, call):
    """The term counts that ``call`` passes to ``_atanh``."""
    seen = []
    atanh = zeta_oracle._atanh
    monkeypatch.setattr(zeta_oracle, "_atanh",
                        lambda z, z_lo, terms: seen.append(terms) or atanh(z, z_lo, terms))
    call()
    return set(seen)


def _atanh_omitted(z, J):
    """A bound on 2 atanh(z) less 2 times its first J terms: the first omitted
    term over 1 - z^2."""
    return 2 * z ** (2 * J + 1) / (2 * J + 1) / (1 - z * z)


def test_atanh_series_truncation_below_1e_32_of_log_a(monkeypatch):
    # z = p/(2N + p) < 1/(2N + 1), largest at the least N, which T_RS has
    J, = _atanh_terms(monkeypatch, lambda: zeta_oracle._theta_phase(T_RS))
    assert J == 9
    with mpmath.workdps(50):
        a = mpmath.sqrt(T_RS / (2 * mpmath.pi))
        N = int(a)
        assert N == 33
        assert _atanh_omitted(mpmath.mpf(1) / (2 * N + 1), J) < 1e-32 * mpmath.log(a)


def test_log_pairs_atanh_truncation_below_1e_35(monkeypatch):
    # m in [1/sqrt 2, sqrt 2) puts |z| = |m - 1|/(m + 1) at most (sqrt 2 - 1)/(sqrt 2 + 1)
    monkeypatch.setattr(zeta_oracle, "_log_cache", [(np.zeros(1), np.zeros(1))])
    J, = _atanh_terms(monkeypatch, lambda: zeta_oracle._log_pairs(10))
    assert J == len(zeta_oracle._ATANH)
    with mpmath.workdps(50):
        r = mpmath.sqrt(2)
        assert _atanh_omitted((r - 1) / (r + 1), J) < 1e-35


def _log_pairs_bound(n):
    """The bound ``_log_pairs`` states for hi + lo against log n."""
    return 2e-32 * max(1.0, math.log(n))


def test_log_pairs_against_mpmath(monkeypatch):
    # every n inside the window, and a sample to 4e5 (t = 1e12) with the
    # powers of two and their neighbours, where k steps and z is 0 or extreme
    rng = np.random.default_rng(34)
    ns = sorted({*range(1, 400), *rng.integers(400, 400_001, 1000).tolist(),
                 *(2 ** k + d for k in range(1, 19) for d in (-1, 0, 1))})
    monkeypatch.setattr(zeta_oracle, "_log_cache", [(np.zeros(1), np.zeros(1))])
    hi, lo = zeta_oracle._log_pairs(max(ns))
    assert hi[0] == lo[0] == 0.0
    with mpmath.workdps(50):
        for n in ns:
            ref = mpmath.log(n)
            assert hi[n - 1] == float(ref), n
            err = abs(mpmath.mpf(float(hi[n - 1])) + float(lo[n - 1]) - ref)
            assert err <= _log_pairs_bound(n), n


def test_log_pairs_extended_in_steps_equals_one_build(monkeypatch):
    monkeypatch.setattr(zeta_oracle, "_log_cache", [(np.zeros(1), np.zeros(1))])
    zeta_oracle._log_pairs(100)
    small = [v.copy() for v in zeta_oracle._log_pairs(50)]
    hi, lo = zeta_oracle._log_pairs(5000)
    assert len(hi) == len(lo) == 5000
    monkeypatch.setattr(zeta_oracle, "_log_cache", [(np.zeros(1), np.zeros(1))])
    one_hi, one_lo = zeta_oracle._log_pairs(5000)
    assert hi.tolist() == one_hi.tolist() and lo.tolist() == one_lo.tolist()
    assert small[0].tolist() == hi[:50].tolist() and small[1].tolist() == lo[:50].tolist()


def _both_tiers():
    return np.concatenate([np.geomspace(10, 1e6, 80), [math.nextafter(T_RS, 0), T_RS]])


def test_log_abs_crit_array_spans_both_tiers():
    ts = _both_tiers()
    batch = log_abs_zeta_crit(ts)
    assert batch.tolist() == [log_abs_zeta_crit(t) for t in ts.tolist()]
    assert batch.tolist() == [math.log(abs(hardy_z(t))) for t in ts.tolist()]
    assert type(log_abs_zeta_crit(1e5)) is float


def test_hardy_z_array_equals_the_scalar_loop():
    ts = _both_tiers()
    batch = hardy_z(ts)
    assert batch.shape == ts.shape
    assert batch.tolist() == [hardy_z(t) for t in ts.tolist()]
    assert type(hardy_z(100.0)) is float and type(hardy_z(1e5)) is float
    assert hardy_z(np.array([])).shape == (0,)


@pytest.mark.parametrize("f", [riemann_siegel_z, hardy_z])
def test_batches_across_slice_boundaries_equal_the_scalar_loop(monkeypatch, f):
    monkeypatch.setattr(zeta_oracle, "_RS_SLICE", 3)
    # 10 points above T_RS make slices of 3, 3, 3 and 1; hardy_z mixes in EM points
    ts = np.geomspace(T_RS, 1e6, 10)
    if f is hardy_z:
        ts = np.sort(np.concatenate([ts, [100.0, 5e3]]))
    assert f(ts).tolist() == [f(t) for t in ts.tolist()]


@pytest.mark.parametrize("n", [4097, 25_000])
def test_csum_is_correctly_rounded_at_any_length(n):
    rng = np.random.default_rng(n)
    # terms of mixed size and sign, where a pairwise sum would round
    arr = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 9, n) \
        + 1j * rng.standard_normal(n) * 10.0 ** rng.integers(-8, 9, n)
    total = zeta_oracle._csum(arr)
    assert total.real == math.fsum(arr.real.tolist())
    assert total.imag == math.fsum(arr.imag.tolist())


_ONE_ORDINATE = ZeroTable(np.array([GAMMA1]), "one ordinate")
_BAD_INPUTS = {
    "zeta_em": lambda v: zeta_em(complex(0.5, v)),
    "zeta_em(re)": lambda v: zeta_em(complex(v, 10.0)),
    "riemann_siegel_z": riemann_siegel_z,
    "hardy_z": hardy_z,
    "hardy_z(batch)": lambda v: hardy_z(np.array([100.0, v, 1e4])),
    "log_abs_zeta_crit": log_abs_zeta_crit,
    "theorem1_rhs(t)": lambda v: bound_engine.theorem1_rhs(v, 10.0),
    "theorem1_rhs(x)": lambda v: bound_engine.theorem1_rhs(100.0, v),
    "scan_margins(t_min)": lambda v: bound_engine.scan_margins(v, 1e3, 3),
    "scan_margins(t_max)": lambda v: bound_engine.scan_margins(1e3, v, 3),
    "lemma3_bracket(t)": lambda v: explicit_formula.lemma3_bracket(v, 10.0, 0.5),
    "lemma3_bracket(x)": lambda v: explicit_formula.lemma3_bracket(100.0, v, 0.5),
    "lemma3_bracket(beta)": lambda v: explicit_formula.lemma3_bracket(100.0, 10.0, v),
    "gw_prime_side(t)": lambda v: explicit_formula.gw_prime_side(
        "+", extremal_poisson.KernelParams(0.5, 1.0), v),
    "partial_fraction_residual(t)": lambda v: explicit_formula.partial_fraction_residual(
        0.5, v, _ONE_ORDINATE),
    "gw_zero_side(t)": lambda v: explicit_formula.gw_zero_side(
        "+", extremal_poisson.KernelParams(0.5, 1.0), v, _ONE_ORDINATE),
    "verify_gw(t)": lambda v: explicit_formula.verify_gw(
        "+", extremal_poisson.KernelParams(0.5, 1.0), v, _ONE_ORDINATE),
    "dirichlet_term(t)": lambda v: bound_engine.dirichlet_term(v, 100.0),
    "dirichlet_term(t, batch)": lambda v: bound_engine.dirichlet_term(np.array([100.0, v]), 100.0),
    "dirichlet_term(x)": lambda v: bound_engine.dirichlet_term(100.0, v),
    "weighted_psi(x)": prime_arith.weighted_psi,
    "KernelParams(beta)": lambda v: extremal_poisson.KernelParams(v, 1.0),
    "KernelParams(delta)": lambda v: extremal_poisson.KernelParams(1.0, v),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("entry", sorted(_BAD_INPUTS))
def test_nan_and_inf_are_refused_typed(entry, value):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused up front, before any numpy warning
        with pytest.raises(CritlineError):
            _BAD_INPUTS[entry](value)


def test_zero_side_refuses_t_below_10():
    # the zero side owns the t >= 10 rule: verify_gw runs it before the prime side's
    p = extremal_poisson.KernelParams(0.5, 1.0)
    for call in (explicit_formula.gw_zero_side, explicit_formula.verify_gw):
        for t in (5.0, -100.0):
            with pytest.raises(DomainError, match="t must be finite and >= 10"):
                call("+", p, t, _ONE_ORDINATE)


def _loop_refusal(ts):
    for t in ts:
        try:
            log_abs_zeta_crit(t)
        except NearZeroOfZeta as exc:
            return str(exc)
    return None


def test_batch_with_a_zero_is_refused_at_the_loops_first_zero():
    from scipy.optimize import brentq
    # a zero above T_RS, from a sign change of Z near 5e4
    grid = np.linspace(5e4, 5e4 + 2, 41)
    z = riemann_siegel_z(grid)
    i = int(np.nonzero(np.sign(z[:-1]) != np.sign(z[1:]))[0][0])
    gamma_rs = brentq(riemann_siegel_z, grid[i], grid[i + 1], xtol=1e-12, rtol=8.9e-16)
    for ts in ([100.0, gamma_rs, 5e4 + 0.3, GAMMA1], [1e3, GAMMA1, 7e4, gamma_rs],
               [gamma_rs, GAMMA1]):
        expected = _loop_refusal(ts)
        assert expected is not None
        with pytest.raises(NearZeroOfZeta) as exc:
            log_abs_zeta_crit(np.array(ts))
        assert str(exc.value) == expected, ts


def test_theta_against_mpmath():
    ts = (10.0, 100.0, 1e3, 1e4)
    vals = theta(np.array(ts))
    for t, v in zip(ts, vals):
        ref = float(mpmath.siegeltheta(t))
        # truncation (4.4e-13 at t = 10) plus float rounding of the main term
        tol = 4.5e-13 + 1e-15 * t * math.log(t)
        assert abs(theta(t) - ref) <= tol, t
        assert abs(v - ref) <= tol, t


def test_digamma_classics():
    assert abs(digamma(1.0).real + 0.5772156649015329) <= 1e-13
    assert abs((digamma(0.75) - digamma(0.25)).real - math.pi) <= 1e-12
    rng = np.random.default_rng(3)
    for _ in range(20):
        z = complex(rng.uniform(0.1, 20), rng.uniform(-30, 30))
        assert abs(digamma(z + 1) - digamma(z) - 1 / z) <= 1e-12


def test_digamma_against_mpmath():
    for z in (0.25 + 50j, 3.5 - 2j, 0.1 + 0j, 12.0 + 1e5j):
        ref = complex(mpmath.digamma(mpmath.mpc(z.real, z.imag)))
        assert abs(digamma(z) - ref) <= 1e-12, z
    # real input, where F's closed form evaluates psi(u/2) and psi((u+1)/2)
    xs = np.concatenate([np.linspace(0.01, 0.49, 13), np.linspace(0.51, 0.99, 13)])
    vals = digamma(xs)
    assert vals.dtype == np.float64
    for x, v in zip(xs, vals):
        ref = float(mpmath.digamma(x))
        tol = 1e-12 * max(1.0, abs(ref))
        assert abs(v - ref) <= tol, x
        scalar = digamma(float(x))
        assert isinstance(scalar, float) and abs(scalar - ref) <= tol, x


def test_digamma_vectorized():
    ys = np.linspace(-40, 40, 101)
    vals = digamma(0.25 + 0.5j * ys)
    scalar = digamma(0.25 + 0.5j * ys[7])
    assert abs(vals[7] - scalar) == 0.0
    # Re psi(1/4 + iy/2) is even in y
    assert np.allclose(vals.real, vals.real[::-1], atol=1e-13)


def test_digamma_pole():
    with pytest.raises(PoleAtNonpositiveInteger):
        digamma(0.0)
    with pytest.raises(PoleAtNonpositiveInteger):
        digamma(-3.0)


def test_constant_env_precision():
    env = constant_env(max_odd=9)
    assert env["L"] == math.log(2)
    for k in (3, 5, 7, 9):
        assert abs(env[f"Z{k}"] - float(mpmath.zeta(k))) <= 1e-15


def test_zeta_real_rejects_small_m():
    for m in (1, 0, -3):
        with pytest.raises(DomainError):
            zeta_real(m)


def test_zeta_real_large_argument_shortcut():
    assert zeta_real(80) == 1.0 + 2.0 ** -80 + 3.0 ** -80
    assert abs(zeta_real(60) - float(mpmath.zeta(60))) <= 1e-15
