import math

import mpmath
import numpy as np
import pytest

from critline.errors import (
    DomainError,
    NearZeroOfZeta,
    PoleAtNonpositiveInteger,
    PoleAtOne,
    WindowExceeded,
)
from critline.zeta_oracle import (
    _PSI_TAYLOR,
    T_RS,
    _em_tail,
    constant_env,
    digamma,
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


def test_em_tail_array_matches_scalar():
    # one cutoff per block, as the zero-table scan uses it: the array call's
    # J is the worst entry's, and both tests pass at every entry
    for ts, sigma, M in ((np.linspace(100, 101, 51), 0.5, 202),
                         (np.linspace(1000, 1010, 17), 1.5, 2020)):
        s = sigma + 1j * ts
        val, der = _em_tail(s, M, 1e-12)
        for k, sk in enumerate(s):
            ref_val, ref_der = _em_tail(complex(sk), M, 1e-12)
            assert abs(val[k] - ref_val) <= 1e-15 * abs(ref_val), sk
            assert abs(der[k] - ref_der) <= 1e-15 * abs(ref_der), sk


def test_em_tail_refuses_a_short_cutoff():
    # at M = 10 the correction terms grow long before t = 1e3 is reached
    assert _em_tail(complex(0.5, 1e3), 10, 1e-12) is None
    assert _em_tail(0.5 + 1j * np.array([10.0, 1e3]), 10, 1e-12) is None
    assert _em_tail(complex(0.5, 1e3), 2000, 1e-12) is not None


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
    with mpmath.workdps(20):
        def psi(p):
            return mpmath.cos(2 * mpmath.pi * (p * p - p - mpmath.mpf(1) / 16)) \
                / mpmath.cos(2 * mpmath.pi * p)
        ref = mpmath.taylor(psi, mpmath.mpf(1) / 2, 2 * len(_PSI_TAYLOR) - 2)
    for j, c in enumerate(_PSI_TAYLOR):
        assert abs(c - float(ref[2 * j])) <= 1e-15 * abs(c), 2 * j
    assert all(abs(c) <= 1e-18 for c in ref[1::2])  # Psi is even about 1/2


def test_log_abs_crit_below_the_switch_is_euler_maclaurin():
    for t in (T_RS - 1e-3, math.nextafter(T_RS, 0), 2e4):
        assert log_abs_zeta_crit(t) == math.log(abs(zeta_em(complex(0.5, t)))), t


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
