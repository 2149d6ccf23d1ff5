"""Correctness checks on the outputs of one round, run outside the timed region.

Each check compares against a separate computation (mpmath, sympy, a
pure-Python sum) or a property the method must have; none compares against
a stored copy of earlier output.  A check returns a list of failure
messages; an empty list means the round passed.
"""

from __future__ import annotations

import importlib
import math
import random

import numpy as np

from workloads import bracket_x

# ---------------------------------------------------------------------------
# coeffs
# ---------------------------------------------------------------------------


def _mp_constants(mp, K):
    L = mp.log(2)
    zeta = {k: mp.zeta(k) for k in range(3, 2 * K + 4, 2)}
    return L, zeta


def _mp_value(mp, coeff, L, zeta):
    """A ring element evaluated in mpmath, from its public monomial map."""
    total = mp.mpf(0)
    for (eL, zpart), q in coeff.terms.items():
        v = mp.mpf(q.numerator) / q.denominator * L ** eL
        for k, e in zpart:
            v *= zeta[k] ** e
        total += v
    return total


def numeric_bound_series(mp, K: int, w, L, zeta):
    """B(w) from the stationarity relation, by root-finding instead of series
    reversion: solve 1/(2z) + 2L + log(1 + sum_{m<K} (b_m/4) z^m) = 1/w for z,
    then B = L z + sum_{m<=K+1} a_m z^{m+1} / sum_{m<=K} b_m z^m.  Written from
    the definitions a_1 = 8L, a_m = 8 (2^{m-1}-1) m! zeta(m) (odd m > 1, else 0),
    b_m = (a_{m+1}/2 - (m+1) a_m)/L, so B(w) = sum_k C_k w^k + O(w^{K+1})."""
    def a(m):
        if m == 1:
            return 8 * L
        if m == 0 or m % 2 == 0:
            return mp.mpf(0)
        return 8 * (2 ** (m - 1) - 1) * mp.factorial(m) * zeta[m]

    def b(m):
        return (a(m + 1) / 2 - (m + 1) * a(m)) / L

    m_log = max(1, K - 1)
    poly = [mp.mpf(1)] + [b(m) / 4 for m in range(1, m_log + 1)]

    def stationarity(u):  # the relation times w, in u = z/w (root near 1/2)
        return 1 / (2 * u) + w * (2 * L + mp.log(mp.polyval(poly[::-1], u * w))) - 1

    z = w * mp.findroot(stationarity, mp.mpf(1) / 2)
    numer = mp.fsum(a(m) * z ** (m + 1) for m in range(1, K + 2))
    denom = mp.fsum(b(m) * z ** m for m in range(0, K + 1))
    return L * z + numer / denom


def check_coeffs(program, inputs, outputs, full: bool, seed: int = 0):
    """C_1..C_6 against the independently written statement values; the
    reversion identity compose(1/w1, Z) = z exactly; C_k stable across K;
    every C_k against an mpmath root-find of the stationarity relation; and
    the report text parses back to the same objects."""
    m = program.m
    sa, pt = m.series_algebra, m.pari_text
    statement = importlib.import_module("critline.selfcheck").STATEMENT_C
    bad = []
    done = [(K, out) for K, out in zip(inputs, outputs) if out is not None]
    for K, (res, text) in done:
        C = res.C
        if res.order != K or len(C) != K:
            bad.append(f"K={K}: {len(C)} coefficients")
            continue
        for k, expr in statement.items():
            if k <= K and C[k - 1] != pt.parse_coefficient(expr):
                bad.append(f"K={K}: C_{k} differs from the statement value")
        lines = text.splitlines()
        if len(lines) != K + 2 or not pt.series_matches_text(res.w1, lines[0][len("w1 = "):]) \
                or not pt.series_matches_text(res.Z, lines[1][len("Z = "):]):
            bad.append(f"K={K}: report series lines do not parse back")
            continue
        for k in range(1, K + 1):
            head, _, expr = lines[k + 1].partition(" = ")
            extrapolated = expr.endswith("  (extrapolated)")
            expr = expr.removesuffix("  (extrapolated)")
            if head != f"C_{k}" or extrapolated != (k > 7) \
                    or pt.parse_coefficient(expr) != C[k - 1]:
                bad.append(f"K={K}: report line for C_{k} does not parse back")
        for K2, (res2, _) in done:
            if K2 > K and res2.C[:K] != C:
                bad.append(f"C_1..C_{K} differ between K={K} and K={K2}")
        if full:
            comp = sa.ps_compose(sa.ps_recip(res.w1), res.Z)
            if comp != sa.TruncatedSeries.identity(comp.order) or comp.order < K + 1:
                bad.append(f"K={K}: compose(1/w1, Z) != z through z^{comp.order}")
            bad += _coeffs_numeric(K, C)
    return bad


def _coeffs_numeric(K, C):
    import mpmath
    mp = mpmath.mp
    w_exp = 30
    with mp.workdps(w_exp * (K + 1) + 40):
        L, zeta = _mp_constants(mp, K)
        w = mp.mpf(10) ** -w_exp
        B = numeric_bound_series(mp, K, w, L, zeta)
        bad = []
        partial = mp.mpf(0)
        for k in range(1, K + 1):
            ck = _mp_value(mp, C[k - 1], L, zeta)
            est = (B - partial) / w ** k
            if abs(est - ck) > mp.mpf(10) ** -12 * max(1, abs(ck)):
                bad.append(f"K={K}: C_{k} = {mp.nstr(ck, 15)} but root-finding gives "
                           f"{mp.nstr(est, 15)}")
            partial += ck * w ** k
    return bad


# ---------------------------------------------------------------------------
# ring-roundtrip
# ---------------------------------------------------------------------------


def check_ring(program, inputs, outputs, full: bool, seed: int = 0):
    """a * recip(a) = 1 and compose(b, revert(b)) = z, exactly, at the orders
    the truncation rules promise."""
    TS = program.m.series_algebra.TruncatedSeries
    bad = []
    for i, ((a, b), out) in enumerate(zip(inputs, outputs)):
        if out is None:
            continue
        prod, comp = out
        if prod.order != a.order - a.valuation or prod != TS.constant(1, prod.order):
            bad.append(f"series #{i}: a * recip(a) != 1 + O(z^{a.order - a.valuation + 1})")
        if comp.order != b.order or comp != TS.identity(comp.order):
            bad.append(f"series #{i}: compose(b, revert(b)) != z + O(z^{b.order + 1})")
    return bad


# ---------------------------------------------------------------------------
# margin-scan
# ---------------------------------------------------------------------------

ORACLE_SAMPLES = 4      # per scan: log|zeta| against mpmath
DIRICHLET_SAMPLES = 2   # per scan: dirichlet_term against a pure-Python sum
ORACLE_TOL = 1e-8
DIRICHLET_TOL = 1e-8


def mangoldt_upto(n_max: int):
    """[(n, log p)] for the prime powers n = p^k <= n_max, from sympy.factorint."""
    from sympy import factorint
    out = []
    for n in range(2, n_max + 1):
        f = factorint(n)
        if len(f) == 1:
            out.append((n, math.log(next(iter(f)))))
    return out


def f_weight_mp(u: float) -> float:
    """F(u) = pi u / sin(pi u) - u (psi((u+1)/2) - psi(u/2)) + 1, via mpmath.psi."""
    import mpmath
    if u == 0:
        return 0.0
    mp = mpmath.mp
    with mp.workdps(25):
        u = mp.mpf(u)
        return float(mp.pi * u / mp.sin(mp.pi * u)
                     - u * (mp.psi(0, (u + 1) / 2) - mp.psi(0, u / 2)) + 1)


def dirichlet_reference(t: float, x: float, mangoldt, weights: dict) -> float:
    """sum_{n<=x} Lambda(n) n^{-1/2} cos(t log n) F(log(x/n)/log x) / log x."""
    logx = math.log(x)
    terms = []
    for n, lam in mangoldt:
        if n > x:
            break
        key = (n, x)
        if key not in weights:
            weights[key] = f_weight_mp((logx - math.log(n)) / logx) / logx
        terms.append(lam / math.sqrt(n) * math.cos(t * math.log(n)) * weights[key])
    return math.fsum(terms)


def log_abs_zeta_mp(t: float) -> float:
    import mpmath
    mp = mpmath.mp
    with mp.workdps(25):
        return float(mp.log(abs(mp.zeta(mp.mpc(0.5, t)))))


def optimal_x_mp(Z, t: float) -> float:
    """The optimal cutoff x = exp(1/z(w)) at w = 1/log log t, from the
    pipeline's stationary-point series Z, evaluated in mpmath."""
    import mpmath
    mp = mpmath.mp
    with mp.workdps(30):
        L, zeta = _mp_constants(mp, Z.order)
        w = 1 / mp.log(mp.log(t))
        z = mp.fsum(_mp_value(mp, Z.coefficient(k), L, zeta) * w ** k
                    for k in range(1, Z.order + 1))
        return float(max(2, mp.exp(1 / z)))


def check_margins(program, inputs, outputs, full: bool, seed: int = 0):
    """Grid, x policy, guard radius and margin arithmetic on every point; on
    a seeded sample, log|zeta| against mpmath and dirichlet_term against a
    pure-Python sum over sympy's factorisations with mpmath's digamma."""
    be = program.m.bound_engine
    Z = program.m.optimal_coeffs.run_pipeline(3).Z  # the cutoff series; coeffs checks it
    gammas = program.zeros.gammas
    rng = random.Random(seed)
    bad = []
    sampled = []
    for p, reports in zip(inputs, outputs):
        if reports is None:
            continue
        kind = p["x_policy"]
        if len(reports) != p["points"]:
            bad.append(f"{kind}: {len(reports)} points, asked for {p['points']}")
        for r in reports:
            where = f"{kind} t={r.t:.6f}"
            if not p["t_min"] * (1 - 1e-12) <= r.t <= p["t_max"] + 1.0:
                bad.append(f"{where}: outside the requested grid")
            if r.t <= gammas[-1] and np.min(np.abs(gammas - r.t)) < be.MARGIN_GUARD_RADIUS:
                bad.append(f"{where}: within the guard radius of an ordinate")
            if kind == "logsq":
                want_x = max(2.0, math.log(r.t) ** 2)
            elif kind == "fixed":
                want_x = p["x_fixed"]
            else:
                want_x = optimal_x_mp(Z, r.t)
            if r.x < 2 or not math.isclose(r.x, want_x, rel_tol=1e-12):
                bad.append(f"{where}: x={r.x} does not follow the {kind} policy")
            arch = math.log(2) * math.log(r.t) / math.log(r.x)
            if not math.isclose(r.archimedean_term, arch, rel_tol=1e-12, abs_tol=1e-15):
                bad.append(f"{where}: archimedean term {r.archimedean_term} != {arch}")
            margin = r.dirichlet_term + r.archimedean_term - r.oracle_log_abs_zeta
            if not abs(r.margin - margin) <= 1e-12 * (1 + abs(margin)):
                bad.append(f"{where}: margin {r.margin} != rhs_main - oracle = {margin}")
        if full:
            sampled.append((kind, rng.sample(reports, min(ORACLE_SAMPLES, len(reports))),
                            rng.sample(reports, min(DIRICHLET_SAMPLES, len(reports)))))
    if sampled:
        x_top = max(r.x for _, _, dsample in sampled for r in dsample)
        mangoldt = mangoldt_upto(int(math.floor(x_top)))
        weights = {}
        for kind, osample, dsample in sampled:
            for r in osample:
                ref = log_abs_zeta_mp(r.t)
                if not abs(r.oracle_log_abs_zeta - ref) <= ORACLE_TOL:
                    bad.append(f"{kind} t={r.t:.6f}: log|zeta| {r.oracle_log_abs_zeta!r}, "
                               f"mpmath {ref!r}")
            for r in dsample:
                ref = dirichlet_reference(r.t, r.x, mangoldt, weights)
                if not abs(r.dirichlet_term - ref) <= DIRICHLET_TOL:
                    bad.append(f"{kind} t={r.t:.6f}: dirichlet_term {r.dirichlet_term!r}, "
                               f"reference {ref!r}")
    return bad


# ---------------------------------------------------------------------------
# explicit-formula
# ---------------------------------------------------------------------------


def l1_closed(sign: str, beta: float, delta: float) -> float:
    """L^1 distance of m^{sign} to h_beta: 2 pi q / (1 -+ q), q = e^{-2 pi beta Delta}."""
    q = math.exp(-2 * math.pi * beta * delta)
    return 2 * math.pi * q / (1 - q if sign == "+" else 1 + q)


def ft_closed(sign: str, beta: float, delta: float, xi: float) -> float:
    """Fourier transform of m^{sign} for |xi| <= Delta: pi (e^a - e^-a) / D
    with a = 2 pi beta (Delta - |xi|), D = (e^{pi beta Delta} -+ e^{-pi beta Delta})^2."""
    e = math.exp(math.pi * beta * delta)
    D = (e - 1 / e) ** 2 if sign == "+" else (e + 1 / e) ** 2
    a = 2 * math.pi * beta * (delta - abs(xi))
    return math.pi * (math.exp(a) - math.exp(-a)) / D


def check_explicit(program, inputs, outputs, full: bool, seed: int = 0):
    """Guinand-Weil residuals within their tail bounds + 1e-3, the
    partial-fraction residual within 10/t + tail, the bracket within
    criterion 7's slack, and the L1 and FT quadratures against the closed
    forms (1e-6), with the FT zero beyond +-Delta."""
    bad = []
    for (t, beta, delta), out in zip(inputs, outputs):
        if out is None:
            continue
        where = f"(t={t:.3f}, beta={beta:.4f}, delta={delta:.4f})"
        for s in "+-":
            gw = out["gw"][s]
            if not abs(gw.residual) <= gw.tail_bound + 1e-3:
                bad.append(f"{where}: GW {s} residual {gw.residual:.3e} "
                           f"beyond tail {gw.tail_bound:.3e} + 1e-3")
            l1 = out["l1"][s]
            ref = l1_closed(s, beta, delta)
            if not abs(l1 - ref) <= 1e-6 * ref:
                bad.append(f"{where}: L1 {s} quadrature {l1!r}, closed form {ref!r}")
            inside, beyond = out["ft"][s]
            ref = ft_closed(s, beta, delta, 0.5 * delta)
            if not abs(inside - ref) <= 1e-6:
                bad.append(f"{where}: FT {s} at Delta/2 {inside!r}, closed form {ref!r}")
            if not abs(beyond) <= 1e-6:
                bad.append(f"{where}: FT {s} at 3 Delta/2 is {beyond!r}, not 0")
        pf = out["pf"]
        if not abs(pf.residual) <= 10 / t + pf.tail_bound:
            bad.append(f"{where}: partial-fraction residual {pf.residual:.3e}")
        br = out["bracket"]
        x = bracket_x(t)
        slack = 5 + 5 * math.sqrt(x) * math.log(x) / t
        if not br.left_main - slack <= br.middle <= br.right_main + slack:
            bad.append(f"{where}: bracket {br.left_main:.3f} <= {br.middle:.3f} "
                       f"<= {br.right_main:.3f} fails by more than {slack:.2f}")
    return bad


CHECKS = {
    "coeffs": check_coeffs,
    "ring-roundtrip": check_ring,
    "margin-scan": check_margins,
    "explicit-formula": check_explicit,
}


def summary(workload: str, out):
    """What must repeat exactly when a round is run again."""
    if out is None or workload == "ring-roundtrip":
        return out
    if workload == "coeffs":
        res, text = out
        return res.C, text
    if workload == "margin-scan":
        return tuple((r.t, r.x, r.dirichlet_term, r.oracle_log_abs_zeta, r.margin)
                     for r in out)
    return tuple([out["gw"][s].residual for s in "+-"] + [out["pf"].residual,
                 out["bracket"].middle] + [out["l1"][s] for s in "+-"]
                 + [v for s in "+-" for v in out["ft"][s]])
