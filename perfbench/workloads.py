"""Set-up and the four workloads, built from critline's public Python API.

Every workload is a closed loop over a *round*: a fixed list of operations
generated from the seed.  A run repeats whole rounds, so each run attempts
the same operations in the same proportions whatever its length.
"""

from __future__ import annotations

import gc
import importlib
import math
import random
import sys
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np

MODULES = ("errors", "series_algebra", "pari_text", "optimal_coeffs", "zeta_oracle",
           "special_f", "prime_arith", "zeros_table", "bound_engine", "quadrature",
           "extremal_poisson", "explicit_formula")

ZEROS_FILE = Path("data") / "zeros_height1e4.txt"

#: covers x = e^{2 pi Delta} for Delta <= 2 (286751) and the fixed-x scans
SIEVE_LIMIT = 290_000


def fresh_import():
    """Import critline from scratch, dropping any earlier copy of it."""
    for name in [n for n in sys.modules if n == "critline" or n.startswith("critline.")]:
        del sys.modules[name]
    importlib.import_module("critline")
    return SimpleNamespace(**{m: importlib.import_module(f"critline.{m}") for m in MODULES})


def setup(root: Path, tracer=None):
    """Import critline, load the zero table, build the sieve, warm lazy caches.

    Returns the program handle the workloads run against.  With a tracer,
    the loading and warming calls are recorded under operation id "setup".
    """
    m = fresh_import()
    clear_pipeline = m.optimal_coeffs.run_pipeline.cache_clear
    if tracer is not None:
        tracer.install()
        tracer.op = "setup"
    zeros = m.zeros_table.load_zeros(root / ZEROS_FILE)
    sieve = m.prime_arith.lambda_sieve(SIEVE_LIMIT)
    m.zeta_oracle.constant_env()             # L, Z3..Z7 via zeta_real, as optimal_cutoff uses
    for order in (12, 16):                   # Gauss-Legendre rules of the panel quadratures
        m.quadrature.panel_integrate(np.cos, 0.0, 1.0, 1, order)
    m.optimal_coeffs.run_pipeline(3)         # the cutoff series behind x_policy="optimal"
    if tracer is not None:
        tracer.op = None
    return SimpleNamespace(m=m, zeros=zeros, sieve=sieve, clear_pipeline=clear_pipeline)


def timed_setup(root: Path):
    """setup() timed as in a fresh process: earlier copies of the program are
    collected first, and the objects the benchmark holds are frozen, so the
    collector does not rescan them while critline imports."""
    gc.collect()
    gc.freeze()
    try:
        t0 = time.perf_counter()
        program = setup(root)
        return program, time.perf_counter() - t0
    finally:
        gc.unfreeze()


# ---------------------------------------------------------------------------
# coeffs: the exact ring on sparse symbolic coefficients
# ---------------------------------------------------------------------------

COEFF_ORDERS = (7, 8, 9, 10, 11)


def coeffs_round(program, seed: int):
    """One fresh run_pipeline(K) plus format_report per K; no random input."""
    oc = program.m.optimal_coeffs

    def op(K):
        def run():
            program.clear_pipeline()
            result = oc.run_pipeline(K, extrapolated=K > oc.K_MAX_GOLDEN)
            return result, oc.format_report(result)
        return run

    return [(f"K={K}", K, op(K)) for K in COEFF_ORDERS]


# ---------------------------------------------------------------------------
# ring-roundtrip: the same ring on dense pure-rational coefficients
# ---------------------------------------------------------------------------

RING_ORDER = 12
RING_OPS_PER_ROUND = 64


def _random_series(sa, rng, valuation: int):
    coeffs = []
    for k in range(RING_ORDER - valuation + 1):
        while True:
            q = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            if q or k:
                break
        coeffs.append(sa.ExactCoefficient.rational(q))
    return sa.TruncatedSeries(valuation, coeffs, RING_ORDER)


def ring_round(program, seed: int):
    """Order-12 random series over Q, as acceptance criterion 11 draws them:
    one with valuation in {-1, 0, 1} for recip/mul, one with valuation 1 for
    revert/compose."""
    sa = program.m.series_algebra
    rng = random.Random(seed)
    ops = []
    for i in range(RING_OPS_PER_ROUND):
        a = _random_series(sa, rng, rng.choice([-1, 0, 1]))
        b = _random_series(sa, rng, 1)

        def run(a=a, b=b):
            return (sa.ps_mul(a, sa.ps_recip(a)), sa.ps_compose(b, sa.ps_revert(b)))

        ops.append((f"series#{i}", (a, b), run))
    return ops


# ---------------------------------------------------------------------------
# margin-scan: oracle plus Dirichlet kernel
# ---------------------------------------------------------------------------

SCAN_POINTS = {"logsq": 50, "fixed": 50, "optimal": 20}


def scan_params(seed: int):
    """The three scans of a round, with seeded jitter on the grid ends and x."""
    rng = random.Random(seed)

    def jitter(v, rel):
        return v * (1 + rel * rng.uniform(-1.0, 1.0))

    return [
        dict(x_policy="logsq", t_min=jitter(1.02e3, 0.02), t_max=jitter(0.98e6, 0.02),
             points=SCAN_POINTS["logsq"], x_fixed=None),
        dict(x_policy="fixed", t_min=jitter(1.02e3, 0.02), t_max=jitter(0.98e4, 0.02),
             points=SCAN_POINTS["fixed"], x_fixed=jitter(2e5, 0.01)),
        dict(x_policy="optimal", t_min=jitter(1.02e3, 0.02), t_max=jitter(0.98e6, 0.02),
             points=SCAN_POINTS["optimal"], x_fixed=None),
    ]


def margin_round(program, seed: int):
    be = program.m.bound_engine

    def op(p):
        def run():
            return be.scan_margins(p["t_min"], p["t_max"], p["points"], zeros=program.zeros,
                                   x_policy=p["x_policy"], x_fixed=p["x_fixed"])
        return run

    return [(p["x_policy"], p, op(p)) for p in scan_params(seed)]


# ---------------------------------------------------------------------------
# explicit-formula: Guinand-Weil and the kernel quadratures
# ---------------------------------------------------------------------------

EF_DRAWS_PER_ROUND = 8
EF_T = (50.0, 1000.0)
EF_BETA = (0.25, 1.0)
EF_DELTA = (0.5, 2.0)


def ef_draws(seed: int):
    """(t, beta, Delta), stratified: each coordinate hits each of the round's
    equal strata once.  The t strata are shuffled; the beta and Delta strata
    are paired in order, because the quadrature's cost is set by the panel
    length min(1/(4 max(Delta, 1)), beta/2), and a shuffled pairing would let
    the seed change the round's cost mix.  The pairing still spans beta*Delta
    from 1/8 to 2, small values of which widen the archimedean window."""
    rng = random.Random(seed)
    n = EF_DRAWS_PER_ROUND
    t_strata = list(range(n))
    rng.shuffle(t_strata)
    cols = []
    for (lo, hi), strata in ((EF_T, t_strata), (EF_BETA, range(n)), (EF_DELTA, range(n))):
        cols.append([lo + (hi - lo) * (s + rng.random()) / n for s in strata])
    return list(zip(*cols))


def bracket_x(t: float) -> float:
    """Dirichlet cutoff of the bracket: the top of criterion 7's x range."""
    return 4 * math.log(t) ** 2


def ef_operation(program, t: float, beta: float, delta: float):
    """verify_gw for both signs, partial_fraction_residual, lemma3_bracket,
    and l1_numeric and numeric_ft (at Delta/2 and 3 Delta/2) for both signs."""
    m = program.m
    ef, ep = m.explicit_formula, m.extremal_poisson

    def run():
        p = ep.KernelParams(beta, delta)
        return {"gw": {s: ef.verify_gw(s, p, t, program.zeros, program.sieve) for s in "+-"},
                "pf": ef.partial_fraction_residual(beta, t, program.zeros),
                "bracket": ef.lemma3_bracket(t, bracket_x(t), beta, program.sieve),
                "l1": {s: ep.l1_numeric(s, p) for s in "+-"},
                "ft": {s: (ep.numeric_ft(s, p, 0.5 * delta), ep.numeric_ft(s, p, 1.5 * delta))
                       for s in "+-"}}

    return run


def ef_round(program, seed: int):
    return [(f"t={t:.1f},beta={b:.3f},delta={d:.3f}", (t, b, d), ef_operation(program, t, b, d))
            for t, b, d in ef_draws(seed)]


ROUNDS = {
    "coeffs": coeffs_round,
    "ring-roundtrip": ring_round,
    "margin-scan": margin_round,
    "explicit-formula": ef_round,
}
