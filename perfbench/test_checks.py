"""Tests for the benchmark's checks and tracer.

    python3 -m pytest perfbench -q        (from the root of a checkout)

Each workload's check passes on the program's real output and fails when
one value in it is perturbed.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
import tracing  # noqa: E402
from tracing import Tracer  # noqa: E402


@pytest.fixture(scope="module")
def program():
    return workloads.setup(ROOT)


# -- coeffs --------------------------------------------------------------------


@pytest.fixture(scope="module")
def coeffs_out(program):
    oc = program.m.optimal_coeffs
    res = oc.run_pipeline(8, extrapolated=True)
    return res, oc.format_report(res)


def _with_coefficient(program, res, k, delta):
    C = list(res.C)
    C[k - 1] = C[k - 1] + delta
    bad = dataclasses.replace(res, C=tuple(C))
    return bad, program.m.optimal_coeffs.format_report(bad)


def test_coeffs_check_passes(program, coeffs_out):
    assert checks.check_coeffs(program, [8], [coeffs_out], full=True) == []


@pytest.mark.parametrize("k", [3, 8])
def test_coeffs_check_catches_a_wrong_coefficient(program, coeffs_out, k):
    # C_3 is caught by the statement values, C_8 only by the root-finding route
    L = program.m.series_algebra.L
    bad = _with_coefficient(program, coeffs_out[0], k, L * 1)
    msgs = checks.check_coeffs(program, [8], [bad], full=True)
    assert any(f"C_{k}" in msg for msg in msgs)


def test_coeffs_check_catches_a_wrong_report_line(program, coeffs_out):
    res, text = coeffs_out
    msgs = checks.check_coeffs(program, [8], [(res, text.replace("C_4 = 4*L^4", "C_4 = 5*L^4"))],
                               full=False)
    assert any("C_4" in msg for msg in msgs)


# -- ring-roundtrip ----------------------------------------------------------------


def test_ring_check(program):
    (label, inp, fn), = workloads.ring_round(program, seed=3)[:1]
    out = fn()
    assert checks.check_ring(program, [inp], [out], full=True) == []
    sa = program.m.series_algebra
    prod, comp = out
    wrong = sa.ps_add(prod, sa.TruncatedSeries.monomial(3, 1, prod.order))
    assert checks.check_ring(program, [inp], [(wrong, comp)], full=True)
    wrong = sa.ps_add(comp, sa.TruncatedSeries.monomial(5, 1, comp.order))
    assert checks.check_ring(program, [inp], [(prod, wrong)], full=True)


# -- margin-scan ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def scans(program):
    params = [dict(x_policy="logsq", t_min=1.0e3, t_max=3.0e4, points=2, x_fixed=None),
              dict(x_policy="fixed", t_min=2.0e3, t_max=4.0e3, points=2, x_fixed=1500.5),
              dict(x_policy="optimal", t_min=1.0e3, t_max=3.0e4, points=2, x_fixed=None)]
    be = program.m.bound_engine
    outs = [be.scan_margins(p["t_min"], p["t_max"], p["points"], zeros=program.zeros,
                            x_policy=p["x_policy"], x_fixed=p["x_fixed"]) for p in params]
    return params, outs


def _perturbed(reports, field, delta):
    r = reports[1]
    changed = dataclasses.replace(r, **{field: getattr(r, field) + delta})
    # keep margin = rhs_main - oracle, so only the independent value can tell
    changed = dataclasses.replace(changed, margin=changed.rhs_main - changed.oracle_log_abs_zeta)
    return [reports[0], changed] + reports[2:]


def test_margin_check_passes(program, scans):
    params, outs = scans
    assert checks.check_margins(program, params, outs, full=True, seed=1) == []


@pytest.mark.parametrize("field,what", [("oracle_log_abs_zeta", "mpmath"),
                                        ("dirichlet_term", "reference")])
def test_margin_check_catches_a_wrong_value(program, scans, field, what):
    params, outs = scans
    for i in range(2):
        outs_bad = list(outs)
        outs_bad[i] = _perturbed(outs[i], field, 1e-6)
        msgs = checks.check_margins(program, params, outs_bad, full=True, seed=1)
        assert any(what in msg for msg in msgs), msgs


def test_margin_check_catches_an_inconsistent_margin(program, scans):
    params, outs = scans
    r = outs[0][0]
    bad = [[dataclasses.replace(r, margin=r.margin + 1e-6)] + outs[0][1:]] + outs[1:]
    assert checks.check_margins(program, params, bad, full=False)


def test_margin_check_catches_a_wrong_optimal_cutoff(program, scans):
    params, outs = scans
    r = outs[2][1]
    bad = outs[:2] + [[outs[2][0], dataclasses.replace(r, x=r.x * (1 + 1e-9))]]
    msgs = checks.check_margins(program, params, bad, full=False)
    assert any("optimal policy" in msg for msg in msgs), msgs


# -- explicit-formula -----------------------------------------------------------------


@pytest.fixture(scope="module")
def ef_out(program):
    inp = (120.0, 0.9, 0.9)
    return inp, workloads.ef_operation(program, *inp)()


def test_explicit_check_passes(program, ef_out):
    inp, out = ef_out
    assert checks.check_explicit(program, [inp], [out], full=True) == []


@pytest.mark.parametrize("where,what", [("gw", "GW +"), ("pf", "partial-fraction"),
                                        ("l1", "L1 -"), ("ft", "FT +")])
def test_explicit_check_catches_a_wrong_value(program, ef_out, where, what):
    inp, out = ef_out
    bad = dict(out)
    if where == "gw":
        gw = out["gw"]["+"]
        bad["gw"] = {**out["gw"], "+": dataclasses.replace(gw, zero_side=gw.zero_side + 0.01)}
    elif where == "pf":
        bad["pf"] = dataclasses.replace(out["pf"], residual=out["pf"].residual + 1.0)
    elif where == "l1":
        bad["l1"] = {**out["l1"], "-": out["l1"]["-"] * (1 + 1e-5)}
    else:
        inside, beyond = out["ft"]["+"]
        bad["ft"] = {**out["ft"], "+": (inside + 1e-5, beyond)}
    msgs = checks.check_explicit(program, [inp], [bad], full=True)
    assert any(what in msg for msg in msgs), msgs


# -- failed operations ----------------------------------------------------------------


def test_an_operation_that_raised_fails_the_checks(program):
    ops = workloads.ring_round(program, seed=3)[:2]
    rounds, _ = run.run_rounds(ops, rounds=2)
    assert run.check_rounds("ring-roundtrip", program, ops, rounds, seed=3) == []
    rounds[1][1] = (1e-3, 1.5e-3, None, False)
    msgs = run.check_rounds("ring-roundtrip", program, ops, rounds, seed=3)
    assert msgs == [f"round 1: {ops[1][0]} raised"]


def test_latencies_are_medians_at_the_reference_speed():
    ref = run.REFERENCE_S
    # the same work measured at full speed, at half speed, and once slowed by other load
    rounds = [[(1.0, ref, None, True)], [(2.0, 2 * ref, None, True)], [(3.0, ref, None, True)]]
    assert run.latencies(rounds) == [1.0]
    assert run.latencies(rounds, scaled=False) == [2.0]


# -- inputs, tracer, manifest ------------------------------------------------------------


def test_inputs_follow_the_seed():
    assert workloads.scan_params(5) == workloads.scan_params(5) != workloads.scan_params(6)
    draws = workloads.ef_draws(5)
    assert draws == workloads.ef_draws(5) != workloads.ef_draws(6)
    for lo, hi, col in zip((50, 0.25, 0.5), (1000, 1, 2), zip(*draws)):
        assert all(lo <= v <= hi for v in col)


def test_tracer_wraps_and_restores(program):
    m = program.m
    originals = (m.series_algebra.ps_mul, m.optimal_coeffs.ps_mul,
                 m.series_algebra.ExactCoefficient.__dict__["__mul__"])
    tracer = Tracer()
    tracer.install()
    try:
        assert m.optimal_coeffs.ps_mul is not originals[1]
        with tracer.operation("op"):
            sa = m.series_algebra
            a = sa.TruncatedSeries(1, [1, 2, 3], 3)
            sa.ps_compose(a, sa.ps_revert(a))
    finally:
        tracer.uninstall()
    assert (m.series_algebra.ps_mul, m.optimal_coeffs.ps_mul,
            m.series_algebra.ExactCoefficient.__dict__["__mul__"]) == originals
    totals = tracer.layer_totals({"op"})
    assert totals["series_algebra.ps_revert"]["calls"] == 1
    assert totals["series_algebra.ps_mul"]["calls"] > 0
    assert totals["series_algebra.coeff_mul"]["calls"] > 0
    by_id = {s[0]: s for s in tracer.spans}
    muls = [s for s in tracer.spans if s[1] == "series_algebra.ps_mul"]
    assert all(by_id[s[4]][1] != "operation" for s in muls)  # nested under compose/revert


def test_manifest_matches_the_metrics():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in manifest["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in manifest["per_layer"]} == run.per_layer_units()
    assert set(tracing.COUNTERS) == set(tracing.COUNT_FIELD)
    assert [w["name"] for w in manifest["workloads"]] == list(workloads.ROUNDS)
