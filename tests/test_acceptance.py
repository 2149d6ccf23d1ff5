"""Acceptance suite: runs every criterion at its stated tolerance and prints
one pass/fail line per criterion (same checks as ``critline selftest``)."""

import csv
import math

import mpmath
import pytest

from critline import explicit_formula, selfcheck
from critline.cli import parse_args
from critline.errors import DomainError
from critline.selfcheck import CRITERIA, CheckContext, run_criterion
from critline.zeta_oracle import T_RS
from conftest import REPO, ZEROS_PATH

SCAN_CSV = "scan_t1e3_1e6.csv"
#: per-field tolerance against the tracked scan artifact: absolute 1e-10, far
#: above the last-ulp drift (~4e-16) seen across platforms; the one-ulp
#: relative term only matters for t near 1e6, where an ulp is 1.2e-10
SCAN_ABS_TOL = 1e-10
SCAN_REL_TOL = 2.0 ** -52
#: the Riemann-Siegel switch when the tracked artifact was written (Gabcke's
#: C0..C4 bound 0.017 (t/2pi)^(-11/4) at 1e-12, about 3.2987e4): its rows
#: below this are Euler-Maclaurin values, off mpmath by up to 7.6e-11
ARTIFACT_T_RS = 2 * math.pi * (0.017 / 1e-12) ** (4 / 11)


@pytest.fixture(scope="module")
def ctx(tmp_path_factory):
    # criterion 8 writes its artifact here, never over the tracked copy
    return CheckContext(zeros_path=str(ZEROS_PATH),
                        artifacts_dir=str(tmp_path_factory.mktemp("artifacts")))


@pytest.mark.parametrize("number,name", [(n, name) for n, name, _ in CRITERIA],
                         ids=[f"{n:02d}-{name.replace(' ', '-')}" for n, name, _ in CRITERIA])
def test_criterion(ctx, number, name):
    result = run_criterion(number, ctx)
    print(result.line())
    assert result.passed, result.detail


def test_criterion_5_sees_prime_form_disagreement(ctx, monkeypatch):
    # criterion 5 runs no prime-term check of its own: the one inside
    # verify_gw must still turn a disagreement into a FAIL
    ft = explicit_formula.ft_numerator
    monkeypatch.setattr(explicit_formula, "ft_numerator", lambda *a: 1.001 * ft(*a))
    result = run_criterion(5, ctx)
    assert not result.passed and not result.skipped
    assert "CrossCheckFailed" in result.detail


def test_criterion_over_its_time_budget_fails(monkeypatch):
    # run_criterion times the criterion and holds it to its budget
    monkeypatch.setitem(selfcheck.TIME_BUDGETS, 3, 0.0)
    result = run_criterion(3, CheckContext())
    assert not result.passed and not result.skipped
    assert result.detail.startswith("failed: runtime ")


def test_unknown_criterion_is_a_domain_error(ctx):
    with pytest.raises(DomainError, match="no criterion 12"):
        run_criterion(12, ctx)


def test_criterion_8_archives_only_where_asked(tmp_path, monkeypatch):
    # neither the default context nor the CLI's default names a directory, so
    # a selftest run from a checkout leaves the tracked artifact as it is
    monkeypatch.chdir(tmp_path)
    result = run_criterion(8, CheckContext())
    assert result.passed and "not archived" in result.detail
    assert list(tmp_path.iterdir()) == []
    assert parse_args(["selftest"]).artifacts is None


def _read_csv(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


def _fresh_scan_rows(ctx):
    out = f"{ctx.artifacts_dir}/{SCAN_CSV}"
    try:
        return _read_csv(out)
    except FileNotFoundError:  # criterion 8 deselected: write the artifact now
        assert run_criterion(8, ctx).passed
        return _read_csv(out)


def test_scan_artifact_matches_tracked_copy(ctx):
    new_rows = _fresh_scan_rows(ctx)
    old_rows = _read_csv(REPO / "artifacts" / SCAN_CSV)
    assert new_rows[0] == old_rows[0]
    assert len(new_rows) == len(old_rows)
    for i, (new, old) in enumerate(zip(new_rows[1:], old_rows[1:]), start=2):
        assert len(new) == len(old), i
        for name, a, b in zip(old_rows[0], new, old):
            assert math.isclose(float(a), float(b), rel_tol=SCAN_REL_TOL,
                                abs_tol=SCAN_ABS_TOL), (i, name, a, b)


def _rows_against_mpmath(rows, t_from):
    """Check the oracle column and the margin of the rows at t >= t_from
    against an independent zeta; t is taken as the float the row names, not
    as its decimal string.  Returns the number of rows checked."""
    col = {name: i for i, name in enumerate(rows[0])}
    checked = 0
    with mpmath.workdps(25):
        for row in rows[1:]:
            t = float(row[col["t"]])
            if t < t_from:
                continue
            ref = float(mpmath.log(abs(mpmath.zeta(mpmath.mpc(0.5, t)))))
            margin = float(row[col["dirichlet_term"]]) + float(row[col["arch_term"]]) - ref
            assert abs(float(row[col["log_abs_zeta"]]) - ref) <= 1e-12, t
            assert abs(float(row[col["margin"]]) - margin) <= 1e-12, t
            checked += 1
    return checked


def test_scan_artifact_oracle_against_mpmath():
    # the tracked rows that were served by Riemann-Siegel
    assert _rows_against_mpmath(_read_csv(REPO / "artifacts" / SCAN_CSV), ARTIFACT_T_RS) == 25


def test_fresh_scan_oracle_against_mpmath(ctx):
    # every row of a fresh scan that Riemann-Siegel serves now
    assert _rows_against_mpmath(_fresh_scan_rows(ctx), T_RS) == 36
