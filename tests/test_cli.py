import contextlib
import io
import math
import os
import subprocess
import sys
import tempfile
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from critline import bound_engine, optimal_coeffs, zeros_table
from critline.bound_engine import CurvePolicy
from critline.cli import main, parse_args
from critline.errors import UsageError
from critline.zeros_table import load_zeros
from conftest import REPO, ZEROS_PATH


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_args_coeffs():
    ns = parse_args(["coeffs", "--order", "7", "--numeric"])
    assert ns.command == "coeffs" and ns.order == 7 and ns.numeric


def test_parse_args_scan():
    ns = parse_args(["scan", "--t-min", "1e3", "--t-max", "1e6",
                     "--points", "50", "--x-policy", "logsq", "--out", "scan.csv"])
    assert ns.command == "scan" and ns.points == 50 and ns.out == "scan.csv"


def test_t_below_ten_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "bound", "--t", "2")
    assert code == 2
    assert "t" in err and ">= 10" in err


@pytest.mark.parametrize("args, message", [
    (["coeffs", "--order", "0"], "--order must be >= 1"),
    (["scan", "--t-min", "1e3", "--t-max", "1e4", "--points", "0"], "--points must be >= 1")])
def test_an_order_or_point_count_below_one_exits_two(capsys, args, message):
    code, out, err = run_cli(capsys, *args)
    assert code == 2 and message in err and not out


def test_unknown_flag_exits_two():
    with pytest.raises(SystemExit) as exc:
        parse_args(["coeffs", "--bogus"])
    assert exc.value.code == 2


def test_order_cap_needs_flag():
    with pytest.raises(UsageError):
        parse_args(["coeffs", "--order", "9"])
    ns = parse_args(["coeffs", "--order", "9", "--extrapolated"])
    assert ns.extrapolated


@pytest.fixture
def vetted_to_eight(monkeypatch):
    """K_MAX_GOLDEN raised to 8; the order-8 results it lets into the caches
    are dropped afterwards."""
    monkeypatch.setattr(optimal_coeffs, "K_MAX_GOLDEN", 8)
    yield
    optimal_coeffs.run_pipeline.cache_clear()
    bound_engine._pipeline_numeric.cache_clear()


def test_vetted_range_follows_k_max_golden(capsys, vetted_to_eight):
    assert len(CurvePolicy.optimal(8).coeffs) == 8
    code, out, err = run_cli(capsys, "coeffs", "--order", "8")
    assert code == 0, err
    assert "C_8 = " in out and "(extrapolated)" not in out
    with pytest.raises(SystemExit):
        main(["coeffs", "--help"])
    assert "vetted range 8" in capsys.readouterr().out


def test_coeffs_output_contains_golden_lines(capsys):
    code, out, _ = run_cli(capsys, "coeffs", "--order", "2")
    assert code == 0
    assert "C_1 = L/2" in out
    assert "C_2 = L^2 + L/2" in out
    assert out.startswith("# critline")


def test_coeffs_determinism(capsys):
    _, out1, _ = run_cli(capsys, "coeffs", "--order", "4", "--numeric")
    _, out2, _ = run_cli(capsys, "coeffs", "--order", "4", "--numeric")
    assert out1 == out2


def test_special_f_three_methods_near_one(capsys):
    code, out, _ = run_cli(capsys, "special-f", "--u", "0.5")
    assert code == 0
    vals = [float(line.rsplit("=", 1)[1])
            for line in out.splitlines() if line.startswith("F(")]
    assert len(vals) == 3
    assert all(abs(v - 1.0) <= 1e-9 for v in vals)


def test_bound_subcommand(capsys, zeros):
    code, out, _ = run_cli(capsys, "bound", "--t", "1000", "--zeros", str(ZEROS_PATH))
    assert code == 0
    assert "margin" in out
    x_line = next(line for line in out.splitlines() if line.startswith("x "))
    assert float(x_line.split("=")[1]) == pytest.approx(math.log(1000.0) ** 2)


def test_scan_csv_roundtrip(tmp_path, capsys):
    out_file = tmp_path / "scan.csv"
    code, _, _ = run_cli(capsys, "scan", "--t-min", "1e3", "--t-max", "1e4",
                         "--points", "4", "--out", str(out_file))
    assert code == 0
    lines = out_file.read_text().splitlines()
    data = [line for line in lines if not line.startswith("#")]
    header, rows = data[0], data[1:]
    assert header == "t,x,log_abs_zeta,dirichlet_term,arch_term,rhs_main,margin,error_scale"
    assert len(rows) == 4
    first = [float(v) for v in rows[0].split(",")]
    assert first[5] == pytest.approx(first[3] + first[4], abs=0)  # rhs_main
    # determinism: repeating the identical invocation reproduces the bytes
    snapshot = out_file.read_text()
    run_cli(capsys, "scan", "--t-min", "1e3", "--t-max", "1e4",
            "--points", "4", "--out", str(out_file))
    assert out_file.read_text() == snapshot


def test_scan_fixed_x_policy(tmp_path, capsys):
    out_file = tmp_path / "scan.csv"
    code, _, _ = run_cli(capsys, "scan", "--t-min", "1e3", "--t-max", "2e3",
                         "--points", "2", "--x-policy", "fixed", "--x", "50",
                         "--out", str(out_file))
    assert code == 0
    rows = [line for line in out_file.read_text().splitlines()
            if line and not line.startswith("#")][1:]
    assert all(float(r.split(",")[1]) == 50.0 for r in rows)


@pytest.mark.parametrize("flags", [["--x", "50"], ["--x-policy", "logsq", "--x", "50"],
                                   ["--x-policy", "optimal", "--x", "50"], ["--x-policy", "fixed"]])
def test_scan_x_goes_with_the_fixed_policy_only(capsys, flags):
    argv = ["scan", "--t-min", "1e3", "--t-max", "2e3", "--points", "2", *flags]
    with pytest.raises(UsageError, match="--x-policy fixed"):
        parse_args(argv)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == "" and err.startswith("usage error")


def test_extremal_subcommand(capsys):
    code, out, _ = run_cli(capsys, "extremal", "--beta", "0.5", "--delta", "1")
    assert code == 0
    assert "pointwise minorant <= kernel <= majorant" in out
    assert "yes" in out


def test_verify_ef_subcommand(capsys):
    code, out, _ = run_cli(capsys, "verify-ef", "--t", "100", "--beta", "0.5",
                           "--delta", "1", "--zeros", str(ZEROS_PATH))
    assert code == 0
    assert out.count("within tail_bound + 1e-3: yes") == 2


def test_verify_ef_degenerate_kernel_gets_a_verdict(capsys):
    # beta*Delta = 1e-5: the Fourier-side archimedean term needs no window
    code, out, _ = run_cli(capsys, "verify-ef", "--t", "100", "--beta", "0.001",
                           "--delta", "0.01", "--zeros", str(ZEROS_PATH))
    assert code == 0
    assert out.count("within tail_bound + 1e-3: yes") == 2


def test_verify_ef_sieves_once_for_both_signs(capsys, sieve_calls):
    code, _, _ = run_cli(capsys, "verify-ef", "--t", "100", "--beta", "0.5",
                         "--delta", "1", "--zeros", str(ZEROS_PATH))
    assert code == 0
    assert sieve_calls == [535]  # floor(e^{2 pi Delta})


def test_zeros_subcommand_reproduces_the_tracked_ordinates(capsys, tmp_path, zeros):
    data = REPO / "data"
    before = {p.name: p.read_bytes() for p in data.iterdir()}
    out = tmp_path / "zeros.txt"
    code, stdout, err = run_cli(capsys, "zeros", "--height", "200", "--out", str(out))
    assert code == 0, err
    assert "wrote 79 ordinates" in stdout and "uncertified" in stdout  # below 168 pi
    fresh = load_zeros(out).gammas
    tracked = zeros.gammas[zeros.gammas <= 200]
    assert len(fresh) == len(tracked)
    assert np.max(np.abs(fresh - tracked)) <= 1e-10
    # the table is validated in a temporary file that is then moved onto --out
    assert [p.name for p in tmp_path.iterdir()] == ["zeros.txt"]
    assert {p.name: p.read_bytes() for p in data.iterdir()} == before


def test_zeros_subcommand_reports_the_certified_height(capsys, tmp_path):
    code, stdout, err = run_cli(capsys, "zeros", "--height", "700",
                                "--out", str(tmp_path / "zeros.txt"))
    assert code == 0, err
    assert "certified by Turing's method below t = 696.589" in stdout


@pytest.mark.parametrize("edit", ["delete", "spurious"])
def test_zeros_subcommand_exits_one_on_a_wrong_count(capsys, tmp_path, monkeypatch, edit):
    search = zeros_table.search_zeros

    def edited_search(height):
        gammas, gram = search(height)
        if edit == "delete":
            return np.delete(gammas, 40), gram
        return np.sort(np.append(gammas, 150.123)), gram

    monkeypatch.setattr(zeros_table, "search_zeros", edited_search)
    code, _, err = run_cli(capsys, "zeros", "--height", "200",
                           "--out", str(tmp_path / "zeros.txt"))
    assert code == 1
    assert "CrossCheckFailed" in err and "good Gram point" in err
    assert list(tmp_path.iterdir()) == []


def test_extremal_refuses_tiny_beta_at_once(capsys):
    t0 = time.perf_counter()
    code, _, err = run_cli(capsys, "extremal", "--beta", "1e-6", "--delta", "1")
    assert time.perf_counter() - t0 < 1.0
    assert code == 1
    assert "DomainError" in err and "ill-conditioned" in err


@pytest.mark.parametrize("beta", ["1e-300", "1e-160"])
def test_extremal_refuses_a_beta_below_the_normal_squares(capsys, beta):
    code, out, err = run_cli(capsys, "extremal", "--beta", beta, "--delta", "1e-5")
    assert code == 1 and out == ""
    assert "DomainError" in err and "normal float" in err and "Traceback" not in err


def test_extremal_at_a_slow_oscillation(capsys):
    # omega = 2 pi 0.05 was refused while the tail rule asked for omega >= 0.5
    code, out, _ = run_cli(capsys, "extremal", "--beta", "0.5", "--delta", "0.05")
    assert code == 0
    assert "majorant on 1e4 grid points: yes" in out
    rel = [float(line.split("rel diff")[1]) for line in out.splitlines() if line.startswith("L1")]
    assert len(rel) == 2 and max(rel) <= 1e-12
    for line in out.splitlines():
        if line.startswith("FT"):
            closed, quad = float(line.split()[5]), float(line.split()[7])
            assert abs(closed - quad) <= 2e-11 * max(1.0, abs(closed)), line  # 12 digits printed


def test_verify_ef_requires_zeros(capsys, monkeypatch):
    monkeypatch.delenv("CRITLINE_ZEROS", raising=False)
    code, _, err = run_cli(capsys, "verify-ef", "--t", "100",
                           "--beta", "0.5", "--delta", "1")
    assert code == 2
    assert "zero table" in err


def test_env_var_zeros_fallback(capsys, monkeypatch):
    monkeypatch.setenv("CRITLINE_ZEROS", str(ZEROS_PATH))
    code, out, _ = run_cli(capsys, "bound", "--t", "500")
    assert code == 0


def test_computation_error_exits_one(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("14.2\n15.0\n")
    code, _, err = run_cli(capsys, "bound", "--t", "100", "--zeros", str(bad))
    assert code == 1
    assert "SuspiciousFirstZero" in err


@pytest.mark.parametrize("args", [
    ["extremal", "--beta", "-1", "--delta", "1"],
    ["bound", "--t", "nan"],
    ["verify-ef", "--t", "100", "--beta", "200", "--delta", "1",
     "--zeros", str(ZEROS_PATH)],  # A and D overflow
    ["verify-ef", "--t", "100", "--beta", "0.5", "--delta", "200",
     "--zeros", str(ZEROS_PATH)],  # the cutoff e^{2 pi Delta} overflows
    ["scan", "--t-min", "inf", "--t-max", "inf", "--points", "2"],
    ["extremal", "--beta", "200", "--delta", "1"],  # A and D overflow
    ["extremal", "--beta", "1e-9", "--delta", "1e-9"],  # 1/D of m^+ near 1e35
    ["extremal", "--beta", "1e-6", "--delta", "1"],  # quadrature ill-conditioned
    ["verify-ef", "--t", "100", "--beta", "0.5", "--delta", "1",
     "--zeros", "{tmp}/not-utf8.txt"],  # a zero table with a byte that is not UTF-8
    ["extremal", "--beta", "1e-300", "--delta", "1e-5"],  # beta^2 underflows
])
def test_bad_input_exits_without_traceback(args, tmp_path):
    (tmp_path / "not-utf8.txt").write_bytes(b"14.134725141735\n21.02203963\xff\n")
    args = [arg.replace("{tmp}", str(tmp_path)) for arg in args]
    # a fresh interpreter, so an uncaught exception shows as a real traceback
    path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "critline.cli", *args],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode in (1, 2), proc.stderr
    assert "Traceback" not in proc.stderr


def test_verify_ef_beyond_the_sieve_cap_names_it_briefly(capsys):
    # Delta = 100 puts the prime cutoff e^{2 pi Delta} near 7.5e272
    code, out, err = run_cli(capsys, "verify-ef", "--t", "100", "--beta", "0.5",
                             "--delta", "100", "--zeros", str(ZEROS_PATH))
    assert code == 1 and not out
    assert "LimitTooLarge" in err and "above cap 100000000" in err
    assert len(err) < 100, err


def _mostly(good, bad):
    """Nine draws in ten from ``good``, a function of a ``random.Random``,
    the rest from the texts ``bad``."""
    return lambda rnd: rnd.choice(bad) if rnd.random() < 0.1 else good(rnd)


def _number(lo, hi):
    """A flag value: a float log-uniform in [lo, hi], or text that is not one of those."""
    return _mostly(lambda rnd: repr(10.0 ** rnd.uniform(math.log10(lo), math.log10(hi))),
                   ["0", "-1", "-1e-05", "nan", "-inf", "1e400", "abc", ""])


#: the cheap subcommands, each flag with the function that draws its value
CHEAP_FLAGS = {
    "special-f": {"--u": _number(1e-6, 2.0)},
    "bound": {"--t": _number(1.0, 2e6), "--x": _number(1.0, 1e5)},
    "extremal": {"--beta": _number(1e-3, 1e3), "--delta": _number(1e-3, 1e3)},
    "scan": {"--t-min": _number(1.0, 2e6), "--t-max": _number(1.0, 2e6),
             "--points": _mostly(lambda rnd: str(rnd.randint(1, 3)), ["-1", "0", "2.5"]),
             "--x-policy": _mostly(lambda rnd: rnd.choice(["logsq", "fixed", "optimal"]),
                                   ["bogus"]),
             "--x": _number(1.0, 1e5)},
    # low heights only, so that a draw stays fast; {tmp} is a fresh directory
    "zeros": {"--height": _number(14.2, 60.0), "--out": lambda rnd: "{tmp}/zeros.txt"},
}


def cheap_argv(rnd):
    """A subcommand and its flags, one flag in ten left out; '=' keeps
    "-1e-05" a value, not a flag."""
    command = rnd.choice(sorted(CHEAP_FLAGS))
    return [command] + [f"{flag}={value(rnd)}" for flag, value in CHEAP_FLAGS[command].items()
                        if rnd.random() >= 0.1]


# one seeded Random per example, not a strategy per flag: hypothesis maps many
# of its choices to one value there (nine in ten to "the flag is present"), so
# most examples repeated a few argument lists
@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.randoms(use_true_random=True))
def test_cli_exit_codes_on_any_arguments(rnd):
    argv = cheap_argv(rnd)
    out, err = io.StringIO(), io.StringIO()
    with (tempfile.TemporaryDirectory() as tmp,
          contextlib.redirect_stdout(out), contextlib.redirect_stderr(err)):
        try:
            code = main([arg.replace("{tmp}", tmp) for arg in argv])
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()


@pytest.mark.parametrize("height, code", [
    ("-1", 2), ("nan", 2), ("abc", 2), ("1e400", 2), ("14", 2), ("2e6", 1), ("59.5", 0)])
def test_zeros_exit_codes(tmp_path, height, code):
    out = tmp_path / "zeros.txt"
    try:
        got = main(["zeros", f"--height={height}", "--out", str(out)])
    except SystemExit as exc:  # argparse's usage errors
        got = exc.code
    assert got == code
    assert out.exists() == (code == 0)


@pytest.fixture
def no_search(monkeypatch):
    """``search_zeros`` replaced by one that fails the test if it is called."""
    def search(height):
        raise AssertionError("searched before the output was opened")
    monkeypatch.setattr(zeros_table, "search_zeros", search)


def test_zeros_out_that_cannot_be_written_exits_one(capsys, tmp_path, no_search):
    code, _, err = run_cli(capsys, "zeros", "--height", "30", "--out", str(tmp_path))
    assert code == 1 and "Is a directory" in err
    assert not (tmp_path.parent / f"{tmp_path.name}.tmp").exists()


def test_zeros_out_in_a_missing_directory_exits_one_before_the_search(capsys, tmp_path,
                                                                      no_search):
    code, _, err = run_cli(capsys, "zeros", "--height", "10050",
                           "--out", str(tmp_path / "missing" / "zeros.txt"))
    assert code == 1 and "No such file or directory" in err
    assert list(tmp_path.iterdir()) == []


def test_out_flag_writes_file(capsys, tmp_path):
    out = tmp_path / "coeffs.txt"
    code, stdout, _ = run_cli(capsys, "coeffs", "--order", "3", "--out", str(out))
    assert code == 0
    assert stdout == ""
    text = out.read_text()
    assert "C_3 = 2*L^3 + 2*L^2" in text


def test_golden_file_matches_cli_body(capsys, tmp_path):
    # the emitted golden file is the coeffs output minus the run header
    from conftest import REPO
    golden = (REPO / "data" / "coeffs_K7.txt").read_text()
    code, stdout, _ = run_cli(capsys, "coeffs", "--order", "7")
    body = "\n".join(line for line in stdout.splitlines()
                     if not line.startswith("#")) + "\n"
    assert code == 0
    assert body == golden


def test_selftest_quick(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "selftest", "--quick",
                           "--zeros", str(ZEROS_PATH),
                           "--artifacts", str(tmp_path / "artifacts"))
    assert code == 0
    assert "ALL PASS" in out
    assert "FAIL" not in out.replace("FAILURES PRESENT", "")


@pytest.fixture
def table_criteria(monkeypatch):
    """Restrict selftest to the criteria that need a zero table."""
    from critline import selfcheck
    monkeypatch.setattr(selfcheck, "CRITERIA",
                        [c for c in selfcheck.CRITERIA if c[0] in (5, 6, 10)])
    monkeypatch.delenv("CRITLINE_ZEROS", raising=False)


def test_selftest_without_table_skips(capsys, tmp_path, table_criteria):
    # with no table configured each reports SKIP, and a skip does not fail the run
    code, out, _ = run_cli(capsys, "selftest", "--artifacts", str(tmp_path))
    assert code == 0
    for n in (5, 6, 10):
        assert f"SKIP  criterion {n:2d}" in out
    assert "FAIL" not in out
    assert "ALL PASS (0/0, 3 skipped)" in out


def test_selftest_unreadable_table_fails(capsys, tmp_path, table_criteria):
    # a configured table that cannot be read is a failure, not a skip
    code, out, _ = run_cli(capsys, "selftest", "--zeros", str(tmp_path / "missing.txt"),
                           "--artifacts", str(tmp_path))
    assert code == 1
    for n in (5, 6, 10):
        assert f"FAIL  criterion {n:2d}" in out
    assert "SKIP" not in out and "FAILURES PRESENT (0/3)" in out
