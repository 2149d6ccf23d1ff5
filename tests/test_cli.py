import math
import os
import subprocess
import sys

import pytest

from critline.cli import main, parse_args
from critline.errors import UsageError
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


def test_unknown_flag_exits_two():
    with pytest.raises(SystemExit) as exc:
        parse_args(["coeffs", "--bogus"])
    assert exc.value.code == 2


def test_order_cap_needs_flag():
    with pytest.raises(UsageError):
        parse_args(["coeffs", "--order", "9"])
    ns = parse_args(["coeffs", "--order", "9", "--extrapolated"])
    assert ns.extrapolated


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
    ["verify-ef", "--t", "100", "--beta", "0.001", "--delta", "0.01",
     "--zeros", str(ZEROS_PATH)],
    ["scan", "--t-min", "inf", "--t-max", "inf", "--points", "2"],
    ["extremal", "--beta", "0.5", "--delta", "0.05"],  # omega below the tail rule's 0.5
    ["extremal", "--beta", "200", "--delta", "1"],  # A and D overflow
    ["extremal", "--beta", "1e-9", "--delta", "1e-9"],  # D of m^+ is 0
])
def test_bad_input_exits_without_traceback(args):
    # a fresh interpreter, so an uncaught exception shows as a real traceback
    path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "critline.cli", *args],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode in (1, 2), proc.stderr
    assert "Traceback" not in proc.stderr


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
