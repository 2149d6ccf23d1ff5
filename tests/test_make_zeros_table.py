"""scripts/make_zeros_table.py, run end to end at a small height."""

import importlib.util
import os
import pathlib
import subprocess
import sys

import mpmath
import numpy as np

import critline
from critline.zeros_table import load_zeros

SRC = pathlib.Path(critline.__file__).resolve().parents[1]


def _script(repo_root):
    return repo_root / "scripts" / "make_zeros_table.py"


def test_script_reproduces_the_tracked_ordinates(tmp_path, repo_root, zeros):
    data = repo_root / "data"
    before = {p.name: p.read_bytes() for p in data.iterdir()}
    out = tmp_path / "zeros.txt"
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(_script(repo_root)), "--height", "200",
         "--mpmath-checks", "2", "--out", str(out)],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    fresh = load_zeros(out).gammas
    tracked = zeros.gammas[zeros.gammas <= 200]
    assert len(fresh) == len(tracked)
    assert np.max(np.abs(fresh - tracked)) <= 1e-10
    # the table is validated in a temporary file that is then moved onto --out
    assert [p.name for p in tmp_path.iterdir()] == ["zeros.txt"]
    assert {p.name: p.read_bytes() for p in data.iterdir()} == before


def test_z_grid_against_mpmath(repo_root):
    spec = importlib.util.spec_from_file_location("make_zeros_table", _script(repo_root))
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    ts, zs = script.Z_grid(100.0, 101.0, 0.05)
    assert len(ts) == 21
    with mpmath.workdps(25):
        for t, z in zip(ts, zs):
            ref = float(mpmath.siegelz(t))
            assert abs(z - ref) <= 1e-9, t
            assert abs(script.Z_scalar(t) - ref) <= 1e-9, t
