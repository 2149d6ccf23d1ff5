#!/usr/bin/env python3
"""Generate a table of positive ordinates of nontrivial zeta zeros up to a target height.

Method: scan the Riemann-Siegel Z function on a uniform grid, bracket sign
changes, refine each bracket with Brent's method (scipy's ``brentq``), and
verify completeness of the list against the zero-counting formula
N(T) = theta(T)/pi + 1 + S(T).  Z is zeta(1/2 + i t) rotated by theta: the
head sum runs by phase rotation along the grid; theta and the Euler-Maclaurin
correction terms come from the package's zeta oracle
(``critline.zeta_oracle.theta`` and ``_em_tail``).  Regions where the running
count falls behind the prediction (close pairs, e.g. the near-degenerate pair
at t ~ 7005) are rescanned on a 20x finer grid until the drift statistic is
clean.

A random sample of the resulting ordinates is cross-checked against mpmath
(independent implementation).  The table is then written to a temporary file
next to ``--out``, validated with the package's own checks (``load_zeros``,
``zero_count_check``, ``verify_ordinates``), and only then moved onto ``--out``.

Needs the installed package (``pip install -e .``, or ``PYTHONPATH=src``).

Usage: python scripts/make_zeros_table.py --height 10050 --out data/zeros_height1e4.txt
"""

import argparse
import math
import os
import random
import sys
import time

import numpy as np
from scipy.optimize import brentq

from critline.errors import CritlineError, CrossCheckFailed, WindowExceeded
from critline.zeros_table import (
    load_zeros,
    verify_ordinates,
    zero_count_check,
    zero_count_predicted,
)
from critline.zeta_oracle import _em_tail, theta


def Z_grid(t0, t1, step):
    """Z on a uniform grid over [t0, t1]; exp() only at block starts, phase
    rotation by multiplication inside each block."""
    npts = int(round((t1 - t0) / step)) + 1
    ts = t0 + step * np.arange(npts)
    out = np.empty(npts)
    block = 2048
    for i0 in range(0, npts, block):
        tb = ts[i0:i0 + block]
        M = max(int(math.ceil(2 * tb.max())), 16)
        n = np.arange(1, M)
        ln = np.log(n)
        amp = n ** -0.5
        phase = np.exp(-1j * tb[0] * ln)
        vals = np.empty(len(tb), dtype=complex)
        vals[0] = phase @ amp
        if len(tb) > 1:
            rot = np.exp(-1j * step * ln)
            for k in range(1, len(tb)):
                phase *= rot
                vals[k] = phase @ amp
            s = 0.5 + 1j * tb
        else:
            s = complex(0.5, tb[0])  # the oracle's scalar path: no numpy call per term
        tail = _em_tail(s, M, 1e-12)
        if tail is None:
            raise WindowExceeded(f"Euler-Maclaurin tail does not converge at M = {M}")
        out[i0:i0 + block] = (np.exp(1j * theta(tb)) * (vals + tail[0])).real
    return ts, out


def Z_scalar(t):
    return Z_grid(t, t, 1.0)[1][0]


def scan_range(t0, t1, step):
    ts, zs = Z_grid(t0, t1, step)
    idx = np.nonzero(np.sign(zs[:-1]) * np.sign(zs[1:]) < 0)[0]
    return [(ts[i], ts[i + 1], zs[i], zs[i + 1]) for i in idx]


def refine(a, b, za, zb):
    """Brent root of Z in [a, b]; the scan's values at the ends are reused."""
    known = {a: za, b: zb}
    return brentq(lambda t: known[t] if t in known else Z_scalar(t), a, b, xtol=1e-11)


def mpmath_spot_check(gammas, n_checks):
    """Compare a seeded sample of ordinates, plus the first two and the last,
    with mpmath's zetazero; exit with a message on a mismatch."""
    import mpmath
    mpmath.mp.dps = 20
    rng = random.Random(12345)
    picks = sorted(rng.sample(range(len(gammas)), min(n_checks, len(gammas))))
    for k in picks + [0, 1, len(gammas) - 1]:
        ref = float(mpmath.zetazero(k + 1).imag)
        if not abs(ref - gammas[k]) < 5e-9:
            sys.exit(f"mpmath cross-check failed: ordinate {k + 1} is {gammas[k]!r}, "
                     f"mpmath gives {ref!r}")
    print(f"mpmath cross-check of {len(picks) + 3} ordinates OK (<5e-9)")


def write_validated(gammas, height, out):
    """Write the table next to ``out``, validate that file, then move it onto ``out``."""
    tmp = out + ".tmp"
    try:
        with open(tmp, "w") as fh:
            fh.write("# positive ordinates of nontrivial zeros of the Riemann zeta function\n")
            fh.write(f"# height <= {height}, {len(gammas)} ordinates, strictly ascending\n")
            fh.write("# generated by scripts/make_zeros_table.py (Euler-Maclaurin zeta,\n")
            fh.write("# Riemann-Siegel Z sign scan + Brent refinement, mpmath spot-checked)\n")
            for g in gammas:
                fh.write(f"{g:.12f}\n")
        table = load_zeros(tmp)
        count = zero_count_check(table, table.max_height)
        print(f"count to {table.max_height}: {count.counted}, predicted {count.predicted:.2f}")
        if not count.gap < 2.5:
            raise CrossCheckFailed(f"count gap {count.gap:.2f} vs the counting formula")
        worst = verify_ordinates(table, sample=50, tol=1e-8)
        print(f"max |zeta(1/2+i g)| over 50 sampled ordinates: {worst:.2e}")
    except CritlineError as exc:
        os.remove(tmp)
        sys.exit(f"table fails validation, {out} not written: {exc}")
    os.replace(tmp, out)
    print(f"wrote {out}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--height", type=float, default=10050.0)
    ap.add_argument("--out", default="data/zeros_height1e4.txt")
    ap.add_argument("--step", type=float, default=0.02)
    ap.add_argument("--mpmath-checks", type=int, default=20)
    args = ap.parse_args()

    t_start = 10.0
    t_end = args.height
    t0 = time.time()
    print(f"grid scan [{t_start}, {t_end}] step {args.step} ...", flush=True)
    brackets = scan_range(t_start, t_end, args.step)
    print(f"  {len(brackets)} sign changes, {time.time() - t0:.1f}s", flush=True)

    # completeness: running count vs counting formula; rescan lagging regions
    for sweep in range(4):
        gammas_lo = np.array([b[0] for b in brackets])
        order = np.argsort(gammas_lo)
        gammas_lo = gammas_lo[order]
        brackets = [brackets[i] for i in order]
        # drift at checkpoints every ~2 units
        chk = np.arange(t_start + 2, t_end, 2.0)
        counted = np.searchsorted(gammas_lo, chk)
        drift = counted - zero_count_predicted(chk)
        # smooth over ~10 units
        kern = np.ones(5) / 5
        smooth = np.convolve(drift, kern, mode="same")
        bad = chk[smooth < -0.85]
        if len(bad) == 0:
            print(f"  sweep {sweep}: count drift clean "
                  f"(min smoothed {smooth.min():.2f})", flush=True)
            break
        regions = []
        for T in bad:
            if regions and T - regions[-1][1] < 6:
                regions[-1] = (regions[-1][0], T + 6)
            else:
                regions.append((T - 8, T + 6))
        print(f"  sweep {sweep}: rescanning {len(regions)} region(s) at step {args.step / 20:.4g}: "
              f"{[(round(a, 1), round(b, 1)) for a, b in regions]}", flush=True)
        for (ra, rb) in regions:
            fine = scan_range(max(t_start, ra), min(t_end, rb), args.step / 20)
            keep = [b for b in brackets if not (ra <= b[0] <= rb)]
            brackets = keep + fine
    else:
        print("WARNING: drift not clean after rescans", file=sys.stderr)

    print(f"refining {len(brackets)} roots ...", flush=True)
    t0 = time.time()
    gammas = np.array(sorted(refine(*b) for b in brackets))
    print(f"  done, {time.time() - t0:.1f}s", flush=True)

    mpmath_spot_check(gammas, args.mpmath_checks)
    write_validated(gammas, t_end, args.out)


if __name__ == "__main__":
    main()
