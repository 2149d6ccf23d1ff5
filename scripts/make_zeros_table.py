#!/usr/bin/env python3
"""Generate a table of positive ordinates of nontrivial zeta zeros up to a target height.

Method: scan the Riemann-Siegel Z function (computed from an Euler-Maclaurin
evaluation of zeta on the critical line, exact to ~1e-12) on a uniform grid,
bracket sign changes, refine each bracket with Brent's method (scipy's
``brentq``), and verify completeness of the list against the zero-counting
formula N(T) = theta(T)/pi + 1 + S(T).  Regions where the running count falls behind
the prediction (close pairs, e.g. the near-degenerate pair at t ~ 7005) are
rescanned on a 20x finer grid until the drift statistic is clean.

A random sample of the resulting ordinates is cross-checked against mpmath
(independent implementation) before the file is written.

Needs the installed package (``pip install -e .``, or ``PYTHONPATH=src``): the
Bernoulli numbers come from ``critline.zeta_oracle``.

Usage: python scripts/make_zeros_table.py --height 10050 --out data/zeros_height1e4.txt
"""

import argparse
import math
import random
import sys
import time

import numpy as np
from scipy.optimize import brentq

from critline.zeta_oracle import _B2J  # B_2, B_4, ..., B_60


def rs_theta(t):
    """Riemann-Siegel theta, asymptotic series (good to ~1e-11 for t >= 10)."""
    return (t / 2 * np.log(t / (2 * np.pi)) - t / 2 - np.pi / 8
            + 1 / (48 * t) + 7 / (5760 * t ** 3) + 31 / (80640 * t ** 5)
            + 127 / (430080 * t ** 7))


def zeta_crit_em(ts, M=None):
    """zeta(1/2 + i t) for an array of t > 0 via Euler-Maclaurin, shared cutoff M."""
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    if M is None:
        M = max(int(math.ceil(2 * ts.max())), 16)
    n = np.arange(1, M)
    ln = np.log(n)
    amp = n ** -0.5
    out = np.empty(len(ts), dtype=complex)
    # iterative phase update within uniform sub-runs is handled by caller for
    # bulk scans; here plain outer-product evaluation in memory-bounded chunks.
    chunk = max(1, int(6e6 / M))
    for i in range(0, len(ts), chunk):
        ph = np.exp(-1j * np.outer(ts[i:i + chunk], ln))
        out[i:i + chunk] = ph @ amp
    s = 0.5 + 1j * ts
    res = out + M ** (1 - s) / (s - 1) + 0.5 * M ** (-s)
    rising = s.copy()
    for j in range(1, 28):
        res = res + _B2J[j - 1] / math.factorial(2 * j) * M ** (1 - s - 2 * j) * rising
        rising = rising * (s + 2 * j - 1) * (s + 2 * j)
        nxt = abs(_B2J[j]) / math.factorial(2 * j + 2) * M ** (-1.5 - 2 * j) * np.abs(rising).max()
        if nxt < 1e-15:
            break
    return res


def Z_scalar(t):
    z = zeta_crit_em(np.array([t]))[0]
    return float((np.exp(1j * rs_theta(t)) * z).real)


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
        rot = np.exp(-1j * step * ln)
        vals = np.empty(len(tb), dtype=complex)
        for k in range(len(tb)):
            vals[k] = phase @ amp
            phase *= rot
        s = 0.5 + 1j * tb
        vals += M ** (1 - s) / (s - 1) + 0.5 * M ** (-s)
        rising = s.copy()
        for j in range(1, 28):
            vals = vals + _B2J[j - 1] / math.factorial(2 * j) * M ** (1 - s - 2 * j) * rising
            rising = rising * (s + 2 * j - 1) * (s + 2 * j)
            nxt = abs(_B2J[j]) / math.factorial(2 * j + 2) * M ** (-1.5 - 2 * j) * np.abs(rising).max()
            if nxt < 1e-15:
                break
        out[i0:i0 + block] = (np.exp(1j * rs_theta(tb)) * vals).real
    return ts, out


def predicted_count(T):
    return rs_theta(T) / math.pi + 1.0


def scan_range(t0, t1, step):
    ts, zs = Z_grid(t0, t1, step)
    idx = np.nonzero(np.sign(zs[:-1]) * np.sign(zs[1:]) < 0)[0]
    return [(ts[i], ts[i + 1], zs[i], zs[i + 1]) for i in idx]


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
        drift = counted - predicted_count(chk)
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
    gammas = []
    for a, b, _, _ in brackets:
        gammas.append(brentq(Z_scalar, a, b, xtol=1e-11))
    gammas = np.array(sorted(gammas))
    print(f"  done, {time.time() - t0:.1f}s", flush=True)

    # sanity: strictly ascending, first zero, final count consistency
    assert np.all(np.diff(gammas) > 0), "ordinates not strictly ascending"
    assert abs(gammas[0] - 14.134725141734693) < 1e-8, gammas[0]
    cnt, pred = len(gammas), predicted_count(t_end)
    print(f"count to {t_end}: {cnt}, predicted {pred:.2f}")
    assert abs(cnt - pred) < 2.5, "count mismatch vs counting formula"

    # independent spot checks with mpmath
    import mpmath
    mpmath.mp.dps = 20
    rng = random.Random(12345)
    n_chk = min(args.mpmath_checks, len(gammas))
    for k in sorted(rng.sample(range(len(gammas)), n_chk)) + [0, 1, len(gammas) - 1]:
        ref = mpmath.zetazero(k + 1).imag
        err = abs(float(ref) - gammas[k])
        assert err < 5e-9, (k, gammas[k], float(ref), err)
    print(f"mpmath cross-check of {args.mpmath_checks + 3} ordinates OK (<5e-9)")
    zmod = np.abs(zeta_crit_em(gammas[rng.sample(range(len(gammas)), min(50, len(gammas)))]))
    print(f"max |zeta(1/2+i g)| over 50 sampled ordinates: {zmod.max():.2e}")
    assert zmod.max() < 1e-8

    with open(args.out, "w") as fh:
        fh.write("# positive ordinates of nontrivial zeros of the Riemann zeta function\n")
        fh.write(f"# height <= {t_end}, {cnt} ordinates, strictly ascending\n")
        fh.write("# generated by scripts/make_zeros_table.py (Euler-Maclaurin zeta,\n")
        fh.write("# Riemann-Siegel Z sign scan + Brent refinement, mpmath spot-checked)\n")
        for g in gammas:
            fh.write(f"{g:.12f}\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
