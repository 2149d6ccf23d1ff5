"""Command-line interface.

Subcommands: coeffs, bound, scan, verify-ef, extremal, special-f, zeros,
selftest.
Every run prints a reproducibility header (version, parsed flags, numeric
constants); no timestamps, so identical invocations give identical bytes.
Exit codes: 0 success, 1 computation error, 2 usage error.
"""

from __future__ import annotations

import argparse
import math
import sys

from . import __version__, optimal_coeffs
from .errors import CritlineError, UsageError
from .zeros_table import FIRST_ZERO, default_zeros_path, load_zeros
from .zeta_oracle import constant_env


def _finite_float(text: str) -> float:
    """argparse type for float flags: nan and +-inf are usage errors."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="critline",
        description="critical-line zeta bound toolkit: exact optimal coefficients, "
                    "extremal Poisson-kernel approximations, explicit-formula checks")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coeffs", help="exact bound coefficients C_k")
    p.add_argument("--order", type=int, default=7, metavar="K")
    p.add_argument("--numeric", action="store_true", help="append numeric values")
    p.add_argument("--extrapolated", action="store_true",
                   help=f"allow K beyond the vetted range {optimal_coeffs.K_MAX_GOLDEN}")
    p.add_argument("--out", default=None)

    p = sub.add_parser("bound", help="bound report at a single (t, x)")
    p.add_argument("--t", type=_finite_float, required=True)
    p.add_argument("--x", type=_finite_float, default=None,
                   help="Dirichlet cutoff (default log^2 t)")
    p.add_argument("--zeros", default=None)
    p.add_argument("--out", default=None)

    p = sub.add_parser("scan", help="margin scan over log-spaced t, CSV output")
    p.add_argument("--t-min", type=_finite_float, required=True)
    p.add_argument("--t-max", type=_finite_float, required=True)
    p.add_argument("--points", type=int, required=True)
    p.add_argument("--x-policy", choices=("logsq", "fixed", "optimal"), default="logsq")
    p.add_argument("--x", type=_finite_float, default=None, help="cutoff for --x-policy fixed")
    p.add_argument("--zeros", default=None)
    p.add_argument("--out", default=None)

    p = sub.add_parser("verify-ef", help="explicit-formula verification at (t, beta, delta)")
    p.add_argument("--t", type=_finite_float, required=True)
    p.add_argument("--beta", type=_finite_float, required=True)
    p.add_argument("--delta", type=_finite_float, required=True)
    p.add_argument("--zeros", default=None)
    p.add_argument("--out", default=None)

    p = sub.add_parser("extremal", help="kernel checks (pointwise, L1, FT) at (beta, delta)")
    p.add_argument("--beta", type=_finite_float, required=True)
    p.add_argument("--delta", type=_finite_float, required=True)
    p.add_argument("--out", default=None)

    p = sub.add_parser("special-f", help="weight function by all three methods")
    p.add_argument("--u", type=_finite_float, required=True)
    p.add_argument("--out", default=None)

    p = sub.add_parser("zeros", help="zero-ordinate table to a height, Turing-certified")
    p.add_argument("--height", type=_finite_float, required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("selftest", help="run the acceptance criteria")
    p.add_argument("--zeros", default=None)
    p.add_argument("--quick", action="store_true", help="skip the slow criteria")
    p.add_argument("--artifacts", default=None,
                   help="directory for criterion 8's scan CSV (default: none written)")
    p.add_argument("--out", default=None)
    return ap


def parse_args(argv) -> argparse.Namespace:
    """Validated invocation (argparse exits with code 2 on unknown flags)."""
    ns = _build_parser().parse_args(argv)
    if ns.command in ("bound", "verify-ef") and ns.t < 10:
        raise UsageError(f"--t must be >= 10 (got {ns.t}): the bound holds for t >= 10")
    if ns.command == "coeffs":
        if ns.order < 1:
            raise UsageError("--order must be >= 1")
        k_max = optimal_coeffs.K_MAX_GOLDEN
        if ns.order > k_max and not ns.extrapolated:
            raise UsageError(f"--order above {k_max} requires --extrapolated "
                             f"(no vetted reference beyond {k_max})")
    if ns.command == "scan" and ns.points < 1:
        raise UsageError("--points must be >= 1")
    if ns.command == "scan" and (ns.x is not None) != (ns.x_policy == "fixed"):
        raise UsageError("--x is the cutoff of --x-policy fixed: give both or neither")
    if ns.command == "zeros" and ns.height <= FIRST_ZERO:
        raise UsageError(f"--height must exceed the first ordinate {FIRST_ZERO:.6f}")
    return ns


def _header(ns) -> list[str]:
    env = constant_env()
    consts = " ".join(f"{k}={v:.17g}" for k, v in sorted(env.items()))
    flags = " ".join(f"{k}={v}" for k, v in sorted(vars(ns).items())
                     if k != "command" and v is not None)
    return [f"# critline {__version__}",
            f"# command: {ns.command} {flags}",
            f"# constants: {consts}"]


def _resolve_zeros(ns, required=False):
    path = getattr(ns, "zeros", None) or default_zeros_path()
    if path is None:
        if required:
            raise UsageError("a zero table is required: pass --zeros or set CRITLINE_ZEROS")
        return None
    return load_zeros(path)


def _emit(lines: list[str], out_path: str | None) -> None:
    text = "\n".join(lines) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_coeffs(ns) -> int:
    result = optimal_coeffs.run_pipeline(ns.order, extrapolated=ns.extrapolated)
    env = constant_env(max_odd=2 * ns.order + 1) if ns.numeric else None
    lines = _header(ns) + optimal_coeffs.format_report(result, constants=env).splitlines()
    _emit(lines, ns.out)
    return 0


def _cmd_bound(ns) -> int:
    from .bound_engine import theorem1_rhs
    zeros = _resolve_zeros(ns)
    x = ns.x if ns.x is not None else math.log(ns.t) ** 2
    r = theorem1_rhs(ns.t, x, zeros=zeros)
    lines = _header(ns) + [
        f"t                  = {r.t:.17g}",
        f"x                  = {r.x:.17g}",
        f"dirichlet_term     = {r.dirichlet_term:.17g}",
        f"archimedean_term   = {r.archimedean_term:.17g}",
        f"rhs_main           = {r.rhs_main:.17g}",
        f"log|zeta(1/2+it)|  = {r.oracle_log_abs_zeta:.17g}",
        f"margin             = {r.margin:.17g}",
        f"error_scale        = {r.error_scale:.17g}"
        + ("  [LowConfidence: error_scale > log t]" if r.low_confidence else ""),
    ]
    _emit(lines, ns.out)
    return 0


def _cmd_scan(ns) -> int:
    from .bound_engine import CSV_HEADER, report_csv_row, scan_margins
    zeros = _resolve_zeros(ns)
    reports = scan_margins(ns.t_min, ns.t_max, ns.points, zeros=zeros,
                           x_policy=ns.x_policy, x_fixed=ns.x)
    lines = _header(ns) + [CSV_HEADER] + [report_csv_row(r) for r in reports]
    _emit(lines, ns.out)
    return 0


def _cmd_verify_ef(ns) -> int:
    from .explicit_formula import verify_gw
    from .extremal_poisson import KernelParams
    from .prime_arith import covering_table
    zeros = _resolve_zeros(ns, required=True)
    p = KernelParams(ns.beta, ns.delta)
    lambdas = covering_table(p.x)  # one sieve serves both signs
    lines = _header(ns)
    all_ok = True
    for sign in "+-":
        b = verify_gw(sign, p, ns.t, zeros, lambdas)
        all_ok &= b.verified
        lines += [
            f"sign {sign}:",
            f"  zero_side        = {b.zero_side:.17g}",
            f"  boundary_term    = {b.boundary_term:.17g}",
            f"  ft_zero_term     = {b.ft_zero_term:.17g}",
            f"  archimedean_term = {b.archimedean_term:.17g}",
            f"  prime_term       = {b.prime_term:.17g}",
            f"  rhs_total        = {b.rhs_total:.17g}",
            f"  residual         = {b.residual:.17g}",
            f"  tail_bound       = {b.tail_bound:.17g}",
            f"  within tail_bound + 1e-3: {'yes' if b.verified else 'NO'}",
        ]
    _emit(lines, ns.out)
    return 0 if all_ok else 1


def _cmd_extremal(ns) -> int:
    from .extremal_poisson import (KernelParams, ft_m, l1_dist, l1_numeric, numeric_ft,
                                   pointwise_ordered)
    p = KernelParams(ns.beta, ns.delta)
    ordered = pointwise_ordered(p)
    lines = _header(ns) + [
        f"pointwise minorant <= kernel <= majorant on 1e4 grid points: "
        f"{'yes' if ordered else 'NO'}"]
    for sign in "+-":
        closed = l1_dist(sign, p)
        quad = l1_numeric(sign, p)
        lines.append(f"L1 {sign}: closed {closed:.12g}  quadrature {quad:.12g}  "
                     f"rel diff {abs(quad - closed) / closed:.2e}")
    for frac in (0.0, 0.5, 1.0, 1.5):
        xi = frac * ns.delta
        for sign in "+-":
            lines.append(f"FT {sign} at xi={xi:g}: closed {ft_m(sign, p, xi):.12g}  "
                         f"quadrature {numeric_ft(sign, p, xi):.12g}")
    _emit(lines, ns.out)
    return 0 if ordered else 1


def _cmd_special_f(ns) -> int:
    from .special_f import FMethod, f_eval, f_pole_bound
    lines = _header(ns)
    for m in FMethod:
        lines.append(f"F({ns.u:g}) via {m.value:<11} = {f_eval(ns.u, m):.17g}")
    if 0 < ns.u < 1:
        lines.append(f"envelope 2u/(1-u^2)      = {f_pole_bound(ns.u):.17g}")
    _emit(lines, ns.out)
    return 0


def _cmd_zeros(ns) -> int:
    from .zeros_table import write_zeros_table
    count, certified = write_zeros_table(ns.height, ns.out)
    _emit(_header(ns) + [
        f"wrote {count} ordinates to {ns.out}",
        f"count certified by Turing's method below t = {certified:.6f}" if certified else
        "counts checked at good Gram points, too low for Turing's method: uncertified"], None)
    return 0


def _cmd_selftest(ns) -> int:
    from .selfcheck import CheckContext, run_all
    path = ns.zeros or default_zeros_path()
    ctx = CheckContext(zeros_path=path, artifacts_dir=ns.artifacts)
    results = run_all(ctx, quick=ns.quick)
    lines = _header(ns) + [r.line() for r in results]
    ran = [r for r in results if not r.skipped]
    ok = all(r.passed for r in ran)
    skipped = len(results) - len(ran)
    lines.append(f"{'ALL PASS' if ok else 'FAILURES PRESENT'} "
                 f"({sum(r.passed for r in ran)}/{len(ran)}"
                 + (f", {skipped} skipped)" if skipped else ")"))
    _emit(lines, ns.out)
    return 0 if ok else 1


_HANDLERS = {
    "coeffs": _cmd_coeffs,
    "bound": _cmd_bound,
    "scan": _cmd_scan,
    "verify-ef": _cmd_verify_ef,
    "extremal": _cmd_extremal,
    "special-f": _cmd_special_f,
    "zeros": _cmd_zeros,
    "selftest": _cmd_selftest,
}


def dispatch(ns: argparse.Namespace) -> int:
    return _HANDLERS[ns.command](ns)


def main(argv=None) -> int:
    try:
        return dispatch(parse_args(argv if argv is not None else sys.argv[1:]))
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except CritlineError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
