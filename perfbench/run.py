"""Benchmark for critline: one workload, one run, one JSON line of results.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The program is imported from ``src/`` of
that checkout, in this process.  With ``--trace 0`` the run reports the
end-to-end metrics; with ``--trace 1`` it reports per-layer metrics from a
traced pass and the tracing overhead against an untraced pass of the same
operations.  Reported times are scaled to a fixed machine speed, measured
by reference work timed around each operation (see reference_seconds).
The last line of standard output is the result object; the
exit code is 0 only when every check of the program's output passed.
See README.md beside this file.
"""

from __future__ import annotations

import os
import sys

sys.dont_write_bytecode = True  # a run leaves nothing in the checkout's source tree
NPROC = len(os.sched_getaffinity(0))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(NPROC)  # must precede the first numpy import

import argparse  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

# the program's own dependencies, imported before any set-up is timed
import numpy  # noqa: E402
import scipy  # noqa: E402
import scipy.integrate  # noqa: E402, F401
import scipy.optimize  # noqa: E402, F401
import scipy.special  # noqa: E402

from tracing import PER_LAYER, Tracer  # noqa: E402
from workloads import ROUNDS, ZEROS_FILE, setup, timed_setup  # noqa: E402

ROOT = Path.cwd()
OUT_DIR = ROOT / ".perfbench-out"
SETUP_REPS = 9

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "peak_rss_mb": "MiB",
}

TRACE_OVERHEAD = "trace.overhead_s"


def per_layer_units() -> dict:
    units = {f"{span}.{field}": ("s" if field == "self_s" else "count")
             for span, fields in PER_LAYER.items() for field in fields}
    units[TRACE_OVERHEAD] = "s"
    return units


def fail(msg: str):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def locate_program():
    src = ROOT / "src"
    if not (src / "critline" / "__init__.py").is_file():
        fail(f"no critline sources under {src}; run from the root of a checkout")
    if not (ROOT / ZEROS_FILE).is_file():
        fail(f"missing zero table {ROOT / ZEROS_FILE}")
    sys.path.insert(0, str(src))


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if not found."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


#: the reference work's time at the speed every reported time is scaled to
REFERENCE_S = 1.5e-3
#: runs of the reference work per timing: at least REFERENCE_REPS, and after
#: a long operation enough to take about REFERENCE_SHARE of its time
REFERENCE_REPS = 5
REFERENCE_SHARE = 0.02
_REF_Z = 0.25 + 1j * numpy.linspace(1.0, 500.0, 10_000)


def reference_work():
    """Fixed work outside critline: a Fraction sum, for the speed of
    pure-Python arithmetic, and log-gamma over a complex array, for the
    speed of vectorised special functions.  Each half takes about 0.75 ms
    on the machine of the README's figures, at its fastest."""
    s = Fraction(0)
    for i in range(1, 150):
        s += Fraction(1, i)
    return s, complex(numpy.sum(scipy.special.loggamma(_REF_Z)))


def time_reference(after_s: float = 0.0) -> float:
    """Median time of the runs of the reference work that follow a piece of
    work of ``after_s`` seconds, with the garbage collector off, so that the
    size of the program's heap does not enter the figure."""
    reps = max(REFERENCE_REPS, round(REFERENCE_SHARE * after_s / REFERENCE_S))
    times = []
    gc.disable()
    try:
        for _ in range(reps):
            t0 = time.perf_counter()
            reference_work()
            times.append(time.perf_counter() - t0)
    finally:
        gc.enable()
    return statistics.median(times)


def reference_seconds(dt: float, ref: float) -> float:
    """``dt`` seconds measured while the reference work took ``ref``
    seconds, scaled to the speed at which it takes REFERENCE_S.

    The machine the README's figures come from is shared, and outside load
    changes its speed by up to 1.7x for spells of seconds to many minutes.
    Raw times follow that load more than the program.  The reference work
    is timed just before and just after each timed piece of work and slows
    with it, so the ratio keeps the program's cost and drops the machine's
    speed of the moment.  The reference work is not critline's code: a
    change to critline moves the scaled time as much as the raw one."""
    return dt * REFERENCE_S / ref


def run_rounds(ops, seconds=None, rounds=None, tracer=None, between=None, first=0):
    """Whole rounds of ``ops`` until ``seconds`` have passed (or exactly
    ``rounds`` of them), calling ``between()`` after each operation, outside
    its timing; it returns whether it did any work.  Traced operations get
    the id ``r<first + round>.<index>``.
    Returns ([[(latency_s, reference_s, output, ok)] per round], wall_s),
    where reference_s is the mean time of the reference work just before and
    just after the operation."""
    done = []
    reported = set()
    start = time.perf_counter()
    before = time_reference()
    while True:
        r = first + len(done)
        rows = []
        for i, (label, _, fn) in enumerate(ops):
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    out = fn()
                else:
                    with tracer.operation(f"r{r}.{i}"):
                        out = fn()
                ok = True
            except Exception:  # an operation that fails is counted, and the loop goes on
                out, ok = None, False
                if label not in reported:
                    reported.add(label)
                    print(f"perfbench: operation {label} failed:\n{traceback.format_exc()}",
                          file=sys.stderr)
            dt = time.perf_counter() - t0
            after = time_reference(dt)
            rows.append((dt, (before + after) / 2, out, ok))
            before = after
            if between is not None and between():
                before = time_reference()  # between() took time; time the reference again
        done.append(rows)
        elapsed = time.perf_counter() - start
        if (rounds is not None and len(done) >= rounds) or \
                (rounds is None and elapsed >= seconds):
            return done, elapsed


def latencies(rounds, scaled=True):
    """Each operation's latency: the median over the run's rounds of its
    repetitions, scaled by reference_seconds (or raw).  A repetition that
    raised counts with its time to the raise; the checks fail the run."""
    return [statistics.median(reference_seconds(dt, ref) if scaled else dt
                              for dt, ref, _, _ in column)
            for column in zip(*rounds)]


def scaled_setup():
    """One timed set-up: (program, scaled seconds, raw seconds)."""
    before = time_reference()
    program, dt = timed_setup(ROOT)
    return program, reference_seconds(dt, (before + time_reference(dt)) / 2), dt


def check_rounds(workload, program, ops, rounds, seed):
    """Full checks on the first round; every later round must repeat it.
    An operation that raised is a failed check: no operation of any
    workload raises at any seed, so a raise is a fault of the program, and
    leaving it out of the figures would pass it off as a speed-up."""
    import checks
    inputs = [inp for _, inp, _ in ops]
    first = [out for _, _, out, _ in rounds[0]]
    bad = checks.CHECKS[workload](program, inputs, first, full=True, seed=seed)
    want = [checks.summary(workload, out) for out in first]
    for r, rows in enumerate(rounds):
        for (label, _, _), (_, _, out, ok), w in zip(ops, rows, want):
            if not ok:
                bad.append(f"round {r}: {label} raised")
            elif r and w is not None and checks.summary(workload, out) != w:
                bad.append(f"round {r}: {label} differs from round 0")
    return bad


def env_record():
    return {"nproc": NPROC, "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas_threads": blas_threads()}


def untraced_run(args, workload):
    program, first, first_raw = scaled_setup()
    setup_times, setup_raw = [first], [first_raw]
    ops = ROUNDS[workload](program, args.seed)
    # the other set-ups are spread over the run, between operations, so that
    # their median does not hang on the load the machine carries in one instant
    interval = args.seconds / SETUP_REPS
    last = [time.perf_counter()]

    def set_up_again():
        _, scaled, raw = scaled_setup()
        setup_times.append(scaled)
        setup_raw.append(raw)
        last[0] = time.perf_counter()

    def between():
        due = len(setup_times) < SETUP_REPS and time.perf_counter() - last[0] >= interval
        if due:
            set_up_again()
        return due

    rounds, wall = run_rounds(ops, seconds=args.seconds, between=between)
    while len(setup_times) < SETUP_REPS:
        set_up_again()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    lat, raw = latencies(rounds), latencies(rounds, scaled=False)
    values = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_ms": statistics.median(lat) * 1e3,
        "peak_rss_mb": peak_rss_mb,
    }
    refs = [ref for rows in rounds for _, ref, _, _ in rows]
    print(f"# {workload}: {len(rounds)} rounds of {len(ops)} operations in {wall:.2f} s; "
          f"reference work median {statistics.median(refs) * 1e3:.3f} ms, times scaled to "
          f"{REFERENCE_S * 1e3:g} ms; unscaled: setup_s {statistics.median(setup_raw):.4f}, "
          f"ops_per_s {len(raw) / sum(raw):.4f}, op_p50_ms {statistics.median(raw) * 1e3:.2f}")
    return program, ops, rounds, values, END_TO_END


def traced_run(args, workload):
    tracer = Tracer()
    program = setup(ROOT, tracer)
    tracer.uninstall()
    ops = ROUNDS[workload](program, args.seed)
    # untraced and traced rounds alternate, so both see the same load on the machine
    plain, traced = [], []
    start = time.perf_counter()
    while not plain or time.perf_counter() - start < args.seconds:
        plain += run_rounds(ops, rounds=1)[0]
        tracer.install()
        try:
            traced += run_rounds(ops, rounds=1, tracer=tracer, first=len(traced))[0]
        finally:
            tracer.uninstall()
    n = len(traced)
    per_round = tracer.layer_totals({f"r{r}.{i}" for r in range(n) for i in range(len(ops))})
    at_setup = tracer.layer_totals({"setup"})
    units = per_layer_units()
    values = {}
    for span, fields in PER_LAYER.items():
        for field in fields:
            values[f"{span}.{field}"] = (at_setup.get(span, {}).get(field, 0.0)
                                         + per_round.get(span, {}).get(field, 0.0) / n)
    values[TRACE_OVERHEAD] = sum(latencies(traced)) - sum(latencies(plain))
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{workload}-seed{args.seed}.jsonl"
    tracer.write_jsonl(path)
    print(f"# {workload}: {n} untraced and {n} traced rounds of {len(ops)} operations; "
          f"per-layer figures are one set-up plus one round; "
          f"{len(tracer.spans)} spans in {path.relative_to(ROOT)}")
    return program, ops, plain + traced, values, units


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(ROUNDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        fail("--seconds must be positive")
    locate_program()
    print("# env " + json.dumps(env_record()))
    run = traced_run if args.trace else untraced_run
    program, ops, rounds, values, units = run(args, args.workload)
    if not Path(program.m.series_algebra.__file__).resolve().is_relative_to(ROOT / "src"):
        fail(f"critline was imported from {program.m.series_algebra.__file__}, not {ROOT / 'src'}")
    attempted = sum(len(rows) for rows in rounds)
    failed = sum(1 for rows in rounds for *_, ok in rows if not ok)
    bad = check_rounds(args.workload, program, ops, rounds, args.seed)
    for msg in bad:
        print(f"perfbench: check failed: {msg}", file=sys.stderr)
    for name, unit in units.items():
        print(f"# {name} = {values[name]:.6g} {unit}")
    print(f"# attempted {attempted}, failed {failed}, checks "
          + ("passed" if not bad else f"FAILED ({len(bad)})"))
    print(json.dumps({"correct": not bad, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": values[name], "unit": unit}
                                  for name, unit in units.items()}}))
    return 0 if not bad else 1


if __name__ == "__main__":
    sys.exit(main())
