"""Closed-loop benchmark of the formbench package, run from a source checkout.

    python3 bench/run.py --workload gram --seed 1 --seconds 30 --trace 0

One process, one thread, one caller: each operation starts after the
previous one has finished and been checked.  The package is imported from
``src/`` next to this directory, never from an installed copy.  With
``--trace 0`` the run times operations for ``--seconds`` and reports the
end-to-end metrics; with ``--trace 1`` it runs a fixed number of operations
untraced and then traced, so counts repeat exactly for a seed, and reports
the per-layer metrics with the tracing overhead.  The last line of standard
output is one JSON object; see README.md in this directory.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import tracing
import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

MODULES = ("scalars", "exterior", "linalg", "dga", "bbf", "models",
           "scenarios", "cli")

SETUP_REPEATS = 5  # set-ups per untraced run; setup_s is their median

# Machine speed drifts: on the shared 2-vCPU, 2.1 GHz VM this benchmark was
# tuned on, the same Python code ran up to 1.75x slower for minutes at a time.
# So every timed interval is scaled by REF_SECONDS over the time of a fixed
# kernel measured just before and just after it.  The kernel uses only the
# standard library, never the package, so a change to the package moves the
# scaled times and a change in machine speed does not.
REF_SECONDS = 0.0025  # the kernel's time on that VM in its fast state
CALIBRATE_EVERY = 0.25  # seconds between kernel timings inside a pass


def _kernel():
    for i in range(1, 500):
        Fraction(i, i + 7) * Fraction(2, 3) + Fraction(7, i)


def kernel_time():
    """Median of three timings of the reference kernel."""
    samples = []
    for _ in range(3):
        start = perf_counter()
        _kernel()
        samples.append(perf_counter() - start)
    return statistics.median(samples)


def scaled(raw, before, after):
    """A wall-clock interval at the kernel speed REF_SECONDS."""
    return raw * REF_SECONDS / ((before + after) / 2)


def import_package():
    """A fresh import of the package from the checkout's src/ directory."""
    for name in [n for n in sys.modules if n.split(".")[0] == "formbench"]:
        del sys.modules[name]
    importlib.invalidate_caches()
    package = importlib.import_module("formbench")
    where = Path(package.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise ImportError(f"formbench was imported from {where}, not from {SRC}")
    return SimpleNamespace(
        **{m: importlib.import_module(f"formbench.{m}") for m in MODULES}
    )


def set_up(workload_class, seed):
    """A fresh import plus the workload's set-up; returns the workload and
    the scaled set-up time."""
    before = kernel_time()
    start = perf_counter()
    pkg = import_package()
    workload = workload_class(pkg, seed)
    raw = perf_counter() - start
    return workload, scaled(raw, before, kernel_time())


def prepare(workload):
    """The workload's untimed preparation; a one-off check that fails there
    is returned as a problem, which makes the run incorrect."""
    try:
        workload.prepare()
    except wl.CheckFailed as exc:
        return [f"prepare (seed {workload.seed}): CheckFailed: {exc}"]
    return []


def measure(workload, seconds=None, n_ops=None, tracer=None):
    """Run operations in a closed loop, for ``n_ops`` operations or until
    ``seconds`` have passed and a group of operations is complete.

    ``durations`` are scaled operation times; ``raw`` the wall-clock ones."""
    raw = []
    before = []  # index of the kernel timing taken last before each operation
    kernel = []
    failures = []
    gc.collect()  # every pass starts without garbage left by set-up
    start = perf_counter()
    kernel.append(kernel_time())
    calibrated = perf_counter()
    i = 0
    while True:
        label, thunk = workload.op(i)
        if tracer is not None:
            tracer.op = i
            tracer.enabled = True
        began = perf_counter()
        try:
            thunk()
        except Exception as exc:  # recorded with its cause, never a bare fail
            failures.append(f"op {i} (seed {label}): {type(exc).__name__}: {exc}")
        raw.append(perf_counter() - began)
        before.append(len(kernel) - 1)
        if tracer is not None:
            tracer.enabled = False
        i += 1
        if perf_counter() - calibrated >= CALIBRATE_EVERY:
            kernel.append(kernel_time())
            calibrated = perf_counter()
        if n_ops is not None:
            if i >= n_ops:
                break
        elif i % workload.group == 0 and perf_counter() - start >= seconds:
            break
    kernel.append(kernel_time())
    durations = [scaled(d, kernel[k], kernel[k + 1]) for d, k in zip(raw, before)]
    return SimpleNamespace(
        durations=durations, raw=raw, failures=failures, kernel=kernel
    )


def tail(durations):
    """(value, percentile): the highest percentile with at least ten samples
    above it; the maximum when there are fewer than eleven samples."""
    ordered = sorted(durations)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def timed_gate():
    """The scenario smoke gate on a fresh, unpatched import."""
    start = perf_counter()
    problems = wl.scenario_gate(import_package())
    return SimpleNamespace(problems=problems, seconds=perf_counter() - start)


def run_untraced(args):
    times = []
    workload = None
    for _ in range(SETUP_REPEATS):
        # free the previous set-up first, so peak_rss_mb covers one set-up
        workload = None
        gc.collect()
        workload, elapsed = set_up(wl.WORKLOADS[args.workload], args.seed)
        times.append(elapsed)
    problems = prepare(workload)
    result = measure(workload, seconds=args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    suite = timed_gate()
    n = len(result.durations)
    failed = len(result.failures)
    tail_value, tail_pct = tail(result.durations)
    op_time = sum(result.durations)
    metrics = {
        "ops_per_s": ((n - failed) / op_time, "1/s"),
        "op_p50_s": (statistics.median(result.durations), "s"),
        "op_tail_s": (tail_value, "s"),
        "setup_s": (statistics.median(times), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    notes = {
        "ops_per_s": f"{n - failed} verified ops in {op_time:.3f} s scaled, "
                     f"{sum(result.raw):.3f} s wall",
        "op_p50_s": f"wall {statistics.median(result.raw):.6g} s",
        "op_tail_s": f"p{tail_pct:.1f} of {n} ops",
        "setup_s": f"median of {len(times)} set-ups",
    }
    extra = [
        ("fail_ratio", failed / n, "1", f"{failed} of {n} ops"),
        ("kernel_s", statistics.median(result.kernel), "s",
         f"reference kernel, median of {len(result.kernel)}; scale {REF_SECONDS} s"),
        ("scenarios.suite_s", suite.seconds, "s", "smoke gate, wall, untimed"),
    ]
    return metrics, notes, extra, n, result.failures, problems + suite.problems


def run_traced(args):
    workload, _ = set_up(wl.WORKLOADS[args.workload], args.seed)
    problems = prepare(workload)
    base = measure(workload, n_ops=workload.trace_ops)
    suite = timed_gate()

    tracer = tracing.Tracer()
    pkg = import_package()
    tracer.install(pkg)
    tracer.op = "setup"
    tracer.enabled = True
    traced_workload = wl.WORKLOADS[args.workload](pkg, args.seed)
    tracer.enabled = False
    problems += prepare(traced_workload)
    traced = measure(traced_workload, n_ops=workload.trace_ops, tracer=tracer)

    seconds, exact, ratios = tracing.layer_metrics(tracer)
    metrics = {name: (value, "s") for name, value in seconds.items()}
    metrics.update({name: (value, "count") for name, value in exact.items()})
    metrics.update({name: (value, "ratio") for name, value in ratios.items()})
    metrics["scenarios.suite_s"] = (suite.seconds, "s")
    base_time, traced_time = sum(base.durations), sum(traced.durations)
    metrics["trace.ops_per_s_ratio"] = (base_time / traced_time, "ratio")
    n = len(base.durations)
    notes = {
        "trace.ops_per_s_ratio":
            f"traced {n / traced_time:.4f} ops/s over untraced {n / base_time:.4f} ops/s",
    }
    table = tracer.span_table()
    extra = [
        (f"span {name}", row[2], "s", f"self; {row[0]} calls, {row[1]:.4f} s inclusive")
        for name, row in sorted(table.items())
    ]
    failures = base.failures + traced.failures
    return metrics, notes, extra, 2 * n, failures, problems + suite.problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (SRC / "formbench" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        import_package()
    except ImportError as exc:
        print(f"error: cannot import formbench: {exc}", file=sys.stderr)
        return 2

    report = run_traced(args) if args.trace else run_untraced(args)
    metrics, notes, extra, attempted, failures, problems = report

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, (value, unit) in metrics.items():
        note = notes.get(name, "")
        print(f"  {name:32} {value:14.6g} {unit:6} {note}")
    for name, value, unit, note in extra:
        print(f"  {name:32} {value:14.6g} {unit:6} {note}")
    for line in failures + problems:
        print(f"  failed {line}")
    print(json.dumps({
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
