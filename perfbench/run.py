#!/usr/bin/env python3
"""Benchmark of the foursub package in ``src/`` of this checkout.

    python3 perfbench/run.py --workload census_f2 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

One workload runs in one process, single-threaded (census ``workers=1``).
The set-up (fresh import of foursub, inputs made from the seed, fixture
files, one warm-up operation that is not among the measured ones) is done
SETUP_REPEATS times and ``setup_s`` is its median.  The measurement then
repeats whole passes over the operations while another pass still fits in
``--seconds``, at least one; every pass after the first starts with a
fresh, untimed set-up, so no pass runs on caches an earlier pass filled.
Every answer is checked; a failing operation is counted, it does not stop
the run.

The end-to-end times are reference seconds, wall time corrected for the
machine's momentary speed by a calibration loop that runs alongside
(speed.py); the wall-clock throughput is printed as a note.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` sets up and runs one pass
with the public foursub functions wrapped (see layers.py), then sets up
again and runs the same pass unwrapped, and prints the per-layer metrics;
``trace.overhead_s`` is the traced minus the untraced wall time.  The last line of stdout is one JSON object; a copy of
it with the environment goes to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np

import workloads
from layers import PER_LAYER, TARGETS, per_layer_metrics
from speed import REFERENCE_S, SpeedClock
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORK = HERE / "work"

END_TO_END = (
    ("setup_s", "s"),
    ("objects_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)
SETUP_REPEATS = 5
# Every set-up imports foursub afresh.  Its dependencies are imported once,
# before the first set-up, and are not part of setup_s: numpy is a C
# extension, and every fresh import of sympy stays in memory for good
# (about 30 MB each), which would bury peak_rss_mb under copies of sympy.
PRELOADED = ("numpy", "sympy")
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0)
MIN_BEYOND_TAIL = 10


class Measured(NamedTuple):
    elapsed: float
    latencies: list
    objects: int
    failures: list  # (op, Failure)
    spans: list  # (start, end) perf_counter of every operation


def set_up(workload, seed: int, workdir: Path):
    """Fresh import of foursub, inputs, fixtures and warm-up; returns ops
    and the (start, end) intervals of the set-up that count towards
    setup_s.  Dropping the previous modules and fixture files is not
    timed, nor is any interval the workload lists in ``untimed``.  The
    fixtures are written to an empty directory each time, because
    overwriting files costs more than creating them."""
    for module in PRELOADED:
        importlib.import_module(module)
    for name in [n for n in sys.modules if n.split(".")[0] == "foursub"]:
        del sys.modules[name]
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    workload.untimed = []
    gc.collect()
    started = time.perf_counter()
    importlib.import_module("foursub")
    ops = workload.setup(seed, workdir)
    workload.warmup()
    cuts = [started] + [t for span in workload.untimed for t in span] + [time.perf_counter()]
    return ops, list(zip(cuts[0::2], cuts[1::2]))


def attempt(workload, op, tracer=None):
    """Run one operation; an exception is a failed operation, not a crash."""
    try:
        if tracer is None:
            return workload.run(op)
        with tracer.span("op"):
            return workload.run(op)
    except Exception as exc:  # the run must go on and count it
        return workloads.Failure(f"raised {type(exc).__name__}: {exc}")


def measure(workload, ops, tracer=None) -> Measured:
    """One pass over ops."""
    spans, failures = [], []
    objects = 0
    clock = time.perf_counter
    started = clock()
    for op in ops:
        t0 = clock()
        failure = attempt(workload, op, tracer)
        spans.append((t0, clock()))
        objects += op.objects
        if failure is not None:
            failures.append((op, failure))
    latencies = [t1 - t0 for t0, t1 in spans]
    return Measured(clock() - started, latencies, objects, failures, spans)


def tail_percentile(ops_per_pass: int) -> float:
    """Highest ladder percentile with at least MIN_BEYOND_TAIL samples of one
    pass beyond it (100, the maximum, when a pass is too short).  It depends
    on the pass size only, so it stays put when a faster program fits more
    passes into a run."""
    for q in TAIL_LADDER:
        if ops_per_pass * (100.0 - q) / 100.0 >= MIN_BEYOND_TAIL:
            return q
    return 100.0


def hd_percentile(values, q: float) -> float:
    """Harrell-Davis estimate of the q-th percentile: a weighted mean of the
    sorted values, the weight of the i-th of n being the probability that
    a Beta(q'(n+1), (1-q')(n+1)) variable (q' = q/100) falls in
    ((i-1)/n, i/n].  Unlike the interpolation between the two nearest
    values, it does not jump when two operations near the percentile swap
    places; on classify_q, whose p95 sits where the few objects that take
    0.3-1 s give way to the rest, the interpolated p95 moved by 0.16
    (quartile distance over median) between runs.  q = 100 is the
    maximum."""
    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    if q >= 100.0 or n == 1:
        return float(x[-1])
    a, b = q / 100.0 * (n + 1), (1.0 - q / 100.0) * (n + 1)
    # Beta density on a grid of 64 steps per 1/n, integrated by trapezoids.
    t = np.linspace(0.0, 1.0, 64 * n + 1)[1:-1]
    log_pdf = (a - 1.0) * np.log(t) + (b - 1.0) * np.log1p(-t)
    pdf = np.concatenate(([0.0], np.exp(log_pdf - log_pdf.max()), [0.0]))
    cdf = np.concatenate(([0.0], np.cumsum((pdf[1:] + pdf[:-1]) / 2.0)))
    weights = np.diff(cdf[::64])
    return float(weights @ x / weights.sum())


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if not text.startswith("ref: "):
            return text
        ref = text[5:]
        loose = ROOT / ".git" / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(seed: int) -> dict:
    sympy = sys.modules.get("sympy")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "sympy": getattr(sympy, "__version__", "not imported"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "seed": seed,
        "commit": git_commit(),
    }


def failure_counts(measured: Measured) -> tuple:
    known = sum(1 for _, f in measured.failures if f.known)
    return len(measured.latencies), len(measured.failures), known


def end_to_end(workload, seed: int, seconds: int, workdir: Path):
    """Every time is in reference seconds (speed.py); the number of passes
    is set by wall time."""
    with SpeedClock() as clock:
        setups = []
        for _ in range(SETUP_REPEATS):
            ops, intervals = set_up(workload, seed, workdir)
            setups.append(intervals)
        passes = []
        while True:
            passes.append(measure(workload, ops))
            wall_s = sum(p.elapsed for p in passes)
            if wall_s * (len(passes) + 1) / len(passes) > seconds:
                break
            # Every pass starts from a fresh import of foursub, so caches filled
            # by the previous pass do not speed it up.
            ops = None
            ops, _ = set_up(workload, seed, workdir)
    spans = [span for p in passes for span in p.spans]
    latencies = [clock.reference(a, b) for a, b in spans]
    measured = Measured(
        sum(latencies),
        latencies,
        sum(p.objects for p in passes),
        [f for p in passes for f in p.failures],
        spans,
    )
    setup_s = [sum(clock.reference(a, b) for a, b in intervals) for intervals in setups]
    q = tail_percentile(len(ops))
    lat_ms = np.array(measured.latencies) * 1000.0
    values = {
        "setup_s": statistics.median(setup_s),
        "objects_per_s": measured.objects / measured.elapsed,
        "op_p50_ms": hd_percentile(lat_ms, 50),
        "op_tail_ms": hd_percentile(lat_ms, q),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    median_speed, low, high = clock.speed()
    attempted, failed, known = failure_counts(measured)
    notes = [
        f"fail_frac = {failed / attempted:.6g} ratio ({failed} of {attempted} operations, {known} known)",
        f"op_tail_ms is p{q:g} of {attempted} samples; {len(passes)} pass(es) of {len(ops)} operations "
        f"in {measured.elapsed:.3f} reference s, {wall_s:.3f} wall s",
        f"wall-clock objects_per_s = {measured.objects / wall_s:.6g} 1/s",
        f"setup_s is the median of {', '.join(f'{s:.4f}' for s in setup_s)} reference s",
        f"machine speed {median_speed:.3f} (lowest {low:.3f}, highest {high:.3f}; "
        f"{len(clock.samples)} samples; 1 = reference_work in {REFERENCE_S * 1000:g} ms)",
    ]
    metrics = {name: (values[name], unit) for name, unit in END_TO_END}
    return measured, metrics, notes


def traced(workload, seed: int, workdir: Path):
    rewrite = getattr(workload, "rewrite", None)

    def one_pass(tracer=None):
        ops, _ = set_up(workload, seed, workdir)
        with tracer if tracer is not None else contextlib.nullcontext():
            started = time.perf_counter()
            if rewrite is not None:
                rewrite(ops)
            measured = measure(workload, ops, tracer)
            took = time.perf_counter() - started
        return measured, took

    tracer = Tracer("foursub", TARGETS)
    measured, traced_s = one_pass(tracer)
    _, plain_s = one_pass()
    spans = tracer.spans()
    RESULTS.mkdir(exist_ok=True)
    spans.save(RESULTS / f"{workload.name}.spans.npz")
    values = per_layer_metrics(spans, traced_s - plain_s)
    metrics = {name: (values[name], unit) for name, unit, _ in PER_LAYER}
    notes = [
        f"traced pass {traced_s:.3f} s, untraced pass {plain_s:.3f} s, {len(spans.kind)} spans",
    ]
    return measured, metrics, notes


def run_one(args) -> int:
    if not (SRC / "foursub" / "__init__.py").is_file():
        print("error: src/foursub not found next to perfbench/; run from a foursub checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = workloads.make(args.workload)
    WORK.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        if args.trace:
            measured, metrics, notes = traced(workload, args.seed, workdir)
        else:
            measured, metrics, notes = end_to_end(workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    imported = Path(sys.modules["foursub"].__file__).resolve()
    if SRC.resolve() not in imported.parents:
        print(f"error: imported foursub from {imported}, not from src/", file=sys.stderr)
        return 2

    attempted, failed, known = failure_counts(measured)
    result = {
        "correct": failed == known,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    env = environment(args.seed)
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, (value, unit) in metrics.items():
        shown = value if isinstance(value, int) else f"{value:.6g}"
        print(f"{args.workload}: {name} = {shown} {unit}")
    for note in notes:
        print(f"{args.workload}: {note}")
    for op, failure in measured.failures[:10]:
        print(f"{args.workload}: {'known failure' if failure.known else 'FAILURE'}: {failure.message}",
              file=sys.stderr)
    RESULTS.mkdir(exist_ok=True)
    record = dict(result, workload=args.workload, trace=args.trace, seconds=args.seconds,
                  environment=env, notes=notes,
                  failures=[f.message for _, f in measured.failures])
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    results, status = {}, 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            status = proc.returncode or 1
            continue
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
