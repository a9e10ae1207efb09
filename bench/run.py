#!/usr/bin/env python3
"""Benchmark for bergnorm: one seeded workload per run.

    python3 bench/run.py --workload nystrom-1024 --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --seed 1 --seconds 20      # every workload in turn
    python3 bench/run.py --self-check [--workload W] [--seed N]

Run it from the repository root; it imports the program from ``src/``.
Workloads (closed loop, one op at a time) are described in ``workloads.py``
and metrics, with the layer each should move, in ``README.md``.

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` runs the same
op sequence twice in fresh worker processes, untraced and then traced,
and reports the per-layer metrics and the tracing overhead.  ``--seconds``
fixes the op count through the seed-commit op cost, so a run measures
about that long at the seed commit.  Times are scaled to a reference
machine speed by ``calibrate.py``; the raw seconds are printed too, on
the line before the result as JSON.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Each run also writes its inputs,
per-op results and (traced) spans to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()

# One BLAS thread: ops run one at a time, and a single thread is less
# exposed to other load on a small shared machine.  Set before numpy loads
# here and inherited by every worker.
BLAS_THREADS = "1"
os.environ["OPENBLAS_NUM_THREADS"] = BLAS_THREADS
os.environ["OMP_NUM_THREADS"] = BLAS_THREADS

from calibrate import (REFERENCE_IMPORT_S, kernel_window,  # noqa: E402
                       scale_latencies)
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, check_op, make_ops, op_count  # noqa: E402

DEADLINE_S = 170.0
# Each repeat is one program import and one reference import, two fresh
# interpreters and ~0.7 s together.
SETUP_REPEATS = 7
PROCESS_SPAN = "bench.process"
# op_tail_s is reported from this many ops on: its percentile is then at
# least p75, where the p = 2 (svd) ops of nystrom-1024 fall.
TAIL_MIN_OPS = 40

# (name, unit, better), in the result of every untraced run.  Two more are
# printed only: fail_ratio is 0 at the seed commit (the result's attempted
# and failed fields carry it) and op_tail_s needs TAIL_MIN_OPS ops, more
# than a cli-suites run can hold in its time limit.
END_TO_END = (("setup_s", "s", "lower"), ("wall_s", "s", "lower"),
              ("op_p50_s", "s", "lower"), ("worst_digits", "digits", "higher"),
              ("peak_rss_mb", "MiB", "lower"))

_GRID = "specfun.hyp2f1_grid"
_JACOBI = "quadrature.make_jacobi_rule"
_NORMEST = ("bilinear_form_numeric", "lp_opnorm_numeric", "l2_opnorm_svd",
            "norm_report", "schur_profile", "l1_profile")

# (name, unit, better); the prediction map is in README.md.
PER_LAYER = (
    (f"{_GRID}.calls", "count", "lower"),
    (f"{_GRID}.entries", "count", "lower"),
    (f"{_GRID}.entries_low", "count", "lower"),
    (f"{_GRID}.entries_mid", "count", "lower"),
    (f"{_GRID}.entries_near", "count", "lower"),
    (f"{_GRID}.self_s", "s", "lower"),
    (f"{_GRID}.entries_per_s", "1/s", "higher"),
    ("specfun.hyp2f1.calls", "count", "lower"),
    ("specfun.hyp2f1.self_s", "s", "lower"),
    (f"{_JACOBI}.calls", "count", "lower"),
    (f"{_JACOBI}.misses", "count", "lower"),
    (f"{_JACOBI}.hit_ratio", "ratio", "higher"),
    (f"{_JACOBI}.self_s", "s", "lower"),
    (f"{_JACOBI}.miss_order_max", "points", "lower"),
    ("intop.discretize.calls", "count", "lower"),
    ("intop.discretize.entries", "count", "lower"),
    ("intop.discretize.self_s", "s", "lower"),
    ("intop.apply.calls", "count", "lower"),
    ("intop.apply.self_s", "s", "lower"),
    *((f"normest.{fn}.{kind}", unit, "lower")
      for fn in _NORMEST for kind, unit in (("calls", "count"), ("self_s", "s"))),
    ("ball.disc.self_s", "s", "lower"),
    ("ball.radial.self_s", "s", "lower"),
    ("cli.run_suite.self_s", "s", "lower"),
    ("cli.emit_table.self_s", "s", "lower"),
    ("cli.records", "count", "higher"),
    ("cli.records_not_pass", "count", "lower"),
    ("trace.untraced_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


@dataclass
class Pass:
    """One run of an op sequence: what the reference checks and metrics need.

    ``windows`` holds the calibration kernel times taken before the first op
    and after each op."""

    tracer: Tracer | None = None
    latencies: list[float] = field(default_factory=list)
    outputs: list[dict] = field(default_factory=list)
    windows: list[list[float]] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    bound: dict = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return sum(self.latencies)

    def collect(self, summary: dict, parent: int | None) -> None:
        """Take in a worker's closing line; its spans go under ``parent``."""
        self.peak_rss_mb = max(self.peak_rss_mb, summary["maxrss_kb"] / 1024.0)
        if self.tracer is None:
            return
        if parent is None:
            self.tracer.spans.extend(summary["spans"])
        else:
            self.tracer.adopt(summary["spans"], parent)
        self.tracer.add_counts(summary["counts"], summary["miss_orders"])
        self.bound = summary["bound"]


def _spawn(args: list[str], deadline: float) -> dict:
    """Run one worker to completion and return the JSON it printed."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"out of time before starting worker {args}")
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                              capture_output=True, text=True, timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args} did not finish within {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {args} exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


class Worker:
    """A worker process fed one op at a time (``worker.py ops``).  It is
    killed if it outlives the run's deadline, and always waited for."""

    def __init__(self, workload: str, trace: bool, deadline: float):
        timeout = deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError(f"out of time before starting a {workload} worker")
        OUT_DIR.mkdir(exist_ok=True)
        self._stderr_path = OUT_DIR / "worker.stderr"
        self._stderr = open(self._stderr_path, "w", encoding="utf-8")
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), "ops", workload, str(int(trace))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self._stderr,
            text=True, cwd=ROOT)
        self._timer = threading.Timer(timeout, self.proc.kill)
        self._timer.start()

    def __enter__(self) -> "Worker":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def run(self, index: int, op: dict) -> dict:
        try:
            self.proc.stdin.write(json.dumps({"index": index, "op": op}) + "\n")
            self.proc.stdin.flush()
        except BrokenPipeError:
            pass  # the worker has died; _read reports why
        return self._read()

    def finish(self) -> dict:
        """End the input and return the worker's closing line."""
        self.proc.stdin.close()
        summary = self._read()
        if self.proc.wait() != 0:
            raise BenchError(f"worker exited with {self.proc.returncode}")
        return summary

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            self.close()
            err = self._stderr_path.read_text(encoding="utf-8")[-4000:]
            raise BenchError(f"worker stopped (exit {self.proc.returncode}):\n{err}")
        return json.loads(line)

    def close(self) -> None:
        self._timer.cancel()
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout, self._stderr):
            if stream and not stream.closed:
                stream.close()


def measure_setup(workload: str, deadline: float) -> tuple[float, float]:
    """Median import time of the program at reference speed, and raw.

    Each import sits between two imports of numpy and scipy.linalg alone in
    fresh interpreters and is scaled by their mean (see ``calibrate.py``).
    One warm-up first leaves compiled bytecode behind, as an installed
    package would."""

    def spawn(*args: str) -> float:
        return _spawn(list(args), deadline)["import_s"]

    spawn("setup", workload)
    before = spawn("reference")
    imports, scaled = [], []
    for _ in range(SETUP_REPEATS):
        import_s, after = spawn("setup", workload), spawn("reference")
        imports.append(import_s)
        scaled.append(import_s * REFERENCE_IMPORT_S * 2.0 / (before + after))
        before = after
    return statistics.median(scaled), statistics.median(imports)


def run_pass(workload: str, ops: list[dict], trace: bool, deadline: float) -> Pass:
    """Run the ops one at a time, with a calibration window in this process
    before the first op and after each one."""
    run = Pass(tracer=Tracer() if trace else None)
    run.windows.append(kernel_window())
    if workload != "cli-suites":
        with Worker(workload, trace, deadline) as worker:
            for k, op in enumerate(ops):
                reply = worker.run(k, op)
                run.latencies.append(reply["latency"])
                run.outputs.append(reply["output"])
                run.windows.append(kernel_window())
            run.collect(worker.finish(), None)
        return run
    # every cli op is a fresh process, so it starts with caches as cold as a
    # user's command; its latency is the whole process, as the user sees it
    for k, op in enumerate(ops):
        span = None
        if run.tracer:
            run.tracer.op = k
            span = run.tracer.open(PROCESS_SPAN)
        start = time.perf_counter()
        with Worker(workload, trace, deadline) as worker:
            output = worker.run(k, op)["output"]
            summary = worker.finish()
        run.latencies.append(time.perf_counter() - start)
        if span is not None:
            run.tracer.close(span)
        run.collect(summary, span)
        run.outputs.append(output)
        run.windows.append(kernel_window())
    return run


def check_pass(workload: str, ops: list[dict], run: Pass) -> tuple[int, list[float]]:
    """Reference-check every op; returns (failed ops, digits of every op
    that produced a value)."""
    failed, digits = 0, []
    for k, (op, out) in enumerate(zip(ops, run.outputs)):
        ok, d, reason = check_op(workload, op, out)
        if d is not None:
            digits.append(d)
        if not ok:
            failed += 1
            print(f"  op {k} failed its reference check: {reason}")
    return failed, digits


def tail(latencies: list[float]) -> tuple[float, float] | None:
    """Latency at the highest percentile with at least 10 ops beyond it, and
    that percentile; None below TAIL_MIN_OPS ops."""
    if len(latencies) < TAIL_MIN_OPS:
        return None
    rank = len(latencies) - 10
    return sorted(latencies)[rank - 1], 100.0 * rank / len(latencies)


def check_trace(run: Pass) -> str:
    """Check that every span lies inside its parent and that children never
    overlap (no negative self time); describe where the traced time went.

    Self times of all spans add up to the durations of the root spans, which
    wrap the op latencies, so that sum matches the traced wall_s by
    construction.  The roots' own self time is the part of it that no traced
    function covers: process start, imports and untraced program code."""
    tracer = run.tracer
    for name, start, end, parent, _ in tracer.spans:
        outer = tracer.spans[parent] if parent >= 0 else None
        if end < start or (outer and (start < outer[1] or end > outer[2])):
            raise BenchError(f"span {name} [{start}, {end}] does not nest in its parent "
                             f"{outer[0] if outer else None}")
    selfs = tracer.self_times()
    if min(selfs, default=0.0) < -1e-9:
        raise BenchError(f"negative self time {min(selfs)!r}: overlapping child spans")
    untraced = sum(s for row, s in zip(tracer.spans, selfs) if row[0].startswith("bench."))
    return (f"spans nest; self times: traced functions {sum(selfs) - untraced:.4f} s "
            f"+ untraced code {untraced:.4f} s = {sum(selfs):.4f} s "
            f"(traced wall_s {run.wall_s:.4f} s)")


def layer_metrics(run: Pass, overhead: float) -> dict[str, float]:
    tracer = run.tracer
    self_s: defaultdict[str, float] = defaultdict(float)
    for row, s in zip(tracer.spans, tracer.self_times()):
        self_s[row[0]] += s
    counts = defaultdict(int, tracer.counts)
    values: dict[str, float] = {}
    for name, _, _ in PER_LAYER:
        layer, _, kind = name.rpartition(".")
        values[name] = self_s[layer] if kind == "self_s" else counts[name]
    calls, misses = counts[f"{_JACOBI}.calls"], counts[f"{_JACOBI}.misses"]
    values[f"{_JACOBI}.hit_ratio"] = (calls - misses) / calls if calls else 0.0
    values[f"{_JACOBI}.miss_order_max"] = max(tracer.miss_orders, default=0)
    grid_s = self_s[_GRID]
    values[f"{_GRID}.entries_per_s"] = counts[f"{_GRID}.entries"] / grid_s if grid_s else 0.0
    values["trace.untraced_s"] = sum(s for name, s in self_s.items() if name.startswith("bench."))
    values["trace.overhead_s"] = overhead
    return values


def machine() -> dict:
    import mpmath
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's own OpenBLAS)

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": NPROC, "cpu_model": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "mpmath": mpmath.__version__, "blas_threads_requested": int(BLAS_THREADS),
            "openblas": _openblas_libraries()}


def _openblas_libraries() -> list[dict]:
    """Version and thread count of every OpenBLAS loaded in this process."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line})
    except OSError:
        return []
    symbols = [(f"{prefix}get_config{suffix}", f"{prefix}get_num_threads{suffix}")
               for prefix in ("scipy_openblas_", "openblas_") for suffix in ("64_", "")]
    found = []
    for path in paths:
        lib = ctypes.CDLL(path)
        for config_name, threads_name in symbols:
            if hasattr(lib, config_name) and hasattr(lib, threads_name):
                config, threads = getattr(lib, config_name), getattr(lib, threads_name)
                config.restype, threads.restype = ctypes.c_char_p, ctypes.c_int
                found.append({"library": Path(path).name,
                              "config": config().decode().strip(),
                              "threads": threads()})
                break
    return found


def _show(name: str, value: float, unit: str, note: str = "") -> None:
    print(f"  {name:<44} {value!r:>24} {unit}{note}")


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    info = machine()
    print("machine: " + json.dumps(info))
    record = {"machine": info, "workload": workload, "seed": seed, "seconds": seconds,
              "trace": int(trace)}
    if not trace:
        ops = make_ops(workload, seed, op_count(workload, seconds))
        setup, setup_raw = measure_setup(workload, deadline)
        run = run_pass(workload, ops, False, deadline)
        failed, digits = check_pass(workload, ops, run)
        scaled = scale_latencies(run.latencies, run.windows)
        metrics = {"setup_s": setup, "wall_s": sum(scaled),
                   "op_p50_s": statistics.median(scaled),
                   "worst_digits": min(digits, default=0.0),
                   "peak_rss_mb": run.peak_rss_mb}
        raw = {"setup_s": setup_raw, "wall_s": run.wall_s,
               "op_p50_s": statistics.median(run.latencies)}
        kernel = statistics.median(t for window in run.windows for t in window)
        print(f"{workload} seed {seed}: {len(ops)} ops, tracing off; times at reference "
              f"speed (calibrate.py), median kernel time here {kernel * 1e3:.2f} ms")
        for name, unit, _ in END_TO_END:
            note = f"   raw {raw[name]:.6g} s" if name in raw else ""
            _show(name, metrics[name], unit, note)
        tail_at = tail(scaled)
        if tail_at is None:
            print(f"  {'op_tail_s':<44} {'-':>24} s   (needs {TAIL_MIN_OPS} ops, "
                  f"this run has {len(ops)})")
        else:
            _show("op_tail_s", tail_at[0], "s", f"   (p{tail_at[1]:.1f} of {len(ops)} ops)")
        _show("fail_ratio", failed / len(ops), "ratio", f"   ({failed} of {len(ops)} ops failed)")
        print(json.dumps({"raw": raw, "kernel_s": kernel}))
        record.update(ops=ops, latencies=run.latencies, windows=run.windows,
                      digits=digits, raw=raw)
        attempted = len(ops)
    else:
        ops = make_ops(workload, seed, op_count(workload, seconds / 2.0))
        plain = run_pass(workload, ops, False, deadline)
        traced = run_pass(workload, ops, True, deadline)
        if json.dumps(plain.outputs) != json.dumps(traced.outputs):
            raise BenchError("tracing changed the program's outputs")
        overhead = traced.wall_s - plain.wall_s
        coverage = check_trace(traced)
        failed = check_pass(workload, ops, plain)[0] + check_pass(workload, ops, traced)[0]
        metrics = layer_metrics(traced, overhead)
        print(f"{workload} seed {seed}: {len(ops)} ops untraced, then traced; "
              f"outputs identical")
        print(f"  rebound module bindings: {json.dumps(traced.bound)}")
        print(f"  {coverage}")
        for name, unit, _ in PER_LAYER:
            _show(name, metrics[name], unit)
        record.update(ops=ops, latencies=[plain.latencies, traced.latencies],
                      spans=traced.tracer.spans)
        attempted = 2 * len(ops)
    units = {n: u for n, u, _ in (PER_LAYER if trace else END_TO_END)}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in units.items()}}
    record["result"] = result
    OUT_DIR.mkdir(exist_ok=True)
    out_file = OUT_DIR / f"{workload}-seed{seed}-trace{int(trace)}.json"
    out_file.write_text(json.dumps(record) + "\n", encoding="utf-8")
    print(f"  details: {out_file.relative_to(ROOT)}")
    return result


def self_check(workloads: list[str], seed: int) -> bool:
    """Same seed, same inputs and outputs; another seed, other inputs.
    (Every traced run checks that tracing leaves the outputs unchanged.)"""
    deadline = time.monotonic() + 10 * DEADLINE_S
    ok = True

    def verdict(passed: bool, what: str) -> None:
        nonlocal ok
        ok &= passed
        print(f"  [{'PASS' if passed else 'FAIL'}] {what}")

    for workload in workloads:
        print(f"{workload}:")
        n = 3
        same = json.dumps(make_ops(workload, seed, n)) == json.dumps(make_ops(workload, seed, n))
        verdict(same, f"seed {seed} gives identical inputs twice")
        other = json.dumps(make_ops(workload, seed, n)) != json.dumps(make_ops(workload, seed + 1, n))
        verdict(other, f"seed {seed + 1} gives other inputs")
        ops = make_ops(workload, seed, 1 if workload == "cli-suites" else 2)
        first = run_pass(workload, ops, False, deadline)
        second = run_pass(workload, ops, False, deadline)
        verdict(json.dumps(first.outputs) == json.dumps(second.outputs),
                f"{len(ops)} ops give byte-identical outputs in two fresh runs")
    return ok


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all",
                        help="one workload, or all of them in turn (default)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="check that runs are reproducible from the seed, then exit")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "bergnorm" / "__init__.py").is_file():
        print(f"error: no bergnorm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    # One CPU for this process and every worker: the calibration kernel then
    # runs where the ops run and meets the same load from other tenants.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        if args.self_check:
            return 0 if self_check(workloads, args.seed) else 1
        results = {w: run_benchmark(w, args.seed, args.seconds, bool(args.trace))
                   for w in workloads}
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    # one workload: its result object; all: one result object per workload
    print(json.dumps(results[args.workload] if len(workloads) == 1 else results))
    return 0

if __name__ == "__main__":
    sys.exit(main())
