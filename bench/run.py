#!/usr/bin/env python3
"""Benchmark of defcalc: one workload, one seed, one run.

    python3 bench/run.py --workload verify|deform|cli --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The program is imported from src/ in the
same process; no subprocesses and no threads are started.  One run:

1. generates the workload's inputs from the seed (not timed);
2. sets up SETUP_REPEATS times: a fresh import of defcalc plus the
   construction of the workload's fixed inputs by the program; setup_s is
   the median;
3. runs one warm-up pass and checks every output against the benchmark's
   independent oracles;
4. repeats timed passes over the same job list until S seconds of timed
   work have passed (at least MIN_PASSES passes and MIN_SAMPLES jobs),
   comparing each output with the checked warm-up output.

With --trace 0 the last line of stdout carries the end-to-end metrics;
with --trace 1 one untraced pass is timed as a reference, the layers are
wrapped, and the last line carries the per-layer metrics and the tracing
overhead.  Results and spans are also written under bench/out/.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from functools import partial

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 7
MIN_PASSES = 3
MIN_SAMPLES = 100


class Library:
    """The defcalc modules of one import."""

    MODULES = ("graded", "linalg", "artin", "dgla", "linfty", "hitchin", "cli")

    def __init__(self):
        for name in [m for m in sys.modules if m == "defcalc" or m.startswith("defcalc.")]:
            del sys.modules[name]
        self.package = importlib.import_module("defcalc")
        for name in self.MODULES:
            setattr(self, name, importlib.import_module(f"defcalc.{name}"))


def fingerprint(value):
    """A comparable form of a job output."""
    if isinstance(value, (list, tuple)):
        return tuple(fingerprint(v) for v in value)
    for attr in ("terms", "coeffs"):
        if hasattr(value, attr):
            return tuple(sorted(getattr(value, attr).items()))
    if hasattr(value, "ok"):  # CheckReport
        return (value.ok, value.axiom, value.witness, fingerprint(value.value))
    if hasattr(value, "equivalent"):  # GaugeResult
        return (value.equivalent, value.order, value.monomial,
                fingerprint(value.witness), fingerprint(value.residual))
    if hasattr(value, "events"):  # McSolveResult
        events = tuple((e.direction, e.order, e.monomial, e.coords) for e in value.events)
        return (events, fingerprint(value.solutions))
    return value


def percentile(samples, q):
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


class Run:
    """Counts and checks of one run's passes."""

    def __init__(self, seconds):
        self.seconds = seconds
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.problems = []
        self.expected = {}
        self.bad = set()  # jobs whose checked output is wrong
        self.speed = speed.Speed()
        self.raw_samples = []

    def fail(self, job, message):
        self.failed += 1
        if not job.known_fault:
            self.correct = False
            if len(self.problems) < 20:
                self.problems.append(f"{job.name}: {message}")

    def warm_up(self, jobs):
        """One pass with every output checked by the oracles."""
        for job in jobs:
            self.attempted += 1
            if job.prepare is not None:
                job.prepare()
            try:
                output = job.run()
            except Exception as exc:  # a raising job is a failed operation
                self.fail(job, f"raised {type(exc).__name__}: {exc}")
                self.expected[job.name] = None
                self.bad.add(job.name)
                continue
            self.expected[job.name] = fingerprint(output)
            try:
                job.check(output)
            except Exception as exc:  # an output the check cannot read is wrong too
                self.fail(job, f"{type(exc).__name__}: {exc}")
                self.bad.add(job.name)
            else:
                if job.known_fault:
                    self.problems.append(f"{job.name}: known fault no longer shows")

    def timed_pass(self, jobs, samples, on_output=None):
        """Run every job once; returns the pass's calibrated and wall time.

        samples receives one calibrated time per job, raw_samples the wall
        time.
        """
        clock = time.perf_counter
        first, raw_first = len(samples), len(self.raw_samples)
        for job in jobs:
            self.attempted += 1
            want = self.expected[job.name]
            if job.prepare is not None:
                job.prepare()
            start = clock()
            try:
                output = job.run()
            except Exception as exc:
                self.fail(job, f"raised {type(exc).__name__}: {exc}")
                continue
            finally:
                elapsed = clock() - start
                self.raw_samples.append(elapsed)
                samples.append(None)
                self.speed.add(elapsed, partial(samples.__setitem__, len(samples) - 1))
            if on_output is not None:
                on_output(job, output)
            if fingerprint(output) != want:
                self.fail(job, "output differs from the checked warm-up output")
            elif job.name in self.bad:
                self.fail(job, "output repeats a failed check")
        self.speed.flush()
        return sum(samples[first:]), sum(self.raw_samples[raw_first:])

    def passes(self, jobs, samples, on_output=None):
        """Timed passes until the run length in wall seconds is reached;
        returns the calibrated time of each pass."""
        times, wall = [], 0.0
        while wall < self.seconds or len(times) < MIN_PASSES or len(samples) < MIN_SAMPLES:
            calibrated, raw = self.timed_pass(jobs, samples, on_output)
            times.append(calibrated)
            wall += raw
        return times


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "defcalc", "__init__.py")):
        print(f"error: no defcalc sources under {SRC}", file=sys.stderr)
        return 2
    if not os.path.isdir(os.path.join(ROOT, "sample_inputs")):
        print(f"error: no sample_inputs/ under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    Library()  # compile and cache bytecode outside any timing
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        return run(args, workloads, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, workloads, workdir):
    cls = workloads.WORKLOADS[args.workload]
    if args.workload == "cli":
        workload = cls(args.seed, ROOT, workdir)
    else:
        workload = cls(args.seed)

    setup_times, setup_raw = [], []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        before = speed.Speed.measure()
        start = time.perf_counter()
        lib = Library()
        workload.setup(lib)
        elapsed = time.perf_counter() - start
        after = speed.Speed.measure()
        setup_raw.append(elapsed)
        setup_times.append(elapsed * speed.NOMINAL_S / ((before + after) / 2))
    if library_path(lib) != os.path.join(SRC, "defcalc"):
        print(f"error: defcalc was imported from {library_path(lib)}", file=sys.stderr)
        return 2

    jobs = workload.jobs()
    state = Run(args.seconds)
    state.warm_up(jobs)
    if hasattr(workload, "fixpoint_check"):
        try:
            workload.fixpoint_check()
        except Exception as exc:
            state.correct = False
            state.problems.append(f"{type(exc).__name__}: {exc}")

    # one collection before timing; within the passes the collector runs as
    # the program's allocations make it
    gc.collect()
    samples = []
    info = {"workload": args.workload, "seed": args.seed, "jobs": len(jobs)}
    if not args.trace:
        pass_times = state.passes(jobs, samples)
        metrics = {
            "pass_s": (statistics.median(pass_times), "s"),
            "job_p50_ms": (1000 * statistics.median(samples), "ms"),
            "job_p90_ms": (1000 * percentile(samples, 90), "ms"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        raw = state.raw_samples
        info["raw"] = {
            "pass_s": statistics.median(
                sum(raw[i:i + len(jobs)]) for i in range(0, len(raw), len(jobs))
            ),
            "job_p50_ms": 1000 * statistics.median(raw),
            "job_p90_ms": 1000 * percentile(raw, 90),
            "setup_s": statistics.median(setup_raw),
        }
        info["passes"] = len(pass_times)
        info["samples"] = len(samples)
        info["classes"] = class_summary(jobs, samples)
        info["job_ms"] = {
            job.name: round(1000 * statistics.median(samples[i::len(jobs)]), 3)
            for i, job in enumerate(jobs)
        }
    else:
        metrics, extra = traced(args, workload, lib, jobs, state, samples)
        info.update(extra)
    info["setup_times"] = setup_times
    info["problems"] = state.problems

    result = {
        "correct": state.correct,
        "attempted": state.attempted,
        "failed": state.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(os.path.join(OUT, f"result-{args.workload}-s{args.seed}-t{args.trace}.json"),
              "w", encoding="utf-8") as handle:
        json.dump({"result": result, "info": info}, handle, indent=1)
    for problem in state.problems:
        print(f"problem: {problem}", file=sys.stderr)
    summary = {k: v for k, v in info.items() if k != "job_ms"}
    print(json.dumps(summary, sort_keys=True, default=str))
    print(json.dumps(result, sort_keys=True))
    return 0


def library_path(lib):
    return os.path.dirname(os.path.abspath(lib.package.__file__))


def class_summary(jobs, samples):
    """Median milliseconds and pass share of each job class."""
    by_class = {}
    n = len(jobs)
    for i, elapsed in enumerate(samples):
        by_class.setdefault(jobs[i % n].klass, []).append(elapsed)
    total = sum(samples)
    return {
        k: {"jobs": sum(j.klass == k for j in jobs),
            "median_ms": round(1000 * statistics.median(v), 3),
            "share": round(sum(v) / total, 4)}
        for k, v in sorted(by_class.items())
    }


def traced(args, workload, lib, jobs, state, samples):
    """A reference pass untraced, then traced passes; per-layer metrics."""
    import tracing

    reference, _ = state.timed_pass(jobs, [])
    tracer = tracing.Tracer()
    tracer.install(lib)
    snapshots = []

    def on_output(job, output):
        if args.workload == "cli":
            tracer.count("cli.report_bytes", len(output[1].encode("utf-8")))

    try:
        pass_times, wall = [], 0.0
        while wall < args.seconds or len(pass_times) < MIN_PASSES:
            tracer.reset()
            calibrated, raw = state.timed_pass(jobs, samples, on_output)
            pass_times.append(calibrated)
            wall += raw
            # self times in the same calibrated seconds as the pass
            snapshot = tracer.snapshot()
            for key in snapshot:
                if key.endswith("_s"):
                    snapshot[key] *= calibrated / raw
            snapshots.append(snapshot)
            if len(pass_times) == 1:
                write_spans(tracer, args)
    finally:
        tracer.uninstall()
    metrics = {}
    for key in snapshots[0]:
        unit = "s" if key.endswith("_s") else ("bytes" if key.endswith("bytes") else "count")
        metrics[key] = (statistics.median(s[key] for s in snapshots), unit)
    metrics["trace.overhead_x"] = (statistics.median(pass_times) / reference, "ratio")
    extra = {"passes": len(pass_times), "reference_pass_s": reference,
             "traced_pass_s": statistics.median(pass_times), "spans_dropped": tracer.dropped}
    return metrics, extra


def write_spans(tracer, args):
    path = os.path.join(OUT, f"trace-{args.workload}-s{args.seed}.tsv")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("index\tname\tstart\tend\tparent\n")
        for i, (name, start, end, parent) in enumerate(tracer.spans()):
            handle.write(f"{i}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")


if __name__ == "__main__":
    sys.exit(main())
