"""One measuring process: import, warm up, run timed operations, check each.

`run.py` starts this script once per set-up sample and reads the JSON it
writes to --result. Set-up time runs from the moment `run.py` started the
process (--t0, a CLOCK_MONOTONIC reading) through the import and the first,
warm-up operation. Checks run outside the timed interval of every operation.

Untraced (--trace 0): warm-up, then operations until --seconds is spent.
Traced (--trace 1): warm-up, one traced operation, one traced operation
under tracemalloc for the per-layer allocation peaks, then untraced and
traced operations alternate until --seconds is spent. The operations that the
metrics need come first, so that a slow host or a slower program cuts the
optional pairs before --deadline and not the result: when not even one pair
fits, the warm-up stands in for the untraced time. Tracing overhead is what the tracer adds
to an operation: installing and removing the wrappers, reading counters, and
the span count times one span's cost on a no-op, measured in this process.
The traced median minus the untraced median is reported beside it; with one
or two operations of each it is mostly the host's noise.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_package():
    """Import darkfringe from this checkout's source tree, nothing else."""
    if not (SRC / "darkfringe" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no darkfringe sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import darkfringe
    if Path(darkfringe.__file__).resolve().parent != SRC / "darkfringe":
        raise SystemExit(f"perfbench: imported darkfringe from {darkfringe.__file__}")
    return darkfringe


def blas_threads() -> str:
    """OpenBLAS's thread count, read through ctypes from the loaded library."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return "unknown"
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return "unknown"


def environment() -> dict:
    import numpy
    import scipy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


class Tally:
    """Operations attempted and failed; the first check fixes the signature."""

    def __init__(self, workload, full_check: bool):
        self.workload = workload
        self.full_check = full_check
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.signature: str | None = None
        self.values: dict = {}

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)
        print(f"perfbench: {self.workload.name}: {message}", file=sys.stderr)

    def run(self, op) -> float | None:
        """Time one operation, then check it; returns the seconds it took."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = op()
        except Exception as exc:
            self.fail(f"operation raised {exc!r}")
            return None
        elapsed = time.perf_counter() - start
        try:
            outcome = self.workload.check(result, first=self.signature is None and self.full_check)
        except Exception as exc:   # a check that crashes is a failed operation too
            self.fail(f"check failed: {exc}")
        else:
            if self.signature is None:
                self.signature, self.values = outcome.signature, outcome.values
            elif outcome.signature != self.signature:
                self.fail("output differs from the first operation of this seed")
        finally:
            self.workload.cleanup(result)
        return elapsed


def timed_loop(seconds: float, step, deadline: float) -> None:
    """Call step() until `seconds`, or the monotonic `deadline`, would be
    overrun by one more typical step; step() returns the duration to count,
    and runs at least once."""
    start = time.monotonic()
    durations = []
    while True:
        durations.append(step())
        typical = statistics.median(durations)
        now = time.monotonic()
        if now - start + typical > seconds or now + typical > deadline:
            return


def per_layer(traces, alloc_trace, untraced, traced, missing, wrapper_s) -> dict:
    from spans import COUNT_METRICS, LAYERS, ROOT, TIME_METRICS, TRUTH_COUNTS

    def med(values):
        return float(statistics.median(values)) if values else 0.0

    out = {}
    for metric, functions in TIME_METRICS.items():
        out[metric] = med([sum(t.self_s.get(f, 0.0) for f in functions) for t in traces])
    counts = {k: med([t.counts[k] for t in traces]) for k in COUNT_METRICS}
    out.update((k, v) for k, v in counts.items() if k not in TRUTH_COUNTS)
    tp, fp, fn = (counts[k] for k in TRUTH_COUNTS)
    out["fringe_detect.f1"] = 2 * tp / (2 * tp + fp + fn) if tp + fp + fn else 0.0
    boundaries = counts["fringe_detect.boundaries"]
    out["fringe_detect.us_per_boundary"] = (
        1e6 * out["fringe_detect.recognize_s"] / boundaries if boundaries else 0.0)
    for layer in LAYERS:
        out[f"{layer}.alloc_peak_mb"] = alloc_trace.alloc_peak.get(layer, 0) / 2**20
    out["trace.alloc_peak_mb"] = alloc_trace.alloc_peak.get("bench", 0) / 2**20
    out["trace.op_s"] = med(traced)
    out["trace.untraced_op_s"] = med(untraced)
    out["trace.glue_s"] = med([t.self_s.get(ROOT, 0.0) for t in traces])
    out["trace.count_s"] = med([t.count_s for t in traces])
    out["trace.install_s"] = med([t.install_s for t in traces])
    out["trace.spans"] = med([t.spans for t in traces])
    out["trace.wrapper_us"] = 1e6 * wrapper_s
    out["trace.overhead_s"] = med([t.install_s + t.count_s + t.spans * wrapper_s
                                   for t in traces])
    out["trace.missing_spans"] = len(missing)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--units", type=int)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--deadline", type=float, required=True,
                        help="CLOCK_MONOTONIC reading by which to have finished")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--full-check", type=int, choices=(0, 1), default=1)
    args = parser.parse_args()

    import_package()
    from workloads import WORKLOADS
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, args.units, workdir)
    tally = Tally(workload, bool(args.full_check))

    # the warm-up is the first operation; set-up ends when it returns
    before_warmup = time.monotonic()
    warmup_s = tally.run(workload.op)
    out = {"setup_s": before_warmup - args.t0 + (warmup_s or 0.0)}

    if args.trace == 0:
        times = []

        def step():
            d = tally.run(workload.op)
            if d is not None:
                times.append(d)
            return d or 0.0

        timed_loop(args.seconds, step, args.deadline)
        out["op_times"] = times
    else:
        from spans import Tracer, wrapper_cost
        untraced, traced, traces = [], [], []

        tracer = Tracer(workload.truth_maps)

        def traced_op():
            start = time.perf_counter()
            tracer.install()
            install_s = time.perf_counter() - start
            tracer.start_op()
            try:
                return workload.op()
            finally:
                trace = tracer.end_op()
                start = time.perf_counter()
                tracer.uninstall()
                trace.install_s = install_s + time.perf_counter() - start
                traces.append(trace)

        first = tally.run(traced_op)
        timed = traces[-1:] if first is not None else []
        if first is not None:
            traced.append(first)
        tracemalloc.start()
        try:
            tally.run(traced_op)
        finally:
            tracemalloc.stop()
        alloc_trace = traces[-1]

        def step():
            a = tally.run(workload.op)
            b = tally.run(traced_op)
            if a is not None and b is not None:
                untraced.append(a)
                traced.append(b)
                timed.append(traces[-1])
            return (a or 0.0) + (b or 0.0)

        if time.monotonic() + 2 * (first or warmup_s or 0.0) < args.deadline:
            timed_loop(args.seconds, step, args.deadline)
        out["untraced_samples"] = len(untraced)
        if not untraced and warmup_s is not None:
            untraced.append(warmup_s)
        out["per_layer"] = per_layer(timed, alloc_trace, untraced, traced, tracer.missing,
                                     wrapper_cost())
        out["missing_spans"] = tracer.missing
    out.update(attempted=tally.attempted, failed=tally.failed, errors=tally.errors,
               signature=tally.signature, values=tally.values,
               peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
               environment=environment())
    Path(args.result).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
