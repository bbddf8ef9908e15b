"""darkfringe benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload pipeline-64 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from `src/`.
BENCHMARK.json names the gated workloads; retrieve-128 runs on demand only
(see workloads.py).
With --trace 0 the measurement is split over SETUP_SAMPLES fresh processes,
run one after the other, each of which imports the package, warms up with one
operation and then times operations; `setup_s` and `peak_rss_mb` are medians
over the processes and `op_s` the median over all timed operations. With
--trace 1 one process runs traced operations, and untraced ones beside them,
and reports the per-layer metrics (see harness.py). Every operation is
checked outside its timed interval; a wrong output or an exception counts as
failed. Outputs of one seed must be
identical across operations and processes.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The line before it is a JSON report with the
sample count, quartiles, workload quality figures and the environment.
Exit status is 0 when a result was printed, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("pipeline-64", "retrieve-128", "stages-32")
SETUP_SAMPLES = 2
# a run must end within 180 s; its measuring process is told to finish
# RESULT_MARGIN_S before the deadline and is killed at it. A run at another
# grid size (--units) is not bound by the 180 s and gets SWEEP_DEADLINE_S.
DEADLINE_S = 172.0
SWEEP_DEADLINE_S = 900.0
RESULT_MARGIN_S = 3.0

END_TO_END_UNITS = {"op_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(("_us", "us_per_boundary")):
        return "us"
    if name.endswith(".mpix"):
        return "Mpx"
    if name.endswith("bytes_written") or name.endswith("bytes_read"):
        return "B"
    if name.endswith((".f1", "_frac", "rmse", "complex_l2")) or "rate" in name:
        return "ratio"
    return "count"


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3 if values else []
    return [float(q) for q in statistics.quantiles(values, n=4)]


def run_child(workload, seed, seconds, trace, units, workdir, result, full_check,
              deadline) -> dict:
    cmd = [sys.executable, str(HERE / "harness.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(trace),
           "--workdir", str(workdir), "--result", str(result),
           "--full-check", str(int(full_check)),
           "--deadline", repr(deadline - RESULT_MARGIN_S)]
    if units is not None:
        cmd += ["--units", str(units)]
    cmd += ["--t0", repr(time.monotonic())]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.DEVNULL)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise SystemExit(f"perfbench: {workload} did not finish by its deadline")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0:
        raise SystemExit(f"perfbench: measuring process for {workload} exited {code}")
    return json.loads(Path(result).read_text())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--units", type=int,
                        help="grid side in units instead of the workload's own "
                             f"(scaling sweep and self-test only; deadline "
                             f"{SWEEP_DEADLINE_S:.0f} s instead of {DEADLINE_S:.0f} s)")
    args = parser.parse_args()
    deadline = time.monotonic() + (DEADLINE_S if args.units is None else SWEEP_DEADLINE_S)

    if not (ROOT / "src" / "darkfringe" / "__init__.py").is_file():
        print(f"perfbench: no darkfringe sources under {ROOT / 'src'}", file=sys.stderr)
        return 1

    workdir = ROOT / ".perfbench_work" / f"run-{os.getpid()}"
    try:
        children = SETUP_SAMPLES if args.trace == 0 else 1
        outs = [run_child(args.workload, args.seed, args.seconds / children, args.trace,
                          args.units, workdir / f"p{k}", workdir / f"p{k}.json",
                          full_check=k == 0 and args.trace == 0, deadline=deadline)
                for k in range(children)]
    except SystemExit as exc:
        print(exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            (ROOT / ".perfbench_work").rmdir()
        except OSError:
            pass

    attempted = sum(o["attempted"] for o in outs)
    failed = sum(o["failed"] for o in outs)
    for k, o in enumerate(outs[1:], start=1):
        if o["signature"] != outs[0]["signature"]:
            print(f"perfbench: process {k} output differs from process 0", file=sys.stderr)
            failed += o["attempted"] - o["failed"]
    failed = min(failed, attempted)

    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "error_rate": failed / attempted, "values": outs[0]["values"],
              "errors": [e for o in outs for e in o["errors"]],
              "environment": outs[0]["environment"]}
    if args.trace == 0:
        times = [t for o in outs for t in o["op_times"]]
        report.update(op_samples=len(times), op_s_quartiles=quartiles(times),
                      setup_samples=[o["setup_s"] for o in outs])
        values = {"op_s": statistics.median(times) if times else float("nan"),
                  "setup_s": statistics.median(o["setup_s"] for o in outs),
                  "peak_rss_mb": statistics.median(o["peak_rss_mb"] for o in outs)}
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    else:
        layer = dict(outs[0]["per_layer"])
        for name in ("phase_rmse", "unknown_frac", "complex_l2", "output_mb"):
            layer[f"outcome.{name}"] = float(outs[0]["values"].get(name, 0.0))
        layer["outcome.error_rate"] = failed / attempted
        layer["path_search.blocked_units"] = float(outs[0]["values"].get("blocked_units", 0))
        layer["trace.peak_rss_mb"] = outs[0]["peak_rss_mb"]
        report["missing_spans"] = outs[0]["missing_spans"]
        report["untraced_samples"] = outs[0]["untraced_samples"]
        # traced minus untraced wall time: host noise included, hence not a metric
        report["overhead_diff_s"] = layer["trace.op_s"] - layer["trace.untraced_op_s"]
        metrics = {k: {"value": v, "unit": per_layer_unit(k)} for k, v in sorted(layer.items())}

    print(json.dumps(report, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
