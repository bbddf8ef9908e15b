"""Self-test of the benchmark harness at a tiny grid.

    python3 perfbench/selftest.py

Checks, in under a minute:

1. every workload, the on-demand retrieve-128 too, untraced and traced,
   prints a last line with exactly the keys correct, attempted, failed and
   metrics, no failures, and exactly the metrics BENCHMARK.json names, each
   with its unit;
2. the traced per-layer self times, glue, counter-reading and wrapper
   install time add up to the traced operation's wall time, and the files
   the traced pipeline writes through fileio are the files its manifest lists;
3. an operation whose output is deliberately corrupted (one flipped edge
   ratio) is counted as failed, and the operations around it are not;
4. in a directory holding only BENCHMARK.json and the benchmark's own files,
   the benchmark exits non-zero without printing a result.

Exit status 0 when every check passes.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TINY = 6
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(HERE))

failures: list[str] = []


def report(ok: bool, what: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}: {what}")
    if not ok:
        failures.append(what)


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


def check_emitted(workload: str, trace: int) -> None:
    proc = run_bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace), "--units", str(TINY))
    what = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        report(False, f"{what} exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
        return
    result = json.loads(proc.stdout.splitlines()[-1])
    report(set(result) == {"correct", "attempted", "failed", "metrics"},
           f"{what} prints exactly the four result keys")
    report(result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1,
           f"{what} has no failed operation ({result['failed']} of {result['attempted']})")
    spec = SPEC["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in spec}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    report(got == want, f"{what} emits every metric of BENCHMARK.json with its unit"
           + ("" if got == want else f" (differs: {sorted(set(got.items()) ^ set(want.items()))})"))
    values = [v["value"] for v in result["metrics"].values()]
    report(all(isinstance(v, (int, float)) and math.isfinite(v) for v in values),
           f"{what} values are finite numbers")
    if not trace:
        report(all(v > 0 for v in values), f"{what} end-to-end values are never 0")
        return
    from spans import TIME_METRICS
    m = {k: v["value"] for k, v in result["metrics"].items()}
    accounted = (sum(m[k] for k in TIME_METRICS) + m["trace.glue_s"] + m["trace.count_s"]
                 + m["trace.install_s"])
    report(abs(accounted - m["trace.op_s"]) <= 0.1 * m["trace.op_s"] + 0.005,
           f"{what} self times account for the traced wall time "
           f"({accounted:.4f} s of {m['trace.op_s']:.4f} s)")
    report(m["trace.missing_spans"] == 0, f"{what} finds every wrapped function")
    files = json.loads(proc.stdout.splitlines()[-2])["values"].get("files")
    if files is not None:
        report(m["fileio.files_written"] == files,
               f"{what} counts as written the {files} files the manifest lists "
               f"({m['fileio.files_written']:g})")


def check_corrupted_op() -> None:
    import harness
    harness.import_package()
    from darkfringe import boundary_logic, path_search
    from workloads import RetrieveWorkload

    workdir = ROOT / ".perfbench_work" / "selftest-corrupt"
    workload = RetrieveWorkload(3, 8, workdir)
    tally = harness.Tally(workload, full_check=True)
    fuse = boundary_logic.mark_invalid_and_ratios

    def flipped(maps, lib):
        """The real fusion, with the ratio of one edge a planned path crosses flipped."""
        invalid, ratios = fuse(maps, lib)
        plan = path_search.plan_with_retry(invalid, [workload.origins[0]])
        r, c = workload.origins[0]
        move = next(p for row in plan.paths for p in row if p)[0]
        if move in "LR":
            cc = c if move == "R" else c - 1
            ratios.horizontal[r, cc] *= -1
        else:
            rr = r if move == "D" else r - 1
            ratios.vertical[rr, c] *= -1
        return invalid, ratios

    tally.run(workload.op)
    boundary_logic.mark_invalid_and_ratios = flipped
    try:
        tally.run(workload.op)
    finally:
        boundary_logic.mark_invalid_and_ratios = fuse
    tally.run(workload.op)
    shutil.rmtree(workdir, ignore_errors=True)
    report(tally.attempted == 3 and tally.failed == 1,
           f"a flipped edge ratio counts as failed: error_rate "
           f"{tally.failed}/{tally.attempted} ({tally.errors})")


def check_bare_directory() -> None:
    bare = ROOT / ".perfbench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc = run_bench(bare, "--workload", "pipeline-64", "--seed", "1", "--seconds", "1")
        last = proc.stdout.strip().splitlines()[-1:] or [""]
        report(proc.returncode != 0 and not last[0].startswith("{"),
               f"without the sources the benchmark exits {proc.returncode} and prints no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    from run import WORKLOADS
    for workload in WORKLOADS:
        for trace in (0, 1):
            check_emitted(workload, trace)
    check_corrupted_op()
    check_bare_directory()
    try:
        (ROOT / ".perfbench_work").rmdir()
    except OSError:
        pass
    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
