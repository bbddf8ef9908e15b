"""On-demand traced scaling sweep of pipeline-64 over grid sizes (ungated).

    python3 perfbench/sweep.py            # measure; writes results/sweep.json
    python3 perfbench/sweep.py --table    # print the markdown table from it

Runs `run.py --workload pipeline-64 --trace 1 --units N` at 16², 32², 64² and
128² units (32 px per unit), seed SEED, and records each size's per-layer
metrics, with ru_maxrss and the tracemalloc peak of one operation. The 128²
size needs about 1.3 GB and a few minutes.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results" / "sweep.json"
SIZES = (16, 32, 64, 128)
SEED = 1
SECONDS = 1

COLUMNS = (
    ("simulate", ("forward_model.simulate_s",)),
    ("detect", ("fringe_detect.recognize_s",)),
    ("fuse", ("boundary_logic.fuse_s",)),
    ("plan (all)", ("path_search.plan_s",)),
    ("retrieve", ("reconstruct.retrieve_self_s", "reconstruct.accumulate_s")),
    ("amplitude", ("reconstruct.amplitude_s",)),
    ("IO+hash", ("fileio.write_s", "pipeline.self_s")),
)


def measure() -> dict:
    sizes = {}
    for units in SIZES:
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload",
                               "pipeline-64", "--units", str(units), "--seed", str(SEED),
                               "--seconds", str(SECONDS), "--trace", "1"],
                              cwd=ROOT, check=True, capture_output=True, text=True)
        report, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        sizes[str(units)] = {"pixels": units * 32, "attempted": result["attempted"],
                             "failed": result["failed"],
                             "peak_rss_mb": metrics["trace.peak_rss_mb"],
                             "per_layer": metrics}
        print(f"{units}² done", file=sys.stderr)
    return {"workload": "pipeline-64", "seed": SEED, "environment": report["environment"],
            "sizes": sizes}


def table(data: dict) -> str:
    head = ["grid (px)", *(c for c, _ in COLUMNS), "op traced", "op untraced",
            "tracing overhead", "ru_maxrss", "tracemalloc peak"]
    lines = ["| " + " | ".join(head) + " |", "|" + " --- |" * len(head)]
    for units, row in sorted(data["sizes"].items(), key=lambda kv: int(kv[0])):
        m = row["per_layer"]
        cells = [f"{units}² ({row['pixels']}²)"]
        cells += [f"{sum(m[k] for k in keys):.3g} s" for _, keys in COLUMNS]
        cells += [f"{m['trace.op_s']:.3g} s", f"{m['trace.untraced_op_s']:.3g} s",
                  f"{m['trace.overhead_s']:.3g} s", f"{row['peak_rss_mb']:.0f} MB",
                  f"{m['trace.alloc_peak_mb']:.0f} MB"]
        lines.append("| " + " | ".join(cells) + " |")
    env = data["environment"]
    lines.append(f"\nSelf times per operation, traced; {env['cpu_model']}, nproc "
                 f"{env['nproc']}, BLAS threads {env['blas_threads']}, Python "
                 f"{env['python']}, numpy {env['numpy']}, scipy {env['scipy']}.")
    return "\n".join(lines)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--table", action="store_true",
                        help="print the table from results/sweep.json without measuring")
    args = parser.parse_args()
    if not args.table:
        RESULTS.parent.mkdir(exist_ok=True)
        RESULTS.write_text(json.dumps(measure(), indent=1, sort_keys=True) + "\n")
    print(table(json.loads(RESULTS.read_text())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
