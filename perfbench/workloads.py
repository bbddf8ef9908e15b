"""The benchmark's workloads: inputs from a seed, one timed operation, and an
untimed correctness check per operation.

Every workload uses m = 4, a Gaussian PSF with radius 8 and 32 pixels per
unit. The grid side defaults to the size in the workload's name; the scaling
sweep and the self-test pass other sizes. Functions of the package are looked
up on their modules at call time, so the span wrappers of a traced run see
every call.

Why these:

- pipeline-64 is the main user operation; every layer runs, and detection,
  simulation, planning and file IO all take a visible share.
- stages-32 drives the CLI stage subcommands in-process, the only workload
  that reads artifacts back (the readers, detection on 16-bit PGM frames) and
  runs the CLI's own stage bodies.
- retrieve-128 runs only fuse, plan and reconstruct, at the size where the
  planner's move strings and phase retrieval's re-walk of them dominate.
  Simulation, detection and file IO never run, so a change there predicts no
  change here. It runs on demand and is not in BENCHMARK.json: its ~8 s of
  pure-Python loops swing up to 2x in speed on a shared host, in phases
  longer than a run, and its op_s spread by 0.31 of the median over ten
  seeds, beyond the largest allowed bound.

There is no blocking_montecarlo workload (thousands of 16² plans plus the
breadth-first-search oracle): its operations are ~1 s pure-Python loops, so a
whole run falls into one speed phase of a shared host, and over ten seeds its
op_s quartiles lay up to 0.45 of the median apart, beyond the largest allowed
bound. The path_search layer it ran is measured on pipeline-64 and stages-32.

There is no m >= 6 workload: at m = 6 and 8 the fixed fringe threshold leaves
99% of units unknown, so fixing that defect would read as a slowdown. Such a
workload belongs in its own benchmark change after that fix lands.
"""

from __future__ import annotations

import csv
import hashlib
import shutil
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from darkfringe import (boundary_logic, cli, path_search, patterns, pipeline,
                        reconstruct)
from darkfringe.fringe_detect import FringeMaps

M = 4
PPU = 32
NOISE = 0.01
MISJUDGMENT_SIGMA = 0.05


class CheckFailed(Exception):
    """An operation's output is wrong; counts as a failed operation."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def truth_presence(obj, pattern_set) -> list[FringeMaps]:
    """Fringe presence from the object's true adjacent ratios, per pattern."""
    maps = []
    for j, pattern in enumerate(pattern_set.patterns, start=1):
        comb = obj.values * pattern.values
        maps.append(FringeMaps(row_map=~np.isclose(comb[:, 1:] / comb[:, :-1], 1.0),
                               col_map=~np.isclose(comb[1:, :] / comb[:-1, :], 1.0),
                               measurement_index=j))
    return maps


def truth_by_index(units: int, seed: int) -> dict[int, FringeMaps]:
    """True presence maps of the seed's random object, keyed by measurement."""
    obj = pipeline.random_quantized_object(units, units, M, seed)
    return {fm.measurement_index: fm
            for fm in truth_presence(obj, patterns.make_patterns(M, units, units))}


def corner_origins(units: int) -> tuple[tuple[int, int], ...]:
    return ((0, 0), (units - 1, units - 1))


def dir_digest(path: Path) -> tuple[str, int]:
    """sha256 over every file name and content in a directory, and its size."""
    h = hashlib.sha256()
    size = 0
    for p in sorted(path.iterdir()):
        data = p.read_bytes()
        size += len(data)
        h.update(p.name.encode() + b"\0" + hashlib.sha256(data).digest())
    return h.hexdigest(), size


@dataclass
class Outcome:
    """What the check of one operation found.

    signature must be equal across all operations of one seed; values are the
    workload's end-to-end quality figures.
    """

    signature: str
    values: dict = field(default_factory=dict)


class Workload:
    name: str
    default_units: int

    def __init__(self, seed: int, units: int | None, workdir: Path):
        self.seed = seed
        self.units = units or self.default_units
        self.workdir = workdir
        self.truth_maps: dict[int, FringeMaps] = {}

    def op(self):
        raise NotImplementedError

    def check(self, result, first: bool) -> Outcome:
        raise NotImplementedError

    def cleanup(self, result) -> None:
        """Drop what an operation left on disk once it has been checked."""


class PipelineWorkload(Workload):
    name = "pipeline-64"
    default_units = 64

    def __init__(self, seed, units, workdir):
        super().__init__(seed, units, workdir)
        u = self.units
        self.base = pipeline.RunConfig(s1=u, s2=u, pixels_per_unit=PPU, m=M,
                                       psf_kind="gaussian", psf_radius=8.0,
                                       noise_sigma=NOISE, origins=corner_origins(u),
                                       seed=seed)
        self.truth_maps = truth_by_index(u, seed)
        self.count = 0

    def op(self):
        self.count += 1
        outdir = self.workdir / f"op{self.count}"
        manifest = pipeline.run_pipeline(replace(self.base, outdir=str(outdir)))
        return outdir, manifest

    def check(self, result, first):
        outdir, manifest = result
        metrics = manifest["metrics"]
        require(metrics["phase_rmse"] == 0.0, f"phase_rmse {metrics['phase_rmse']!r} != 0")
        require(metrics["unknown_frac"] == 0.0, f"unknown_frac {metrics['unknown_frac']!r} != 0")
        on_disk = {p.name for p in outdir.iterdir()} - {"manifest.json"}
        require(on_disk == set(manifest["files"]), "manifest does not list the files on disk")
        size = sum(p.stat().st_size for p in outdir.iterdir())
        signature = hashlib.sha256(
            repr(sorted(manifest["files"].items())).encode()).hexdigest()
        return Outcome(signature, {"phase_rmse": metrics["phase_rmse"],
                                   "unknown_frac": metrics["unknown_frac"],
                                   "complex_l2": metrics["complex_l2"],
                                   "output_mb": size / 2**20,
                                   "files": len(manifest["files"])})

    def cleanup(self, result):
        shutil.rmtree(result[0], ignore_errors=True)


class RetrieveWorkload(Workload):
    name = "retrieve-128"
    default_units = 128

    def __init__(self, seed, units, workdir):
        super().__init__(seed, units, workdir)
        u = self.units
        self.obj = pipeline.random_quantized_object(u, u, M, seed)
        pattern_set = patterns.make_patterns(M, u, u)
        self.lib = patterns.reference_library(pattern_set)
        self.maps = boundary_logic.inject_misjudgment(
            truth_presence(self.obj, pattern_set), MISJUDGMENT_SIGMA, seed)
        self.origins = list(corner_origins(u))
        self.amplitude = np.ones((u, u))

    def op(self):
        invalid, ratios = boundary_logic.mark_invalid_and_ratios(self.maps, self.lib)
        plans = [path_search.plan_with_retry(invalid, [o]) for o in self.origins]
        phase, _ = reconstruct.retrieve_phase(invalid, ratios, self.origins)
        score = reconstruct.compose_and_score(phase, self.amplitude, self.obj)
        return invalid, plans, score

    def check(self, result, first):
        invalid, plans, score = result
        require(score.phase_rmse == 0.0, f"phase_rmse {score.phase_rmse!r} != 0")
        blocked = 0
        for plan in plans:
            mask = plan.reachable_mask()
            blocked += int((path_search.reachable_bfs(invalid, plan.origin) & ~mask).sum())
            if first:
                # a full replay costs seconds at 128², so later operations of
                # the seed are held to the replayed plans through the signature
                for r, c in zip(*np.nonzero(mask)):
                    landed = path_search.replay(plan, int(r), int(c), invalid)
                    require(landed == (r, c), f"plan for {(r, c)} lands at {landed}")
        h = hashlib.sha256()
        for plan in plans:
            h.update(repr(plan.paths).encode())
        h.update(invalid.matrix_a.tobytes() + invalid.matrix_b.tobytes())
        return Outcome(h.hexdigest(), {"phase_rmse": score.phase_rmse,
                                       "unknown_frac": score.unknown_frac,
                                       "blocked_units": blocked})


class StagesWorkload(Workload):
    name = "stages-32"
    default_units = 32

    def __init__(self, seed, units, workdir):
        super().__init__(seed, units, workdir)
        self.truth_maps = truth_by_index(self.units, seed)
        self.count = 0

    def commands(self, outdir: Path) -> list[list[str]]:
        u = self.units
        (r0, c0), (r1, c1) = corner_origins(u)
        run = ["--outdir", str(outdir), "--s1", str(u), "--s2", str(u),
               "--m", str(M), "--pixels-per-unit", str(PPU), "--psf-kind", "gaussian",
               "--psf-radius", "8", "--noise-sigma", str(NOISE), "--seed", str(self.seed),
               "--origins", f"{r0},{c0};{r1},{c1}"]
        return ([["patterns", *run], ["simulate", *run]]
                + [["detect", *run, "--j", str(j)] for j in range(1, M + 1)]
                + [["mark-invalid", *run], ["paths", *run], ["reconstruct", *run],
                   ["metrics", *run, "--reconstruction", str(outdir / "reconstruction.cf32"),
                    "--truth", str(outdir / "object.cf32")]])

    def op(self):
        self.count += 1
        outdir = self.workdir / f"op{self.count}"
        for argv in self.commands(outdir):
            code = cli.main(argv)
            if code != 0:
                raise RuntimeError(f"darkfringe {argv[0]} exited {code}")
        return outdir

    def check(self, result, first):
        with open(result / "metrics.csv", newline="") as fh:
            row = next(csv.DictReader(fh))
        metrics = {k: float(v) for k, v in row.items()}
        require(metrics["phase_rmse"] == 0.0, f"phase_rmse {metrics['phase_rmse']!r} != 0")
        require(metrics["unknown_frac"] == 0.0, f"unknown_frac {metrics['unknown_frac']!r} != 0")
        signature, size = dir_digest(result)
        return Outcome(signature, {**metrics, "output_mb": size / 2**20})

    def cleanup(self, result):
        shutil.rmtree(result, ignore_errors=True)


WORKLOADS = {w.name: w for w in (PipelineWorkload, RetrieveWorkload, StagesWorkload)}
