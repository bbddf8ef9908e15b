"""End-to-end runs: simulate m frames, detect, fuse, plan, reconstruct, score.

A run is a RunConfig, and RunConfig.check is the one verdict on whether its
settings fit together: run_pipeline runs it as stage 'config', and the CLI
turns its error into a usage error, both before any file is written. Each
stage is one function here (write_patterns, load_object, simulate, detect,
mark_invalid, plan, reconstruct, score). It takes the run config, its inputs
and a callback save(name, writer, *args) that writes one artifact into the
output directory, and returns its outputs; stage() runs it and names the
stage in any failure. simulate makes one measurement, read out in place:
its 16-bit levels are packed into its own float32 frame's memory, laid out
as the PGM file stores them, so no second frame is allocated and the file
is written by one write. run_pipeline streams each one through simulate
and detect, writing its PGM file, and drops its levels (and so the frame's
memory) before the next is simulated, so a run holds one frame at a time
whatever m is; the reconstruct stage reads the amplitudes back from the
measurement PGM files in bands. The CLI stage subcommands read their
inputs back from the output directory and call the same functions (the
simulate subcommand loops over the frames). The data are the same either
way: a measurement is its 16-bit levels and scale, in memory as in its PGM
file, and the plans the reconstruction follows are the ones the plan stage
wrote, so both callers write the same files. Every artifact is written in
its module's file format, and run_pipeline's manifest records the
configuration echo, the final metrics and a sha256 checksum of every file
written, so identical (config, seed) runs can be compared byte for byte; a
run that fails after its config is checked records the failed stage in
place of the metrics.
Files are hashed on one background thread as they are written, in
fixed-size chunks, while the next stages run.
"""

from __future__ import annotations

import hashlib
import json
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import fileio
from .boundary_logic import EdgeRatios, InvalidBoundaryMaps, mark_invalid_and_ratios
from .forward_model import (ComplexField, GridSpec, IntensityImage, PsfModel,
                            default_crop_rows, quantize_16bit, simulate_measurement_2d)
from .fringe_detect import DetectConfig, FringeMaps, recognize_fringes
from .patterns import (PatternSet, ReferenceLibrary, encode_8bit, expand_to_pixels,
                       make_patterns, reference_library)
from .path_search import PathPlan, plan_with_retry
from .reconstruct import (ScoreMetrics, compose_and_score, estimate_amplitude,
                          interior_pixels, retrieve_phase)


class StageError(RuntimeError):
    """A pipeline stage failed; carries the stage name for exit reporting."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage '{stage}' failed: {cause}")
        self.stage = stage
        self.cause = cause


@dataclass
class RunConfig:
    s1: int = 16
    s2: int = 16
    pixels_per_unit: int = 32
    psf_kind: str = "gaussian"
    psf_radius: float = 8.0
    m: int = 4
    noise_sigma: float = 0.0
    crop_rows: int | None = None           # None: default_crop_rows(pixels_per_unit)
    band_halfwidth: int = 2
    fringe_ratio_alpha: float = 0.7
    origins: tuple[tuple[int, int], ...] = ((0, 0),)
    seed: int = 0
    outdir: str = "out"
    object_file: str | None = None          # CF32 path; None draws a random object

    def detect_config(self) -> DetectConfig:
        return DetectConfig(band_halfwidth=self.band_halfwidth,
                            fringe_ratio_alpha=self.fringe_ratio_alpha)

    def grid(self) -> GridSpec:
        crop = self.crop_rows
        if crop is None:
            crop = default_crop_rows(self.pixels_per_unit)
        return GridSpec(s1=self.s1, s2=self.s2,
                        pixels_per_unit=self.pixels_per_unit, crop_rows=crop)

    def psf(self) -> PsfModel:
        return PsfModel(self.psf_kind, self.psf_radius)

    def amplitude_erode(self) -> int:
        """Pixels eroded from each side of a unit before its amplitude is
        taken; one more than the band half-width keeps the fringe bands out."""
        return self.band_halfwidth + 1

    def check(self) -> None:
        """Raise ValueError if a stage would reject this configuration: build
        what the stages build, check noise, seed, m and origins, and run the
        amplitude stage's interior-pixel check, which implies detection's
        2 * band_halfwidth < pixels_per_unit. The PSF radius is bounded by
        the frame's larger side: a kernel wider than the frame spreads every
        unit over all of it, so no fringe is left to detect."""
        grid = self.grid()
        side = max(grid.s1, grid.s2) * grid.pixels_per_unit
        if self.psf_radius > side:
            raise ValueError(f"psf_radius {self.psf_radius!r} exceeds the frame's "
                             f"larger side, {side} px")
        self.psf()
        self.detect_config()
        if not 0 <= self.noise_sigma < np.inf:
            raise ValueError(f"noise_sigma must be nonnegative and finite, "
                             f"got {self.noise_sigma}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if self.m < 2:
            raise ValueError(f"m must be at least 2, got {self.m}")
        if not self.origins:
            raise ValueError("need at least one origin")
        for r, c in self.origins:
            if not (0 <= r < self.s1 and 0 <= c < self.s2):
                raise ValueError(f"origin {(r, c)} outside the {self.s1} x {self.s2} grid")
        interior_pixels(grid, self.amplitude_erode())

    def echo(self) -> dict:
        """Every field but outdir, with the default crop_rows resolved to the
        value the stages use."""
        echo = asdict(self)
        del echo["outdir"]
        echo["crop_rows"] = self.grid().crop_rows
        return echo


def random_quantized_object(s1: int, s2: int, m: int, seed: int) -> ComplexField:
    """Unit-amplitude object with phases on the m-level grid.

    m = 4 uses exact powers of i, so downstream quantized recovery can be
    checked for literal equality.
    """
    rng = np.random.default_rng(seed)
    levels = rng.integers(0, m, size=(s1, s2))
    if m == 4:
        values = np.power(1j, levels)
    else:
        values = np.exp(2j * np.pi * levels / m)
    return ComplexField(values)


def _sha256(path: Path) -> str:
    """Hex sha256 of a file, read in fixed-size chunks into one buffer."""
    h = hashlib.sha256()
    chunk = bytearray(1 << 18)
    view = memoryview(chunk)
    with open(path, "rb", buffering=0) as fh:
        while n := fh.readinto(chunk):
            h.update(view[:n])
    return h.hexdigest()


def stage(name: str, body, *args):
    """Run one stage body; any failure is a StageError naming the stage."""
    try:
        return body(*args)
    except Exception as exc:
        raise StageError(name, exc) from exc


def write_patterns(cfg: RunConfig, save) -> tuple[PatternSet, ReferenceLibrary]:
    """The m pattern PGMs and the reference library of their ratios; returns
    the pattern set, which the run simulates through, and the library."""
    pattern_set = make_patterns(cfg.m, cfg.s1, cfg.s2)
    for j, pattern in enumerate(pattern_set.patterns, start=1):
        grey = expand_to_pixels(encode_8bit(pattern), cfg.pixels_per_unit)
        save(f"pattern_j{j}.pgm", fileio.write_pgm8, grey)
    lib = reference_library(pattern_set)
    save("reference_library.csv", fileio.write_reference_library_csv, lib)
    return pattern_set, lib


def load_object(cfg: RunConfig, save) -> ComplexField:
    """The object from cfg.object_file, which must match the grid and be
    nonzero somewhere, or a random quantized one from the seed; written as
    object.cf32."""
    if cfg.object_file is None:
        obj = random_quantized_object(cfg.s1, cfg.s2, cfg.m, cfg.seed)
    else:
        obj = fileio.read_complex_field(cfg.object_file)
        if obj.shape != (cfg.s1, cfg.s2):
            raise ValueError(f"object shape {obj.shape} in {cfg.object_file!r} does not "
                             f"match grid ({cfg.s1}, {cfg.s2})")
        if not np.any(obj.values):
            raise ValueError(f"object {cfg.object_file!r} is zero everywhere")
    save("object.cf32", fileio.write_complex_field, obj)
    return obj


def simulate(cfg: RunConfig, obj: ComplexField, pattern: ComplexField, j: int,
             save) -> IntensityImage:
    """Measurement j, of the object seen through its pattern, read out in
    place as soon as it is simulated, so no float value outlives its
    readout: its 16-bit levels, over the float frame's memory, and its scale
    are what the later stages compute from and what measurement_j<j>.pgm
    holds. Its noise seed is the pair (run seed, j),
    so no frame of one run draws the noise of a frame of another."""
    image = quantize_16bit(simulate_measurement_2d(obj, pattern, cfg.psf(), cfg.grid(),
                                                   cfg.noise_sigma, seed=(cfg.seed, j)))
    save(f"measurement_j{j}.pgm", fileio.write_pgm16, image)
    return image


def detect(cfg: RunConfig, image: IntensityImage, j: int, save) -> FringeMaps:
    """Fringe maps of measurement j, written as its row and col CSVs."""
    maps = recognize_fringes(image, cfg.grid(), cfg.detect_config(), measurement_index=j)
    save(f"fringes_row_j{j}.csv", fileio.write_fringe_maps_csv, maps, "row")
    save(f"fringes_col_j{j}.csv", fileio.write_fringe_maps_csv, maps, "col")
    return maps


def mark_invalid(cfg: RunConfig, maps: list[FringeMaps], lib: ReferenceLibrary,
                 save) -> tuple[InvalidBoundaryMaps, EdgeRatios]:
    """Invalid-boundary matrices and edge ratios from the m fringe maps."""
    invalid, ratios = mark_invalid_and_ratios(maps, lib)
    save("matrix_a.csv", fileio.write_bool_grid_csv, invalid.matrix_a)
    save("matrix_b.csv", fileio.write_bool_grid_csv, invalid.matrix_b)
    save("edge_ratios.csv", fileio.write_edge_ratios_csv, ratios)
    return invalid, ratios


def plan(cfg: RunConfig, invalid: InvalidBoundaryMaps, save) -> list[PathPlan]:
    """One plan per origin, each written as path_plan_origin<k>.csv."""
    plans = []
    for k, origin in enumerate(cfg.origins, start=1):
        plans.append(plan_with_retry(invalid, [origin]))
        save(f"path_plan_origin{k}.csv", fileio.write_path_plan_csv, plans[-1])
    return plans


def reconstruct(cfg: RunConfig, ratios: EdgeRatios, plans: list[PathPlan],
                frames: list[Path], save) -> ComplexField:
    """The complex image from the phase along the given plans (one per
    origin) and the amplitude from the measurement PGM files `frames`,
    UNKNOWN units 0, rounded to the float32 of reconstruction.cf32, which it
    is written as."""
    phase, _ = retrieve_phase(None, ratios, list(cfg.origins), plans)
    amplitude = estimate_amplitude(frames, cfg.grid(), cfg.amplitude_erode())
    unknown = np.isnan(phase)
    values = amplitude * np.exp(1j * np.where(unknown, 0.0, phase))
    values[unknown] = 0.0
    rec = ComplexField(values.astype(np.complex64))
    save("reconstruction.cf32", fileio.write_complex_field, rec)
    return rec


def score(cfg: RunConfig, rec: ComplexField, obj: ComplexField, save) -> ScoreMetrics:
    """Metrics of the reconstruction, whose units of amplitude 0 are UNKNOWN,
    against the object rounded to the complex64 of object.cf32 and divided
    by its peak amplitude, written as metrics.csv."""
    amplitude = np.abs(rec.values)
    phase = np.where(amplitude > 0, np.mod(np.angle(rec.values), 2 * np.pi), np.nan)
    stored = obj.values.astype(np.complex64).astype(complex)
    truth = ComplexField(stored / np.abs(stored).max())
    metrics = compose_and_score(phase, amplitude, truth)
    save("metrics.csv", fileio.write_metrics_csv,
         metrics.phase_rmse, metrics.complex_l2, metrics.unknown_frac)
    return metrics


def _write_manifest(outdir: Path, cfg: RunConfig, digests: dict, **outcome) -> dict:
    """Write manifest.json: the config echo, the run's outcome and the sha256
    of every file saved, waiting for the hashes still queued."""
    manifest = {"config": cfg.echo(), **outcome,
                "files": {p.name: digests[p].result() for p in sorted(digests)}}
    (outdir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest


def run_pipeline(cfg: RunConfig) -> dict:
    """Execute the full chain and write all artifacts plus a manifest.

    Returns the manifest dictionary: the config echo, the metrics and the
    sha256 of every file written. A configuration that RunConfig.check
    rejects raises StageError 'config' before any file is written; any other
    stage failure raises StageError naming the stage, after writing a
    manifest of the config echo, the `failed_stage` and the sha256 of every
    file whose save finished. Each file is hashed on one background thread
    as soon as it is written; that thread runs only file reads and hashlib,
    and it is joined on every exit.
    """
    outdir = Path(cfg.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    hasher = ThreadPoolExecutor(max_workers=1)
    digests: dict[Path, Future] = {}

    def save(name: str, writer, *args) -> None:
        path = outdir / name
        writer(path, *args)
        digests[path] = hasher.submit(_sha256, path)

    try:
        stage("config", cfg.check)
        pattern_set, lib = stage("patterns", write_patterns, cfg, save)
        obj = stage("object", load_object, cfg, save)
        maps = []
        for j, pattern in enumerate(pattern_set.patterns, start=1):
            image = stage("simulate", simulate, cfg, obj, pattern, j, save)
            maps.append(stage("detect", detect, cfg, image, j, save))
            del image   # the next frame is simulated without this one's levels
        invalid, ratios = stage("mark-invalid", mark_invalid, cfg, maps, lib, save)
        plans = stage("paths", plan, cfg, invalid, save)
        frames = [outdir / f"measurement_j{j}.pgm" for j in range(1, cfg.m + 1)]
        rec = stage("reconstruct", reconstruct, cfg, ratios, plans, frames, save)
        metrics = stage("metrics", score, cfg, rec, obj, save)
        return _write_manifest(outdir, cfg, digests,
                               metrics={"phase_rmse": metrics.phase_rmse,
                                        "complex_l2": metrics.complex_l2,
                                        "unknown_frac": metrics.unknown_frac})
    except StageError as exc:
        if exc.stage != "config":
            _write_manifest(outdir, cfg, digests, failed_stage=exc.stage)
        raise
    finally:
        hasher.shutdown(cancel_futures=True)
