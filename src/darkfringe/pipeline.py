"""End-to-end runs: simulate m frames, detect, fuse, plan, reconstruct, score.

Every intermediate artifact is written in its module's file format, and a
manifest records the configuration echo, the final metrics and a sha256
checksum of every file written, so identical (config, seed) runs can be
compared byte for byte.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import fileio
from .boundary_logic import mark_invalid_and_ratios
from .forward_model import (ComplexField, GridSpec, PsfModel, SimConfig,
                            simulate_measurement_2d)
from .fringe_detect import DetectConfig, FringeMaps, recognize_fringes
from .patterns import encode_8bit, expand_to_pixels, make_patterns, reference_library
from .path_search import plan_with_retry
from .reconstruct import (compose, compose_and_score, estimate_amplitude,
                          retrieve_phase)


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
    crop_rows: int | None = None
    quadrature_step: float = 0.05
    highpass_sigma: float | None = None     # None: pixels_per_unit / 4
    band_halfwidth: int = 2
    fringe_ratio_alpha: float = 0.7
    origins: tuple[tuple[int, int], ...] = ((0, 0),)
    seed: int = 0
    outdir: str = "out"
    object_file: str | None = None          # CF32 path; None draws a random object

    def sim_config(self) -> SimConfig:
        return SimConfig(pixels_per_unit=self.pixels_per_unit,
                         noise_sigma=self.noise_sigma,
                         crop_rows=self.crop_rows)

    def detect_config(self) -> DetectConfig:
        sigma = self.highpass_sigma
        if sigma is None:
            sigma = max(1.0, self.pixels_per_unit / 4)
        return DetectConfig(highpass_sigma=sigma,
                            band_halfwidth=self.band_halfwidth,
                            fringe_ratio_alpha=self.fringe_ratio_alpha)

    def grid(self) -> GridSpec:
        return GridSpec(s1=self.s1, s2=self.s2,
                        pixels_per_unit=self.pixels_per_unit,
                        crop_rows=self.sim_config().effective_crop_rows)

    def psf(self) -> PsfModel:
        return PsfModel(self.psf_kind, self.psf_radius, step=self.quadrature_step)

    def echo(self) -> dict:
        return {
            "s1": self.s1, "s2": self.s2, "pixels_per_unit": self.pixels_per_unit,
            "psf_kind": self.psf_kind, "psf_radius": self.psf_radius, "m": self.m,
            "noise_sigma": self.noise_sigma, "crop_rows": self.grid().crop_rows,
            "quadrature_step": self.quadrature_step,
            "highpass_sigma": self.detect_config().highpass_sigma,
            "band_halfwidth": self.band_halfwidth,
            "fringe_ratio_alpha": self.fringe_ratio_alpha,
            "origins": [list(o) for o in self.origins],
            "seed": self.seed,
            "object_file": self.object_file,
        }


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


def simulate_measurements(obj: ComplexField, pattern_set, model: PsfModel,
                          sim_cfg: SimConfig, seed: int) -> list:
    """One frame per pattern; per-frame seeds derive from the run seed."""
    return [simulate_measurement_2d(obj, pattern, model, sim_cfg, seed=seed + j)
            for j, pattern in enumerate(pattern_set.patterns, start=1)]


def detect_measurements(images: list, grid: GridSpec,
                        detect_cfg: DetectConfig) -> list[FringeMaps]:
    return [recognize_fringes(img, grid, detect_cfg, measurement_index=j)
            for j, img in enumerate(images, start=1)]


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    h.update(path.read_bytes())
    return h.hexdigest()


def run_pipeline(cfg: RunConfig) -> dict:
    """Execute the full chain and write all artifacts plus a manifest.

    Returns the manifest dictionary. Any stage failure raises StageError
    naming the stage.
    """
    outdir = Path(cfg.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    def save(name: str, writer, *args) -> Path:
        path = outdir / name
        writer(path, *args)
        written.append(path)
        return path

    def stage(name):
        def wrap(fn, *args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except StageError:
                raise
            except Exception as exc:
                raise StageError(name, exc) from exc
        return wrap

    grid = cfg.grid()
    model = stage("simulate")(cfg.psf)      # rejects a bad step before any write
    pattern_set = stage("patterns")(make_patterns, cfg.m, cfg.s1, cfg.s2)
    lib = reference_library(pattern_set)
    for j, pattern in enumerate(pattern_set.patterns, start=1):
        grey = expand_to_pixels(encode_8bit(pattern), cfg.pixels_per_unit)
        save(f"pattern_j{j}.pgm", fileio.write_pgm8, grey)
    save("reference_library.csv", fileio.write_reference_library_csv, lib)

    if cfg.object_file is not None:
        obj = stage("object")(fileio.read_complex_field, cfg.object_file)
        if obj.shape != (cfg.s1, cfg.s2):
            raise StageError("object", ValueError(
                f"object shape {obj.shape} does not match grid ({cfg.s1}, {cfg.s2})"))
    else:
        obj = random_quantized_object(cfg.s1, cfg.s2, cfg.m, cfg.seed)
    save("object.cf32", fileio.write_complex_field, obj)

    images = stage("simulate")(simulate_measurements, obj, pattern_set, model,
                               cfg.sim_config(), cfg.seed)
    for j, img in enumerate(images, start=1):
        save(f"measurement_j{j}.pgm", fileio.write_pgm16, img)

    maps = stage("detect")(detect_measurements, images, grid, cfg.detect_config())
    for fm in maps:
        save(f"fringes_row_j{fm.measurement_index}.csv",
             fileio.write_fringe_maps_csv, fm, "row")
        save(f"fringes_col_j{fm.measurement_index}.csv",
             fileio.write_fringe_maps_csv, fm, "col")

    invalid, ratios = stage("mark-invalid")(mark_invalid_and_ratios, maps, lib)
    save("matrix_a.csv", fileio.write_bool_grid_csv, invalid.matrix_a)
    save("matrix_b.csv", fileio.write_bool_grid_csv, invalid.matrix_b)
    save("edge_ratios.csv", fileio.write_edge_ratios_csv, ratios)

    origins = list(cfg.origins)
    plans = []
    for k, origin in enumerate(origins, start=1):
        plans.append(stage("paths")(plan_with_retry, invalid, [origin]))
        save(f"path_plan_origin{k}.csv", fileio.write_path_plan_csv, plans[-1])

    phase, provenance = stage("reconstruct")(retrieve_phase, invalid, ratios,
                                             origins, plans)
    amplitude = stage("reconstruct")(estimate_amplitude, images, grid,
                                     cfg.band_halfwidth + 1)
    rec = compose(phase, amplitude, provenance)
    save("reconstruction.cf32", fileio.write_complex_field, rec.complex_image)

    truth = ComplexField(obj.values / np.abs(obj.values).max())
    metrics = stage("metrics")(compose_and_score, phase, amplitude, truth)
    save("metrics.csv", fileio.write_metrics_csv,
         metrics.phase_rmse, metrics.complex_l2, metrics.unknown_frac)

    manifest = {
        "config": cfg.echo(),
        "metrics": {"phase_rmse": metrics.phase_rmse,
                    "complex_l2": metrics.complex_l2,
                    "unknown_frac": metrics.unknown_frac},
        "files": {p.name: _sha256(p) for p in sorted(written)},
    }
    (outdir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest
