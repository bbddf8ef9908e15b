"""Command-line front end.

Subcommands map one-to-one onto the pipeline stages plus the two study tools
(psf-sweep, montecarlo-blocking). A --config file of key=value lines seeds the
options; explicit flags override it. Exit status: 0 on success, 1 on usage
errors, 2 when a stage fails.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import fileio
from .boundary_logic import mark_invalid_and_ratios
from .forward_model import fringe_radius_sweep
from .fringe_detect import FringeMaps, recognize_fringes
from .patterns import encode_8bit, expand_to_pixels, make_patterns, reference_library
from .path_search import blocking_montecarlo, plan_with_retry
from .pipeline import RunConfig, StageError, run_pipeline
from .reconstruct import compose_and_score


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _parse_config_file(path: str) -> dict[str, str]:
    values = {}
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise _UsageError(f"bad config line (expected key=value): {line!r}")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


def _parse_origins(text: str) -> tuple[tuple[int, int], ...]:
    origins = []
    for part in text.split(";"):
        r, c = part.split(",")
        origins.append((int(r), int(c)))
    return tuple(origins)


_CONFIG_CASTS = {
    "s1": int, "s2": int, "pixels_per_unit": int, "m": int, "seed": int,
    "band_halfwidth": int, "crop_rows": int,
    "psf_radius": float, "noise_sigma": float, "quadrature_step": float,
    "highpass_sigma": float, "fringe_ratio_alpha": float,
    "psf_kind": str, "outdir": str, "object_file": str,
    "origins": _parse_origins,
}


def _run_config(args) -> RunConfig:
    values: dict = {}
    if getattr(args, "config", None):
        for key, raw in _parse_config_file(args.config).items():
            if key not in _CONFIG_CASTS:
                raise _UsageError(f"unknown config key {key!r}")
            try:
                values[key] = _CONFIG_CASTS[key](raw)
            except ValueError as exc:
                raise _UsageError(
                    f"bad value for config key {key!r}: {raw!r} ({exc})") from exc
    for key in _CONFIG_CASTS:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    cfg = RunConfig(**values)
    try:
        _check_run_config(cfg)
    except ValueError as exc:
        raise _UsageError(f"bad run configuration: {exc}") from exc
    return cfg


def _check_run_config(cfg: RunConfig) -> None:
    """Build every configuration object the stages build, so that a bad value
    is a usage error before anything runs, not a stage failure."""
    cfg.psf()
    cfg.grid()            # builds sim_config() too
    cfg.detect_config()
    if cfg.m < 2:
        raise ValueError(f"m must be at least 2, got {cfg.m}")
    for r, c in cfg.origins:
        if not (0 <= r < cfg.s1 and 0 <= c < cfg.s2):
            raise ValueError(f"origin {(r, c)} outside the {cfg.s1} x {cfg.s2} grid")


def _add_run_options(sub):
    sub.add_argument("--config", help="key=value config file; flags override it")
    sub.add_argument("--s1", type=int)
    sub.add_argument("--s2", type=int)
    sub.add_argument("--pixels-per-unit", dest="pixels_per_unit", type=int)
    sub.add_argument("--psf-kind", dest="psf_kind", choices=("box", "exponential", "gaussian"))
    sub.add_argument("--psf-radius", dest="psf_radius", type=float)
    sub.add_argument("--m", type=int)
    sub.add_argument("--noise-sigma", dest="noise_sigma", type=float)
    sub.add_argument("--crop-rows", dest="crop_rows", type=int)
    sub.add_argument("--quadrature-step", dest="quadrature_step", type=float)
    sub.add_argument("--highpass-sigma", dest="highpass_sigma", type=float)
    sub.add_argument("--band-halfwidth", dest="band_halfwidth", type=int)
    sub.add_argument("--fringe-ratio-alpha", dest="fringe_ratio_alpha", type=float)
    sub.add_argument("--origins", type=_parse_origins,
                     help="semicolon-separated row,col pairs, e.g. '0,0;15,15'")
    sub.add_argument("--seed", type=int)
    sub.add_argument("--outdir")
    sub.add_argument("--object-file", dest="object_file")


def _csv_floats(text: str) -> list[float]:
    return [float(v) for v in text.split(",") if v]


def build_parser() -> _Parser:
    parser = _Parser(prog="darkfringe")
    subs = parser.add_subparsers(dest="command", required=True)

    for name in ("pipeline", "simulate", "detect", "mark-invalid",
                 "paths", "reconstruct", "metrics", "patterns"):
        sub = subs.add_parser(name)
        _add_run_options(sub)
        if name == "detect":
            sub.add_argument("--image", help="measurement PGM to analyze")
            sub.add_argument("--j", type=int, default=1, help="measurement index")
        if name == "metrics":
            sub.add_argument("--reconstruction", required=True)
            sub.add_argument("--truth", required=True)

    sweep = subs.add_parser("psf-sweep")
    sweep.add_argument("--kind", default="gaussian",
                       choices=("box", "exponential", "gaussian"))
    sweep.add_argument("--radii", type=_csv_floats, default=[2.0, 18.0, 34.0])
    sweep.add_argument("--delta-phis", dest="delta_phis", type=_csv_floats,
                       default=[round(0.1 * k, 1) for k in range(1, 10)],
                       help="phase differences in units of pi")
    sweep.add_argument("--unit-len", dest="unit_len", type=int, default=512)
    sweep.add_argument("--out", default="psf_sweep.csv")

    mc = subs.add_parser("montecarlo-blocking")
    mc.add_argument("--sigmas", type=_csv_floats, default=[0.05, 0.1, 0.2])
    mc.add_argument("--trials", type=int, default=1000)
    mc.add_argument("--s1", type=int, default=16)
    mc.add_argument("--s2", type=int, default=16)
    mc.add_argument("--seed", type=int, default=0)
    mc.add_argument("--out", default="blocking.csv")
    return parser


def _cmd_patterns(cfg: RunConfig) -> None:
    outdir = Path(cfg.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    pattern_set = make_patterns(cfg.m, cfg.s1, cfg.s2)
    for j, pattern in enumerate(pattern_set.patterns, start=1):
        grey = expand_to_pixels(encode_8bit(pattern), cfg.pixels_per_unit)
        fileio.write_pgm8(outdir / f"pattern_j{j}.pgm", grey)
    fileio.write_reference_library_csv(outdir / "reference_library.csv",
                                       reference_library(pattern_set))
    print(f"wrote {cfg.m} patterns and reference library to {outdir}")


def _cmd_simulate(cfg: RunConfig) -> None:
    from .pipeline import random_quantized_object, simulate_measurements
    outdir = Path(cfg.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    if cfg.object_file:
        obj = fileio.read_complex_field(cfg.object_file)
    else:
        obj = random_quantized_object(cfg.s1, cfg.s2, cfg.m, cfg.seed)
        fileio.write_complex_field(outdir / "object.cf32", obj)
    pattern_set = make_patterns(cfg.m, cfg.s1, cfg.s2)
    images = simulate_measurements(obj, pattern_set, cfg.psf(),
                                   cfg.sim_config(), cfg.seed)
    for j, img in enumerate(images, start=1):
        fileio.write_pgm16(outdir / f"measurement_j{j}.pgm", img)
    print(f"wrote {len(images)} measurements to {outdir}")


def _cmd_detect(cfg: RunConfig, image: str | None, j: int) -> None:
    outdir = Path(cfg.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    grid = cfg.grid()
    if image is None:
        image = str(outdir / f"measurement_j{j}.pgm")
    img = fileio.read_pgm16(image, pixels_per_unit=cfg.pixels_per_unit)
    maps = recognize_fringes(img, grid, cfg.detect_config(), measurement_index=j)
    fileio.write_fringe_maps_csv(outdir / f"fringes_row_j{j}.csv", maps, "row")
    fileio.write_fringe_maps_csv(outdir / f"fringes_col_j{j}.csv", maps, "col")
    print(f"wrote fringe maps for measurement {j} to {outdir}")


def _load_maps(outdir: Path, m: int) -> list[FringeMaps]:
    maps = []
    for j in range(1, m + 1):
        _, _, rows = fileio.read_fringe_maps_csv(outdir / f"fringes_row_j{j}.csv")
        _, _, cols = fileio.read_fringe_maps_csv(outdir / f"fringes_col_j{j}.csv")
        maps.append(FringeMaps(row_map=rows, col_map=cols, measurement_index=j))
    return maps


def _cmd_mark_invalid(cfg: RunConfig) -> None:
    outdir = Path(cfg.outdir)
    lib = fileio.read_reference_library_csv(outdir / "reference_library.csv")
    maps = _load_maps(outdir, cfg.m)
    invalid, ratios = mark_invalid_and_ratios(maps, lib)
    fileio.write_bool_grid_csv(outdir / "matrix_a.csv", invalid.matrix_a)
    fileio.write_bool_grid_csv(outdir / "matrix_b.csv", invalid.matrix_b)
    fileio.write_edge_ratios_csv(outdir / "edge_ratios.csv", ratios)
    print(f"{int(invalid.matrix_a.sum() + invalid.matrix_b.sum())} invalid boundaries")


def _cmd_paths(cfg: RunConfig) -> None:
    outdir = Path(cfg.outdir)
    invalid = fileio.read_invalid_maps(outdir / "matrix_a.csv", outdir / "matrix_b.csv")
    for k, origin in enumerate(cfg.origins, start=1):
        plan = plan_with_retry(invalid, [origin])
        fileio.write_path_plan_csv(outdir / f"path_plan_origin{k}.csv", plan)
        unreachable = int((~plan.reachable_mask()).sum())
        print(f"origin {origin}: {unreachable} unreachable units")


def _cmd_reconstruct(cfg: RunConfig) -> None:
    from .reconstruct import compose, estimate_amplitude, retrieve_phase
    outdir = Path(cfg.outdir)
    grid = cfg.grid()
    invalid = fileio.read_invalid_maps(outdir / "matrix_a.csv", outdir / "matrix_b.csv")
    ratios = fileio.read_edge_ratios_csv(outdir / "edge_ratios.csv", cfg.s1, cfg.s2)
    images = [fileio.read_pgm16(outdir / f"measurement_j{j}.pgm",
                                pixels_per_unit=cfg.pixels_per_unit)
              for j in range(1, cfg.m + 1)]
    phase, provenance = retrieve_phase(invalid, ratios, list(cfg.origins))
    amplitude = estimate_amplitude(images, grid, cfg.band_halfwidth + 1)
    rec = compose(phase, amplitude, provenance)
    fileio.write_complex_field(outdir / "reconstruction.cf32", rec.complex_image)
    print(f"wrote reconstruction.cf32 ({int(np.isnan(phase).sum())} unknown units)")


def _cmd_metrics(cfg: RunConfig, reconstruction: str, truth: str) -> None:
    rec = fileio.read_complex_field(reconstruction)
    tru = fileio.read_complex_field(truth)
    amp = np.abs(rec.values)
    phase = np.where(amp > 0, np.mod(np.angle(rec.values), 2 * np.pi), np.nan)
    metrics = compose_and_score(phase, amp, tru)
    outdir = Path(cfg.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    fileio.write_metrics_csv(outdir / "metrics.csv", metrics.phase_rmse,
                             metrics.complex_l2, metrics.unknown_frac)
    print(f"phase_rmse={metrics.phase_rmse!r} complex_l2={metrics.complex_l2!r} "
          f"unknown_frac={metrics.unknown_frac!r}")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        if args.command == "psf-sweep":
            rows = fringe_radius_sweep([w * np.pi for w in args.delta_phis],
                                       args.radii, args.unit_len, args.kind)
            fileio.write_sweep_csv(args.out, rows)
            print(f"wrote {len(rows)} sweep rows to {args.out}")
            return 0
        if args.command == "montecarlo-blocking":
            stats = blocking_montecarlo((args.s1, args.s2), args.sigmas,
                                        args.trials, args.seed)
            fileio.write_blocking_stats_csv(args.out, stats)
            for s in stats:
                print(f"sigma={s.sigma}: single={s.single_pass_block_rate} "
                      f"retry={s.retry_block_rate}")
            return 0
        cfg = _run_config(args)
        if args.command == "pipeline":
            manifest = run_pipeline(cfg)
            print(f"pipeline done: metrics={manifest['metrics']}")
        elif args.command == "patterns":
            _cmd_patterns(cfg)
        elif args.command == "simulate":
            _cmd_simulate(cfg)
        elif args.command == "detect":
            _cmd_detect(cfg, args.image, args.j)
        elif args.command == "mark-invalid":
            _cmd_mark_invalid(cfg)
        elif args.command == "paths":
            _cmd_paths(cfg)
        elif args.command == "reconstruct":
            _cmd_reconstruct(cfg)
        elif args.command == "metrics":
            _cmd_metrics(cfg, args.reconstruction, args.truth)
        return 0
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except StageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
