"""Command-line front end.

Subcommands map one-to-one onto the pipeline stages plus the two study tools
(psf-sweep, montecarlo-blocking). Each stage subcommand reads its inputs back
from --outdir and runs the same stage function as `pipeline` on the same
data (the 16-bit measurement frames, the path plans `paths` wrote), so both
write the same files; `simulate` writes object.cf32 too, which `metrics
--truth` reads, and `mark-invalid` refuses a fringe map whose kind=/j= header
is not the one its file name says. Each stage checks every frame, 0/1 grid
and plan it reads against the --s1 x --s2 grid, and the reference library
against --m, so another run's artifacts fail the stage, naming the file and
both shapes or counts. A --config file of key=value lines seeds the
options; explicit flags override it. A configuration that RunConfig.check
rejects, and an argument that a study tool rejects, is a usage error; the
CLI's own rule is only --j's range 1..m.
Exit status: 0 on success, 1 on usage errors, 2 when a stage fails, with the
stage named on stderr.

A process builds the parser once (`build_parser` is cached), and every `main`
call parses its argv with it; no call changes the parser or its defaults.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

import numpy as np

from . import fileio, pipeline
from .boundary_logic import InvalidBoundaryMaps
from .forward_model import PSF_KINDS, IntensityImage, fringe_radius_sweep
from .fringe_detect import FringeMaps
from .path_search import PathPlan, blocking_montecarlo
from .patterns import ReferenceLibrary, make_patterns
from .pipeline import RunConfig, run_pipeline, stage


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _parse_config_file(path: str) -> dict[str, str]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise _UsageError(f"cannot read config file {path!r}: {exc}") from exc
    values = {}
    for line in text.splitlines():
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


# config key -> cast; each key is also the run flag --key-with-dashes
_CONFIG_CASTS = {
    "s1": int, "s2": int, "pixels_per_unit": int, "psf_kind": str,
    "psf_radius": float, "m": int, "noise_sigma": float, "crop_rows": int,
    "band_halfwidth": int, "fringe_ratio_alpha": float,
    "origins": _parse_origins, "seed": int, "outdir": str, "object_file": str,
}

_FLAG_EXTRAS = {
    "psf_kind": {"choices": PSF_KINDS},
    "origins": {"help": "semicolon-separated row,col pairs, e.g. '0,0;15,15'"},
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
        cfg.check()
    except ValueError as exc:
        raise _UsageError(f"bad run configuration: {exc}") from exc
    return cfg


def _add_run_options(sub):
    sub.add_argument("--config", help="key=value config file; flags override it")
    for key, cast in _CONFIG_CASTS.items():
        sub.add_argument("--" + key.replace("_", "-"), dest=key, type=cast,
                         **_FLAG_EXTRAS.get(key, {}))


def _csv_floats(text: str) -> list[float]:
    return [float(v) for v in text.split(",") if v]


@functools.cache
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
    sweep.add_argument("--kind", default="gaussian", choices=PSF_KINDS)
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


def _run_stage(args, cfg: RunConfig) -> str:
    """Run one stage subcommand on the artifacts in --outdir through the
    pipeline's own stage function; returns the line to print."""
    if args.command == "detect" and not 1 <= args.j <= cfg.m:
        raise _UsageError(f"--j must be in 1..{cfg.m}, got {args.j}")
    outdir = Path(cfg.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    indices = range(1, cfg.m + 1)

    def save(name: str, writer, *data) -> None:
        writer(outdir / name, *data)

    def fitted(path, values: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
        """`values`, read from `path`, if they have the `shape` this run's
        grid needs, else an error naming the file and both shapes. A 0/1
        grid of no rows is written as an empty file, read as shape (0,)."""
        if values.shape == (0,) and shape[0] == 0:
            values = values.reshape(shape)
        if values.shape != shape:
            raise ValueError(f"{str(path)!r} holds shape {values.shape}, but the "
                             f"{cfg.s1} x {cfg.s2} grid needs {shape}")
        return values

    shapes = {"row": (cfg.s1, cfg.s2 - 1), "col": (cfg.s1 - 1, cfg.s2)}

    def fringe_map(j: int, kind: str) -> np.ndarray:
        path = outdir / f"fringes_{kind}_j{j}.csv"
        found_kind, found_j, grid = fileio.read_fringe_maps_csv(path)
        if (found_kind, found_j) != (kind, j):
            raise ValueError(f"fringe map {str(path)!r} holds kind={found_kind},"
                             f"j={found_j}, expected kind={kind},j={j}")
        return fitted(path, grid, shapes[kind])

    def matrix(name: str, kind: str) -> np.ndarray:
        path = outdir / name
        return fitted(path, fileio.read_bool_grid_csv(path), shapes[kind])

    def frame(path) -> IntensityImage:
        image = fileio.read_pgm16(path)
        fitted(path, image.values, (cfg.grid().height, cfg.grid().width))
        return image

    def plan(k: int, origin: tuple[int, int]) -> PathPlan:
        path = outdir / f"path_plan_origin{k}.csv"
        plan = fileio.read_path_plan_csv(path, origin)
        fitted(path, plan.parent, (cfg.s1, cfg.s2))
        return plan

    def library() -> ReferenceLibrary:
        path = outdir / "reference_library.csv"
        lib = fileio.read_reference_library_csv(path)
        if len(lib) != cfg.m:
            raise ValueError(f"{str(path)!r} holds {len(lib)} ratios, but m = {cfg.m}")
        return lib

    def fringe_maps(j: int) -> FringeMaps:
        return FringeMaps(row_map=fringe_map(j, "row"), col_map=fringe_map(j, "col"),
                          measurement_index=j)

    command = args.command
    if command == "patterns":
        stage("patterns", pipeline.write_patterns, cfg, save)
        return f"wrote {cfg.m} patterns and reference library to {outdir}"
    if command == "simulate":
        obj = stage("object", pipeline.load_object, cfg, save)
        for j, pattern in enumerate(make_patterns(cfg.m, cfg.s1, cfg.s2).patterns, start=1):
            stage("simulate", pipeline.simulate, cfg, obj, pattern, j, save)
        return f"wrote {cfg.m} measurements to {outdir}"
    if command == "detect":
        image = args.image or outdir / f"measurement_j{args.j}.pgm"
        stage("detect", lambda: pipeline.detect(cfg, frame(image), args.j, save))
        return f"wrote fringe maps for measurement {args.j} to {outdir}"
    if command == "mark-invalid":
        invalid, _ = stage("mark-invalid", lambda: pipeline.mark_invalid(
            cfg, [fringe_maps(j) for j in indices], library(), save))
        return f"{int(invalid.matrix_a.sum() + invalid.matrix_b.sum())} invalid boundaries"
    if command == "paths":
        plans = stage("paths", lambda: pipeline.plan(cfg, InvalidBoundaryMaps(
            matrix("matrix_a.csv", "row"), matrix("matrix_b.csv", "col")), save))
        return "\n".join(f"origin {origin}: {int((~p.reachable_mask()).sum())} "
                         "unreachable units" for origin, p in zip(cfg.origins, plans))
    if command == "reconstruct":
        rec = stage("reconstruct", lambda: pipeline.reconstruct(
            cfg, fileio.read_edge_ratios_csv(outdir / "edge_ratios.csv", cfg.s1, cfg.s2),
            [plan(k, origin) for k, origin in enumerate(cfg.origins, start=1)],
            [outdir / f"measurement_j{j}.pgm" for j in indices],
            save))
        unknown = int(np.count_nonzero(rec.values == 0))
        return f"wrote reconstruction.cf32 ({unknown} unknown units)"

    def scored():
        """--reconstruction scored against --truth; files of two shapes, or
        a pair with no score, are an error naming both."""
        rec, truth = map(fileio.read_complex_field, (args.reconstruction, args.truth))
        if rec.shape != truth.shape:
            raise ValueError(f"{args.reconstruction!r} holds shape {rec.shape}, but "
                             f"{args.truth!r} holds shape {truth.shape}")
        try:
            return pipeline.score(cfg, rec, truth, save)
        except ValueError as exc:
            raise ValueError(f"{exc}, scoring {args.reconstruction!r} against the truth "
                             f"{args.truth!r}") from None

    metrics = stage("metrics", scored)
    return (f"phase_rmse={metrics.phase_rmse!r} complex_l2={metrics.complex_l2!r} "
            f"unknown_frac={metrics.unknown_frac!r}")


def _study(command: str, tool, *args):
    """Run a study tool. It reads no file, so a ValueError from it rejects
    one of its arguments: a usage error."""
    try:
        return tool(*args)
    except ValueError as exc:
        raise _UsageError(f"bad {command} argument: {exc}") from exc


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        if args.command == "psf-sweep":
            rows = _study(args.command, fringe_radius_sweep,
                          [w * np.pi for w in args.delta_phis], args.radii,
                          args.unit_len, args.kind)
            stage(args.command, fileio.write_sweep_csv, args.out, rows)
            print(f"wrote {len(rows)} sweep rows to {args.out}")
            return 0
        if args.command == "montecarlo-blocking":
            stats = _study(args.command, blocking_montecarlo, (args.s1, args.s2),
                           args.sigmas, args.trials, args.seed)
            stage(args.command, fileio.write_blocking_stats_csv, args.out, stats)
            for s in stats:
                print(f"sigma={s.sigma}: single={s.single_pass_block_rate} "
                      f"retry={s.retry_block_rate}")
            return 0
        cfg = _run_config(args)
        if args.command == "pipeline":
            manifest = run_pipeline(cfg)
            print(f"pipeline done: metrics={manifest['metrics']}")
        else:
            print(_run_stage(args, cfg))
        return 0
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

if __name__ == "__main__":
    sys.exit(main())
