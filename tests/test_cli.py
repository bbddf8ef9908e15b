import hashlib
import json
import re
import shutil
import tempfile
import tracemalloc
import warnings
import weakref
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import darkfringe.fileio as fio
import darkfringe.forward_model as forward_model
import darkfringe.pipeline as pipeline
from darkfringe.boundary_logic import EdgeRatios
from darkfringe.cli import main
from darkfringe.forward_model import (LEVELS, PSF_KINDS, ComplexField, IntensityImage,
                                      simulate_measurement_2d)
from darkfringe.patterns import make_patterns
from darkfringe.pipeline import (RunConfig, StageError, random_quantized_object,
                                 run_pipeline)


def test_pipeline_default_noiseless(tmp_path):
    cfg = RunConfig(s1=8, s2=8, seed=4, outdir=str(tmp_path / "run"),
                    origins=((0, 0), (7, 7)))
    manifest = run_pipeline(cfg)
    assert manifest["metrics"]["phase_rmse"] == 0.0
    assert manifest["metrics"]["unknown_frac"] == 0.0
    outdir = tmp_path / "run"
    for name in ("manifest.json", "object.cf32", "reconstruction.cf32",
                 "matrix_a.csv", "matrix_b.csv", "edge_ratios.csv",
                 "metrics.csv", "reference_library.csv"):
        assert (outdir / name).exists()
    for j in range(1, 5):
        assert (outdir / f"measurement_j{j}.pgm").exists()
        assert (outdir / f"pattern_j{j}.pgm").exists()
        assert (outdir / f"fringes_row_j{j}.csv").exists()
        assert (outdir / f"fringes_col_j{j}.csv").exists()


def test_pipeline_manifest_lists_all_files_with_checksums(tmp_path):
    cfg = RunConfig(s1=4, s2=4, seed=1, outdir=str(tmp_path / "run"))
    manifest = run_pipeline(cfg)
    outdir = tmp_path / "run"
    disk = {p.name for p in outdir.iterdir()} - {"manifest.json"}
    assert set(manifest["files"]) == disk
    assert all(len(h) == 64 for h in manifest["files"].values())


def test_pipeline_reproducible_byte_identical(tmp_path):
    kwargs = dict(s1=6, s2=6, seed=11, noise_sigma=0.01)
    run_pipeline(RunConfig(outdir=str(tmp_path / "a"), **kwargs))
    run_pipeline(RunConfig(outdir=str(tmp_path / "b"), **kwargs))
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


@pytest.mark.parametrize("m", [2, 4, 7])
def test_pipeline_builds_the_field_windows_once(tmp_path, m):
    # each frame's PSF is a separately built but equal model: one cache entry
    forward_model._field_windows.cache_clear()
    run_pipeline(RunConfig(s1=4, s2=5, pixels_per_unit=8, psf_radius=2.0, m=m,
                           noise_sigma=0.01, outdir=str(tmp_path / "run")))
    info = forward_model._field_windows.cache_info()
    assert (info.misses, info.hits) == (1, m - 1)


def test_pipeline_single_unit_grid(tmp_path):
    manifest = run_pipeline(RunConfig(s1=1, s2=1, seed=0, outdir=str(tmp_path / "one")))
    assert manifest["metrics"]["phase_rmse"] == 0.0
    assert manifest["metrics"]["unknown_frac"] == 0.0


def test_pipeline_object_shape_mismatch(tmp_path):
    from darkfringe.forward_model import ComplexField
    obj_path = tmp_path / "obj.cf32"
    fio.write_complex_field(obj_path, ComplexField(np.ones((3, 3), complex)))
    cfg = RunConfig(s1=4, s2=4, outdir=str(tmp_path / "run"),
                    object_file=str(obj_path))
    with pytest.raises(StageError):
        run_pipeline(cfg)


def test_pipeline_rejects_an_all_zero_object(tmp_path):
    obj_path = tmp_path / "zero.cf32"
    fio.write_complex_field(obj_path, ComplexField(np.zeros((4, 4), complex)))
    outdir = tmp_path / "run"
    with pytest.raises(StageError, match="zero everywhere") as info:
        run_pipeline(RunConfig(s1=4, s2=4, pixels_per_unit=8, psf_radius=2.0,
                               outdir=str(outdir), object_file=str(obj_path)))
    assert info.value.stage == "object"
    assert not list(outdir.glob("measurement_*"))


def test_pipeline_frames_are_16_bit_levels(tmp_path, monkeypatch):
    # each frame is read out before the next is simulated, so no float frame
    # outlives its readout; what the later stages get is the 16-bit levels,
    # read out over the frame's own memory, and the scale the PGM file holds
    floats = []

    def simulate_one(*args, **kwargs):
        assert all(ref() is None for ref in floats), "a float frame outlived its readout"
        img = simulate_measurement_2d(*args, **kwargs)
        floats.append(weakref.ref(img.values))
        return img

    monkeypatch.setattr(pipeline, "simulate_measurement_2d", simulate_one)
    cfg = RunConfig(s1=4, s2=5, pixels_per_unit=8, psf_radius=2.0, noise_sigma=0.02,
                    seed=3, outdir=str(tmp_path))
    saved = {}
    obj = random_quantized_object(4, 5, 4, 3)
    frames = [pipeline.simulate(cfg, obj, pattern, j,
                                lambda name, writer, *args: saved.setdefault(name, args))
              for j, pattern in enumerate(make_patterns(4, 4, 5).patterns, start=1)]
    assert len(floats) == len(frames) == 4
    assert all(ref() is None for ref in floats)
    for j, frame in enumerate(frames, start=1):
        assert frame.values.dtype.itemsize == 2 and frame.values.dtype.kind == "u"
        assert saved[f"measurement_j{j}.pgm"] == (frame,)
        fio.write_pgm16(tmp_path / "frame.pgm", frame)
        back = fio.read_pgm16(tmp_path / "frame.pgm")
        assert back.scale == frame.scale != 1.0
        assert back.values.tobytes() == frame.values.tobytes()


def test_simulate_and_detect_hold_one_float_frame(tmp_path):
    # a 512 x 512 px frame (16 x 16 units at 32 px): simulate reads it out
    # into its own float32 memory and writes it, and detect reads those
    # levels, so the two stages hold at most the float32 frame (4 B/px), two
    # strip buffers (complex64 field strips, then float64 readout strips)
    # and detection's sums, plus the worker thread's objects (~10 KB); a
    # levels array of its own (2 B/px, 512 KB) would not fit
    cfg = RunConfig(s1=16, s2=16, noise_sigma=0.01, outdir=str(tmp_path))
    obj = random_quantized_object(16, 16, 4, 0)
    pattern = make_patterns(4, 16, 16).patterns[0]

    def save(name, writer, *args):
        writer(tmp_path / name, *args)

    def both():
        pipeline.detect(cfg, pipeline.simulate(cfg, obj, pattern, 1, save), 1, save)

    both()   # builds the cached windows of both stages
    tracemalloc.start()
    try:
        both()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    grid = cfg.grid()
    sums = 8 * (grid.s1 * grid.width + grid.height * grid.s2)
    assert peak <= 4 * 512 * 512 + 2 * 8 * forward_model.STRIP_PIXELS + sums + 32768


@pytest.mark.parametrize("noise", ["0", "0.01"])
@pytest.mark.parametrize("amplitude", [1e20, 1e-30])
def test_cli_pipeline_reconstructs_any_float32_amplitude(tmp_path, amplitude, noise):
    # |F|^2 of these objects (~1e40 and ~1e-60) lies outside float32's
    # range: simulation brings the source to a peak amplitude in [0.5, 1)
    # by a power of two, which the frame's scale undoes, so the run exits 0
    # and retrieves the phase
    obj_path = tmp_path / "obj.cf32"
    fio.write_complex_field(obj_path, ComplexField(
        amplitude * random_quantized_object(4, 4, 4, 0).values))
    out = tmp_path / "run"
    assert main(["pipeline", "--s1", "4", "--s2", "4", "--noise-sigma", noise,
                 "--object-file", str(obj_path), "--outdir", str(out)]) == 0
    assert _metrics_row(out / "metrics.csv")["phase_rmse"] <= 1e-12


def test_runs_draw_no_frame_noise_of_another_run():
    # frame j draws its noise from the pair (run seed, j): frame 2 of run
    # seed 1 and frame 1 of run seed 2, whose seed + j is the same, draw
    # different noise over the same object and pattern
    obj = ComplexField(np.ones((4, 4), dtype=complex))
    pattern = make_patterns(4, 4, 4).patterns[0]
    config = dict(s1=4, s2=4, pixels_per_unit=8, psf_radius=2.0, noise_sigma=0.05)
    frames = [pipeline.simulate(RunConfig(seed=seed, **config), obj, pattern, j,
                                lambda *args: None)
              for seed, j in ((1, 2), (2, 1))]
    assert not np.array_equal(frames[0].values, frames[1].values)


def test_pipeline_bad_quadrature_step_writes_nothing(tmp_path):
    outdir = tmp_path / "run"
    with pytest.raises(StageError) as info:
        run_pipeline(RunConfig(s1=2, s2=2, quadrature_step=0.3, outdir=str(outdir)))
    assert info.value.stage == "config"
    assert not any(outdir.iterdir())


def test_pipeline_builds_the_pattern_set_once(tmp_path):
    # the patterns stage's pattern set is the one the frames are simulated
    # through: no stage rebuilds it
    calls = []

    def counted(*args):
        calls.append(args)
        return make_patterns(*args)

    with mock.patch.object(pipeline, "make_patterns", counted):
        run_pipeline(RunConfig(s1=4, s2=4, pixels_per_unit=8, psf_radius=2.0, m=3,
                               outdir=str(tmp_path)))
    assert calls == [(3, 4, 4)]


# 4 x 4 units at 8 px/unit, r = 2: a band of half-width 4 does not fit a unit
# (detection's rule); half-width 3 erodes the 8 px units by 4 px per side
# for their amplitudes, and 6 cropped rows leave unit row 0 no interior row
# after the default erosion of 3
SMALL_CONFIG = dict(s1=4, s2=4, pixels_per_unit=8, psf_radius=2.0)
SMALL_RUN = ["--s1", "4", "--s2", "4", "--pixels-per-unit", "8", "--psf-radius", "2"]


@pytest.mark.parametrize("bad", [
    dict(band_halfwidth=4), dict(band_halfwidth=3), dict(crop_rows=6),
    dict(noise_sigma=-0.1), dict(origins=((9, 9),)), dict(origins=()), dict(m=1),
    dict(noise_sigma=float("nan")), dict(psf_radius=float("inf")), dict(psf_radius=1e12),
    dict(seed=-5),
], ids=["band-halfwidth-4", "band-halfwidth-3", "crop-rows-6", "noise-sigma",
        "origin-off-grid", "no-origin", "m-1", "noise-sigma-nan",
        "psf-radius-inf", "psf-radius-1e12", "seed-negative"])
def test_pipeline_bad_run_config_fails_before_any_write(tmp_path, bad):
    outdir = tmp_path / "run"
    with pytest.raises(StageError) as info:
        run_pipeline(RunConfig(outdir=str(outdir), **{**SMALL_CONFIG, **bad}))
    assert info.value.stage == "config"
    assert not any(outdir.iterdir())


@st.composite
def small_run_configs(draw):
    """Run settings on grids of at most 4 x 4 units at 4-12 px/unit: every
    PSF kind, crop and band width, m 2-5, one to three origins on the grid
    and, half the time, one more off it."""
    s1, s2, ppu = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(4, 12))
    origins = draw(st.lists(st.tuples(st.integers(0, s1 - 1), st.integers(0, s2 - 1)),
                            min_size=1, max_size=3))
    if draw(st.booleans()):
        off = draw(st.tuples(st.integers(-1, 4), st.integers(-1, 4)).filter(
            lambda o: not (0 <= o[0] < s1 and 0 <= o[1] < s2)))
        origins.insert(draw(st.integers(0, len(origins))), off)
    return RunConfig(s1=s1, s2=s2, pixels_per_unit=ppu,
                     psf_kind=draw(st.sampled_from(PSF_KINDS)),
                     psf_radius=draw(st.floats(0.25, 12.0)),
                     crop_rows=draw(st.one_of(st.none(), st.integers(0, ppu))),
                     band_halfwidth=draw(st.integers(1, 6)), m=draw(st.integers(2, 5)),
                     noise_sigma=draw(st.sampled_from([0.0, 0.02])),
                     origins=tuple(origins), seed=draw(st.integers(0, 50)))


@settings(max_examples=80, deadline=None)
@given(small_run_configs())
def test_checked_config_runs_or_is_rejected(cfg):
    # RunConfig.check is the one verdict on a run's settings: a configuration
    # it accepts runs through every stage
    try:
        cfg.check()
    except ValueError:
        return
    with tempfile.TemporaryDirectory() as outdir, warnings.catch_warnings():
        warnings.simplefilter("ignore")    # a PSF wide for its units only warns
        cfg.outdir = outdir
        run_pipeline(cfg)


def test_pipeline_plans_each_origin_once(tmp_path, monkeypatch):
    import darkfringe.path_search as path_search
    import darkfringe.pipeline as pipeline
    import darkfringe.reconstruct as reconstruct
    calls = []

    def counted(invalid, origins):
        calls.append(list(origins))
        return path_search.plan_with_retry(invalid, origins)

    for module in (pipeline, reconstruct):
        monkeypatch.setattr(module, "plan_with_retry", counted)
    origins = ((0, 0), (5, 5), (2, 3))
    manifest = run_pipeline(RunConfig(s1=6, s2=6, seed=3, origins=origins,
                                      outdir=str(tmp_path / "run")))
    assert calls == [[o] for o in origins]
    assert manifest["metrics"]["phase_rmse"] == 0.0


@pytest.mark.parametrize("flags", [
    ["--quadrature-step", "0.3"],
    ["--band-halfwidth", "0"],
    ["--m", "1"],
    ["--s1", "4", "--s2", "4", "--origins", "9,9"],
    ["--noise-sigma", "-0.1"],
    ["--pixels-per-unit", "3"],
    ["--crop-rows", "-1"],
    SMALL_RUN + ["--band-halfwidth", "4"],
    SMALL_RUN + ["--band-halfwidth", "3"],
    SMALL_RUN + ["--crop-rows", "6"],
    # non-finite settings: NaN fails every comparison and inf passes a lower
    # bound, so each range check must exclude both
    ["--noise-sigma", "nan"],
    ["--noise-sigma", "inf"],
    ["--psf-radius", "nan"],
    ["--psf-radius", "inf"],
    ["--psf-radius", "1e308"],
    # a finite radius above the frame's larger side (32 px), bounded before
    # the PSF tabulates 20 r / step entries
    SMALL_RUN[:-1] + ["1e12"],
    SMALL_RUN[:-1] + ["33"],
    # no SeedSequence takes a negative seed
    SMALL_RUN + ["--seed", "-5"],
    # a primitive table of 1.6e11 entries is refused before it is allocated
    ["--s1", "2", "--s2", "2", "--quadrature-step", "1e-9"],
], ids=["quadrature-step", "band-halfwidth", "m", "origins", "noise-sigma",
        "pixels-per-unit", "crop-rows", "band-wider-than-unit",
        "erosion-leaves-no-interior", "crop-leaves-no-interior",
        "noise-sigma-nan", "noise-sigma-inf", "psf-radius-nan", "psf-radius-inf",
        "psf-table-extent-inf", "psf-radius-1e12", "psf-radius-above-frame",
        "seed-negative", "psf-table-too-large"])
def test_cli_bad_run_config_is_usage_error(tmp_path, capsys, flags):
    outdir = tmp_path / "run"
    assert main(["pipeline", "--outdir", str(outdir)] + flags) == 1
    assert "usage error: bad run configuration" in capsys.readouterr().err
    assert not outdir.exists()


@pytest.mark.parametrize("j", ["0", "-1", "5", "7"])
def test_cli_detect_j_out_of_range_is_usage_error(tmp_path, capsys, j):
    # only measurements 1..m exist; any other --j writes nothing, even when
    # --image names a real frame
    run = ["--outdir", str(tmp_path), "--s1", "4", "--s2", "4",
           "--pixels-per-unit", "8", "--psf-radius", "2"]
    assert main(["simulate", *run]) == 0
    before = sorted(p.name for p in tmp_path.iterdir())
    capsys.readouterr()
    assert main(["detect", "--j", j, "--image", str(tmp_path / "measurement_j1.pgm"),
                 *run]) == 1
    assert f"usage error: --j must be in 1..4, got {j}" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == before


def test_cli_usage_error_exit_1(capsys):
    assert main(["no-such-command"]) == 1
    assert main(["metrics"]) == 1          # missing required flags
    assert main(["pipeline", "--origins", "oops"]) == 1


def test_cli_stage_error_exit_2(tmp_path):
    assert main(["detect", "--outdir", str(tmp_path), "--image",
                 str(tmp_path / "missing.pgm")]) == 2


def test_cli_pipeline_and_metrics(tmp_path, capsys):
    outdir = tmp_path / "run"
    assert main(["pipeline", "--s1", "6", "--s2", "6", "--seed", "2",
                 "--outdir", str(outdir)]) == 0
    assert main(["metrics", "--outdir", str(outdir),
                 "--reconstruction", str(outdir / "reconstruction.cf32"),
                 "--truth", str(outdir / "object.cf32")]) == 0
    out = capsys.readouterr().out
    assert "phase_rmse=0.0" in out


def test_cli_config_file_with_flag_override(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("s1=6\ns2=6\nseed=3\nnoise_sigma=0.0\n"
                      f"outdir={tmp_path / 'cfgrun'}\n")
    assert main(["pipeline", "--config", str(config), "--seed", "5"]) == 0
    manifest = (tmp_path / "cfgrun" / "manifest.json").read_text()
    assert '"seed": 5' in manifest
    assert '"s1": 6' in manifest


def test_cli_config_rejects_unknown_key(tmp_path):
    config = tmp_path / "bad.cfg"
    config.write_text("does_not_exist=1\n")
    assert main(["pipeline", "--config", str(config)]) == 1


def test_cli_config_bad_value_is_usage_error(tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    config.write_text("s1=abc\n")
    assert main(["pipeline", "--config", str(config),
                 "--outdir", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert "usage error" in err and "'s1'" in err and "'abc'" in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("name, data", [("missing.cfg", None), ("latin1.cfg", b"s1=\xe9\n")],
                         ids=["missing", "not-utf8"])
def test_cli_unreadable_config_file_is_usage_error(tmp_path, capsys, name, data):
    config = tmp_path / name
    if data is not None:
        config.write_bytes(data)
    assert main(["pipeline", "--config", str(config),
                 "--outdir", str(tmp_path / "run")]) == 1
    assert f"usage error: cannot read config file {str(config)!r}: " in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_cli_config_removed_edge_threshold_key(tmp_path):
    config = tmp_path / "old.cfg"
    config.write_text("edge_threshold_frac=0.2\n")
    assert main(["pipeline", "--config", str(config)]) == 1
    assert main(["pipeline", "--edge-threshold-frac", "0.2"]) == 1


def test_cli_removed_highpass_sigma_is_usage_error(tmp_path, capsys):
    # detection has no high-pass image any more, so its width is no setting:
    # neither the flag nor the config key runs, and neither writes a file
    outdir = tmp_path / "run"
    assert main(["pipeline", "--highpass-sigma", "2", "--outdir", str(outdir)]) == 1
    assert "usage error" in capsys.readouterr().err
    config = tmp_path / "old.cfg"
    config.write_text("highpass_sigma=2\n")
    assert main(["pipeline", "--config", str(config), "--outdir", str(outdir)]) == 1
    assert "usage error: unknown config key 'highpass_sigma'" in capsys.readouterr().err
    assert not outdir.exists()


def test_cli_run_with_no_known_unit_fails_in_metrics(tmp_path, capsys):
    # noise at twice the peak at 8 px/unit: every unit's amplitude median is
    # 0, so no unit of the reconstruction is known and the run has no score
    outdir = tmp_path / "run"
    assert main(["pipeline", "--s1", "16", "--s2", "16", "--pixels-per-unit", "8",
                 "--psf-radius", "2", "--noise-sigma", "2", "--seed", "2",
                 "--origins", "0,0;15,15", "--outdir", str(outdir)]) == 2
    err = capsys.readouterr().err
    assert "error: stage 'metrics' failed: no unit of the reconstruction is known" in err
    assert not (outdir / "metrics.csv").exists()
    # the manifest of a failed run: the config, the stage that failed and
    # the hash of every file on disk, and no metrics
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert set(manifest) == {"config", "failed_stage", "files"}
    assert manifest["failed_stage"] == "metrics"
    assert manifest["config"]["seed"] == 2
    on_disk = sorted(p.name for p in outdir.iterdir() if p.name != "manifest.json")
    assert sorted(manifest["files"]) == on_disk and len(on_disk) == 24
    for name in on_disk:
        assert manifest["files"][name] == hashlib.sha256((outdir / name).read_bytes()).hexdigest()


def test_cli_psf_sweep(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["psf-sweep", "--kind", "gaussian", "--radii", "2,18,34",
                 "--delta-phis", "0.5", "--unit-len", "125",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "delta_phi,radius,relative_intensity"
    assert len(lines) == 4


@pytest.mark.parametrize("argv, why", [
    (["montecarlo-blocking", "--trials", "50"], "need at least 100 trials"),
    (["psf-sweep", "--radii", "0"], "PSF radius must be positive"),
    (["psf-sweep", "--unit-len", "0"], "unit_len must be a positive integer"),
    (["montecarlo-blocking", "--sigmas", "1.5"], "sigma must be in [0, 1], got 1.5"),
    (["montecarlo-blocking", "--sigmas", "0.1,-0.1"], "sigma must be in [0, 1], got -0.1"),
    (["montecarlo-blocking", "--sigmas", "nan"], "sigma must be in [0, 1], got nan"),
    (["montecarlo-blocking", "--sigmas", ""], "need at least one sigma"),
    (["psf-sweep", "--unit-len", "1000000000"],
     "primitive table of step 0.05 over extent 9000000000.0 needs 180000000001 entries"),
], ids=["trials-50", "radius-0", "unit-len-0", "sigma-1.5", "sigma-negative", "sigma-nan",
        "sigmas-empty", "unit-len-table-too-large"])
def test_cli_study_tool_bad_argument_is_usage_error(tmp_path, capsys, argv, why):
    out = tmp_path / "study.csv"
    assert main(argv + ["--out", str(out)]) == 1
    assert f"usage error: bad {argv[0]} argument: {why}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["psf-sweep", "--unit-len", "16", "--radii", "2", "--delta-phis", "0.5"],
    ["montecarlo-blocking", "--sigmas", "0.1", "--trials", "100", "--s1", "4", "--s2", "4"],
], ids=["psf-sweep", "montecarlo-blocking"])
def test_cli_study_tool_unwritable_out_names_the_tool(tmp_path, capsys, argv):
    assert main(argv + ["--out", str(tmp_path / "missing" / "x.csv")]) == 2
    assert f"error: stage '{argv[0]}' failed: " in capsys.readouterr().err


def test_cli_montecarlo_blocking(tmp_path):
    out = tmp_path / "blocking.csv"
    assert main(["montecarlo-blocking", "--sigmas", "0.1", "--trials", "100",
                 "--s1", "8", "--s2", "8", "--seed", "1",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "sigma,trials,single_pass_rate,retry_rate"


def test_cli_staged_workflow(tmp_path):
    out = str(tmp_path / "staged")
    base = ["--outdir", out, "--s1", "6", "--s2", "6"]
    assert main(["simulate", "--seed", "8"] + base) == 0
    for j in "1234":
        assert main(["detect", "--j", j] + base) == 0
    assert main(["patterns"] + base) == 0
    assert main(["mark-invalid"] + base) == 0
    assert main(["paths", "--origins", "0,0"] + base) == 0
    assert main(["reconstruct", "--origins", "0,0"] + base) == 0
    metrics = main(["metrics", "--outdir", out,
                    "--reconstruction", f"{out}/reconstruction.cf32",
                    "--truth", f"{out}/object.cf32"])
    assert metrics == 0


def test_cli_reconstruct_reads_no_invalid_maps(tmp_path):
    # reconstruct takes the plans `paths` wrote; the invalid-boundary
    # matrices are read only by `paths`
    run = ["--outdir", str(tmp_path), "--s1", "6", "--s2", "7", "--pixels-per-unit", "8",
           "--psf-radius", "2", "--seed", "4", "--origins", "0,0;5,6"]
    for argv in (["patterns"], ["simulate"], *(["detect", "--j", j] for j in "1234"),
                 ["mark-invalid"], ["paths"], ["reconstruct"]):
        assert main([*argv, *run]) == 0
    want = (tmp_path / "reconstruction.cf32").read_bytes()
    for name in ("matrix_a.csv", "matrix_b.csv", "reconstruction.cf32"):
        (tmp_path / name).unlink()
    assert main(["reconstruct", *run]) == 0
    assert (tmp_path / "reconstruction.cf32").read_bytes() == want


def _metrics_row(path):
    header, values = path.read_text().splitlines()
    return dict(zip(header.split(","), map(float, values.split(","))))


def test_cli_metrics_scores_the_pipeline_truth(tmp_path):
    # both divide the truth by its peak amplitude, so an object of amplitude
    # 2 scores the same complex_l2 from the pipeline and from `metrics`
    obj_path = tmp_path / "obj.cf32"
    fio.write_complex_field(obj_path, ComplexField(
        2 * random_quantized_object(6, 6, 4, 3).values))
    run = tmp_path / "run"
    run_pipeline(RunConfig(s1=6, s2=6, seed=3, outdir=str(run),
                           object_file=str(obj_path)))
    assert main(["metrics", "--outdir", str(tmp_path / "cli"),
                 "--reconstruction", str(run / "reconstruction.cf32"),
                 "--truth", str(run / "object.cf32")]) == 0
    pipeline_row = _metrics_row(run / "metrics.csv")
    cli_row = _metrics_row(tmp_path / "cli" / "metrics.csv")
    assert pipeline_row["phase_rmse"] == cli_row["phase_rmse"] == 0.0
    assert cli_row["complex_l2"] == pytest.approx(pipeline_row["complex_l2"], rel=1e-6)
    assert cli_row["unknown_frac"] == pipeline_row["unknown_frac"]


def test_cli_simulate_object_file_writes_object(tmp_path):
    obj_path = tmp_path / "obj.cf32"
    fio.write_complex_field(obj_path, ComplexField(np.exp(1j * np.arange(16.0)).reshape(4, 4)))
    out = tmp_path / "run"
    assert main(["simulate", "--outdir", str(out), "--s1", "4", "--s2", "4",
                 "--object-file", str(obj_path)]) == 0
    assert (out / "object.cf32").read_bytes() == obj_path.read_bytes()


def test_cli_simulate_object_file_wrong_shape(tmp_path, capsys):
    obj_path = tmp_path / "obj.cf32"
    fio.write_complex_field(obj_path, ComplexField(np.ones((3, 3), complex)))
    assert main(["simulate", "--outdir", str(tmp_path / "run"), "--s1", "4",
                 "--s2", "4", "--object-file", str(obj_path)]) == 2
    assert "stage 'object' failed: object shape (3, 3)" in capsys.readouterr().err


def _wrong_shape_metrics(tmp_path):
    fio.write_complex_field(tmp_path / "rec.cf32", ComplexField(np.ones((4, 4), complex)))
    fio.write_complex_field(tmp_path / "truth.cf32", ComplexField(np.ones((3, 3), complex)))
    return ["metrics", "--outdir", str(tmp_path), "--reconstruction",
            str(tmp_path / "rec.cf32"), "--truth", str(tmp_path / "truth.cf32")]


def _bad_scale_frame(tmp_path):
    path = tmp_path / "frame.pgm"
    path.write_bytes(b"P5\n# scale=0\n2 1\n65535\n" + bytes(4))
    return ["detect", "--outdir", str(tmp_path), "--image", str(path)]


def _run_stages(outdir, *commands, grid=()):
    for argv in commands:
        assert main([*argv, "--outdir", str(outdir), *SMALL_RUN, *grid]) == 0, argv


def _missing_plan(tmp_path):
    _run_stages(tmp_path, ["patterns"], ["simulate"],
                *(["detect", "--j", j] for j in "1234"), ["mark-invalid"])
    return ["reconstruct", "--outdir", str(tmp_path), *SMALL_RUN]


def _misfiled_fringe_map(tmp_path):
    _run_stages(tmp_path, ["patterns"], ["simulate"],
                *(["detect", "--j", j] for j in "1234"))
    for kind in ("row", "col"):
        shutil.copy(tmp_path / f"fringes_{kind}_j3.csv", tmp_path / f"fringes_{kind}_j1.csv")
    return ["mark-invalid", "--outdir", str(tmp_path), *SMALL_RUN]


def _library_j0(tmp_path):
    _run_stages(tmp_path, ["patterns"], ["simulate"],
                *(["detect", "--j", j] for j in "1234"))
    lib = tmp_path / "reference_library.csv"
    header, first, *rest = lib.read_text().splitlines()
    lib.write_text("\n".join([header, "0" + first[1:], *rest]) + "\n")
    return ["mark-invalid", "--outdir", str(tmp_path), *SMALL_RUN]


def _edge_ratios_of_another_grid(tmp_path):
    _run_stages(tmp_path, ["patterns"], ["simulate"],
                *(["detect", "--j", j] for j in "1234"), ["mark-invalid"], ["paths"])
    return ["reconstruct", "--outdir", str(tmp_path), *SMALL_RUN, "--s1", "5"]


def _plan_from_another_grid(tmp_path):
    # edge ratios of the 5 x 4 grid asked for, plans of the 4 x 4 run
    argv = _edge_ratios_of_another_grid(tmp_path)
    fio.write_edge_ratios_csv(tmp_path / "edge_ratios.csv",
                              EdgeRatios(np.ones((5, 3), complex), np.ones((4, 4), complex)))
    return argv


THREE_BY_THREE = ("--s1", "3", "--s2", "3")


def _maps_of_another_grid(tmp_path):
    _run_stages(tmp_path, ["patterns"], ["simulate"],
                *(["detect", "--j", j] for j in "1234"), grid=THREE_BY_THREE)
    return ["mark-invalid", "--outdir", str(tmp_path), *SMALL_RUN]


def _library_of_another_m(tmp_path):
    # an m = 3 run's reference library beside an m = 4 run's fringe maps
    _run_stages(tmp_path, ["patterns"], ["simulate"],
                *(["detect", "--j", j] for j in "1234"), ["patterns", "--m", "3"])
    return ["mark-invalid", "--outdir", str(tmp_path), *SMALL_RUN]


def _matrices_of_another_grid(tmp_path):
    _run_stages(tmp_path, ["patterns"], ["simulate"],
                *(["detect", "--j", j] for j in "1234"), ["mark-invalid"], grid=THREE_BY_THREE)
    return ["paths", "--outdir", str(tmp_path), *SMALL_RUN]


def _empty_matrix(tmp_path):
    _run_stages(tmp_path, ["patterns"], ["simulate"],
                *(["detect", "--j", j] for j in "1234"), ["mark-invalid"])
    (tmp_path / "matrix_a.csv").write_bytes(b"")
    return ["paths", "--outdir", str(tmp_path), *SMALL_RUN]


def _frame_of_another_grid(tmp_path):
    _run_stages(tmp_path, ["simulate"], grid=THREE_BY_THREE)
    return ["detect", "--outdir", str(tmp_path), *SMALL_RUN, "--j", "1"]


def _object_of_another_grid(tmp_path):
    fio.write_complex_field(tmp_path / "obj.cf32", ComplexField(np.ones((4, 4), complex)))
    return ["pipeline", "--outdir", str(tmp_path / "run"), *SMALL_RUN, *THREE_BY_THREE,
            "--object-file", str(tmp_path / "obj.cf32")]


def _zero_object(tmp_path):
    fio.write_complex_field(tmp_path / "zero.cf32", ComplexField(np.zeros((4, 4), complex)))
    return ["simulate", "--outdir", str(tmp_path), *SMALL_RUN,
            "--object-file", str(tmp_path / "zero.cf32")]


@pytest.mark.parametrize("stage, argv, why", [
    ("detect", lambda tmp: ["detect", "--outdir", str(tmp), "--image",
                            str(tmp / "missing.pgm")], "missing.pgm"),
    ("detect", _bad_scale_frame, "bad scale '0' in PGM '.*frame.pgm'"),
    ("reconstruct", lambda tmp: ["reconstruct", "--outdir", str(tmp)], ""),
    ("reconstruct", _missing_plan, "path_plan_origin1.csv"),
    ("detect", _frame_of_another_grid,
     r"measurement_j1\.pgm' holds shape \(22, 24\), but the 4 x 4 grid needs \(30, 32\)"),
    # a 4 x 4 run's file ends its horizontal edges where a 5 x 4 one goes on
    ("reconstruct", _edge_ratios_of_another_grid,
     r"edge_ratios\.csv' line 14: \['v', '0', '0', .*\(expected h,4,0,"),
    ("reconstruct", _plan_from_another_grid,
     r"path_plan_origin1\.csv' holds shape \(4, 4\), but the 5 x 4 grid needs \(5, 4\)"),
    ("mark-invalid", _misfiled_fringe_map,
     "fringes_row_j1.csv' holds kind=row,j=3, expected kind=row,j=1"),
    ("mark-invalid", _library_j0, r"reference_library\.csv' line 2: .*expected j=1"),
    ("mark-invalid", _maps_of_another_grid,
     r"fringes_row_j1\.csv' holds shape \(3, 2\), but the 4 x 4 grid needs \(4, 3\)"),
    ("mark-invalid", _library_of_another_m,
     r"reference_library\.csv' holds 3 ratios, but m = 4"),
    ("paths", _matrices_of_another_grid,
     r"matrix_a\.csv' holds shape \(3, 2\), but the 4 x 4 grid needs \(4, 3\)"),
    ("paths", _empty_matrix,
     r"matrix_a\.csv' holds shape \(0,\), but the 4 x 4 grid needs \(4, 3\)"),
    ("object", _zero_object, "zero.cf32' is zero everywhere"),
    ("object", _object_of_another_grid,
     r"object shape \(4, 4\) in '.*obj\.cf32' does not match grid \(3, 3\)"),
    ("metrics", _wrong_shape_metrics, ""),
    ("metrics", _wrong_shape_metrics,
     r"rec\.cf32' holds shape \(4, 4\), but '.*truth\.cf32' holds shape \(3, 3\)"),
], ids=["detect-missing-image", "detect-bad-scale", "reconstruct-empty-dir",
        "reconstruct-missing-plan", "detect-frame-of-another-grid",
        "reconstruct-edge-ratios-of-another-grid", "reconstruct-plan-from-another-grid",
        "mark-invalid-misfiled-map", "mark-invalid-library-j0",
        "mark-invalid-maps-of-another-grid", "mark-invalid-library-of-another-m",
        "paths-matrices-of-another-grid", "paths-empty-matrix",
        "simulate-zero-object", "pipeline-object-of-another-grid", "metrics-wrong-shape", "metrics-names-both-files"])
def test_cli_stage_failure_names_the_stage(tmp_path, capsys, stage, argv, why):
    argv = argv(tmp_path)
    capsys.readouterr()
    assert main(argv) == 2
    assert re.search(f"error: stage '{stage}' failed: .*{why}", capsys.readouterr().err)


def _truncate(path):
    path.write_bytes(path.read_bytes()[:-3])


def _reshape(path):
    fio.write_pgm16(path, IntensityImage(np.ones((3, 5), dtype=LEVELS), 2.0))


def _bad_scale(path):
    path.write_bytes(re.sub(rb"# scale=[^\n]*", b"# scale=nan", path.read_bytes(), count=1))


@pytest.mark.parametrize("damage, why", [
    (_truncate, r"truncated PGM file '.*measurement_j2\.pgm': expected 1920 data bytes, found 1917"),
    (_reshape, r"PGM '.*measurement_j2\.pgm' holds a 3 x 5 frame, expected 30 x 32"),
    (_bad_scale, r"bad scale 'nan' in PGM '.*measurement_j2\.pgm'"),
], ids=["truncated", "wrong-shape", "bad-scale"])
def test_cli_reconstruct_names_a_bad_measurement_file(tmp_path, capsys, damage, why):
    # the amplitudes read bands of the measurement PGMs: every file is checked
    # before any band is read, and a bad one fails the stage, named
    _run_stages(tmp_path, ["patterns"], ["simulate"],
                *(["detect", "--j", j] for j in "1234"), ["mark-invalid"], ["paths"])
    damage(tmp_path / "measurement_j2.pgm")
    capsys.readouterr()
    assert main(["reconstruct", "--outdir", str(tmp_path), *SMALL_RUN]) == 2
    assert re.search(f"error: stage 'reconstruct' failed: {why}", capsys.readouterr().err)
    assert not (tmp_path / "reconstruction.cf32").exists()


def test_pipeline_memory_does_not_grow_with_m(tmp_path):
    # frames stream through simulate -> detect one at a time and the
    # amplitudes read bands of the PGM files, so a run at m = 8 holds no more
    # than one at m = 4, within less than one frame's 16-bit levels (the
    # first run builds the cached windows both measured runs share)
    base = RunConfig(s1=16, s2=16, pixels_per_unit=32, noise_sigma=0.01, seed=5)
    run_pipeline(replace(base, outdir=str(tmp_path / "warm")))
    peaks = {}
    for m in (4, 8):
        tracemalloc.start()
        try:
            run_pipeline(replace(base, m=m, outdir=str(tmp_path / f"m{m}")))
            peaks[m] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    grid = base.grid()
    assert peaks[8] - peaks[4] < grid.height * grid.width * 2


def test_cli_run_flags_are_the_config_keys():
    from dataclasses import fields

    from darkfringe.cli import _CONFIG_CASTS, build_parser
    subparsers = build_parser()._subparsers._group_actions[0].choices
    for name in ("pipeline", "simulate", "detect", "mark-invalid", "paths",
                 "reconstruct", "metrics", "patterns"):
        run_flags = {a.dest: a.option_strings for a in subparsers[name]._actions
                     if a.dest not in ("help", "config", "image", "j",
                                       "reconstruction", "truth")}
        assert set(run_flags) == set(_CONFIG_CASTS) == {f.name for f in fields(RunConfig)}
        assert all(flags == ["--" + key.replace("_", "-")]
                   for key, flags in run_flags.items())


def test_cli_stage_sequence_writes_the_pipeline_files(tmp_path):
    # every artifact but the pipeline-only manifest is byte-identical: both
    # compute from the same 16-bit frames and the same plans, and both score
    # against the object as object.cf32 stores it (at m = 3 its phases are
    # not exact in float32)
    for m in (4, 3):
        run = ["--s1", "6", "--s2", "7", "--pixels-per-unit", "8", "--psf-radius", "2",
               "--noise-sigma", "0.02", "--seed", "4", "--origins", "0,0;5,6",
               "--m", str(m)]
        stages, piped = tmp_path / f"stages{m}", tmp_path / f"pipeline{m}"
        for argv in (["patterns"], ["simulate"],
                     *(["detect", "--j", str(j)] for j in range(1, m + 1)),
                     ["mark-invalid"], ["paths"], ["reconstruct"]):
            assert main([*argv, "--outdir", str(stages), *run]) == 0
        assert main(["metrics", "--outdir", str(stages), *run,
                     "--reconstruction", str(stages / "reconstruction.cf32"),
                     "--truth", str(stages / "object.cf32")]) == 0
        assert main(["pipeline", "--outdir", str(piped), *run]) == 0
        names = {p.name for p in stages.iterdir()}
        assert names == {p.name for p in piped.iterdir()} - {"manifest.json"}
        for name in sorted(names):
            assert (stages / name).read_bytes() == (piped / name).read_bytes(), (m, name)


@pytest.mark.parametrize("s1, s2", [(1, 5), (5, 1)])
def test_cli_stages_read_back_the_grids_of_a_one_row_or_one_column_run(tmp_path, s1, s2):
    # a grid of no rows (the vertical edges of one row of units) is written
    # as an empty file; the stages read it back as that grid
    run = ["--s1", str(s1), "--s2", str(s2), "--pixels-per-unit", "8", "--psf-radius", "2",
           "--origins", "0,0"]
    stages, piped = tmp_path / "stages", tmp_path / "pipeline"
    for argv in (["patterns"], ["simulate"], *(["detect", "--j", j] for j in "1234"),
                 ["mark-invalid"], ["paths"], ["reconstruct"]):
        assert main([*argv, "--outdir", str(stages), *run]) == 0, argv
    assert main(["pipeline", "--outdir", str(piped), *run]) == 0
    for path in stages.iterdir():
        assert path.read_bytes() == (piped / path.name).read_bytes(), path.name


def test_cli_builds_its_parser_once(tmp_path, monkeypatch):
    # every main call in a process parses its argv with the same parser
    import darkfringe.cli as cli
    built = []

    class Counted(cli._Parser):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            if self.prog == "darkfringe":
                built.append(self)

    monkeypatch.setattr(cli, "_Parser", Counted)
    cli.build_parser.cache_clear()
    try:
        assert main(["patterns", "--outdir", str(tmp_path), *SMALL_RUN]) == 0
        assert main(["simulate", "--outdir", str(tmp_path), *SMALL_RUN]) == 0
        assert main(["no-such-command"]) == 1
        assert main(["psf-sweep", "--unit-len", "16", "--radii", "2", "--delta-phis", "0.5",
                     "--out", str(tmp_path / "sweep.csv")]) == 0
    finally:
        cli.build_parser.cache_clear()
    assert len(built) == 1


def test_cli_runs_alike_on_the_shared_parser(tmp_path):
    # no call leaves state in the parser that the next call sees: the stage
    # sequence writes the same files twice in one process, and a study tool
    # called without --radii after a call with it sweeps the default radii
    def stage_sequence(outdir):
        for argv in (["patterns"], ["simulate"], *(["detect", "--j", j] for j in "1234"),
                     ["mark-invalid"], ["paths"], ["reconstruct"]):
            assert main([*argv, "--outdir", str(outdir), *SMALL_RUN,
                         "--noise-sigma", "0.02", "--seed", "6", "--origins", "0,0;3,3"]) == 0
        assert main(["metrics", "--outdir", str(outdir),
                     "--reconstruction", str(outdir / "reconstruction.cf32"),
                     "--truth", str(outdir / "object.cf32")]) == 0
        return {p.name: p.read_bytes() for p in outdir.iterdir()}

    first = stage_sequence(tmp_path / "first")
    assert len(first) == 25
    assert stage_sequence(tmp_path / "second") == first

    def radii(*flags):
        out = tmp_path / "sweep.csv"
        assert main(["psf-sweep", "--unit-len", "16", "--delta-phis", "0.5", *flags,
                     "--out", str(out)]) == 0
        return [float(line.split(",")[1]) for line in out.read_text().splitlines()[1:]]

    assert radii("--radii", "3") == [3.0]
    assert radii() == [2.0, 18.0, 34.0]
