import numpy as np
import pytest
from hypothesis import example, given, note, settings
from hypothesis import strategies as st

from darkfringe import forward_model
from darkfringe.forward_model import (GridSpec, IntensityImage, PsfModel, quantize_16bit,
                                      simulate_measurement_2d)
from darkfringe.fringe_detect import DetectConfig, FringeMaps, _grid_windows, recognize_fringes
from darkfringe.patterns import make_patterns
from darkfringe.pipeline import random_quantized_object

from conftest import reference_recognize_fringes, truth_presence_maps


def test_detect_config_validation():
    with pytest.raises(ValueError):
        DetectConfig(band_halfwidth=0)
    with pytest.raises(ValueError):
        DetectConfig(fringe_ratio_alpha=1.0)


def test_fringe_maps_shape_consistency():
    with pytest.raises(ValueError):
        FringeMaps(row_map=np.zeros((4, 3), bool), col_map=np.zeros((2, 4), bool),
                   measurement_index=1)


def test_maps_do_not_depend_on_strip_edges(monkeypatch):
    # 3 x 7 units of 13 px, 1 row cropped top and bottom: 37 rows of 91 px.
    # Strips of 2, 3 or 8 rows cut unit rows and bands apart, 36 rows would
    # leave a one-row last strip (folded into the one before) and 1000 take
    # the frame whole. Random levels put band and flank means close, so at
    # alpha 0.9 a sum that lost a row would flip some decision; every sum of
    # a levels frame is an exact integer, so each layout gives the
    # per-boundary reference's maps
    grid = GridSpec(3, 7, 13, 1)
    levels = np.random.default_rng(5).integers(0, 1 << 16, (grid.height, grid.width))
    img = IntensityImage(levels.astype(">u2"))
    cfg = DetectConfig(band_halfwidth=2, fringe_ratio_alpha=0.9)
    want = reference_recognize_fringes(img, grid, cfg)
    assert want.row_map.any() and want.col_map.any()
    assert not (want.row_map.all() or want.col_map.all())
    try:
        for strip_rows in (2, 3, 8, 36, 1000):
            monkeypatch.setattr(forward_model, "STRIP_PIXELS", strip_rows * grid.width)
            _grid_windows.cache_clear()
            got = recognize_fringes(img, grid, cfg)
            assert np.array_equal(got.row_map, want.row_map), strip_rows
            assert np.array_equal(got.col_map, want.col_map), strip_rows
    finally:
        _grid_windows.cache_clear()


def test_constant_image_gives_zero_edges_and_no_fringes():
    grid = GridSpec(4, 4, 32, crop_rows=0)
    img = IntensityImage(np.full((grid.height, grid.width), 7.0))
    maps = recognize_fringes(img, grid, DetectConfig())
    assert not maps.row_map.any()
    assert not maps.col_map.any()


def test_grid_mismatch_rejected(sim16):
    img = IntensityImage(np.ones((10, 10)))
    with pytest.raises(ValueError):
        recognize_fringes(img, sim16.grid, sim16.detect_cfg)


def test_zero_flank_marks_present_and_flags():
    grid = GridSpec(1, 2, 32, crop_rows=0)
    img = IntensityImage(np.zeros((grid.height, grid.width)))
    maps = recognize_fringes(img, grid, DetectConfig())
    assert maps.row_map[0, 0]
    assert maps.diagnostics["zero_flank_row"][0, 0]


def test_noiseless_detection_exact(sim16):
    for seed in (1, 2, 3):
        obj = sim16.random_object(seed=seed)
        maps = sim16.detect(sim16.measure(obj, seed=seed + 50))
        for got, want in zip(maps, truth_presence_maps(obj, sim16.patterns)):
            assert np.array_equal(got.row_map, want.row_map)
            assert np.array_equal(got.col_map, want.col_map)


def _f1_at_noise(noise_sigma, n_objects, seed0=400):
    from conftest import SimSetup
    setup = SimSetup(noise=noise_sigma)
    tp = fp = fn = 0
    for k in range(n_objects):
        obj = setup.random_object(seed=seed0 + k)
        maps = setup.detect(setup.measure(obj, seed=seed0 + 1000 + k))
        for got, want in zip(maps, truth_presence_maps(obj, setup.patterns)):
            for d, t in ((got.row_map, want.row_map), (got.col_map, want.col_map)):
                tp += int((d & t).sum())
                fp += int((d & ~t).sum())
                fn += int((~d & t).sum())
    precision = tp / (tp + fp) if tp + fp else 1.0
    recall = tp / (tp + fn) if tp + fn else 1.0
    return 2 * precision * recall / (precision + recall)


def test_f1_at_camera_noise_level():
    # 1% of peak, the ~40 dB regime
    assert _f1_at_noise(0.01, n_objects=10) >= 0.95


def test_f1_degrades_monotonically():
    scores = [_f1_at_noise(s, n_objects=5) for s in (0.0, 0.01, 0.05, 0.1)]
    assert all(a >= b for a, b in zip(scores, scores[1:]))
    assert scores[0] == 1.0


def test_detection_survives_crop(sim16):
    # boundaries whose bands touch the cropped rows are still decided
    obj = sim16.random_object(seed=77)
    images = sim16.measure(obj, seed=77)
    assert images[0].values.shape[0] == sim16.grid.height
    maps = sim16.detect(images)
    want = truth_presence_maps(obj, sim16.patterns)
    assert np.array_equal(maps[0].row_map[0], want[0].row_map[0])
    assert np.array_equal(maps[0].row_map[-1], want[0].row_map[-1])


def detection_case(s1, s2, ppu, crop, halfwidth, alpha, kind, radius,
                   noise, seed, pattern, zeroed=None, levels=False):
    """A simulated frame with its grid and detection config; `zeroed` is an
    optional (row, col, height, width) rectangle set to 0, and a `levels`
    frame is then read out by quantize_16bit, as the pipeline's are."""
    grid = GridSpec(s1, s2, ppu, crop)
    obj = random_quantized_object(s1, s2, 4, seed)
    values = simulate_measurement_2d(obj, make_patterns(4, s1, s2).patterns[pattern],
                                     PsfModel(kind, radius), grid, noise, seed).values
    if zeroed is not None:
        r0, c0, h, w = zeroed
        values[r0:r0 + h, c0:c0 + w] = 0.0
    img = IntensityImage(values)
    cfg = DetectConfig(band_halfwidth=halfwidth, fringe_ratio_alpha=alpha)
    return quantize_16bit(img) if levels else img, grid, cfg


@st.composite
def detection_cases(draw):
    """detection_case inputs drawn within their valid ranges; some frames
    get an all-zero rectangle, and some are read out to 16-bit levels."""
    s1, s2 = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    ppu = draw(st.sampled_from([4, 5, 7, 8, 16, 32]))
    crop = draw(st.integers(0, (s1 * ppu - 1) // 2))
    params = dict(s1=s1, s2=s2, ppu=ppu, crop=crop,
                  halfwidth=draw(st.integers(1, (ppu - 1) // 2)),
                  alpha=draw(st.floats(0.3, 0.95)),
                  kind=draw(st.sampled_from(["box", "exponential", "gaussian"])),
                  radius=draw(st.floats(1.0, ppu / 2)),
                  noise=draw(st.sampled_from([0.0, 0.01, 0.03])),
                  seed=draw(st.integers(0, 2**16)),
                  pattern=draw(st.integers(0, 3)),
                  levels=draw(st.booleans()))
    if draw(st.booleans()):
        h, w = s1 * ppu - 2 * crop, s2 * ppu
        params["zeroed"] = (draw(st.integers(0, h - 1)), draw(st.integers(0, w - 1)),
                            draw(st.integers(1, 3 * ppu)), draw(st.integers(1, 3 * ppu)))
    note(repr(params))
    return detection_case(**params)


# noiseless box-PSF frames of a half-turn fringe that fills its band: the band
# is dark and its flanks flat, the case a high-pass ridge test once vetoed
HALF_TURN_CASES = [
    dict(s1=1, s2=2, ppu=16, crop=0, halfwidth=1, alpha=0.75, kind="box", radius=1.0,
         noise=0.0, seed=0, pattern=1),
    dict(s1=2, s2=1, ppu=16, crop=0, halfwidth=4, alpha=0.75, kind="box", radius=2.0,
         noise=0.0, seed=0, pattern=1),
]
# the first case with a band of half-width 3: its 2 fringe pixels of
# intensity 1 among 6 give band/flank = (2 * 1 + 4 * 4) / 6 / 4 = 0.75,
# exactly alpha, and a fringe needs a band mean below alpha * flank mean
HALF_TURN_TIE = {**HALF_TURN_CASES[0], "halfwidth": 3}


def test_half_turn_fringe_filling_its_band_is_detected():
    for params in HALF_TURN_CASES:
        img, grid, cfg = detection_case(**params)
        obj = random_quantized_object(grid.s1, grid.s2, 4, params["seed"])
        want = truth_presence_maps(obj, make_patterns(4, grid.s1, grid.s2))[params["pattern"]]
        assert want.row_map.any() or want.col_map.any()
        got = recognize_fringes(img, grid, cfg)
        assert np.array_equal(got.row_map, want.row_map)
        assert np.array_equal(got.col_map, want.col_map)
    got = recognize_fringes(*detection_case(**HALF_TURN_TIE))
    assert not got.row_map.any() and not got.col_map.any()


@settings(max_examples=150, deadline=None)
@given(detection_cases())
@example(detection_case(**HALF_TURN_CASES[0]))
@example(detection_case(**HALF_TURN_CASES[1]))
# a one-unit-wide grid, whose frame holds no row boundary
@example(detection_case(s1=4, s2=1, ppu=16, crop=1, halfwidth=2, alpha=0.7, kind="gaussian",
                        radius=4.0, noise=0.01, seed=3, pattern=2, levels=True))
# rows [10, 22) survive the crop, so the bands on lines 8 and 24 are empty
@example(detection_case(s1=4, s2=3, ppu=8, crop=10, halfwidth=2, alpha=0.7, kind="box",
                        radius=2.0, noise=0.0, seed=4, pattern=1, levels=True))
def test_matches_per_boundary_reference(case):
    img, grid, cfg = case
    got = recognize_fringes(img, grid, cfg, measurement_index=3)
    want = reference_recognize_fringes(img, grid, cfg, measurement_index=3)
    assert np.array_equal(got.row_map, want.row_map)
    assert np.array_equal(got.col_map, want.col_map)
    assert got.diagnostics.keys() == want.diagnostics.keys()
    for key in want.diagnostics:
        assert np.array_equal(got.diagnostics[key], want.diagnostics[key])

