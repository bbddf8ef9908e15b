import re
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import darkfringe as df
from darkfringe.boundary_logic import EdgeRatios, InvalidBoundaryMaps
from darkfringe.forward_model import (LEVELS, ComplexField, GridSpec, IntensityImage,
                                      quantize_16bit, simulate_measurement_2d)
from darkfringe.fileio import read_complex_field
from darkfringe.path_search import plan_paths, plan_with_retry
from darkfringe.pipeline import RunConfig, reconstruct, run_pipeline
from darkfringe.reconstruct import (_interior_rows, accumulate_phase,
                                    compose_and_score, estimate_amplitude,
                                    retrieve_phase)

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (SimSetup, frame_cases, planner_cases,
                      reference_accumulate_phase, reference_estimate_amplitude,
                      reference_plan_paths, reference_plan_with_retry,
                      reference_retrieve_phase, truth_edge_ratios,
                      write_measurements)


def ones_frame(grid):
    """A 16-bit frame of the grid's shape, every level 1."""
    return IntensityImage(np.ones((grid.height, grid.width), dtype=LEVELS))


def empty_invalid(s1, s2):
    return InvalidBoundaryMaps(np.zeros((s1, s2 - 1), bool),
                               np.zeros((s1 - 1, s2), bool))


def test_accumulate_single_right_step():
    obj = ComplexField(np.array([[1.0 + 0j, 1j]]))
    plan = plan_paths(empty_invalid(1, 2), (0, 0))
    phase = accumulate_phase(plan, truth_edge_ratios(obj))
    assert phase[0, 1] == np.pi / 2


def _masked(ratios, inv):
    """Ratios with NaN on the invalid edges, as fusion leaves them."""
    nan = complex(np.nan, np.nan)
    return df.EdgeRatios(horizontal=np.where(inv.matrix_a, nan, ratios.horizontal),
                         vertical=np.where(inv.matrix_b, nan, ratios.vertical))


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=150, deadline=None)
@given(planner_cases(), st.integers(0, 2**32 - 1))
def test_tree_accumulation_matches_string_reference(case, seed):
    inv, origins = case
    s1, s2 = inv.s1, inv.s2
    rng = np.random.default_rng(seed)
    quarter = _masked(truth_edge_ratios(ComplexField(
        np.array([1, 1j, -1, -1j])[rng.integers(0, 4, (s1, s2))])), inv)
    free = _masked(df.EdgeRatios(
        horizontal=np.exp(1j * rng.uniform(-np.pi, np.pi, (s1, s2 - 1))),
        vertical=np.exp(1j * rng.uniform(-np.pi, np.pi, (s1 - 1, s2)))), inv)
    for origin in origins:
        plan = plan_with_retry(inv, [origin])
        ref = reference_plan_with_retry(inv, [origin])
        assert _same_bits(accumulate_phase(plan, quarter),
                          reference_accumulate_phase(ref, quarter))
        # one pass holds the reference's own paths, so any ratios agree bit for bit
        assert _same_bits(accumulate_phase(plan_paths(inv, origin), free),
                          reference_accumulate_phase(reference_plan_paths(inv, origin), free))
    for got, want in zip(retrieve_phase(inv, quarter, origins),
                         reference_retrieve_phase(inv, quarter, origins)):
        assert _same_bits(got, want)
    # origins disagree on free ratios, so the fused means are not multiples of
    # pi/2; walking the tree plans' own paths isolates the fusion arithmetic
    for got, want in zip(retrieve_phase(inv, free, origins),
                         reference_retrieve_phase(inv, free, origins, plan_with_retry)):
        assert _same_bits(got, want)


@pytest.mark.parametrize("shape", [(1, 13), (13, 1)], ids=["one-row", "one-column"])
@pytest.mark.parametrize("seed", range(4))
def test_accumulation_on_thin_grids_matches_string_reference(shape, seed):
    # on a one-column grid a parent offset of 1 is a move down, not right
    rng = np.random.default_rng(seed)
    inv = df.path_search.random_invalid_maps(*shape, 0.15, rng)
    ratios = _masked(df.EdgeRatios(
        horizontal=np.exp(1j * rng.uniform(-np.pi, np.pi, (shape[0], shape[1] - 1))),
        vertical=np.exp(1j * rng.uniform(-np.pi, np.pi, (shape[0] - 1, shape[1])))), inv)
    origin = (shape[0] // 2, shape[1] // 2)
    plan = plan_with_retry(inv, [origin])
    assert plan.reachable_mask().sum() > 1
    assert _same_bits(accumulate_phase(plan, ratios),
                      reference_accumulate_phase(reference_plan_with_retry(inv, [origin]),
                                                 ratios))


def test_fusion_averages_only_the_origins_that_reach_a_unit():
    # the third origin's plan stops at a wall, so columns 3-5 are fused from
    # two of three origins, which disagree on ratios that are not cycle-consistent
    rng = np.random.default_rng(6)
    inv, walled = empty_invalid(6, 6), empty_invalid(6, 6)
    walled.matrix_a[:, 2] = True
    free = df.EdgeRatios(horizontal=np.exp(1j * rng.uniform(-np.pi, np.pi, (6, 5))),
                         vertical=np.exp(1j * rng.uniform(-np.pi, np.pi, (5, 6))))
    origins = [(0, 0), (5, 5), (0, 1)]

    def planner(invalid, origin):
        return plan_with_retry(walled if origin == [(0, 1)] else invalid, origin)

    plans = [planner(inv, [o]) for o in origins]
    assert not plans[2].reachable_mask()[:, 3:].any()
    for got, want in zip(retrieve_phase(inv, free, origins, plans),
                         reference_retrieve_phase(inv, free, origins, planner)):
        assert _same_bits(got, want)


def test_retrieve_phase_same_with_given_plans():
    rng = np.random.default_rng(4)
    inv = df.path_search.random_invalid_maps(9, 7, 0.2, rng)
    obj = ComplexField(np.power(1j, rng.integers(0, 4, (9, 7))))
    ratios = _masked(truth_edge_ratios(obj), inv)
    origins = [(0, 0), (8, 6), (4, 3)]
    plans = [plan_with_retry(inv, [o]) for o in origins]
    for got, want in zip(retrieve_phase(inv, ratios, origins, plans),
                         retrieve_phase(inv, ratios, origins)):
        assert _same_bits(got, want)
    with pytest.raises(ValueError):
        retrieve_phase(inv, ratios, origins, plans[::-1])


def test_accumulate_rejects_unknown_edge():
    plan = plan_paths(empty_invalid(1, 2), (0, 0))
    ratios = df.EdgeRatios(horizontal=np.full((1, 1), complex(np.nan, np.nan)),
                           vertical=np.zeros((0, 2), complex))
    with pytest.raises(ValueError):
        accumulate_phase(plan, ratios)


def test_cycle_consistency_path_independence():
    # valid ratios derive from a single-valued field: the product around every
    # unit square is 1 and any two origins agree up to one constant
    rng = np.random.default_rng(3)
    obj = ComplexField(np.power(1j, rng.integers(0, 4, (6, 6))))
    ratios = truth_edge_ratios(obj)
    h, v = ratios.horizontal, ratios.vertical
    loops = h[:-1, :] * v[:, 1:] * np.conj(h[1:, :]) * np.conj(v[:, :-1])
    assert np.allclose(loops, 1.0)
    inv = empty_invalid(6, 6)
    base = accumulate_phase(plan_paths(inv, (0, 0)), ratios)
    for origin in ((5, 5), (2, 3)):
        other = accumulate_phase(plan_paths(inv, origin), ratios)
        diff = np.mod(other - base, 2 * np.pi)
        assert np.allclose(diff, diff[0, 0])


def test_retrieve_phase_multi_origin_noiseless_exact():
    rng = np.random.default_rng(5)
    obj = ComplexField(np.power(1j, rng.integers(0, 4, (8, 8))))
    ratios = truth_edge_ratios(obj)
    phase, provenance = retrieve_phase(empty_invalid(8, 8), ratios,
                                       [(0, 0), (7, 7), (3, 4)])
    assert (provenance >= 0).all()
    metrics = compose_and_score(phase, np.ones((8, 8)), obj)
    assert metrics.phase_rmse == 0.0
    assert metrics.unknown_frac == 0.0


def test_unknown_units_only_where_unreachable():
    inv = empty_invalid(4, 4)
    inv.matrix_a[0, 2] = True
    inv.matrix_a[1, 2] = True
    inv.matrix_a[2, 2] = True
    inv.matrix_a[3, 2] = True   # wall between columns 2 and 3
    obj = ComplexField(np.ones((4, 4), complex))
    ratios = truth_edge_ratios(obj)
    ratios.horizontal[:, 2] = complex(np.nan, np.nan)
    phase, provenance = retrieve_phase(inv, ratios, [(0, 0)])
    # the full wall disconnects column 3 from (0, 0); nothing else is lost
    plan = plan_with_retry(inv, [(0, 0)])
    unreachable = ~plan.reachable_mask()
    assert np.array_equal(np.isnan(phase), unreachable)


def _amplitude_setup(values, directory, radius=4.0):
    setup = SimSetup(s1=values.shape[0], s2=values.shape[1], radius=radius)
    obj = ComplexField(values)
    paths = write_measurements(directory, setup.measure(obj, seed=2))
    return setup, paths


def test_amplitude_uniform_object(tmp_path):
    setup, paths = _amplitude_setup(np.ones((6, 6), complex), tmp_path)
    amp = estimate_amplitude(paths, setup.grid)
    assert np.allclose(amp, 1.0, atol=0.02)


def test_amplitude_half_amplitude_unit(tmp_path):
    values = np.ones((6, 6), complex)
    values[3, 3] = 0.5
    setup, paths = _amplitude_setup(values, tmp_path)
    amp = estimate_amplitude(paths, setup.grid)
    assert amp[3, 3] == pytest.approx(0.5, abs=0.025)
    assert np.allclose(np.delete(amp.ravel(), 3 * 6 + 3), 1.0, atol=0.02)


def test_amplitude_invariant_across_patterns(tmp_path):
    values = np.ones((4, 4), complex) * np.exp(0.3j)
    values[1, 2] = 0.7 * np.exp(1.1j)
    setup, paths = _amplitude_setup(values, tmp_path)
    single = [estimate_amplitude([path], setup.grid) for path in paths]
    for a in single[1:]:
        assert np.allclose(a, single[0], atol=0.02)


def test_concurrent_amplitudes_match_the_reference(tmp_path):
    # 16 calls on four threads at once, more threads than cores and a short
    # switch interval: every call still gives the one-pass means, so no
    # call shares a sum with another
    values = np.exp(1j * np.random.default_rng(4).random((7, 5)))
    values *= np.random.default_rng(5).uniform(0.3, 1.0, (7, 5))
    setup, paths = _amplitude_setup(values, tmp_path)
    frames = list(map(df.fileio.read_pgm16, paths))
    want = reference_estimate_amplitude(frames, setup.grid).tobytes()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            calls = [pool.submit(estimate_amplitude, paths, setup.grid) for _ in range(16)]
            got = [call.result(timeout=60).tobytes() for call in calls]
    finally:
        sys.setswitchinterval(interval)
    assert got == [want] * 16


def test_amplitude_requires_consistent_shapes(tmp_path):
    setup, paths = _amplitude_setup(np.ones((4, 4), complex), tmp_path)
    with pytest.raises(ValueError, match=re.escape(str(paths[0]))):
        estimate_amplitude(paths, GridSpec(5, 4, 32, setup.grid.crop_rows))


@settings(max_examples=60, deadline=None)
@given(frame_cases(), st.integers(1, 3), st.integers(0, 4))
def test_amplitude_matches_single_thread_reference(case, frames, erode):
    # the whole-frame integer sums give the one-unit-at-a-time means bit for
    # bit, or the same error when a unit row has no interior left: each
    # frame's sums divided by its own scale, as its PGM file stores them
    obj, pattern, model, grid, noise, seed = case
    images = [simulate_measurement_2d(obj, pattern, model, grid, noise, seed + k)
              for k in range(frames)]
    frames = [quantize_16bit(img) for img in images]
    with tempfile.TemporaryDirectory() as directory:
        paths = write_measurements(Path(directory), frames)
        try:
            want = reference_estimate_amplitude(frames, grid, erode)
        except ValueError as exc:
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                estimate_amplitude(paths, grid, erode)
            return
        got = estimate_amplitude(paths, grid, erode)
    assert got.tobytes() == want.tobytes()


def test_box_kernel_amplitudes_are_exact(tmp_path):
    # a box of radius 8 reaches 8 px into a 32 px unit, so the unit's central
    # half sees its own amplitude alone, and the mean over the four frames
    # is exactly |a|^2 up to the readout's rounding
    amps = np.random.default_rng(6).uniform(0.3, 1.0, (6, 7))
    values = amps * np.exp(2j * np.pi * np.random.default_rng(7).integers(0, 4, (6, 7)) / 4)
    setup = SimSetup(s1=6, s2=7)
    setup.model = df.PsfModel("box", 8.0)
    paths = write_measurements(tmp_path, setup.measure(ComplexField(values), seed=2))
    erode = RunConfig(s1=6, s2=7).amplitude_erode()
    amp = estimate_amplitude(paths, setup.grid, erode)
    assert np.abs(amp - amps / amps.max()).max() <= 1e-4


@pytest.mark.parametrize("noise", [0.0, 0.01])
@pytest.mark.parametrize("kind", ["box", "exponential", "gaussian"])
def test_default_runs_score_amplitudes_within_3e3(tmp_path, kind, noise):
    # the default 16 x 16 run (32 px/unit, r = 8) recovers every phase, so
    # its complex_l2 is the amplitudes' error alone
    manifest = run_pipeline(RunConfig(psf_kind=kind, noise_sigma=noise, seed=7,
                                      outdir=str(tmp_path)))
    assert manifest["metrics"]["phase_rmse"] == 0.0
    assert manifest["metrics"]["complex_l2"] <= 3e-3


def test_interior_rows_stay_inside_the_cropped_frame():
    # crop 6 > ppu - erode = 5: unit row 0 has no interior rows left, and no
    # stop index goes negative (which would read rows from the frame's end)
    grid = GridSpec(4, 4, 8, crop_rows=6)
    assert _interior_rows(grid, 0, 3) == slice(0, 0)
    for i in range(grid.s1):
        rows = _interior_rows(grid, i, 3)
        assert 0 <= rows.start <= rows.stop
    assert [len(range(grid.height)[_interior_rows(grid, i, 3)])
            for i in range(grid.s1)] == [0, 2, 2, 0]


def test_amplitude_names_the_first_empty_unit_row(tmp_path):
    grid = GridSpec(4, 4, 8, crop_rows=6)
    paths = write_measurements(tmp_path, [ones_frame(grid)])
    with pytest.raises(ValueError, match=re.escape("unit (0, 0) has no surviving")):
        estimate_amplitude(paths, grid, erode=3)


def test_score_exact_match_is_zero():
    rng = np.random.default_rng(1)
    truth = ComplexField(np.exp(1j * rng.uniform(0, 2 * np.pi, (5, 5))))
    phase = np.mod(np.angle(truth.values), 2 * np.pi)
    m = compose_and_score(phase, np.abs(truth.values), truth)
    assert m.phase_rmse == 0.0
    assert m.complex_l2 < 1e-12
    assert m.unknown_frac == 0.0


def test_score_blind_to_global_phase():
    rng = np.random.default_rng(2)
    truth_vals = np.exp(1j * rng.uniform(0, 2 * np.pi, (5, 5)))
    phase = np.mod(np.angle(truth_vals), 2 * np.pi)
    rotated = ComplexField(truth_vals * np.exp(1j * np.pi / 3))
    m = compose_and_score(phase, np.ones((5, 5)), rotated)
    assert m.phase_rmse < 1e-12
    assert m.complex_l2 < 1e-12


def test_score_single_unit_off_by_quarter_turn():
    truth = ComplexField(np.ones((16, 16), complex))
    phase = np.zeros((16, 16))
    phase[4, 7] = np.pi / 2
    m = compose_and_score(phase, np.ones((16, 16)), truth)
    assert m.phase_rmse == pytest.approx((np.pi / 2) / 16, rel=5e-3)


def test_score_counts_unknown_units():
    truth = ComplexField(np.ones((4, 4), complex))
    phase = np.zeros((4, 4))
    phase[0, 0] = np.nan
    m = compose_and_score(phase, np.ones((4, 4)), truth)
    assert m.unknown_frac == pytest.approx(1 / 16)
    assert m.phase_rmse == 0.0


def test_score_without_a_known_unit_raises():
    truth = ComplexField(np.ones((3, 3), complex))
    with pytest.raises(ValueError, match="no unit of the reconstruction is known"):
        compose_and_score(np.full((3, 3), np.nan), np.zeros((3, 3)), truth)


def test_score_with_zero_truth_on_every_known_unit_raises():
    values = np.ones((3, 3), complex)
    values[0, :2] = 0.0
    phase = np.full((3, 3), np.nan)
    phase[0, :2] = 0.0
    with pytest.raises(ValueError, match="the truth is zero on all 2 known units"):
        compose_and_score(phase, np.ones((3, 3)), ComplexField(values))


def test_reconstruct_stores_unreachable_unit_as_zero(tmp_path):
    # unit (0, 2) is walled off on both of its edges: the origin's plan
    # leaves it unreachable, and reconstruction.cf32 holds exactly 0 there
    cfg = RunConfig(s1=2, s2=3, pixels_per_unit=8, psf_radius=2.0)
    grid = cfg.grid()
    invalid = InvalidBoundaryMaps(np.array([[False, True], [False, False]]),
                                  np.array([[False, False, True]]))
    ratios = EdgeRatios(np.ones((2, 2), complex), np.ones((1, 3), complex))
    plans = [plan_with_retry(invalid, [(0, 0)])]
    assert not plans[0].reachable_mask()[0, 2]
    paths = write_measurements(tmp_path, [ones_frame(grid)])
    reconstruct(cfg, ratios, plans, paths,
                lambda name, writer, *args: writer(tmp_path / name, *args))
    stored = read_complex_field(tmp_path / "reconstruction.cf32").values
    assert stored[0, 2] == 0
    assert np.count_nonzero(stored) == 5


def test_reconstruct_rejects_a_plan_from_another_grid(tmp_path):
    # the plans of a 4 x 4 run with the edge ratios of a 5 x 4 one: the stage
    # fails naming the plan's origin and both grids, before anything is read
    # from the frames or written
    cfg = RunConfig(s1=5, s2=4, pixels_per_unit=8, psf_radius=2.0, origins=((0, 0), (3, 3)))
    ratios = EdgeRatios(np.ones((5, 3), complex), np.ones((4, 4), complex))
    plans = [plan_with_retry(empty_invalid(4, 4), [origin]) for origin in cfg.origins]
    with pytest.raises(df.StageError) as info:
        df.pipeline.stage("reconstruct", reconstruct, cfg, ratios, plans, [],
                          lambda name, writer, *args: writer(tmp_path / name, *args))
    assert info.value.stage == "reconstruct"
    assert ("the plan from origin (0, 0) is for a (4, 4) grid, but the edge ratios "
            "are for (5, 4)") in str(info.value)
    assert not any(tmp_path.iterdir())
