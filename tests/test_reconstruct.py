import re

import numpy as np
import pytest

import darkfringe as df
from darkfringe.boundary_logic import InvalidBoundaryMaps
from darkfringe.forward_model import ComplexField, GridSpec, simulate_measurement_2d
from darkfringe.path_search import plan_paths, plan_with_retry
from darkfringe.reconstruct import (_interior_rows, accumulate_phase, compose,
                                    compose_and_score, estimate_amplitude,
                                    retrieve_phase)

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (SimSetup, frame_cases, planner_cases,
                      reference_accumulate_phase, reference_estimate_amplitude,
                      reference_plan_paths, reference_plan_with_retry,
                      reference_retrieve_phase, truth_edge_ratios)


def empty_invalid(s1, s2):
    return InvalidBoundaryMaps(np.zeros((s1, s2 - 1), bool),
                               np.zeros((s1 - 1, s2), bool))


def test_accumulate_origin_keeps_origin_phase():
    plan = plan_paths(empty_invalid(2, 2), (0, 0))
    ratios = truth_edge_ratios(ComplexField(np.ones((2, 2), complex)))
    phase = accumulate_phase(plan, ratios, origin_phase=0.7)
    assert phase[0, 0] == pytest.approx(0.7)


def test_accumulate_single_right_step():
    obj = ComplexField(np.array([[1.0 + 0j, 1j]]))
    plan = plan_paths(empty_invalid(1, 2), (0, 0))
    phase = accumulate_phase(plan, truth_edge_ratios(obj), origin_phase=0.0)
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


def _amplitude_setup(values, radius=4.0):
    setup = SimSetup(s1=values.shape[0], s2=values.shape[1], radius=radius)
    obj = ComplexField(values)
    images = setup.measure(obj, seed=2)
    return setup, images


def test_amplitude_uniform_object():
    setup, images = _amplitude_setup(np.ones((6, 6), complex))
    amp = estimate_amplitude(images, setup.grid)
    assert np.allclose(amp, 1.0, atol=0.02)


def test_amplitude_half_amplitude_unit():
    values = np.ones((6, 6), complex)
    values[3, 3] = 0.5
    setup, images = _amplitude_setup(values)
    amp = estimate_amplitude(images, setup.grid)
    assert amp[3, 3] == pytest.approx(0.5, abs=0.025)
    assert np.allclose(np.delete(amp.ravel(), 3 * 6 + 3), 1.0, atol=0.02)


def test_amplitude_invariant_across_patterns():
    values = np.ones((4, 4), complex) * np.exp(0.3j)
    values[1, 2] = 0.7 * np.exp(1.1j)
    setup, images = _amplitude_setup(values)
    single = [estimate_amplitude([img], setup.grid) for img in images]
    for a in single[1:]:
        assert np.allclose(a, single[0], atol=0.02)


def test_amplitude_requires_consistent_shapes():
    setup, images = _amplitude_setup(np.ones((4, 4), complex))
    with pytest.raises(ValueError):
        estimate_amplitude(images, GridSpec(5, 4, 32, setup.grid.crop_rows))


@settings(max_examples=60, deadline=None)
@given(frame_cases(), st.integers(1, 3), st.integers(0, 4))
def test_amplitude_matches_single_thread_reference(case, frames, erode):
    # two threads and caller-owned pool buffers give the one-thread medians
    # bit for bit, or the same error when a unit row has no interior left
    obj, pattern, model, cfg, seed = case
    s1, s2 = obj.shape
    grid = GridSpec(s1, s2, cfg.pixels_per_unit, cfg.effective_crop_rows)
    images = [simulate_measurement_2d(obj, pattern, model, cfg, seed + k)
              for k in range(frames)]
    try:
        want = reference_estimate_amplitude(images, grid, erode)
    except ValueError as exc:
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            estimate_amplitude(images, grid, erode)
        return
    got = estimate_amplitude(images, grid, erode)
    assert got.tobytes() == want.tobytes()


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


def test_amplitude_names_the_first_empty_unit_row():
    grid = GridSpec(4, 4, 8, crop_rows=6)
    images = [df.IntensityImage(np.ones((grid.height, grid.width)), 8)]
    with pytest.raises(ValueError, match=re.escape("unit (0, 0) has no surviving")):
        estimate_amplitude(images, grid, erode=3)


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


def test_compose_zeroes_unknowns():
    phase = np.array([[0.0, np.nan]])
    amp = np.array([[1.0, 0.5]])
    rec = compose(phase, amp)
    assert rec.complex_image.values[0, 1] == 0.0
    assert rec.provenance[0, 1] == -1
