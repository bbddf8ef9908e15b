import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from darkfringe.forward_model import (ComplexField, GridSpec, IntensityImage,
                                      PsfModel, SimConfig, alternating_phases,
                                      field_profile_1d, fringe_radius_sweep,
                                      gamma_second_derivative,
                                      intensity_profile_1d, psf_eval,
                                      simulate_measurement_2d)

from conftest import (frame_cases, gamma2_centered_fd, gamma2_fd_richardson,
                      gamma_quadrature, reference_simulate_measurement_2d,
                      strip_sizes)


# ---------------------------------------------------------------------------
# kernel profiles and primitives


def test_psf_eval_box():
    model = PsfModel("box", 2.0)
    assert psf_eval(model, 1.5) == 1.0
    assert psf_eval(model, 2.5) == 0.0


def test_psf_eval_gaussian_center():
    assert psf_eval(PsfModel("gaussian", 7.3), 0.0) == 1.0


def test_psf_eval_exponential():
    assert psf_eval(PsfModel("exponential", 3.0), 3.0) == pytest.approx(np.exp(-2.0))


@given(st.sampled_from(["box", "exponential", "gaussian"]),
       st.floats(min_value=0.5, max_value=40.0),
       st.floats(min_value=-200.0, max_value=200.0))
@settings(max_examples=60, deadline=None)
def test_psf_symmetric_nonnegative(kind, radius, x):
    model = PsfModel(kind, radius)
    assert model.p(x) == model.p(-x)
    assert model.p(x) >= 0.0


@given(st.sampled_from(["box", "exponential", "gaussian"]),
       st.floats(min_value=0.5, max_value=40.0),
       st.floats(min_value=-500.0, max_value=500.0))
@settings(max_examples=60, deadline=None)
def test_primitive_exactly_odd(kind, radius, x):
    model = PsfModel(kind, radius)
    assert model.primitive(-x) == -model.primitive(x)
    assert model.primitive(0.0) == 0.0


def test_primitive_matches_analytic_gaussian():
    import math
    model = PsfModel("gaussian", 18.0)
    xs = np.array([1.0, 5.0, 20.0, 100.0])
    expect = 18.0 * np.sqrt(np.pi) / 2.0 * np.array([math.erf(v / 18.0) for v in xs])
    assert np.allclose(model.primitive(xs), expect, rtol=1e-5)


def test_psf_model_validation():
    with pytest.raises(ValueError):
        PsfModel("triangle", 2.0)
    with pytest.raises(ValueError):
        PsfModel("box", -1.0)
    with pytest.raises(ValueError):
        PsfModel("box", 2.0, step=0.5)


# ---------------------------------------------------------------------------
# 1D field synthesis


def test_field_single_unit_center_box():
    # full kernel support inside the unit: the integral is the whole mass 2r,
    # up to the trapezoid's half-cell at each jump of the box profile
    model = PsfModel("box", 2.0, step=0.01)
    unit_len = 64
    f = field_profile_1d([0.0], unit_len, model, x=np.array([unit_len / 2]))
    assert f[0] == pytest.approx(4.0, rel=5e-3)
    assert abs(f[0].imag) < 1e-12


def test_field_opposite_phases_cancel_at_boundary():
    model = PsfModel("gaussian", 6.0)
    f = field_profile_1d([0.0, np.pi], 64, model, x=np.array([64.0]))
    assert abs(f[0]) < 1e-12


def test_field_rejects_bad_inputs():
    model = PsfModel("box", 2.0)
    with pytest.raises(ValueError):
        field_profile_1d([0.0], 0, model)
    with pytest.raises(ValueError):
        field_profile_1d([], 4, model)


def test_uniform_phase_flat_interior():
    model = PsfModel("gaussian", 8.0)
    prof = intensity_profile_1d(np.zeros(6), 64, model)
    interior = prof[128:256]   # well away from the outer roll-off
    assert np.ptp(interior) / interior.mean() < 1e-6


def test_pi_step_dark_fringe_depth():
    # quadrature oracle confirms the near-zero boundary value
    model = PsfModel("gaussian", 8.0)
    unit_len = 256
    prof = intensity_profile_1d([0.0, np.pi], unit_len, model,
                                x=np.array([unit_len, unit_len / 2]))
    boundary, interior = prof[0], prof[1]
    assert boundary < 1e-4 * interior
    oracle = gamma_quadrature("gaussian", 8.0, unit_len, 0.0, np.pi, 0.0)
    assert oracle < 1e-4 * interior


def _fringe_minima(phases, unit_len, model):
    """Per-boundary minimum intensity relative to the interior plateau."""
    prof = intensity_profile_1d(phases, unit_len, model)
    n = len(phases)
    interiors = np.concatenate([
        prof[k * unit_len + unit_len // 4: k * unit_len + 3 * unit_len // 4]
        for k in range(n)])
    plateau = np.median(interiors)
    mins = []
    for b in range(1, n):
        x = b * unit_len
        mins.append(prof[x - unit_len // 4: x + unit_len // 4].min() / plateau)
    return np.array(mins)


EQ3_OMEGA = np.array([0.5, 0.0, -0.5, 1.0, 0.5, 0.0, -0.5, 1.0]) * np.pi


def test_eq3_vector_has_minima_at_stepped_boundaries():
    model = PsfModel("gaussian", 18.0, extent=9 * 125)
    mins = _fringe_minima(EQ3_OMEGA, 125, model)
    # every boundary of the vector carries a quarter-turn step: dip to ~0.5
    assert np.all(mins < 0.6)
    assert np.all(mins > 0.4)


@pytest.mark.parametrize("radius", [18.0, 34.0])
def test_fringe_minima_agree_across_kinds(radius):
    mins = {}
    for kind in ("box", "exponential", "gaussian"):
        model = PsfModel(kind, radius, extent=max(20 * radius, 9 * 125))
        mins[kind] = _fringe_minima(EQ3_OMEGA, 125, model)
    kinds = list(mins)
    for i, k1 in enumerate(kinds):
        for k2 in kinds[i + 1:]:
            rel = np.abs(mins[k1] - mins[k2]) / np.maximum(mins[k1], mins[k2])
            assert rel.max() < 0.15


def test_mirror_symmetry_of_intensity_profile():
    model = PsfModel("gaussian", 9.0)
    phases = np.array([0.3, 1.1, 2.0, 2.0, 1.1, 0.3])
    prof = intensity_profile_1d(phases, 40, model)
    rel = np.abs(prof - prof[::-1]) / prof.max()
    assert rel.max() < 1e-10


def test_fringe_depth_monotone_in_phase_difference():
    model = PsfModel("gaussian", 8.0)
    unit_len = 256
    depths = []
    for w in np.arange(0.0, 1.05, 0.1):
        prof = intensity_profile_1d([0.0, w * np.pi], unit_len, model)
        interior = prof[unit_len // 2]
        boundary = prof[unit_len - 4: unit_len + 4].min()
        depths.append(interior - boundary)
    assert np.all(np.diff(depths) >= -1e-9)


# ---------------------------------------------------------------------------
# closed-form boundary curvature


def test_gamma2_half_turn_reduces_to_first_term():
    for kind in ("box", "exponential", "gaussian"):
        model = PsfModel(kind, 5.0)
        a1 = 60.0
        expect = 8.0 * float(model.p(a1) - model.p(0.0)) ** 2
        assert gamma_second_derivative(model, a1, 0.0, np.pi) == pytest.approx(expect)


def test_gamma2_locality_limit():
    model = PsfModel("gaussian", 18.0)
    assert gamma_second_derivative(model, 2000.0, 0.0, np.pi) == pytest.approx(8.0, rel=1e-9)


def test_gamma2_rejects_nonpositive_interval():
    model = PsfModel("gaussian", 18.0)
    with pytest.raises(ValueError):
        gamma_second_derivative(model, 0.0, 0.0, 1.0)


def test_gamma2_matches_fd_oracle_gaussian():
    model = PsfModel("gaussian", 18.0)
    for w in np.arange(0.1, 0.95, 0.1):
        ana = gamma_second_derivative(model, 256.0, 0.0, w * np.pi)
        num = gamma2_centered_fd("gaussian", 18.0, 256.0, 0.0, w * np.pi)
        assert abs(ana - num) / abs(num) <= 1e-3


@pytest.mark.parametrize("kind", ["box", "exponential", "gaussian"])
def test_gamma2_matches_fd_oracle_all_kinds(kind):
    # a1 = 10 r; the Richardson pair removes the cusp term of the exponential
    r = 18.0
    model = PsfModel(kind, r)
    for w in np.arange(0.1, 0.95, 0.2):
        ana = gamma_second_derivative(model, 10 * r, 0.0, w * np.pi)
        num = gamma2_fd_richardson(kind, r, 10 * r, 0.0, w * np.pi)
        assert abs(ana - num) / abs(num) <= 1e-3


def test_first_derivative_vanishes_on_axis():
    delta = 0.5
    for kind in ("box", "exponential", "gaussian"):
        gp = gamma_quadrature(kind, 18.0, 256.0, 0.0, 0.4 * np.pi, delta)
        gm = gamma_quadrature(kind, 18.0, 256.0, 0.0, 0.4 * np.pi, -delta)
        g0 = gamma_quadrature(kind, 18.0, 256.0, 0.0, 0.4 * np.pi, 0.0)
        assert abs(gp - gm) / (2 * delta) < 1e-7 * g0


# ---------------------------------------------------------------------------
# radius sweep


def test_sweep_rejects_empty_sets():
    with pytest.raises(ValueError):
        fringe_radius_sweep([], [2.0], 512, "gaussian")
    with pytest.raises(ValueError):
        fringe_radius_sweep([0.1 * np.pi], [], 512, "gaussian")


def test_sweep_curve_shape_small_delta():
    radii = [0.5, 8.0, 34.0, 512.0, 1024.0]
    rows = fringe_radius_sweep([0.1 * np.pi], radii, 512, "gaussian")
    vals = {r: v for _, r, v in rows}
    # small radius: fringe narrower than a pixel, near-plateau sample
    assert vals[0.5] > 0.99
    # valley region sits near the two-unit bottom cos^2(delta/2)
    assert vals[8.0] < 0.98
    assert vals[34.0] < 0.98
    # over-spread radius climbs back up
    assert vals[1024.0] > vals[34.0]


def test_sweep_axis_local_min_then_max():
    phases = alternating_phases(0.1 * np.pi)
    axis = 4 * 512.0
    for r, expect_max in ((34.0, False), (1024.0, True)):
        model = PsfModel("gaussian", r, extent=max(20 * r, 9 * 512))
        vals = intensity_profile_1d(phases, 512, model,
                                    x=np.array([axis - 1.0, axis, axis + 1.0]))
        if expect_max:
            assert vals[1] > vals[0] and vals[1] > vals[2]
        else:
            assert vals[1] < vals[0] and vals[1] < vals[2]


# ---------------------------------------------------------------------------
# 2D measurement simulation


def test_simulate_constant_object_identity_pattern_no_fringes():
    obj = ComplexField(np.ones((4, 4), dtype=complex))
    pattern = ComplexField(np.ones((4, 4), dtype=complex))   # ratio 1 ramp
    cfg = SimConfig(pixels_per_unit=32, crop_rows=0)
    img = simulate_measurement_2d(obj, pattern, PsfModel("gaussian", 8.0), cfg, seed=0)
    inner = img.values[32:-32, 32:-32]
    assert np.ptp(inner) / inner.mean() < 1e-6


def test_simulate_2x2_fringes_match_1d_oracle():
    # phases {0, pi/2; pi/2, pi}: every shared boundary steps by a quarter turn
    obj = ComplexField(np.array([[1.0, 1j], [1j, -1.0]]))
    pattern = ComplexField(np.ones((2, 2), dtype=complex))
    cfg = SimConfig(pixels_per_unit=64, crop_rows=0)
    model = PsfModel("gaussian", 8.0)
    img = simulate_measurement_2d(obj, pattern, model, cfg, seed=0)
    # 1D oracle along the row through the middle of the first unit row
    prof = intensity_profile_1d([0.0, np.pi / 2], 64, model)
    row = img.values[32]
    assert np.allclose(row / row[32], prof / prof[32], rtol=1e-6)
    # fringes at all four shared boundaries, depth per the closed-form first
    # term: relative minimum cos^2(pi/4) = 1/2
    for line in (img.values[32], img.values[96], img.values[:, 32], img.values[:, 96]):
        rel = line[62:66].min() / line[32]
        assert rel == pytest.approx(0.5, abs=0.05)


def test_simulate_fringe_disappears_in_exactly_one_pattern(sim16):
    obj = sim16.random_object(seed=5)
    images = sim16.measure(obj, seed=9)
    ppu = 32
    # probe one horizontal boundary: between units (3, 4) and (3, 5)
    x = 5 * ppu
    rows = slice(3 * ppu + 4 + 30, 4 * ppu - 4 + 30)   # inside the unit, past crop
    ratios = []
    for img in images:
        band = img.values[rows, x - 2: x + 2].mean()
        flank = img.values[rows, x - ppu // 2 - 4: x - ppu // 2 + 4].mean()
        ratios.append(band / flank)
    clear = [rho > 0.9 for rho in ratios]
    assert sum(clear) == 1
    assert all(rho < 0.8 for rho, c in zip(ratios, clear) if not c)


def test_simulate_dimension_mismatch():
    cfg = SimConfig(pixels_per_unit=32)
    with pytest.raises(ValueError):
        simulate_measurement_2d(ComplexField(np.ones((2, 2))),
                                ComplexField(np.ones((2, 3))),
                                PsfModel("gaussian", 4.0), cfg, seed=0)


def test_simulate_warns_on_wide_psf():
    cfg = SimConfig(pixels_per_unit=8, crop_rows=0)
    with pytest.warns(UserWarning):
        simulate_measurement_2d(ComplexField(np.ones((2, 2))),
                                ComplexField(np.ones((2, 2))),
                                PsfModel("gaussian", 9.0), cfg, seed=0)


def test_simulate_deterministic_under_seed():
    obj = ComplexField(np.exp(1j * np.linspace(0, 3, 16).reshape(4, 4)))
    pattern = ComplexField(np.ones((4, 4), dtype=complex))
    cfg = SimConfig(pixels_per_unit=16, noise_sigma=0.05)
    model = PsfModel("gaussian", 4.0)
    a = simulate_measurement_2d(obj, pattern, model, cfg, seed=123)
    b = simulate_measurement_2d(obj, pattern, model, cfg, seed=123)
    assert np.array_equal(a.values, b.values)
    c = simulate_measurement_2d(obj, pattern, model, cfg, seed=124)
    assert not np.array_equal(a.values, c.values)


def test_noise_clipped_nonnegative():
    obj = ComplexField(np.ones((2, 2), dtype=complex))
    pattern = ComplexField(np.array([[1, 1j], [1j, -1]], dtype=complex))
    cfg = SimConfig(pixels_per_unit=16, noise_sigma=0.5, crop_rows=0)
    img = simulate_measurement_2d(obj, pattern, PsfModel("gaussian", 4.0), cfg, seed=1)
    assert img.values.min() >= 0.0


@settings(max_examples=80, deadline=None)
@given(frame_cases())
def test_simulate_matches_full_frame_reference(case):
    # the strip passes give the whole-frame expressions' frame bit for bit,
    # including the noise stream across cropped rows and strip edges
    obj, pattern, model, cfg, seed = case
    want = reference_simulate_measurement_2d(obj, pattern, model, cfg, seed)
    for strips in strip_sizes():
        with strips:
            got = simulate_measurement_2d(obj, pattern, model, cfg, seed)
        assert got.values.shape == want.values.shape
        assert got.values.tobytes() == want.values.tobytes()


def test_simulate_holds_only_the_field_and_the_frame():
    # 16 x 16 units at 64 px: the complex field (16 B/px) and the frame
    # (8 B/px) are the only frame-sized arrays of a call
    rng = np.random.default_rng(0)
    obj = ComplexField(np.exp(2j * np.pi * rng.integers(0, 4, (16, 16)) / 4))
    pattern = ComplexField(np.ones((16, 16), dtype=complex))
    cfg = SimConfig(pixels_per_unit=64, noise_sigma=0.05)
    model = PsfModel("gaussian", 16.0)
    tracemalloc.start()
    try:
        img = simulate_measurement_2d(obj, pattern, model, cfg, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    pixels = (16 * 64) ** 2
    assert img.values.shape[1] == 16 * 64
    assert peak <= 1.1 * (16 + 8) * pixels


# ---------------------------------------------------------------------------
# type validation


def test_type_validation():
    with pytest.raises(ValueError):
        ComplexField(np.array([[np.inf + 0j]]))
    with pytest.raises(ValueError):
        IntensityImage(np.array([[-1.0]]), 4)
    with pytest.raises(ValueError):
        SimConfig(pixels_per_unit=2)
    with pytest.raises(ValueError):
        PsfModel("gaussian", 8.0, step=0.3)
    with pytest.raises(ValueError):
        GridSpec(0, 4, 32)
    g = GridSpec(4, 5, 32, crop_rows=2)
    assert (g.height, g.width) == (124, 160)


def test_intensity_image_rejects_nan_and_empty():
    with pytest.raises(ValueError, match="nonnegative"):
        IntensityImage(np.array([[1.0, np.nan], [0.0, 2.0]]), 4)
    with pytest.raises(ValueError, match="nonnegative"):
        IntensityImage(np.array([[np.nan]]), 4)
    with pytest.raises(ValueError, match="non-empty 2D"):
        IntensityImage(np.zeros((0, 3)), 4)
    assert IntensityImage(np.array([[0.0, -0.0]]), 4).values.shape == (1, 2)
