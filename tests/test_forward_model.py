import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from scipy import special, stats
from hypothesis import example, given, settings
from hypothesis import strategies as st

import darkfringe.forward_model as forward_model
from darkfringe.forward_model import (_BLOCK_MADDS, PSF_KINDS, STRIP_PIXELS,
                                      ComplexField, GridSpec,
                                      IntensityImage, PsfModel,
                                      _field_windows, _reach,
                                      _unit_window, alternating_phases, banded,
                                      default_crop_rows,
                                      field_profile_1d, frame_strips,
                                      fringe_radius_sweep,
                                      gamma_second_derivative,
                                      intensity_profile_1d, quantize_16bit,
                                      row_strips, simulate_measurement_2d)
from darkfringe.fringe_detect import DetectConfig, _grid_windows
from darkfringe.patterns import make_patterns

from conftest import (THREAD_ORDERS, frame_cases, gamma2_centered_fd,
                      gamma2_fd_richardson, gamma_quadrature,
                      reference_quantize_16bit, reference_simulate_measurement_2d,
                      strip_sizes, thread_order)


# ---------------------------------------------------------------------------
# kernel profiles and primitives


def test_psf_eval_box():
    model = PsfModel("box", 2.0)
    assert model.p(1.5) == 1.0
    assert model.p(2.5) == 0.0


def test_psf_eval_gaussian_center():
    assert PsfModel("gaussian", 7.3).p(0.0) == 1.0


def test_psf_eval_exponential():
    assert PsfModel("exponential", 3.0).p(3.0) == pytest.approx(np.exp(-2.0))


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


def closed_form_primitive(kind, r, x):
    """The integral of p over [0, x] by each kind's textbook formula, the
    Gaussian's through scipy's erf."""
    if kind == "box":
        return np.clip(x, -r, r)
    if kind == "exponential":
        return np.sign(x) * (r / 2.0) * (1.0 - np.exp(-2.0 * np.abs(x) / r))
    return (r * np.sqrt(np.pi) / 2.0) * special.erf(x / r)


@given(st.sampled_from(["box", "exponential", "gaussian"]),
       st.floats(0.05, 40.0), st.integers(1, 64), st.integers(1, 6))
@settings(max_examples=60, deadline=None)
def test_primitives_match_closed_forms(kind, radius, unit_len, n_units):
    # P on pixel centers and boundaries over and beyond the row, and the
    # unit windows built from it, within 1e-12 of the closed forms
    model = PsfModel(kind, radius)
    x = np.arange(-2 * unit_len, (n_units + 2) * unit_len + 1, 0.5)
    assert np.abs(model.primitive(x) - closed_form_primitive(kind, radius, x)).max() <= 1e-12
    edges = np.arange(n_units + 1) * float(unit_len)
    prim = closed_form_primitive(kind, radius, x[:, None] - edges[None, :])
    got = _unit_window(model, x, unit_len, n_units)
    assert np.abs(got - (prim[:, :-1] - prim[:, 1:])).max() <= 1e-12


def test_psf_models_are_equal_by_value():
    # separately built models of one kernel are one cache key
    model = PsfModel("Gaussian", 8)
    same = PsfModel("gaussian", 8.0)
    assert model == same and hash(model) == hash(same) and len({model, same}) == 1
    assert (model.kind, model.radius) == ("gaussian", 8.0)
    assert model != PsfModel("exponential", 8.0)
    assert model != PsfModel("gaussian", 7.5)
    assert model != ("gaussian", 8.0)


def test_psf_model_validation():
    with pytest.raises(ValueError):
        PsfModel("triangle", 2.0)
    with pytest.raises(ValueError):
        PsfModel("box", -1.0)
    with pytest.raises(ValueError):
        PsfModel("box", float("nan"))


# ---------------------------------------------------------------------------
# 1D field synthesis


def test_field_single_unit_center_box():
    # full kernel support inside the unit: the integral is the whole mass 2r
    model = PsfModel("box", 2.0)
    unit_len = 64
    f = field_profile_1d([0.0], unit_len, model, x=np.array([unit_len / 2]))
    assert f[0] == 4.0
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
    model = PsfModel("gaussian", 18.0)
    mins = _fringe_minima(EQ3_OMEGA, 125, model)
    # every boundary of the vector carries a quarter-turn step: dip to ~0.5
    assert np.all(mins < 0.6)
    assert np.all(mins > 0.4)


@pytest.mark.parametrize("radius", [18.0, 34.0])
def test_fringe_minima_agree_across_kinds(radius):
    mins = {}
    for kind in ("box", "exponential", "gaussian"):
        model = PsfModel(kind, radius)
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
        model = PsfModel("gaussian", r)
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
    grid = GridSpec(4, 4, 32, crop_rows=0)
    img = simulate_measurement_2d(obj, pattern, PsfModel("gaussian", 8.0), grid, 0.0,
                                  seed=0)
    inner = img.values[32:-32, 32:-32]
    assert np.ptp(inner) / inner.mean() < 1e-6


def test_simulate_2x2_fringes_match_1d_oracle():
    # phases {0, pi/2; pi/2, pi}: every shared boundary steps by a quarter turn
    obj = ComplexField(np.array([[1.0, 1j], [1j, -1.0]]))
    pattern = ComplexField(np.ones((2, 2), dtype=complex))
    grid = GridSpec(2, 2, 64, crop_rows=0)
    model = PsfModel("gaussian", 8.0)
    img = simulate_measurement_2d(obj, pattern, model, grid, 0.0, seed=0)
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
    grid = GridSpec(2, 2, 32, default_crop_rows(32))
    with pytest.raises(ValueError):
        simulate_measurement_2d(ComplexField(np.ones((2, 2))),
                                ComplexField(np.ones((2, 3))),
                                PsfModel("gaussian", 4.0), grid, 0.0, seed=0)


def test_simulate_rejects_object_off_grid_and_negative_noise():
    grid = GridSpec(2, 2, 8, crop_rows=0)
    model = PsfModel("gaussian", 2.0)
    with pytest.raises(ValueError, match=r"object shape \(2, 3\) does not match grid"):
        simulate_measurement_2d(ComplexField(np.ones((2, 3))),
                                ComplexField(np.ones((2, 3))), model, grid, 0.0, seed=0)
    with pytest.raises(ValueError, match="noise_sigma must be nonnegative"):
        simulate_measurement_2d(ComplexField(np.ones((2, 2))),
                                ComplexField(np.ones((2, 2))), model, grid, -0.1, seed=0)


def test_simulate_warns_on_wide_psf():
    grid = GridSpec(2, 2, 8, crop_rows=0)
    with pytest.warns(UserWarning):
        simulate_measurement_2d(ComplexField(np.ones((2, 2))),
                                ComplexField(np.ones((2, 2))),
                                PsfModel("gaussian", 9.0), grid, 0.0, seed=0)


def test_simulate_deterministic_under_seed():
    obj = ComplexField(np.exp(1j * np.linspace(0, 3, 16).reshape(4, 4)))
    pattern = ComplexField(np.ones((4, 4), dtype=complex))
    grid = GridSpec(4, 4, 16, default_crop_rows(16))
    model = PsfModel("gaussian", 4.0)
    a = simulate_measurement_2d(obj, pattern, model, grid, 0.05, seed=123)
    b = simulate_measurement_2d(obj, pattern, model, grid, 0.05, seed=123)
    assert np.array_equal(a.values, b.values)
    c = simulate_measurement_2d(obj, pattern, model, grid, 0.05, seed=124)
    assert not np.array_equal(a.values, c.values)


def test_noise_clipped_nonnegative():
    obj = ComplexField(np.ones((2, 2), dtype=complex))
    pattern = ComplexField(np.array([[1, 1j], [1j, -1]], dtype=complex))
    grid = GridSpec(2, 2, 16, crop_rows=0)
    img = simulate_measurement_2d(obj, pattern, PsfModel("gaussian", 4.0), grid, 0.5,
                                  seed=1)
    assert img.values.min() >= 0.0


def _dgemm_split_case():
    # splitting F into real and imaginary DGEMMs gets one pixel of this
    # frame wrong in the last bit; the complex product gets none
    s1, s2, ppu, m = 3, 17, 13, 4
    rng = np.random.default_rng(0)
    amps = rng.uniform(0.2, 1.0, (s1, s2))
    obj = ComplexField(amps * np.exp(2j * np.pi * rng.integers(0, m, (s1, s2)) / m))
    return (obj, make_patterns(m, s1, s2).patterns[1], PsfModel("exponential", 4.0),
            GridSpec(s1, s2, ppu, crop_rows=0), 0.0, 0)


@settings(max_examples=80, deadline=None)
@given(frame_cases())
@example(_dgemm_split_case())
def test_simulate_matches_full_frame_reference(case):
    # the strip passes give the whole-frame expressions' frame bit for bit,
    # including the noise stream across cropped rows and strip edges
    obj, pattern, model, grid, noise, seed = case
    want = reference_simulate_measurement_2d(obj, pattern, model, grid, noise, seed)
    for strips in strip_sizes():
        with strips:
            got = simulate_measurement_2d(obj, pattern, model, grid, noise, seed)
        assert got.values.shape == want.values.shape
        assert got.values.tobytes() == want.values.tobytes()


def _grid_case(s1, s2, ppu, model, crop=None):
    rng = np.random.default_rng(s2)
    obj = ComplexField(np.exp(2j * np.pi * rng.integers(0, 4, (s1, s2)) / 4))
    crop = default_crop_rows(ppu) if crop is None else crop
    return (obj, make_patterns(4, s1, s2).patterns[1], model,
            GridSpec(s1, s2, ppu, crop), 0.01, 3)


@settings(max_examples=40, deadline=None)
@given(frame_cases(rows=(1, 4), cols=(20, 48)))
@example(_grid_case(1, 40, 8, PsfModel("exponential", 4.0)))     # long reach, one row
@example(_grid_case(3, 24, 8, PsfModel("box", 7.5)))             # r = ppu - 0.5
@example(_grid_case(2, 2, 16, PsfModel("gaussian", 4.0)))        # narrower than a block
@example(_grid_case(12, 1, 8, PsfModel("gaussian", 3.0)))        # one unit wide
@example(_grid_case(1, 40, 1, PsfModel("box", 0.5), crop=0))     # one pixel high
@example(_grid_case(1, 40, 1, PsfModel("exponential", 0.5), crop=0))
@example(_grid_case(1, 40, 1, PsfModel("gaussian", 0.5), crop=0))
@example(_grid_case(1, 2000, 1, PsfModel("box", 0.5), crop=0))
@example(_grid_case(1, 2000, 1, PsfModel("exponential", 0.5), crop=0))
@example(_grid_case(1, 2000, 1, PsfModel("gaussian", 0.5), crop=0))
@example(_grid_case(1, 9, 1, PsfModel("gaussian", 0.5), crop=0))     # noise halves of 0 and 1 rows
@example(_grid_case(1, 9, 2, PsfModel("exponential", 1.0), crop=0))  # 1 and 1
@example(_grid_case(1, 9, 3, PsfModel("box", 1.5), crop=0))          # 1 and 2
@example(_grid_case(3, 20, 5, PsfModel("gaussian", 2.0)))            # split at row 7 of unit 1
@example(_grid_case(3, 7, 7, PsfModel("gaussian", 2.0)))             # odd halves, odd buffer
@example(_grid_case(2, 1, 1, PsfModel("box", 0.5), crop=0))          # one pixel wide: 3-row buffer
def test_banded_field_matches_full_frame_reference_on_wide_and_narrow_grids(case):
    # wide grids cross many column blocks per strip, narrow ones fit in one:
    # the banded products give the whole-frame product's frame bit for bit
    obj, pattern, model, grid, noise, seed = case
    want = reference_simulate_measurement_2d(obj, pattern, model, grid, noise, seed)
    for strips in strip_sizes():
        with strips:
            got = simulate_measurement_2d(obj, pattern, model, grid, noise, seed)
        assert got.values.tobytes() == want.values.tobytes()


def test_noise_halves_are_drawn_from_their_own_streams():
    # stream a draws the uncropped frame's rows [0, H // 2) and stream b the
    # rest: with either stream swapped for a third, the oracle's frame keeps
    # the other half's rows bit for bit and changes the swapped half
    obj, pattern, model, _, noise, seed = _grid_case(3, 20, 5, PsfModel("gaussian", 2.0))
    grid = GridSpec(3, 20, 5, crop_rows=0)
    got = simulate_measurement_2d(obj, pattern, model, grid, noise, seed).values
    a, b, other = np.random.SeedSequence(seed).spawn(3)
    top, bottom = slice(0, 15 // 2), slice(15 // 2, None)
    for streams, kept, changed in (((a, other), top, bottom), ((other, b), bottom, top)):
        want = reference_simulate_measurement_2d(obj, pattern, model, grid, noise, seed,
                                                 streams=streams).values
        assert got[kept].tobytes() == want[kept].tobytes()
        assert not np.array_equal(got[changed], want[changed])


def test_noise_is_standard_normal():
    # the noise a frame gets, read back from a noisy and a noiseless frame of
    # one 2048 x 2048 uniform field, no pixel of which the clip reaches
    # (|F|^2 >= 0.08 max against 5.77 sigma max): 2^22 values whose mean,
    # variance, skew and excess kurtosis lie within 5 standard errors of the
    # standard normal's, which a KS test cannot tell apart, whose tail goes
    # past 5 (the largest of 2^22 normal values does so with probability
    # 0.91) but not past sqrt(48 ln 2), the bound of float32 uniforms, and
    # whose consecutive values are uncorrelated
    grid = GridSpec(64, 64, 32, crop_rows=0)
    ones = ComplexField(np.ones((64, 64), dtype=complex))
    model = PsfModel("gaussian", 8.0)
    clean = simulate_measurement_2d(ones, ones, model, grid, 0.0, seed=0).values
    noisy = simulate_measurement_2d(ones, ones, model, grid, 1e-3, seed=0).values
    assert clean.min() >= 0.08 * clean.max()
    z = ((noisy - clean) / (1e-3 * clean.max())).ravel()
    n = z.size
    assert n == 1 << 22
    assert abs(z.mean()) < 5 / np.sqrt(n)
    assert abs(z.var() - 1) < 5 * np.sqrt(2 / n)
    assert abs(stats.skew(z)) < 5 * np.sqrt(6 / n)
    assert abs(stats.kurtosis(z)) < 5 * np.sqrt(24 / n)
    assert stats.kstest(z, "norm").pvalue >= 1e-3
    assert 5 < np.abs(z).max() <= np.sqrt(48 * np.log(2))
    assert abs(np.corrcoef(z[:-1], z[1:])[0, 1]) < 5 / np.sqrt(n)


@pytest.mark.parametrize("pool", THREAD_ORDERS[1:])
def test_frames_do_not_depend_on_which_thread_takes_a_strip(pool):
    # the noise pass shares its cuts between the two threads: with one side
    # taking every cut, both noise streams are still the oracle's bit for
    # bit, over many cuts per half (|F|^2 and its peak run on the calling
    # thread either way)
    case = _grid_case(12, 6, 8, PsfModel("gaussian", 3.0))
    want = reference_simulate_measurement_2d(*case).values.tobytes()
    with strip_sizes()[1], thread_order(forward_model, pool):
        got = simulate_measurement_2d(*case).values.tobytes()
    assert got == want


READOUT_FRAMES = {
    "one-row": np.random.default_rng(1).random((1, 3000)) * 7.0,
    "all-zero": np.zeros((300, 7)),
    "many-strips": np.random.default_rng(2).random((257, 40)),
    "float32": np.random.default_rng(4).random((257, 40), dtype=np.float32),
}


@pytest.mark.parametrize("frame", READOUT_FRAMES.values(), ids=READOUT_FRAMES)
@pytest.mark.parametrize("pool", THREAD_ORDERS)
def test_readout_does_not_depend_on_which_thread_takes_a_strip(frame, pool):
    # one row (one strip), an all-zero frame (scale 1) and many strips, over
    # small strips: the readout runs on the calling thread, so with two
    # threads, or one side taking every strip of the module's two-thread
    # passes, the levels and scale are the reference readout's; the readout
    # consumes its frame, so each call reads out its own copy of the shared one
    img = IntensityImage(frame.copy())
    want = reference_quantize_16bit(img)
    with strip_sizes()[1], thread_order(forward_model, pool):
        got = quantize_16bit(img)
    assert got.scale == want.scale
    assert got.values.tobytes() == want.values.tobytes()
    if not frame.any():
        assert got.scale == 1.0 and not got.values.any()


@pytest.mark.parametrize("frame", READOUT_FRAMES.values(), ids=READOUT_FRAMES)
def test_readout_matches_the_reference(frame):
    # the same frames over the package's own row strips: the levels and
    # scale are the reference readout's
    img = IntensityImage(frame.copy())
    want = reference_quantize_16bit(img)
    got = quantize_16bit(img)
    assert got.scale == want.scale
    assert got.values.tobytes() == want.values.tobytes()
    if not frame.any():
        assert got.scale == 1.0 and not got.values.any()


def test_concurrent_simulations_match_the_reference():
    # four callers at once, each with its own worker thread, more threads
    # than cores and a short switch interval: every frame is still the
    # oracle's, so no call writes into another's frame or buffers
    case = _grid_case(3, 20, 5, PsfModel("gaussian", 2.0))
    want = reference_simulate_measurement_2d(*case).values.tobytes()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            frames = [pool.submit(simulate_measurement_2d, *case) for _ in range(16)]
            got = [frame.result(timeout=60).values.tobytes() for frame in frames]
    finally:
        sys.setswitchinterval(interval)
    assert got == [want] * 16


def test_concurrent_readouts_match_the_reference():
    # four callers at once, more threads than cores and a short switch
    # interval: every readout is still the reference readout, so no call
    # writes into another's levels or strip buffer (each reads out its own
    # copy of the frame, which the readout consumes)
    img = IntensityImage(np.random.default_rng(3).random((120, 90)) * 5.0)
    want = reference_quantize_16bit(img)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with strip_sizes()[1], ThreadPoolExecutor(max_workers=4) as pool:
            frames = [pool.submit(quantize_16bit, IntensityImage(img.values.copy()))
                      for _ in range(16)]
            got = [frame.result(timeout=60) for frame in frames]
    finally:
        sys.setswitchinterval(interval)
    assert [(f.scale, f.values.tobytes()) for f in got] == [(want.scale, want.values.tobytes())] * 16


_BACKING = np.random.default_rng(5).random((40, 61)) * 3.0
# each builds a new frame, which a readout may consume
IN_PLACE_FRAMES = {
    "float32": lambda: _BACKING[:, :60].astype(np.float32),
    "float64": lambda: _BACKING.copy(),
    "cropped": lambda: _BACKING.astype(np.float32)[3:37],
    "odd-width": lambda: _BACKING[:, :7].astype(np.float32),
    "one-row": lambda: _BACKING[:1].astype(np.float32),
}


@pytest.mark.parametrize("make", IN_PLACE_FRAMES.values(), ids=IN_PLACE_FRAMES)
@pytest.mark.parametrize("strips", [0, 1], ids=["strips", "small-strips"])
def test_readout_packs_levels_into_the_frames_memory(make, strips):
    # each strip's levels are written straight to their packed place, over
    # floats already read: the levels are C-contiguous from the frame's
    # first byte, so they share the frame's memory and no levels-sized array
    # is allocated; they are the levels and scale of a readout of a copy
    # into a new array, for float32 and float64 frames, a row-cropped view,
    # an odd width and one row
    img = IntensityImage(make(), scale=0.25)
    want = reference_quantize_16bit(IntensityImage(make(), scale=0.25))
    with strip_sizes()[strips]:
        got = quantize_16bit(img)
    assert np.shares_memory(got.values, img.values)
    assert got.values.ctypes.data == img.values.ctypes.data
    assert got.values.flags.c_contiguous
    assert got.scale == want.scale
    assert got.values.tobytes() == want.values.tobytes()


class _PoolConstructed(Exception):
    pass


def _refuse_pool(max_workers):
    raise _PoolConstructed


@pytest.mark.parametrize("strips", [0, 1], ids=["strips", "small-strips"])
def test_only_the_noise_pass_starts_a_worker(strips):
    # |F|^2, its peak and the readout run on the calling thread: a noiseless
    # simulation and a readout of every frame construct no thread pool,
    # while a noisy simulation still starts one for its noise cuts
    obj, pattern, model, grid, noise, seed = _grid_case(3, 7, 8, PsfModel("gaussian", 2.0))
    frames = [*READOUT_FRAMES.values(), *(make() for make in IN_PLACE_FRAMES.values())]
    with strip_sizes()[strips], mock.patch.object(forward_model, "ThreadPoolExecutor",
                                                  _refuse_pool):
        quantize_16bit(simulate_measurement_2d(obj, pattern, model, grid, 0.0, seed))
        for frame in frames:
            quantize_16bit(IntensityImage(frame.copy()))
        with pytest.raises(_PoolConstructed):
            simulate_measurement_2d(obj, pattern, model, grid, noise, seed)


@pytest.mark.parametrize("make", [lambda f: f[:, ::2], lambda f: f.T,
                                  lambda f: np.frombuffer(f.tobytes(), f.dtype).reshape(f.shape),
                                  lambda f: f[:, 3:37]],
                         ids=["strided-rows", "transposed", "read-only", "column-cropped"])
def test_readout_copies_a_frame_it_cannot_write_over(make):
    # a frame that is not C-contiguous (its rows apart by more than their
    # width, too), or that is read-only, is copied first: it reads out as
    # its copy does and is left as it was
    frame = make(np.random.default_rng(6).random((30, 40), dtype=np.float32))
    kept = frame.copy()
    got = quantize_16bit(IntensityImage(frame))
    want = reference_quantize_16bit(IntensityImage(kept.copy()))
    assert not np.shares_memory(got.values, frame)
    assert np.array_equal(frame, kept)
    assert got.scale == want.scale
    assert got.values.tobytes() == want.values.tobytes()


@pytest.mark.parametrize("k", [-100, -60, 40, 100])
def test_an_object_scaled_by_a_power_of_two_changes_only_the_scale(k):
    # the source is brought to a peak amplitude in [0.5, 1) by an exact power
    # of two, which the frame's scale undoes: amplitudes whose |F|^2 lies far
    # outside float32's range (2^+-200) read out as the same levels, noisy
    # or not, with the scale divided by 2^(2k) exactly
    obj, pattern, model, grid, noise, seed = _grid_case(3, 7, 8, PsfModel("gaussian", 2.0))
    far = ComplexField(obj.values * 2.0 ** k)
    for sigma in (0.0, noise):
        want = quantize_16bit(simulate_measurement_2d(obj, pattern, model, grid, sigma, seed))
        got = quantize_16bit(simulate_measurement_2d(far, pattern, model, grid, sigma, seed))
        assert got.values.tobytes() == want.values.tobytes()
        assert got.scale == want.scale * 2.0 ** (-2 * k)


@settings(max_examples=40, deadline=None)
@given(frame_cases(rows=(1, 8), cols=(1, 8)))
def test_single_precision_levels_are_within_one_of_a_float64_readout(case):
    # F in complex64 and the frame in float32 round ~6e-8 of a value, far
    # below one readout level (1/65535 of the peak): for each PSF kind, every
    # level of a noiseless frame is within 1 of the levels of |F|^2 formed in
    # complex128 and float64 as one whole frame, read out in float64
    obj, pattern, model, grid, _, _ = case
    ppu, crop = grid.pixels_per_unit, grid.crop_rows
    for kind in PSF_KINDS:
        psf = PsfModel(kind, model.radius)
        got = quantize_16bit(simulate_measurement_2d(obj, pattern, psf, grid, 0.0, seed=0))
        wy = _unit_window(psf, np.arange(grid.s1 * ppu) + 0.5, ppu, grid.s1)
        wx = _unit_window(psf, np.arange(grid.s2 * ppu) + 0.5, ppu, grid.s2)
        power = np.abs(wy @ (obj.values * pattern.values) @ wx.T)[crop:len(wy) - crop] ** 2
        peak = power.max()
        want = np.rint(power * (65535.0 / peak if peak > 0 else 1.0))
        assert np.abs(got.values.astype(float) - want).max() <= 1


def test_simulated_frames_are_float32_and_kept_as_they_are():
    # simulation returns a float32 frame, which IntensityImage keeps without
    # a copy; the readout still takes a float64 frame, and reads the same
    # values as the same levels, its product being float64 either way
    obj, pattern, model, grid, noise, seed = _grid_case(3, 7, 8, PsfModel("gaussian", 2.0))
    for sigma in (0.0, noise):
        img = simulate_measurement_2d(obj, pattern, model, grid, sigma, seed)
        assert img.values.dtype == np.float32
        assert np.shares_memory(IntensityImage(img.values).values, img.values)
        wide = IntensityImage(img.values.astype(float), img.scale)
        assert wide.values.dtype == np.float64
        want = quantize_16bit(img)
        got = quantize_16bit(wide)
        assert got.scale == want.scale
        assert got.values.tobytes() == want.values.tobytes()


@pytest.mark.parametrize("kind, reach", [("gaussian", 2), ("exponential", 5), ("box", 1)])
def test_window_reach_at_32_px_per_unit(kind, reach):
    # r = 8: where the tabulated primitive saturates, the windows are zero
    window = _unit_window(PsfModel(kind, 8.0), np.arange(16 * 32) + 0.5, 32, 16)
    assert _reach(window, 32) == reach


def check_banded_pieces(windows, rows, pieces):
    """Each used column of `windows` in exactly one piece, every nonzero
    inside its piece's block, no one-column piece unless one column is used,
    and every product below _BLOCK_MADDS wherever two columns fit."""
    n, k = windows.shape
    used = np.flatnonzero((windows != 0).any(axis=0))
    if rows == 1:
        # a vector-matrix product takes the whole matrix
        assert len(pieces) == 1 and pieces[0][1:3] == (0, n)
        assert pieces[0][3].tobytes() == np.ascontiguousarray(windows).tobytes()
        return
    seen = []
    for index, (cols, lo, hi, block) in enumerate(pieces):
        assert isinstance(cols, slice)
        cols = np.arange(k)[cols]
        seen.extend(cols.tolist())
        assert not block.flags.writeable and block.flags.c_contiguous
        assert block.tobytes() == np.ascontiguousarray(windows[lo:hi, cols]).tobytes()
        assert not windows[:lo, cols].any() and not windows[hi:, cols].any()
        assert len(cols) >= min(2, len(used))
        if rows * (hi - lo) * len(cols) >= _BLOCK_MADDS:
            nonzero = np.flatnonzero((windows[:, cols[:2]] != 0).any(axis=1))
            two = rows * (nonzero[-1] + 1 - nonzero[0]) * 2
            # or three columns at the end, where two fit but no piece of
            # one column may be left
            assert two >= _BLOCK_MADDS or (index == len(pieces) - 1 and len(cols) == 3)
    assert sorted(seen) == used.tolist()


@st.composite
def banded_matrices(draw):
    """A random window matrix whose columns are each nonzero on one band,
    the bands' first rows in column order as every window matrix's are, and
    the rows of the products it is cut for."""
    n, k = draw(st.integers(1, 80)), draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    windows = np.zeros((n, k))
    tops = np.sort(rng.integers(0, n, k))
    for c, top in enumerate(tops):
        width = rng.integers(1, min(draw(st.sampled_from([3, 12, 80])), n - top) + 1)
        windows[top:top + width, c] = rng.uniform(-1, 1, width)
    return windows, draw(st.sampled_from([1, 2, 3, 16, 32, 200, 3000]))


@settings(max_examples=300, deadline=None)
@given(banded_matrices())
def test_banded_pieces_hold_every_nonzero_once(case):
    windows, rows = case
    check_banded_pieces(windows, rows, banded(windows, rows))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(PSF_KINDS), st.sampled_from([1, 2, 4, 5, 8, 13, 32]),
       st.floats(0.05, 1.5), st.integers(1, 12), st.integers(1, 12), st.integers(1, 2000))
def test_field_windows_cover_every_nonzero(kind, ppu, r_per_unit, s1, s2, rows):
    model = PsfModel(kind, r_per_unit * ppu)
    wy, reach, pieces = _field_windows(model, GridSpec(s1, s2, ppu), rows)
    # both windows are cached as complex64, the dtype of the field products
    assert not wy.flags.writeable and wy.dtype == np.complex64
    want = _unit_window(model, np.arange(s1 * ppu) + 0.5, ppu, s1).astype(np.complex64)
    assert wy.tobytes() == want.tobytes()
    pixel, unit = np.nonzero(wy)
    assert np.all(np.abs(unit - pixel // ppu) <= reach)
    # the pieces are banded's pieces of the complex64 Wx^T
    wx = _unit_window(model, np.arange(s2 * ppu) + 0.5, ppu, s2)
    assert all(block.dtype == np.complex64 for *_, block in pieces)
    check_banded_pieces(wx.T.astype(np.complex64), rows, pieces)


@pytest.mark.parametrize("units", [32, 64, 128])
@pytest.mark.parametrize("kind", PSF_KINDS)
def test_field_products_stay_below_the_one_thread_size(kind, units):
    # at the benchmark's 32 px per unit and r = 8, every block product of a
    # strip, G's included, is small enough for BLAS to run on one thread;
    # so is every piece of detection's frame pass, B = frame R_along
    grid = GridSpec(units, units, 32, default_crop_rows(32))
    strips, size = frame_strips(grid.s1 * 32, grid.width)
    wy, reach, pieces = _field_windows(PsfModel(kind, 8.0), grid, size)
    for rows in strips:
        units_of_g = (min((rows.stop - 1) // 32 + 1 + reach, units)
                      - max(rows.start // 32 - reach, 0))
        assert (rows.stop - rows.start) * units_of_g * units < _BLOCK_MADDS
    right = _grid_windows(grid, DetectConfig())[0]
    for pieces, rows in ((pieces, size), (right, frame_strips(grid.height, grid.width)[1])):
        for cols, lo, hi, block in pieces:
            assert rows * (hi - lo) * block.shape[1] < _BLOCK_MADDS


def test_simulate_holds_only_the_field_and_the_frame():
    # 16 x 16 units at 64 px: the complex64 field (8 B/px) and the float32
    # frame (4 B/px) are the only frame-sized arrays of a call
    rng = np.random.default_rng(0)
    obj = ComplexField(np.exp(2j * np.pi * rng.integers(0, 4, (16, 16)) / 4))
    pattern = ComplexField(np.ones((16, 16), dtype=complex))
    grid = GridSpec(16, 16, 64, default_crop_rows(64))
    model = PsfModel("gaussian", 16.0)
    tracemalloc.start()
    try:
        img = simulate_measurement_2d(obj, pattern, model, grid, 0.05, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    pixels = (16 * 64) ** 2
    assert img.values.shape[1] == 16 * 64
    assert peak <= 1.1 * (8 + 4) * pixels


def test_simulate_holds_the_frame_and_two_field_strips():
    # the field is built one row strip at a time: no frame-sized complex
    # array, only the float32 frame (4 B/px) and at most two complex64
    # strips (8 B/px)
    rng = np.random.default_rng(0)
    obj = ComplexField(np.exp(2j * np.pi * rng.integers(0, 4, (16, 16)) / 4))
    pattern = ComplexField(np.ones((16, 16), dtype=complex))
    grid = GridSpec(16, 16, 64, default_crop_rows(64))
    model = PsfModel("gaussian", 16.0)
    tracemalloc.start()
    try:
        img = simulate_measurement_2d(obj, pattern, model, grid, 0.05, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    pixels = (16 * 64) ** 2
    assert img.values.shape[1] == 16 * 64
    assert peak <= 1.1 * 4 * pixels + 2 * 8 * STRIP_PIXELS


@given(st.integers(1, 600), st.integers(0, 300))
def test_row_strips_cover_the_frame_without_one_row_strips(height, rows):
    strips = row_strips(height, rows)
    assert strips[0].start == 0 and strips[-1].stop == height
    assert all(a.stop == b.start for a, b in zip(strips, strips[1:]))
    sizes = [s.stop - s.start for s in strips]
    assert min(sizes) >= min(2, height)
    assert max(sizes) <= max(rows, 2) + 1


# ---------------------------------------------------------------------------
# type validation


def test_type_validation():
    with pytest.raises(ValueError):
        ComplexField(np.array([[np.inf + 0j]]))
    with pytest.raises(ValueError):
        IntensityImage(np.array([[-1.0]]))
    with pytest.raises(ValueError):
        GridSpec(4, 4, 0)
    with pytest.raises(ValueError):
        PsfModel("gaussian", 0.0)
    with pytest.raises(ValueError):
        GridSpec(0, 4, 32)
    g = GridSpec(4, 5, 32, crop_rows=2)
    assert (g.height, g.width) == (124, 160)


def test_intensity_image_rejects_nan_and_empty():
    with pytest.raises(ValueError, match="nonnegative"):
        IntensityImage(np.array([[1.0, np.nan], [0.0, 2.0]]))
    with pytest.raises(ValueError, match="nonnegative"):
        IntensityImage(np.array([[np.nan]]))
    with pytest.raises(ValueError, match="non-empty 2D"):
        IntensityImage(np.zeros((0, 3)))
    assert IntensityImage(np.array([[0.0, -0.0]])).values.shape == (1, 2)


def test_intensity_image_keeps_levels_and_checks_scale():
    levels = np.array([[0, 7], [65535, 1]], dtype=">u2")
    img = IntensityImage(levels, scale=2.5)
    assert img.values is levels and img.scale == 2.5
    assert IntensityImage(np.ones((1, 1))).scale == 1.0
    for scale in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="scale must be positive and finite"):
            IntensityImage(levels, scale=scale)
    with pytest.raises(ValueError, match="already 16-bit levels"):
        quantize_16bit(img)
