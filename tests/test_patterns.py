import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import darkfringe as df
from darkfringe.forward_model import PsfModel, intensity_profile_1d
from darkfringe.fileio import read_pgm8, write_pgm8
from darkfringe.patterns import encode_8bit, make_patterns, reference_library

from conftest import reference_pattern_pgm


def test_canonical_m4_ratios():
    ps = make_patterns(4, 8, 8)
    assert ps.ratios == (1j, -1j, -1 + 0j, 1 + 0j)


def test_ramp_value_at_unit():
    ps = make_patterns(4, 8, 8)
    pattern = next(p for p, q in zip(ps.patterns, ps.ratios) if q == 1j)
    # unit (2, 3): phase (2 + 3) * pi/2 mod 2*pi = pi/2
    assert pattern.values[2, 3] == pytest.approx(1j)


def test_m2_is_binary():
    ps = make_patterns(2, 4, 4)
    assert np.allclose(ps.ratios, (-1.0, 1.0))


def test_m_below_2_rejected():
    with pytest.raises(ValueError):
        make_patterns(1, 4, 4)


def test_anchor_phase_zero():
    for m in (2, 3, 4, 6):
        for p in make_patterns(m, 5, 7).patterns:
            assert p.values[0, 0] == 1.0 + 0.0j


@given(st.integers(min_value=2, max_value=8),
       st.integers(min_value=1, max_value=12),
       st.integers(min_value=1, max_value=12))
@settings(max_examples=40, deadline=None)
def test_ramp_invariant(m, s1, s2):
    ps = make_patterns(m, s1, s2)
    for q, pattern in zip(ps.ratios, ps.patterns):
        vals = pattern.values
        assert np.allclose(np.abs(vals), 1.0)
        if s2 > 1:
            assert np.allclose(vals[:, 1:] / vals[:, :-1], q)
        if s1 > 1:
            assert np.allclose(vals[1:, :] / vals[:-1, :], q)


def test_encode_8bit_canonical_levels():
    ps = make_patterns(4, 2, 2)
    by_ratio = dict(zip(ps.ratios, ps.patterns))
    # adjacent value of the ramp carries the step phase itself
    assert encode_8bit(by_ratio[1j])[0, 1] == 63          # pi/2
    assert encode_8bit(by_ratio[-1 + 0j])[0, 1] == 127    # pi
    assert encode_8bit(by_ratio[-1j])[0, 1] == 191        # 3*pi/2
    assert encode_8bit(by_ratio[1 + 0j])[0, 1] == 0       # 2*pi -> 0
    for p in ps.patterns:
        levels = encode_8bit(p)
        assert levels.min() >= 0 and levels.max() <= 255


def test_encode_8bit_rejects_non_unit_modulus():
    with pytest.raises(ValueError):
        encode_8bit(df.ComplexField(np.array([[2.0 + 0j]])))


def test_reference_library_is_conjugate():
    ps = make_patterns(4, 4, 4)
    lib = reference_library(ps)
    assert lib.ratios == {1: -1j, 2: 1j, 3: -1 + 0j, 4: 1 + 0j}


def test_reference_library_general_m():
    ps = make_patterns(6, 3, 3)
    lib = reference_library(ps)
    for j, q in enumerate(ps.ratios, start=1):
        assert lib[j] == pytest.approx(np.conj(q))


def test_disappearance_matches_library_via_forward_model():
    # brute force over (object ratio, pattern) pairs: the simulated fringe is
    # absent exactly when rho * q_j = 1, i.e. rho = lib[j]
    ps = make_patterns(4, 2, 2)
    lib = reference_library(ps)
    model = PsfModel("gaussian", 8.0)
    unit_len = 64
    for rho in (1 + 0j, 1j, -1 + 0j, -1j):
        absent = []
        for j, q in enumerate(ps.ratios, start=1):
            combined = rho * q
            prof = intensity_profile_1d([0.0, float(np.angle(combined))], unit_len, model)
            boundary = prof[unit_len - 2: unit_len + 2].min()
            interior = prof[unit_len // 2]
            if boundary > 0.9 * interior:
                absent.append(j)
        assert len(absent) == 1
        assert lib[absent[0]] == pytest.approx(rho)


def test_signature_completeness_noiseless(sim16):
    # every boundary of a quantized object loses its fringe in exactly one of
    # the m measurements
    from conftest import truth_presence_maps
    obj = sim16.random_object(seed=11)
    maps = sim16.detect(sim16.measure(obj, seed=11))
    truth = truth_presence_maps(obj, sim16.patterns)
    rows = np.stack([m.row_map for m in maps]).sum(axis=0)
    cols = np.stack([m.col_map for m in maps]).sum(axis=0)
    assert np.all(rows == sim16.m - 1)
    assert np.all(cols == sim16.m - 1)
    for got, want in zip(maps, truth):
        assert np.array_equal(got.row_map, want.row_map)
        assert np.array_equal(got.col_map, want.col_map)


def test_pattern_levels_are_bytes():
    for p in make_patterns(6, 3, 5).patterns:
        levels = encode_8bit(p)
        assert levels.dtype == np.uint8
        assert levels.shape == (3, 5)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 8), st.integers(1, 19), st.integers(1, 19))
def test_pattern_files_match_int64_reference(m, s1, s2):
    # uint8 levels write the same file as int64 ones
    with tempfile.TemporaryDirectory() as tmp:
        got, want = Path(tmp) / "got.pgm", Path(tmp) / "want.pgm"
        for pattern in make_patterns(m, s1, s2).patterns:
            write_pgm8(got, encode_8bit(pattern))
            reference_pattern_pgm(want, pattern)
            assert got.read_bytes() == want.read_bytes()


@pytest.mark.parametrize("m", [3, 4])
def test_pipeline_pattern_files_hold_one_pixel_per_unit(m, tmp_path):
    # each pattern file is the s1 x s2 grid of its levels, s2 wide, s1 high
    cfg = df.RunConfig(s1=4, s2=5, pixels_per_unit=8, psf_radius=2.0, m=m,
                       outdir=str(tmp_path))
    df.run_pipeline(cfg)
    for j, pattern in enumerate(make_patterns(m, 4, 5).patterns, start=1):
        got = read_pgm8(tmp_path / f"pattern_j{j}.pgm")
        assert got.shape == (4, 5)
        assert np.array_equal(got, encode_8bit(pattern))
