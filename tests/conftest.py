"""Shared fixtures and independent oracles for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from scipy.ndimage import gaussian_filter

import darkfringe as df
from darkfringe.fringe_detect import FringeMaps, default_detect_config
from darkfringe.pipeline import random_quantized_object, simulate_measurements


def kernel_profile(kind: str, r: float, u: np.ndarray) -> np.ndarray:
    """Reference kernel formulas, written out independently of the package."""
    if kind == "box":
        return (np.abs(u) <= r).astype(float)
    if kind == "exponential":
        return np.exp(-2.0 * np.abs(u) / r)
    return np.exp(-((u / r) ** 2))


def gamma_quadrature(kind: str, r: float, a1: float, phi1: float, phi2: float,
                     x: float, step: float = 0.01) -> float:
    """Boundary-region intensity by direct trapezoid quadrature.

    Two equal-amplitude units spanning [-a1, 0] and [0, a1]; the field at x is
    exp(i phi1) * int_{-a1}^{0} p(x - t) dt + exp(i phi2) * int_{0}^{a1}.
    Completely independent of the primitive-table machinery.
    """

    def integral(lo, hi):
        n = int(round((hi - lo) / step))
        u = lo + np.arange(n + 1) * step
        return np.trapezoid(kernel_profile(kind, r, u), dx=step)

    f = (np.exp(1j * phi1) * integral(x, x + a1)
         + np.exp(1j * phi2) * integral(x - a1, x))
    return float(abs(f) ** 2)


def gamma2_centered_fd(kind, r, a1, phi1, phi2, delta=0.5, step=0.01):
    """Second centered finite difference of the quadrature intensity."""
    g0 = gamma_quadrature(kind, r, a1, phi1, phi2, 0.0, step)
    gp = gamma_quadrature(kind, r, a1, phi1, phi2, delta, step)
    gm = gamma_quadrature(kind, r, a1, phi1, phi2, -delta, step)
    return (gp - 2.0 * g0 + gm) / delta**2


def gamma2_fd_richardson(kind, r, a1, phi1, phi2, delta=0.5, step=0.01):
    """Richardson pair of centered differences; cancels the O(delta) term
    the exponential kernel's cusp at 0 leaves in a single stencil."""
    return (2.0 * gamma2_centered_fd(kind, r, a1, phi1, phi2, delta / 2, step)
            - gamma2_centered_fd(kind, r, a1, phi1, phi2, delta, step))


def truth_presence_maps(obj: df.ComplexField, pattern_set: df.PatternSet) -> list[FringeMaps]:
    """Ground-truth fringe presence from the combined adjacent ratios."""
    maps = []
    for j, pattern in enumerate(pattern_set.patterns, start=1):
        comb = obj.values * pattern.values
        ratio_h = comb[:, 1:] / comb[:, :-1]
        ratio_v = comb[1:, :] / comb[:-1, :]
        maps.append(FringeMaps(row_map=~np.isclose(ratio_h, 1.0),
                               col_map=~np.isclose(ratio_v, 1.0),
                               measurement_index=j))
    return maps


def truth_edge_ratios(obj: df.ComplexField) -> df.EdgeRatios:
    vals = obj.values / np.abs(obj.values)
    return df.EdgeRatios(horizontal=vals[:, 1:] / vals[:, :-1],
                         vertical=vals[1:, :] / vals[:-1, :])


def _clip_span(a: int, b: int, lo: int, hi: int) -> slice:
    a, b = max(a, lo), min(b, hi)
    return slice(a - lo, max(b - lo, a - lo))


def _reference_band_test(raw, hp, band_rc, flank_a, flank_b, alpha):
    band_vals = raw[band_rc]
    flank_vals = np.concatenate([raw[flank_a].ravel(), raw[flank_b].ravel()])
    if band_vals.size == 0 or flank_vals.size == 0:
        return True, True
    flank_mean = flank_vals.mean()
    if flank_mean <= 0:
        return True, True
    dark = band_vals.mean() < alpha * flank_mean
    hp_band = hp[band_rc].mean()
    hp_flank = np.concatenate([hp[flank_a].ravel(), hp[flank_b].ravel()]).mean()
    return bool(dark and hp_band > hp_flank), False


def reference_recognize_fringes(img, grid, cfg=None, measurement_index=0) -> FringeMaps:
    """Boundary-by-boundary band-contrast test on the explicit high-pass image.

    The direct form of ``recognize_fringes``: invert, subtract the
    nearest-mode Gaussian background, then slice every band and flank
    rectangle and compare their means one boundary at a time.
    """
    if cfg is None:
        cfg = default_detect_config(grid.pixels_per_unit)
    ppu, hw, alpha = grid.pixels_per_unit, cfg.band_halfwidth, cfg.fringe_ratio_alpha
    raw = img.values
    inverted = raw.max() - raw
    hp = inverted - gaussian_filter(inverted, cfg.highpass_sigma, mode="nearest")
    row_lo, row_hi = grid.crop_rows, grid.crop_rows + grid.height
    width = grid.width
    margin = min(hw + 1, (ppu - 1) // 2)

    def along(u, lo, hi):
        return _clip_span(u * ppu + margin, (u + 1) * ppu - margin, lo, hi)

    def across(line, lo, hi):
        return _clip_span(line - hw, line + hw, lo, hi)

    def flank(u, lo, hi):
        center, half = u * ppu + ppu // 2, max(1, ppu // 8)
        return _clip_span(center - half, center + half, lo, hi)

    row_map = np.zeros((grid.s1, grid.s2 - 1), dtype=bool)
    zf_row = np.zeros_like(row_map)
    for i in range(grid.s1):
        rows = along(i, row_lo, row_hi)
        for jb in range(grid.s2 - 1):
            row_map[i, jb], zf_row[i, jb] = _reference_band_test(
                raw, hp, (rows, across((jb + 1) * ppu, 0, width)),
                (rows, flank(jb, 0, width)), (rows, flank(jb + 1, 0, width)), alpha)

    col_map = np.zeros((grid.s1 - 1, grid.s2), dtype=bool)
    zf_col = np.zeros_like(col_map)
    for ib in range(grid.s1 - 1):
        band_rows = across((ib + 1) * ppu, row_lo, row_hi)
        fla_rows, flb_rows = flank(ib, row_lo, row_hi), flank(ib + 1, row_lo, row_hi)
        for j in range(grid.s2):
            cols = along(j, 0, width)
            col_map[ib, j], zf_col[ib, j] = _reference_band_test(
                raw, hp, (band_rows, cols), (fla_rows, cols), (flb_rows, cols), alpha)

    diagnostics = {}
    if zf_row.any() or zf_col.any():
        diagnostics["zero_flank_row"] = zf_row
        diagnostics["zero_flank_col"] = zf_col
    return FringeMaps(row_map=row_map, col_map=col_map,
                      measurement_index=measurement_index, diagnostics=diagnostics)


class SimSetup:
    """Canonical 16 x 16 simulation context shared across tests."""

    def __init__(self, s1=16, s2=16, ppu=32, radius=8.0, noise=0.0, m=4):
        self.s1, self.s2, self.m = s1, s2, m
        self.sim_cfg = df.SimConfig(pixels_per_unit=ppu, noise_sigma=noise)
        self.grid = df.GridSpec(s1, s2, ppu, self.sim_cfg.effective_crop_rows)
        self.model = df.PsfModel("gaussian", radius)
        self.patterns = df.make_patterns(m, s1, s2)
        self.library = df.reference_library(self.patterns)
        self.detect_cfg = df.DetectConfig(highpass_sigma=ppu / 4)

    def random_object(self, seed):
        return random_quantized_object(self.s1, self.s2, self.m, seed)

    def measure(self, obj, seed):
        return simulate_measurements(obj, self.patterns, self.model,
                                     self.sim_cfg, seed)

    def detect(self, images):
        return [df.recognize_fringes(img, self.grid, self.detect_cfg,
                                     measurement_index=j)
                for j, img in enumerate(images, start=1)]


@pytest.fixture(scope="session")
def sim16():
    return SimSetup()
