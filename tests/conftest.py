"""Shared fixtures and independent oracles for the test suite."""

from __future__ import annotations

import contextlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import strategies as st
from scipy.ndimage import gaussian_filter

import darkfringe as df
from darkfringe.fileio import _read_pgm_header
from darkfringe.forward_model import _unit_window
from darkfringe.path_search import MOVES, random_invalid_maps, transpose_invalid
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
    return bool(dark and hp_band > hp_flank + 1e-9 * flank_mean), False


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


# -- string planner and path walker: the planner and phase accumulation as
# they were before plans became trees, kept as oracles


class ReferencePlan:
    """A move string per unit (None for UNREACHABLE) plus provenance labels."""

    def __init__(self, origin, paths, provenance):
        self.origin, self.paths, self.provenance = origin, paths, provenance

    def reachable_mask(self) -> np.ndarray:
        return np.array([[p is not None for p in row] for row in self.paths])


def reference_plan_paths(invalid, origin) -> ReferencePlan:
    """Column relay storing whole move strings; targets take the nearest
    entry of their segment by an explicit min over candidates."""
    s1, s2 = invalid.s1, invalid.s2
    r0, c0 = origin
    paths = [[None] * s2 for _ in range(s1)]
    prov = [[None] * s2 for _ in range(s1)]
    segments = []
    for c in range(s2):
        seg = [0] * s1
        for r in range(1, s1):
            seg[r] = seg[r - 1] + int(invalid.matrix_b[r - 1, c])
        segments.append(seg)

    def fill_column(c, entries):
        by_segment = {}
        for row, path in entries:
            by_segment.setdefault(segments[c][row], []).append((row, path))
        changed = False
        for r in range(s1):
            candidates = by_segment.get(segments[c][r])
            if paths[r][c] is not None or not candidates:
                continue
            e_row, e_path = min(candidates, key=lambda rp: (abs(rp[0] - r), rp[0]))
            paths[r][c] = e_path + ("D" * (r - e_row) if r >= e_row else "U" * (e_row - r))
            prov[r][c] = "primary"
            changed = True
        return changed

    def crossings(c_from, c_to, move):
        return [(r, paths[r][c_from] + move) for r in range(s1)
                if paths[r][c_from] is not None
                and not invalid.matrix_a[r, min(c_from, c_to)]]

    fill_column(c0, [(r0, "")])
    while True:
        changed = False
        for direction, move in ((1, "R"), (-1, "L")):
            c = c0 + direction
            while 0 <= c < s2:
                changed |= fill_column(c, crossings(c - direction, c, move))
                c += direction
        reentry = []
        if c0 + 1 < s2:
            reentry += crossings(c0 + 1, c0, "L")
        if c0 - 1 >= 0:
            reentry += crossings(c0 - 1, c0, "R")
        changed |= fill_column(c0, reentry)
        if not changed:
            return ReferencePlan(origin, paths, prov)


def reference_plan_with_retry(invalid, origins) -> ReferencePlan:
    """Transpose retry and extra origins, each filled path rebased as the
    extra origin's own path plus the retry pass's whole path."""
    s1, s2 = invalid.s1, invalid.s2
    plan = reference_plan_paths(invalid, origins[0])
    transposed = transpose_invalid(invalid)
    swap = str.maketrans("UDLR", "LRUD")

    def fill_from(sub, prefix, label, transpose):
        for r in range(s1):
            for c in range(s2):
                sub_path = sub.paths[c][r] if transpose else sub.paths[r][c]
                if plan.paths[r][c] is None and sub_path is not None:
                    plan.paths[r][c] = prefix + (sub_path.translate(swap)
                                                 if transpose else sub_path)
                    plan.provenance[r][c] = label

    def any_missing():
        return any(p is None for row in plan.paths for p in row)

    if any_missing():
        r0, c0 = origins[0]
        fill_from(reference_plan_paths(transposed, (c0, r0)), "", "transpose", True)
    for k, (rk, ck) in enumerate(origins[1:], start=2):
        if not any_missing():
            break
        prefix = plan.paths[rk][ck]
        if prefix is None:
            continue
        fill_from(reference_plan_paths(invalid, (rk, ck)), prefix, f"origin{k}", False)
        fill_from(reference_plan_paths(transposed, (ck, rk)), prefix,
                  f"origin{k}+transpose", True)
    return plan


def reference_accumulate_phase(plan, ratios, origin_phase=0.0) -> np.ndarray:
    """Walk every unit's whole move string, multiplying edge ratios."""
    s1, s2 = len(plan.paths), len(plan.paths[0])
    phase = np.full((s1, s2), np.nan)
    for r in range(s1):
        for c in range(s2):
            path = plan.paths[r][c]
            if path is None:
                continue
            rr, cc = plan.origin
            product = 1 + 0j
            for mv in path:
                if mv == "R":
                    rho = ratios.horizontal[rr, cc]
                elif mv == "L":
                    rho = np.conj(ratios.horizontal[rr, cc - 1])
                elif mv == "D":
                    rho = ratios.vertical[rr, cc]
                else:
                    rho = np.conj(ratios.vertical[rr - 1, cc])
                if np.isnan(rho):
                    raise ValueError(f"path for unit {(r, c)} crosses an unknown ratio")
                product *= rho
                dr, dc = MOVES[mv]
                rr, cc = rr + dr, cc + dc
            phase[r, c] = np.mod(origin_phase + np.angle(product), 2.0 * np.pi)
    return phase


def reference_retrieve_phase(invalid, ratios, origins, planner=None):
    """Per-origin plans (reference plans unless `planner` is given) and walks,
    aligned as retrieve_phase does, fused unit by unit by the circular mean
    anchored at the first contributor."""
    planner = planner or reference_plan_with_retry
    s1, s2 = invalid.s1, invalid.s2
    aligned, contributors, base = [], [], None
    for k, origin in enumerate(origins):
        ph = reference_accumulate_phase(planner(invalid, [origin]), ratios)
        known = ~np.isnan(ph)
        if k == 0:
            offset, base = 0.0, ph
        elif known[origins[0]] and not np.isnan(base[origins[0]]):
            offset = base[origins[0]] - ph[origins[0]]
        else:
            overlap = known & ~np.isnan(base)
            if not overlap.any():
                continue
            offset = np.angle(np.sum(np.exp(1j * (base[overlap] - ph[overlap]))))
        aligned.append(np.where(known, ph + offset, np.nan))
        contributors.append(k)
    stack = np.stack(aligned)
    provenance = np.full((s1, s2), -1, dtype=int)
    phase = np.full((s1, s2), np.nan)
    for r in range(s1):
        for c in range(s2):
            vals = stack[:, r, c]
            known_k = np.nonzero(~np.isnan(vals))[0]
            if known_k.size == 0:
                continue
            provenance[r, c] = contributors[known_k[0]]
            anchor = vals[known_k[0]]
            wrapped = vals[known_k] - anchor
            wrapped = wrapped - 2.0 * np.pi * np.round(wrapped / (2.0 * np.pi))
            phase[r, c] = np.mod(anchor + np.mean(wrapped), 2.0 * np.pi)
    return phase, provenance


# -- frame-sized passes as whole-frame expressions: simulation, PGM I/O,
# pattern export and the amplitude median as they were before they ran in
# row strips and on two threads, kept as oracles


def reference_simulate_measurement_2d(obj, pattern, model, cfg, seed) -> df.IntensityImage:
    """|F|^2 as one frame, plus one frame of normal(0, sigma * max) noise,
    clipped, then cropped."""
    s1, s2 = obj.shape
    ppu = cfg.pixels_per_unit
    source = obj.values * pattern.values
    wy = _unit_window(model, np.arange(s1 * ppu) + 0.5, ppu, s1)
    wx = _unit_window(model, np.arange(s2 * ppu) + 0.5, ppu, s2)
    intensity = np.abs(wy @ source @ wx.T) ** 2
    if cfg.noise_sigma > 0:
        rng = np.random.default_rng(seed)
        intensity = intensity + rng.normal(0.0, cfg.noise_sigma * intensity.max(),
                                           size=intensity.shape)
        intensity = np.clip(intensity, 0.0, None)
    crop = cfg.effective_crop_rows
    return df.IntensityImage(intensity[crop:intensity.shape[0] - crop], ppu)


def reference_write_pgm16(path, img) -> None:
    vals = img.values
    peak = float(vals.max())
    scale = 65535.0 / peak if peak > 0 else 1.0
    data = np.round(vals * scale).astype(">u2")
    with open(path, "wb") as fh:
        fh.write(b"P5\n")
        fh.write(f"# scale={scale!r}\n".encode())
        fh.write(f"{data.shape[1]} {data.shape[0]}\n65535\n".encode())
        fh.write(data.tobytes())


def reference_read_pgm16(path, pixels_per_unit=1) -> df.IntensityImage:
    with open(path, "rb") as fh:
        width, height, maxval, meta = _read_pgm_header(fh)
        assert maxval == 65535
        raw = np.frombuffer(fh.read(width * height * 2), dtype=">u2")
    scale = float(meta.get("scale", 1.0))
    return df.IntensityImage(raw.reshape(height, width).astype(float) / scale,
                             pixels_per_unit)


def reference_pattern_pgm(path, pattern, pixels_per_unit) -> None:
    """8-bit pattern file from int64 levels expanded to int64 pixels."""
    theta = np.mod(np.angle(pattern.values), 2.0 * np.pi)
    levels = np.mod(np.floor(theta / (2.0 * np.pi) * 255.0).astype(np.int64), 256)
    grey = np.repeat(np.repeat(levels, pixels_per_unit, axis=0), pixels_per_unit, axis=1)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{grey.shape[1]} {grey.shape[0]}\n255\n".encode())
        fh.write(grey.astype(np.uint8).tobytes())


def reference_estimate_amplitude(images, grid, erode=3) -> np.ndarray:
    """One thread, one unit row at a time: sqrt of the pooled median of the
    eroded unit interiors over all frames, normalized to a maximum of 1."""
    ppu, s2, crop = grid.pixels_per_unit, grid.s2, grid.crop_rows
    amp = np.zeros((grid.s1, s2))
    for i in range(grid.s1):
        top = max(i * ppu + erode, crop) - crop
        bottom = min((i + 1) * ppu - erode - crop, grid.height)
        pool = np.stack([img.values[top:max(top, bottom)].reshape(-1, s2, ppu)
                         [:, :, erode:ppu - erode].transpose(1, 0, 2)
                         for img in images], axis=1)
        if pool.size == 0:
            raise ValueError(f"unit {(i, 0)} has no surviving interior pixels")
        amp[i] = np.sqrt(np.median(pool.reshape(s2, -1), axis=1))
    peak = amp.max()
    return amp / peak if peak > 0 else amp


def strip_sizes():
    """Contexts to run a frame pass in: the package's own row strips, and
    strips of at most 256 pixels, so small frames cross many strip edges."""
    return (contextlib.nullcontext(),
            mock.patch.object(df.forward_model, "STRIP_PIXELS", 256))


@st.composite
def frame_cases(draw):
    """Object, pattern, PSF and simulation settings: 1-19 units per side,
    ppu in {4, 5, 8, 13, 16, 32}, three PSF kinds, sigma in {0, .01, .05, .3},
    default or drawn crop, m in {2, 3, 4, 6}; plus a seed."""
    s1, s2 = draw(st.integers(1, 19)), draw(st.integers(1, 19))
    ppu = draw(st.sampled_from([4, 5, 8, 13, 16, 32]))
    m = draw(st.sampled_from([2, 3, 4, 6]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    amps = rng.uniform(0.2, 1.0, (s1, s2))
    obj = df.ComplexField(amps * np.exp(2j * np.pi * rng.integers(0, m, (s1, s2)) / m))
    pattern = df.make_patterns(m, s1, s2).patterns[draw(st.integers(0, m - 1))]
    model = df.PsfModel(draw(st.sampled_from(df.forward_model.PSF_KINDS)),
                        draw(st.floats(0.5, ppu - 0.5)))
    crop = draw(st.one_of(st.none(), st.integers(0, (s1 * ppu - 1) // 2)))
    cfg = df.SimConfig(pixels_per_unit=ppu, crop_rows=crop,
                       noise_sigma=draw(st.sampled_from([0.0, 0.01, 0.05, 0.3])))
    return obj, pattern, model, cfg, draw(st.integers(0, 2**31 - 1))


@st.composite
def planner_cases(draw):
    """Random invalid maps (1-14 units per side, sigma from 0 to 0.5) and 1-3
    origins on the grid."""
    s1, s2 = draw(st.integers(1, 14)), draw(st.integers(1, 14))
    sigma = draw(st.sampled_from([0.0, 0.05, 0.15, 0.3, 0.5]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    invalid = random_invalid_maps(s1, s2, sigma, rng)
    origins = draw(st.lists(st.tuples(st.integers(0, s1 - 1), st.integers(0, s2 - 1)),
                            min_size=1, max_size=3))
    return invalid, origins


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
