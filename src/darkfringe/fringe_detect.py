"""Dark-fringe recognition on measured intensity images.

Each adjacent-unit boundary is decided by a band-contrast test. The mean
intensity in a narrow band on the boundary line is compared against the mean
over the two flanking unit interiors, on the raw image AND on its high-passed
version hp = G*raw - raw (G the normalized Gaussian with nearest-edge
extension, so hp is the inverted image minus its slow background and a fringe
is a bright ridge on it). The band is dark when its raw mean falls below
alpha times the flank mean and its high-pass mean exceeds the flank's. Two
weak detectors in conjunction keep ringing and background tilt from
producing false positives.

Every band and flank mean is a rectangle mean of the raw image, and the
Gaussian is separable, so G*raw = G_y raw G_x^T. The rectangle sums of raw and
of G*raw therefore come from one product L^T raw R, where the window
matrices L and R hold the indicator windows and their filtered versions
G^T w. Each window column is nonzero only near its own unit, so both factors
are forward_model's banded products, the ones simulation takes: blocks of
columns over the rows they touch, each run on the calling thread. The windows
are cached per (grid, config), so the m frames of a run build them once. A
measurement's 16-bit levels enter the product as floats, one row strip at a
time (so no row's sums depend on where a strip ends); every decision compares
two means of the same frame, so the frame's scale never enters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .forward_model import GridSpec, IntensityImage, banded, banded_times, frame_strips

# Gaussian reach in standard deviations, as scipy.ndimage.gaussian_filter1d's
# default truncate
_TRUNCATE = 4.0


@dataclass(frozen=True)
class DetectConfig:
    highpass_sigma: float = 8.0          # pixels; pixels_per_unit / 4 is a good default
    band_halfwidth: int = 2              # pixels on each side of the boundary line
    # band mean must fall below alpha * flank mean; 0.7 separates the
    # shallowest quantized fringe (band ratio ~0.6 when flank interiors are
    # themselves depressed by their own fringes at radius ~unit/4) from the
    # no-fringe case (ratio >= ~1)
    fringe_ratio_alpha: float = 0.7

    def __post_init__(self):
        if self.highpass_sigma <= 0:
            raise ValueError("highpass_sigma must be positive")
        if self.band_halfwidth < 1:
            raise ValueError("band_halfwidth must be a positive integer")
        if not 0 < self.fringe_ratio_alpha < 1:
            raise ValueError("fringe_ratio_alpha must be in (0, 1)")


def default_detect_config(pixels_per_unit: int) -> DetectConfig:
    return DetectConfig(highpass_sigma=max(1.0, pixels_per_unit / 4))


@dataclass
class FringeMaps:
    """Boolean presence maps for one measurement.

    row_map[i, j] covers the boundary between horizontally adjacent units
    (i, j) and (i, j+1); col_map[i, j] the boundary between vertically
    adjacent units (i, j) and (i+1, j).
    """

    row_map: np.ndarray
    col_map: np.ndarray
    measurement_index: int
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        self.row_map = np.asarray(self.row_map, dtype=bool)
        self.col_map = np.asarray(self.col_map, dtype=bool)
        if self.row_map.ndim != 2 or self.col_map.ndim != 2:
            raise ValueError("presence maps must be 2D")
        if (self.col_map.shape[0] + 1 != self.row_map.shape[0]
                or self.row_map.shape[1] + 1 != self.col_map.shape[1]):
            raise ValueError(
                f"inconsistent map shapes {self.row_map.shape} / {self.col_map.shape}; "
                "expected s1 x (s2-1) and (s1-1) x s2")

    @property
    def s1(self) -> int:
        return self.row_map.shape[0]

    @property
    def s2(self) -> int:
        return self.col_map.shape[1]


def _along_span(unit_index: int, ppu: int, margin: int, lo: int, hi: int) -> slice:
    """Index span along the boundary line inside unit `unit_index`.

    Eroded by `margin` at both ends to stay clear of crossing fringes, then
    clipped to the surviving image range [lo, hi) and shifted so lo maps to 0.
    """
    a = unit_index * ppu + margin
    b = (unit_index + 1) * ppu - margin
    a, b = max(a, lo), min(b, hi)
    return slice(a - lo, max(b - lo, a - lo))


def _across_band(line: int, halfwidth: int, lo: int, hi: int) -> slice:
    a, b = max(line - halfwidth, lo), min(line + halfwidth, hi)
    return slice(a - lo, max(b - lo, a - lo))


def _flank_band(unit_index: int, ppu: int, lo: int, hi: int) -> slice:
    center = unit_index * ppu + ppu // 2
    halfwidth = max(1, ppu // 8)
    return _across_band(center, halfwidth, lo, hi)


def _gaussian_filter(x: np.ndarray, sigma: float) -> np.ndarray:
    """The normalized Gaussian along axis 0 of a 2D array, with zeros
    beyond both ends.

    Equal bit for bit to scipy.ndimage.gaussian_filter1d(x, sigma, axis=0,
    mode="constant", truncate=_TRUNCATE): the same kernel, and its summation
    order for symmetric kernels, out = x w_0 + sum over j = r..1 of
    (x[i - j] + x[i + j]) w_j.
    """
    radius = int(_TRUNCATE * sigma + 0.5)
    offsets = np.arange(-radius, radius + 1)
    weights = np.exp(-0.5 / (sigma * sigma) * offsets ** 2)
    weights = weights / weights.sum()
    n = x.shape[0]
    padded = np.pad(x, ((radius, radius), (0, 0)))
    out = x * weights[radius]
    for j in range(radius, 0, -1):
        out += (padded[radius - j:radius - j + n] + padded[radius + j:radius + j + n]) \
            * weights[radius + j]
    return out


def _gaussian_transpose(windows: np.ndarray, sigma: float) -> np.ndarray:
    """G^T @ windows for the nearest-mode Gaussian G along axis 0.

    Filtering the zero-padded windows spreads each column past both ends;
    nearest-mode extension reads every pixel beyond an end from the end
    pixel, so the transpose folds that overhang back onto the end rows.
    """
    n = windows.shape[0]
    pad = int(_TRUNCATE * sigma + 0.5)
    spread = _gaussian_filter(np.pad(windows, ((pad, pad), (0, 0))), sigma)
    out = spread[pad:pad + n].copy()
    out[0] += spread[:pad].sum(axis=0)
    out[-1] += spread[pad + n:].sum(axis=0)
    return out


def _axis_windows(n_units: int, ppu: int, lo: int, hi: int,
                  cfg: DetectConfig) -> tuple:
    """(pixel counts, windows) for one image axis covering pixels [lo, hi).

    The k = 3 n_units - 2 indicator columns are, in order: the eroded span
    along each unit (n_units), the band on each boundary line (n_units - 1)
    and the two flank interiors of each boundary (n_units - 1). The windows
    are those k columns followed by their k filtered versions; the counts
    are the k indicator column sums.
    """
    margin = min(cfg.band_halfwidth + 1, (ppu - 1) // 2)
    ind = np.zeros((hi - lo, 3 * n_units - 2))
    for u in range(n_units):
        ind[_along_span(u, ppu, margin, lo, hi), u] = 1.0
    for b in range(n_units - 1):
        ind[_across_band((b + 1) * ppu, cfg.band_halfwidth, lo, hi), n_units + b] = 1.0
        flank = 2 * n_units - 1 + b
        ind[_flank_band(b, ppu, lo, hi), flank] += 1.0
        ind[_flank_band(b + 1, ppu, lo, hi), flank] += 1.0
    filtered = _gaussian_transpose(ind, cfg.highpass_sigma)
    return ind.sum(axis=0), np.hstack([ind, filtered])


@lru_cache(maxsize=4)
def _grid_windows(grid: GridSpec, cfg: DetectConfig) -> tuple:
    """(counts, :func:`banded` pieces) of the row-axis (L) and column-axis
    (R) windows of the cropped frame, for products of frame R and (frame R)^T."""
    ppu, height = grid.pixels_per_unit, grid.height
    count1, left = _axis_windows(grid.s1, ppu, grid.crop_rows, grid.crop_rows + height, cfg)
    count2, right = _axis_windows(grid.s2, ppu, 0, grid.width, cfg)
    return ((count1, banded(left, frame_strips(right.shape[1], height)[1])),
            (count2, banded(right, frame_strips(height, grid.width)[1])))


def _band_decisions(raw, hp, count, band, flank, alpha: float):
    """(present, zero_flank) maps for boundaries whose band and flank
    rectangles are `band` and `flank` index pairs into the sum matrices."""
    nb, nf = count[band], count[flank]
    with np.errstate(divide="ignore", invalid="ignore"):
        flank_mean = raw[flank] / nf
        dark = raw[band] / nb < alpha * flank_mean
        # a ridge must clear the flanks by more than rounding: where both
        # high-pass means are 0 in exact arithmetic, their computed signs are
        # noise and must not decide
        ridge = hp[band] / nb > hp[flank] / nf + 1e-9 * flank_mean
    zero_flank = (nb == 0) | (nf == 0) | ~(flank_mean > 0)
    return zero_flank | (dark & ridge), zero_flank


def recognize_fringes(img: IntensityImage, grid: GridSpec,
                      cfg: DetectConfig | None = None,
                      measurement_index: int = 0) -> FringeMaps:
    """Decide fringe presence for every adjacent-unit boundary of one image.

    Boundaries whose bands fall inside cropped rows are evaluated on the
    surviving pixels. A band or flank left empty by cropping, or a flank that
    averages to zero, cannot be trusted, so the boundary is conservatively
    marked present and flagged in diagnostics.
    """
    if cfg is None:
        cfg = default_detect_config(grid.pixels_per_unit)
    grid.check_frame(img)
    if 2 * cfg.band_halfwidth >= grid.pixels_per_unit:
        raise ValueError("band_halfwidth must be below pixels_per_unit / 2")
    (count1, left), (count2, right) = _grid_windows(grid, cfg)
    k1, k2 = count1.size, count2.size
    raw_r = banded_times(img.values, right, np.zeros((grid.height, 2 * k2)))
    sums = banded_times(raw_r.T, left, np.zeros((2 * k2, 2 * k1))).T     # L^T raw R
    raw = sums[:k1, :k2]                    # rectangle sums of raw
    hp = sums[k1:, k2:] - raw               # ... and of G*raw - raw
    count = np.outer(count1, count2)

    s1, s2 = grid.s1, grid.s2
    along1, band1, flank1 = slice(0, s1), slice(s1, 2 * s1 - 1), slice(2 * s1 - 1, None)
    along2, band2, flank2 = slice(0, s2), slice(s2, 2 * s2 - 1), slice(2 * s2 - 1, None)
    alpha = cfg.fringe_ratio_alpha
    row_map, zf_row = _band_decisions(raw, hp, count, (along1, band2),
                                      (along1, flank2), alpha)
    col_map, zf_col = _band_decisions(raw, hp, count, (band1, along2),
                                      (flank1, along2), alpha)

    diagnostics = {}
    if zf_row.any() or zf_col.any():
        diagnostics["zero_flank_row"] = zf_row
        diagnostics["zero_flank_col"] = zf_col
    return FringeMaps(row_map=row_map, col_map=col_map,
                      measurement_index=measurement_index, diagnostics=diagnostics)
