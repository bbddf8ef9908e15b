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
of G*raw are therefore entries of L^T raw R, where the window matrices L and
R hold the indicator windows and their filtered versions G^T w. The
decisions read only four blocks of it, raw and filtered: a row boundary's
band and flanks run along a unit row (along x band, along x flank), a
column boundary's along a unit column (band x along, flank x along). So
detection takes the along sums first, in one pass over the frame's row
strips, and never forms the rest of the product:

- B = frame [R_along, G^T R_along] (height x 2 s2), each strip's rows by
  forward_model's banded pieces, the ones simulation takes;
- A = sum over strips of [L_along, G^T L_along][strip]^T strip (2 s1 x
  width), each strip's product over the window columns nonzero in it and
  in column chunks;
- then the small banded products A [R_rest, G^T R_rest] and B^T [L_rest,
  G^T L_rest] of the band and flank windows, raw by raw and filtered by
  filtered, give the four blocks.

Every product stays below forward_model's one-thread size, so BLAS runs it
on the calling thread, and detection runs there alone: split into fixed
halves over two threads, the strips of four 2048^2 frames took 0.09-0.13 s,
against 0.07-0.08 s on one. The windows and pieces are cached per (grid, config), so the m
frames of a run build them once. A measurement's 16-bit levels enter as
floats one row strip at a time. B's rows do not depend on where a strip
ends; A's sums do, but the strip edges depend only on the frame's shape.
Every decision compares two means of the same frame, so the frame's scale
never enters. On a 2-core Xeon host a 2048^2 frame takes 20-24 ms, against
28-38 ms for the whole product L^T raw R, and a 4096^2 frame 103-132 ms,
against 179-200 ms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .forward_model import (_BLOCK_MADDS, GridSpec, IntensityImage, _banded_strip, banded,
                            banded_times, frame_strips)

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
        if not 0 < self.highpass_sigma < np.inf:
            raise ValueError(f"highpass_sigma must be positive and finite, "
                             f"got {self.highpass_sigma!r}")
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


def _axis_windows(n_units: int, ppu: int, lo: int, hi: int, cfg: DetectConfig,
                  cut_along, rest_rows: int) -> tuple:
    """Indicator counts and window pieces for one image axis covering
    pixels [lo, hi).

    The k = 3 n_units - 2 indicator columns are, in order: the eroded span
    along each unit (n_units), the band on each boundary line (n_units - 1)
    and the two flank interiors of each boundary (n_units - 1); G^T w is a
    column's filtered version. Returns the column sums of the along
    columns and of the band and flank columns (the rest), `cut_along` of the
    along columns followed by their filtered versions, and the
    :func:`banded` pieces of the rest columns and of the filtered rest
    columns for products of `rest_rows` rows. Only pieces outlive the call,
    so the dense windows of one axis are freed before the other's are built.
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
    count = ind.sum(axis=0)
    return (count[:n_units], count[n_units:],
            cut_along(np.hstack([ind[:, :n_units], filtered[:, :n_units]])),
            banded(ind[:, n_units:], rest_rows), banded(filtered[:, n_units:], rest_rows))


def _strip_windows(windows: np.ndarray, strips: list[slice], width: int) -> list[tuple]:
    """Per row strip, read-only (rows, columns, block, chunks) for adding
    windows[rows]^T @ frame[rows]: block = windows[rows, columns]^T holds
    the columns nonzero in the strip, and the frame's columns are cut into
    even chunks, each as wide as lets block @ frame[rows, chunk] stay below
    _BLOCK_MADDS (one column where none does)."""
    pieces = []
    for rows in strips:
        cols = np.flatnonzero(windows[rows].any(axis=0))
        block = np.ascontiguousarray(windows[rows, cols].T)
        block.flags.writeable = False
        widest = max((_BLOCK_MADDS - 1) // max(block.size, 1), 1)
        step = -(-width // -(-width // widest))
        pieces.append((rows, cols, block, [slice(c, c + step) for c in range(0, width, step)]))
    return pieces


@lru_cache(maxsize=4)
def _grid_windows(grid: GridSpec, cfg: DetectConfig) -> tuple:
    """The pieces of every product of detection, cached per (grid, config):

    - the frame pass, over the cropped frame's :func:`frame_strips`: the
      :func:`_strip_windows` of the row axis' along windows [L_along,
      G^T L_along], for A = sum over strips of [L_along, G^T L_along][strip]^T
      strip (2 s1 x width), and the :func:`banded` pieces of the column
      axis' along windows [R_along, G^T R_along], for B = frame [R_along,
      G^T R_along] (height x 2 s2);
    - per boundary axis, row boundaries and then column boundaries: the
      counts of the along windows and of the band and flank windows, and
      the banded pieces of the other axis' band and flank windows and of
      their filtered versions, for the products A [R_rest, G^T R_rest] and
      B^T [L_rest, G^T L_rest], raw by raw and filtered by filtered.

    At 64^2 units of 32 px, a strip of the frame pass runs 14 pieces of B,
    about 25.6K multiply-adds per pixel row, and 3-5 column chunks of A,
    about 8.1K; the whole R that L^T frame R took ran 31 pieces and about
    55K. The band and flank products add about 9% to the frame pass's
    multiply-adds. Building the pieces one axis at a time peaks at 15.8 MB
    of traced allocations at 64^2: with both axes' dense windows alive at
    once it peaked at 23.2 MB, and the heap that left behind raised a
    pipeline-64 run's peak RSS from 109 to 115 MB.
    """
    ppu, height, width = grid.pixels_per_unit, grid.height, grid.width
    strips, rows = frame_strips(height, width)
    count1, rest_count1, left, rest1, rest_hp1 = _axis_windows(
        grid.s1, ppu, grid.crop_rows, grid.crop_rows + height, cfg,
        lambda along: _strip_windows(along, strips, width), frame_strips(grid.s2, height)[1])
    count2, rest_count2, right, rest2, rest_hp2 = _axis_windows(
        grid.s2, ppu, 0, width, cfg, lambda along: banded(along, rows),
        frame_strips(grid.s1, width)[1])
    return (left, right, (count1, rest_count2, rest2, rest_hp2),
            (count2, rest_count1, rest1, rest_hp1))


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


def _boundary_decisions(along, along_hp, count, rest_count, pieces, hp_pieces,
                        alpha: float):
    """(present, zero_flank) maps of the boundaries across one axis, a row
    per unit along it: `along` and `along_hp` are the along sums of the
    frame and of G*frame (units x pixels across the boundaries), the rest
    the axis' :func:`_grid_windows` entry."""
    shape = (len(along), rest_count.size)
    raw = banded_times(along, pieces, np.zeros(shape))
    hp = banded_times(along_hp, hp_pieces, np.zeros(shape)) - raw
    n = rest_count.size // 2
    return _band_decisions(raw, hp, np.outer(count, rest_count),
                           np.s_[:, :n], np.s_[:, n:], alpha)


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
    left, right, row_axis, col_axis = _grid_windows(grid, cfg)
    s1, s2 = grid.s1, grid.s2
    buffer = np.empty((frame_strips(grid.height, grid.width)[1], grid.width))
    products = np.empty((max(len(cols) for _, cols, _, _ in left), grid.width))
    along_l = np.zeros((2 * s1, grid.width))     # [L_along, G^T L_along]^T frame
    along_r = np.zeros((grid.height, 2 * s2))    # frame [R_along, G^T R_along]
    for rows, cols, block, chunks in left:
        part = buffer[:rows.stop - rows.start]
        np.copyto(part, img.values[rows])
        _banded_strip(part, right, along_r[rows])
        product = products[:len(cols)]
        for chunk in chunks:
            np.matmul(block, part[:, chunk], out=product[:, chunk])
        along_l[cols] += product
    alpha = cfg.fringe_ratio_alpha
    row_map, zf_row = _boundary_decisions(along_l[:s1], along_l[s1:], *row_axis, alpha)
    col_map, zf_col = _boundary_decisions(along_r[:, :s2].T, along_r[:, s2:].T,
                                          *col_axis, alpha)
    col_map, zf_col = col_map.T, zf_col.T

    diagnostics = {}
    if zf_row.any() or zf_col.any():
        diagnostics["zero_flank_row"] = zf_row
        diagnostics["zero_flank_col"] = zf_col
    return FringeMaps(row_map=row_map, col_map=col_map,
                      measurement_index=measurement_index, diagnostics=diagnostics)
