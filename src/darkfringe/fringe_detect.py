"""Dark-fringe recognition on measured intensity images.

Each adjacent-unit boundary is decided by a band-contrast test: the mean
intensity in a narrow band on the boundary line is compared against the
mean over the two flanking unit interiors, and the band is dark, so the
boundary carries a fringe, when its mean falls below alpha times the flank
mean. A band or flank that is empty, or flanks whose mean is not positive,
cannot be trusted, so such a boundary is marked present.

Every band and flank mean is a rectangle mean of the frame, so the sums are
entries of L^T frame R, where the window matrices L and R hold the indicator
windows. The decisions read only two blocks of it: a row boundary's band
and flanks run along a unit row (along x band, along x flank), a column
boundary's along a unit column (band x along, flank x along). So detection
takes the along sums first, in one pass over the frame's row strips, and
never forms the rest of the product:

- B = frame R_along (height x s2), each strip's rows by forward_model's
  banded pieces, the ones simulation takes;
- A = sum over strips of L_along[strip]^T strip (s1 x width), each strip's
  product over the window columns nonzero in it and in column chunks;
- then the small banded products A R_rest and B^T L_rest of the band and
  flank windows give the two blocks.

Every product stays below forward_model's one-thread size, so BLAS runs it
on the calling thread, and detection runs there alone: split into fixed
halves over two threads, the strips of four 2048^2 frames took 0.09-0.13 s,
against 0.07-0.08 s on one (measured with the high-pass half still in). The
windows and pieces are cached per (grid, config), so the m frames of a run
build them once. A measurement's 16-bit levels enter as floats one row strip
at a time. B's rows do not depend on where a strip ends; A's sums do, but the
strip edges depend only on the frame's shape. Every decision compares two
means of the same frame, so the frame's scale never enters. On a 2-core Xeon
host a 2048^2 frame takes 7-11 ms and a 4096^2 frame 42-61 ms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .forward_model import (_BLOCK_MADDS, GridSpec, IntensityImage, _banded_strip, banded,
                            banded_times, frame_strips)

@dataclass(frozen=True)
class DetectConfig:
    band_halfwidth: int = 2              # pixels on each side of the boundary line
    # band mean must fall below alpha * flank mean; 0.7 separates the
    # shallowest quantized fringe (band ratio ~0.6 when flank interiors are
    # themselves depressed by their own fringes at radius ~unit/4) from the
    # no-fringe case (ratio >= ~1)
    fringe_ratio_alpha: float = 0.7

    def __post_init__(self):
        if self.band_halfwidth < 1:
            raise ValueError("band_halfwidth must be a positive integer")
        if not 0 < self.fringe_ratio_alpha < 1:
            raise ValueError("fringe_ratio_alpha must be in (0, 1)")


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


def _axis_windows(n_units: int, ppu: int, lo: int, hi: int, cfg: DetectConfig,
                  cut_along, rest_rows: int) -> tuple:
    """Indicator counts and window pieces for one image axis covering
    pixels [lo, hi).

    The k = 3 n_units - 2 indicator columns are, in order: the eroded span
    along each unit (n_units), the band on each boundary line (n_units - 1)
    and the two flank interiors of each boundary (n_units - 1). Returns the
    column sums of the along columns and of the band and flank columns (the
    rest), `cut_along` of the along columns, and the :func:`banded` pieces
    of the rest columns for products of `rest_rows` rows. Only pieces
    outlive the call, so the dense windows of one axis are freed before the
    other's are built.
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
    count = ind.sum(axis=0)
    return (count[:n_units], count[n_units:], cut_along(ind[:, :n_units]),
            banded(ind[:, n_units:], rest_rows))


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
      :func:`_strip_windows` of the row axis' along windows L_along, for
      A = sum over strips of L_along[strip]^T strip (s1 x width), and the
      :func:`banded` pieces of the column axis' along windows R_along, for
      B = frame R_along (height x s2);
    - per boundary axis, row boundaries and then column boundaries: the
      counts of the along windows and of the band and flank windows, and
      the banded pieces of the other axis' band and flank windows, for the
      products A R_rest and B^T L_rest.

    At 64^2 units of 32 px, a strip of the frame pass runs 8 pieces of B,
    16K multiply-adds per pixel row, and 1-2 column chunks of A, about 2K.
    The band and flank products add about 7% to the frame pass's
    multiply-adds. Building the pieces took 24-35 ms and peaked at 3.8 MB of
    traced allocations at 64^2. They are built one axis at a time, so only
    one axis' dense windows are alive at once.
    """
    ppu, height, width = grid.pixels_per_unit, grid.height, grid.width
    strips, rows = frame_strips(height, width)
    count1, rest_count1, left, rest1 = _axis_windows(
        grid.s1, ppu, grid.crop_rows, grid.crop_rows + height, cfg,
        lambda along: _strip_windows(along, strips, width), frame_strips(grid.s2, height)[1])
    count2, rest_count2, right, rest2 = _axis_windows(
        grid.s2, ppu, 0, width, cfg, lambda along: banded(along, rows),
        frame_strips(grid.s1, width)[1])
    return left, right, (count1, rest_count2, rest2), (count2, rest_count1, rest1)


def _boundary_decisions(along, count, rest_count, pieces, alpha: float):
    """(present, zero_flank) maps of the boundaries across one axis, a row
    per unit along it: `along` holds the frame's along sums (units x pixels
    across the boundaries), the rest is the axis' :func:`_grid_windows`
    entry. A boundary is present where its band mean falls below alpha
    times its flank mean, or where a band or flank is empty or the flank
    mean is not positive (zero_flank)."""
    sums = banded_times(along, pieces, np.zeros((len(along), rest_count.size)))
    n = rest_count.size // 2
    nb, nf = np.outer(count, rest_count[:n]), np.outer(count, rest_count[n:])
    with np.errstate(divide="ignore", invalid="ignore"):
        flank_mean = sums[:, n:] / nf
        dark = sums[:, :n] / nb < alpha * flank_mean
    zero_flank = (nb == 0) | (nf == 0) | ~(flank_mean > 0)
    return zero_flank | dark, zero_flank


def recognize_fringes(img: IntensityImage, grid: GridSpec,
                      cfg: DetectConfig = DetectConfig(),
                      measurement_index: int = 0) -> FringeMaps:
    """Decide fringe presence for every adjacent-unit boundary of one image.

    Boundaries whose bands fall inside cropped rows are evaluated on the
    surviving pixels. A band or flank left empty by cropping, or a flank that
    averages to zero, cannot be trusted, so the boundary is conservatively
    marked present and flagged in diagnostics.
    """
    grid.check_frame(img)
    if 2 * cfg.band_halfwidth >= grid.pixels_per_unit:
        raise ValueError("band_halfwidth must be below pixels_per_unit / 2")
    left, right, row_axis, col_axis = _grid_windows(grid, cfg)
    buffer = np.empty((frame_strips(grid.height, grid.width)[1], grid.width))
    products = np.empty((max(len(cols) for _, cols, _, _ in left), grid.width))
    along_l = np.zeros((grid.s1, grid.width))    # L_along^T frame
    along_r = np.zeros((grid.height, grid.s2))   # frame R_along
    for rows, cols, block, chunks in left:
        part = buffer[:rows.stop - rows.start]
        np.copyto(part, img.values[rows])
        _banded_strip(part, right, along_r[rows])
        product = products[:len(cols)]
        for chunk in chunks:
            np.matmul(block, part[:, chunk], out=product[:, chunk])
        along_l[cols] += product
    alpha = cfg.fringe_ratio_alpha
    row_map, zf_row = _boundary_decisions(along_l, *row_axis, alpha)
    col_map, zf_col = _boundary_decisions(along_r.T, *col_axis, alpha)
    col_map, zf_col = col_map.T, zf_col.T

    diagnostics = {}
    if zf_row.any() or zf_col.any():
        diagnostics["zero_flank_row"] = zf_row
        diagnostics["zero_flank_col"] = zf_col
    return FringeMaps(row_map=row_map, col_map=col_map,
                      measurement_index=measurement_index, diagnostics=diagnostics)
