"""Dark-fringe recognition on measured intensity images.

Each adjacent-unit boundary is decided by a band-contrast test: the mean
intensity in a narrow band on the boundary line is compared against the
mean over the two flanking unit interiors, and the band is dark, so the
boundary carries a fringe, when its mean falls below alpha times the flank
mean. A band or flank that is empty, or flanks whose mean is not positive,
cannot be trusted, so such a boundary is marked present.

Every band and flank is a rectangle of the frame, and a boundary's
rectangles all run along one unit: a row boundary's along a unit row, a
column boundary's along a unit column. So detection takes the along sums
first, in one pass over the frame's row strips (:func:`frame_strips`):

- A (s1 x width), each unit row's eroded along span of rows summed;
- B = frame R_along (height x s2), R_along holding the indicator windows of
  each unit column's eroded along span, by forward_model's banded pieces
  (:func:`banded`), the one matrix product of detection.

A band or flank sum is then a difference of two running sums: of A along x
for the row boundaries, of B along y for the column boundaries, each taken
in place after a leading zero column or row. A measurement holds 16-bit
levels, so every sum is an integer below 2^53, which float64 holds exactly:
the sums, and with them the decisions, do not depend on the order they are
taken in, nor on where the strip edges fall. A float frame's sums are
rounded, so a boundary whose band mean lies within rounding of alpha times
its flank mean may be decided either way. Every decision compares two means of the same frame,
so the frame's scale never enters. B's pieces stay below forward_model's
one-thread size, so BLAS runs them on the calling thread, and detection runs
there alone. The pieces, spans and the unit rows each strip meets are cached
per (grid, config), so the m frames of a run build them once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .forward_model import GridSpec, IntensityImage, _banded_strip, banded, frame_strips

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


def _clip(a, b, lo: int, hi: int) -> np.ndarray:
    """Read-only (start, stop) rows of the spans [a, b) clipped to the
    pixels [lo, hi) of an axis and shifted so lo maps to 0: both in
    [0, hi - lo], an empty span with start == stop, so they index running
    sums of hi - lo + 1 entries."""
    a = np.clip(a, lo, hi)
    spans = np.stack([a, np.clip(b, a, hi)]) - lo
    spans.flags.writeable = False
    return spans


def _axis_spans(n_units: int, ppu: int, lo: int, hi: int, cfg: DetectConfig) -> tuple:
    """The :func:`_clip` spans of one image axis covering pixels [lo, hi):
    the span along each unit, eroded by a margin at both ends to stay clear
    of crossing fringes; the band on each boundary line; and the two flank
    interiors of each boundary, one centered in each unit."""
    units = np.arange(n_units)
    margin = min(cfg.band_halfwidth + 1, (ppu - 1) // 2)
    lines, hw = units[1:] * ppu, cfg.band_halfwidth
    center, half = units * ppu + ppu // 2, max(1, ppu // 8)
    flanks = _clip(center - half, center + half, lo, hi)
    return (_clip(units * ppu + margin, (units + 1) * ppu - margin, lo, hi),
            _clip(lines - hw, lines + hw, lo, hi), flanks[:, :-1], flanks[:, 1:])


@lru_cache(maxsize=4)
def _grid_windows(grid: GridSpec, cfg: DetectConfig) -> tuple:
    """What detection's frame pass and decisions read, cached per (grid,
    config): the :func:`banded` pieces of the column axis' along windows
    R_along (width x s2 indicators), for B = frame R_along; per row strip of
    the cropped frame (:func:`frame_strips`), the (unit row, strip rows)
    pairs of the eroded along spans it meets, for A (s1 x width), each unit
    row's along rows summed; and the :func:`_axis_spans` of the row axis
    and of the column axis.
    """
    ppu, height, width, crop = grid.pixels_per_unit, grid.height, grid.width, grid.crop_rows
    rows_axis = _axis_spans(grid.s1, ppu, crop, crop + height, cfg)
    cols_axis = _axis_spans(grid.s2, ppu, 0, width, cfg)
    strips, size = frame_strips(height, width)
    tops, bottoms = rows_axis[0].tolist()
    meets = []
    for rows in strips:
        spans = []
        for u in range((rows.start + crop) // ppu, (rows.stop - 1 + crop) // ppu + 1):
            top, bottom = max(tops[u], rows.start), min(bottoms[u], rows.stop)
            if top < bottom:
                spans.append((u, slice(top - rows.start, bottom - rows.start)))
        meets.append(tuple(spans))
    pixel, (a, b) = np.arange(width)[:, None], cols_axis[0]
    return (banded(((pixel >= a) & (pixel < b)).astype(float), size), tuple(meets),
            rows_axis, cols_axis)


def _boundary_decisions(sums, along, band, flank_a, flank_b, alpha: float):
    """(present, zero_flank) maps of the boundaries across one axis, a row
    per unit along it: `sums` holds the running sums of the frame's along
    sums across the boundaries, after a leading zero, and the spans are
    :func:`_axis_spans` entries (`along` the other axis'). A boundary is
    present where its band mean falls below alpha times its flank mean, or
    where a band or flank is empty or the flank mean is not positive
    (zero_flank)."""
    def total(span):
        return sums[:, span[1]] - sums[:, span[0]]

    count = (along[1] - along[0])[:, None]
    nb = count * (band[1] - band[0])
    nf = count * (flank_a[1] - flank_a[0] + flank_b[1] - flank_b[0])
    with np.errstate(divide="ignore", invalid="ignore"):
        flank_mean = (total(flank_a) + total(flank_b)) / nf
        dark = total(band) / nb < alpha * flank_mean
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
    right, meets, rows_axis, cols_axis = _grid_windows(grid, cfg)
    strips, size = frame_strips(grid.height, grid.width)
    buffer = np.empty((size, grid.width))
    along_l = np.zeros((grid.s1, grid.width + 1))   # a zero column, then A
    along_r = np.zeros((grid.height + 1, grid.s2))  # a zero row, then B
    for rows, spans in zip(strips, meets):
        part = buffer[:rows.stop - rows.start]
        np.copyto(part, img.values[rows])
        _banded_strip(part, right, along_r[rows.start + 1:rows.stop + 1])
        for u, span in spans:
            along_l[u, 1:] += part[span].sum(axis=0)
    np.cumsum(along_l, axis=1, out=along_l)
    np.cumsum(along_r, axis=0, out=along_r)
    alpha = cfg.fringe_ratio_alpha
    row_map, zf_row = _boundary_decisions(along_l, rows_axis[0], *cols_axis[1:], alpha)
    col_map, zf_col = _boundary_decisions(along_r.T, cols_axis[0], *rows_axis[1:], alpha)
    col_map, zf_col = col_map.T, zf_col.T

    diagnostics = {}
    if zf_row.any() or zf_col.any():
        diagnostics["zero_flank_row"] = zf_row
        diagnostics["zero_flank_col"] = zf_col
    return FringeMaps(row_map=row_map, col_map=col_map,
                      measurement_index=measurement_index, diagnostics=diagnostics)
