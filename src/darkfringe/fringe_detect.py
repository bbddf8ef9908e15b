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
- B = frame R_along (s1 ppu x s2, zero on the cropped rows), R_along holding
  the indicator windows of each unit column's eroded along span, by
  forward_model's banded pieces (:func:`banded`), the one matrix product of
  detection.

Read as whole units of ppu entries, A along x for the row boundaries and B
along y for the column boundaries give every band and flank sum as a window
sum: a band is one unit's last band_halfwidth entries and the next unit's
first ones, a flank the entries around a unit's centre. The pixel counts
are the same window sums of a frame of ones, so a band or flank that the
crop shortens or empties is counted as it is summed. A measurement holds
16-bit levels, so every sum is an integer below 2^53, which float64 holds
exactly: the sums, and with them the decisions, do not depend on the order
they are taken in, nor on where the strip edges fall. A float frame's sums
are rounded, so a boundary whose band mean lies within rounding of alpha
times its flank mean may be decided either way. Every decision compares two
means of the same frame, so the frame's scale never enters. B's pieces stay
below forward_model's one-thread size, so BLAS runs them on the calling
thread, and detection runs there alone. The pieces, the unit rows each strip
meets and the pixel counts are cached per (grid, config), so the m frames of
a run build them once.
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


@lru_cache(maxsize=4)
def _grid_windows(grid: GridSpec, cfg: DetectConfig) -> tuple:
    """What detection's frame pass and decisions read, cached per (grid,
    config): the :func:`banded` pieces of the column axis' along windows
    R_along (width x s2 indicators of each unit column's eroded along
    span), for B = frame R_along; per row strip of the cropped frame
    (:func:`frame_strips`), the (unit row, strip rows) pairs of the eroded
    along spans it meets, for A (s1 x width), each unit row's along rows
    summed; and the band and flank pixel counts of every boundary, the
    :func:`_window_sums` of a frame of ones.
    """
    ppu, height, width, crop = grid.pixels_per_unit, grid.height, grid.width, grid.crop_rows
    margin = min(cfg.band_halfwidth + 1, (ppu - 1) // 2)
    strips, size = frame_strips(height, width)
    meets = []
    for rows in strips:
        spans = []
        for u in range((rows.start + crop) // ppu, (rows.stop - 1 + crop) // ppu + 1):
            top = max(u * ppu + margin - crop, rows.start)
            bottom = min((u + 1) * ppu - margin - crop, rows.stop)
            if top < bottom:
                spans.append((u, slice(top - rows.start, bottom - rows.start)))
        meets.append(tuple(spans))
    pixel, units = np.arange(width)[:, None], np.arange(grid.s2) * ppu
    right = banded(((pixel >= units + margin) & (pixel < units + ppu - margin)).astype(float),
                   size)
    ones = np.broadcast_to(np.float64(1), (height, width))
    return right, tuple(meets), _window_sums(ones, grid, cfg, right, meets)


def _window_sums(values: np.ndarray, grid: GridSpec, cfg: DetectConfig,
                 right: tuple, meets: tuple) -> tuple:
    """The (band, flank) sums of a frame's row boundaries (s1 x s2-1) and of
    its column boundaries (s2 x s1-1): window sums of its A and B, taken in
    one pass over the row strips and read as whole units of ppu entries."""
    ppu, hw, crop = grid.pixels_per_unit, cfg.band_halfwidth, grid.crop_rows
    strips, size = frame_strips(grid.height, grid.width)
    buffer = np.empty((size, grid.width))
    along_l = np.zeros((grid.s1, grid.width))
    along_r = np.zeros((grid.s1 * ppu, grid.s2))
    for rows, spans in zip(strips, meets):
        part = buffer[:rows.stop - rows.start]
        np.copyto(part, values[rows])
        _banded_strip(part, right, along_r[rows.start + crop:rows.stop + crop])
        for u, span in spans:
            along_l[u] += part[span].sum(axis=0)
    centre, half = ppu // 2, max(1, ppu // 8)
    sums = []
    for units in (along_l.reshape(grid.s1, grid.s2, ppu),
                  along_r.reshape(grid.s1, ppu, grid.s2).transpose(2, 0, 1)):
        flank = units[..., centre - half:centre + half].sum(axis=-1)
        sums.append((units[:, :-1, ppu - hw:].sum(axis=-1) + units[:, 1:, :hw].sum(axis=-1),
                     flank[:, :-1] + flank[:, 1:]))
    return tuple(sums)


def _boundary_decisions(band, flank, nb, nf, alpha: float):
    """(present, zero_flank) maps of a set of boundaries from their band and
    flank sums and pixel counts (nb, nf). A boundary is present where its
    band mean falls below alpha times its flank mean, or where a band or
    flank is empty or the flank mean is not positive (zero_flank)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        flank_mean = flank / nf
        dark = band / nb < alpha * flank_mean
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
    right, meets, (row_counts, col_counts) = _grid_windows(grid, cfg)
    row_sums, col_sums = _window_sums(img.values, grid, cfg, right, meets)
    alpha = cfg.fringe_ratio_alpha
    row_map, zf_row = _boundary_decisions(*row_sums, *row_counts, alpha)
    col_map, zf_col = _boundary_decisions(*col_sums, *col_counts, alpha)
    col_map, zf_col = col_map.T, zf_col.T

    diagnostics = {}
    if zf_row.any() or zf_col.any():
        diagnostics["zero_flank_row"] = zf_row
        diagnostics["zero_flank_col"] = zf_col
    return FringeMaps(row_map=row_map, col_map=col_map,
                      measurement_index=measurement_index, diagnostics=diagnostics)
