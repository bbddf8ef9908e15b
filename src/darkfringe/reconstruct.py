"""Assemble the complex image from planned paths and edge ratios.

A unit's phase is the origin phase plus the argument of the product of edge
ratios along its path (conjugated when an edge is traversed against its
stored orientation). Plans are trees, so the products come from one pass over
the units, parents first: a unit's product is its parent's times the ratio of
the edge between them, the same multiplications in the same order as a walk
of the unit's whole path. Accumulating the product instead of summing
arguments keeps quantized ratios exact: products of {1, i, -1, -i} never
leave that set. Several origins are fused per unit by a circular mean
anchored at the first origin that reaches it. Amplitudes come from a median
over eroded unit interiors pooled across all measurements, one unit row at a
time into pool buffers the calling thread allocates; the lower half of the
unit rows is taken on one worker thread that runs only numpy (the median
partition releases the GIL) and the upper half on the calling thread. Scoring
removes the global phase offset that intensity measurements can never
determine.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .boundary_logic import EdgeRatios, InvalidBoundaryMaps
from .forward_model import ComplexField, GridSpec, IntensityImage
from .path_search import PathPlan, plan_with_retry


@dataclass
class Reconstruction:
    """Recovered phase / amplitude grids; NaN phase marks UNKNOWN units."""

    phase: np.ndarray
    amplitude: np.ndarray
    complex_image: ComplexField
    provenance: np.ndarray   # index of the origin that fixed each unit, -1 unknown


@dataclass(frozen=True)
class ScoreMetrics:
    phase_rmse: float
    complex_l2: float
    unknown_frac: float


def _wrap(angles: np.ndarray) -> np.ndarray:
    """Wrap to (-pi, pi]; exact for inputs that are float multiples of pi/2."""
    a = np.asarray(angles, dtype=float)
    return a - 2.0 * np.pi * np.round(a / (2.0 * np.pi))


def _entering_ratios(plan: PathPlan, ratios: EdgeRatios) -> np.ndarray:
    """Per unit, the ratio of the edge its move crosses from the parent,
    conjugated against the stored orientation; NaN where no move enters."""
    move = np.array(plan.move, dtype=object)
    h, v = ratios.horizontal, ratios.vertical
    rho = np.full(plan.shape, complex(np.nan, np.nan))
    right = move[:, 1:] == "R"
    rho[:, 1:][right] = h[right]
    left = move[:, :-1] == "L"
    rho[:, :-1][left] = np.conj(h[left])
    down = move[1:, :] == "D"
    rho[1:, :][down] = v[down]
    up = move[:-1, :] == "U"
    rho[:-1, :][up] = np.conj(v[up])
    return rho


def accumulate_phase(plan: PathPlan, ratios: EdgeRatios, origin_phase: float = 0.0) -> np.ndarray:
    """Phase grid from multiplicative ratio accumulation along planned paths.

    Stored orientations: horizontal ratio = right over left, vertical ratio =
    lower over upper; moves against them use the conjugate. A path that
    crosses an UNKNOWN (NaN) ratio is a plan/ratio inconsistency and raises.
    Unreachable units get NaN. Results are reduced mod 2*pi into [0, 2*pi).
    """
    s1, s2 = plan.shape
    rho = _entering_ratios(plan, ratios).ravel()
    order = plan.order()
    unknown = np.isnan(rho[order[1:]])
    if unknown.any():
        u = int(order[1:][unknown][0])
        r, c = divmod(u, s2)
        pr, pc = divmod(int(plan.parent[r, c]), s2)
        raise ValueError(
            f"path for unit {(r, c)} crosses an edge with unknown ratio "
            f"at {(pr, pc)} move {plan.move[r][c]}")
    parent = plan.parent.ravel().tolist()
    rho_u = list(rho)
    product: list = [None] * (s1 * s2)
    product[order[0]] = 1 + 0j
    for u in order[1:].tolist():
        product[u] = product[parent[u]] * rho_u[u]
    phase = np.full(s1 * s2, np.nan)
    phase[order] = np.mod(origin_phase + np.angle([product[u] for u in order.tolist()]),
                          2.0 * np.pi)
    return phase.reshape(s1, s2)


def _interior_rows(grid: GridSpec, i: int, erode: int) -> slice:
    """Pixel rows of unit row i eroded on each side, in cropped-image coords;
    empty when the erosion and the crop leave none of them."""
    ppu = grid.pixels_per_unit
    top = max(i * ppu + erode, grid.crop_rows)
    bottom = max(min((i + 1) * ppu - erode, grid.crop_rows + grid.height), top)
    return slice(top - grid.crop_rows, bottom - grid.crop_rows)


def _pooled_medians(images: list[IntensityImage], grid: GridSpec, inner: slice,
                    unit_rows: list[tuple[int, slice]], pool_buffer: np.ndarray,
                    amp: np.ndarray) -> None:
    """sqrt of the median of each unit's pooled interior pixels, for the
    given (unit row, pixel rows) pairs, into the matching rows of `amp`.

    Only numpy runs here (it may run on a worker thread): one unit row at a
    time is copied into `pool_buffer`, as (s2, m, rows, cols), and then
    partitioned in place by the median.
    """
    ppu, s2, m = grid.pixels_per_unit, grid.s2, len(images)
    for i, rows in unit_rows:
        blocks = [img.values[rows].reshape(-1, s2, ppu)[:, :, inner].transpose(1, 0, 2)
                  for img in images]
        shape = (s2, m, *blocks[0].shape[1:])
        pool = pool_buffer[:math.prod(shape)].reshape(shape)
        np.stack(blocks, axis=1, out=pool)
        amp[i] = np.sqrt(np.median(pool.reshape(s2, -1), axis=1, overwrite_input=True))


def estimate_amplitude(images: list[IntensityImage], grid: GridSpec,
                       erode: int = 3) -> np.ndarray:
    """Per-unit amplitude from the median interior intensity.

    Interiors are eroded by `erode` pixels per side (band halfwidth + 1 keeps
    the fringe bands out), pixel values are pooled over all measurements
    (patterns are unit-modulus, so every frame sees the same amplitudes), and
    the square root of the pooled median is normalized to a maximum of 1.
    Every unit row is checked for surviving pixels first. The medians of the
    lower half of the unit rows are then taken on one worker thread and
    those of the upper half on the calling thread, each pooling one unit row
    at a time over the measurements into a buffer the calling thread
    allocates (so no array holds all frames, and the worker allocates
    nothing large).
    """
    if not images:
        raise ValueError("need at least one image")
    for img in images:
        if img.values.shape != (grid.height, grid.width):
            raise ValueError(
                f"image shape {img.values.shape} does not match grid "
                f"{(grid.height, grid.width)}")
    ppu, s2 = grid.pixels_per_unit, grid.s2
    inner = slice(erode, ppu - erode)
    cols = len(range(ppu)[inner])
    unit_rows = [(i, _interior_rows(grid, i, erode)) for i in range(grid.s1)]
    heights = [len(range(grid.height)[rows]) for _, rows in unit_rows]
    for i, height in enumerate(heights):
        if height * cols == 0:
            raise ValueError(f"unit {(i, 0)} has no surviving interior pixels")
    pools = np.empty((2, s2 * len(images) * max(heights) * cols))
    amp = np.zeros((grid.s1, s2))
    half = grid.s1 // 2
    with ThreadPoolExecutor(max_workers=1) as worker:
        lower = worker.submit(_pooled_medians, images, grid, inner,
                              unit_rows[:half], pools[0], amp)
        _pooled_medians(images, grid, inner, unit_rows[half:], pools[1], amp)
        lower.result()
    peak = amp.max()
    if peak > 0:
        amp /= peak
    return amp


def retrieve_phase(invalid: InvalidBoundaryMaps, ratios: EdgeRatios,
                   origins: list[tuple[int, int]],
                   plans: list[PathPlan] | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Multi-origin phase recovery with per-unit circular-mean fusion.

    Each origin has its own plan (with transpose retry; built here unless
    `plans` gives one per origin) and phase grid; the grids are aligned to
    the first origin's at a shared reference unit (or by the circular mean of
    their differences when the reference is not common) and fused per unit by
    the circular mean anchored at the first contributor: exact when all
    contributors agree mod 2*pi, the plain circular mean otherwise. Returns
    (phase, provenance) where provenance holds the index of the first origin
    that reached each unit.
    """
    if not origins:
        raise ValueError("need at least one origin")
    if plans is None:
        plans = [plan_with_retry(invalid, [origin]) for origin in origins]
    elif [tuple(p.origin) for p in plans] != [tuple(o) for o in origins]:
        raise ValueError("plans must be given one per origin, in origin order")
    aligned = []
    contributors = []
    base = None
    for k, (origin, plan) in enumerate(zip(origins, plans)):
        ph = accumulate_phase(plan, ratios, origin_phase=0.0)
        known = ~np.isnan(ph)
        if k == 0:
            offset = 0.0
            base = ph
        elif known[origins[0]] and not np.isnan(base[origins[0]]):
            offset = base[origins[0]] - ph[origins[0]]
        else:
            overlap = known & ~np.isnan(base)
            if not overlap.any():
                continue   # no way to relate this origin's constant; skip it
            offset = np.angle(np.sum(np.exp(1j * (base[overlap] - ph[overlap]))))
        aligned.append(np.where(known, ph + offset, np.nan))
        contributors.append(k)
    stack = np.stack(aligned)
    known = ~np.isnan(stack)
    reached = known.any(axis=0)
    first = np.argmax(known, axis=0)
    anchor = np.take_along_axis(stack, first[None], axis=0)[0]
    with np.errstate(invalid="ignore"):
        spread = np.where(known, _wrap(stack - anchor), 0.0)
        mean = anchor + spread.sum(axis=0) / known.sum(axis=0)
    phase = np.where(reached, np.mod(mean, 2.0 * np.pi), np.nan)
    provenance = np.where(reached, np.asarray(contributors)[first], -1)
    return phase, provenance


def compose(phase: np.ndarray, amplitude: np.ndarray,
            provenance: np.ndarray | None = None) -> Reconstruction:
    """Pack phase and amplitude grids into a Reconstruction.

    UNKNOWN units (NaN phase) are zeroed in the complex image; the NaN in the
    phase grid stays authoritative.
    """
    if phase.shape != amplitude.shape:
        raise ValueError("phase and amplitude shapes differ")
    values = amplitude * np.exp(1j * np.where(np.isnan(phase), 0.0, phase))
    values[np.isnan(phase)] = 0.0
    if provenance is None:
        provenance = np.where(np.isnan(phase), -1, 0).astype(int)
    return Reconstruction(phase=phase, amplitude=amplitude,
                          complex_image=ComplexField(values), provenance=provenance)


def compose_and_score(phase: np.ndarray, amplitude: np.ndarray,
                      truth: ComplexField) -> ScoreMetrics:
    """Score a reconstruction against ground truth, up to a global phase.

    phase_rmse: circular RMSE of the phase over known units after removing
    the mean-square-optimal global offset (circular mean, then a linear
    refinement; exact recoveries score exactly 0.0). complex_l2: relative L2
    error of amplitude * exp(i phase) after its own optimal global phase.
    unknown_frac: fraction of NaN-phase units.
    """
    if phase.shape != truth.shape or amplitude.shape != truth.shape:
        raise ValueError("shape mismatch with ground truth")
    known = ~np.isnan(phase)
    unknown_frac = 1.0 - known.mean()
    if not known.any():
        return ScoreMetrics(phase_rmse=np.nan, complex_l2=np.nan,
                            unknown_frac=unknown_frac)
    d = _wrap(phase[known] - np.angle(truth.values[known]))
    alpha = np.angle(np.sum(np.exp(1j * d)))
    alpha = alpha + np.mean(_wrap(d - alpha))
    resid = _wrap(d - alpha)
    phase_rmse = float(np.sqrt(np.mean(resid**2)))

    rec = amplitude[known] * np.exp(1j * phase[known])
    tru = truth.values[known]
    inner = np.vdot(tru, rec)
    beta = np.angle(inner) if inner != 0 else 0.0
    denom = np.linalg.norm(tru)
    complex_l2 = float(np.linalg.norm(rec * np.exp(-1j * beta) - tru) / denom) \
        if denom > 0 else np.nan
    return ScoreMetrics(phase_rmse=phase_rmse, complex_l2=complex_l2,
                        unknown_frac=float(unknown_frac))
