"""Assemble the complex image from planned paths and edge ratios.

A unit's phase (the origin's is 0) is the argument of the product of edge
ratios along its path (conjugated when an edge is traversed against its
stored orientation). A plan is its parent grid, so the products come from one
pass over the units, parents first: a unit's product is its parent's times
the ratio of the edge its entering move crosses, the same multiplications in
the same order as a walk of the unit's whole path, which is never built.
Accumulating the product instead of summing arguments keeps quantized ratios
exact: products of {1, i, -1, -i} never leave that set. Several origins are
fused per unit by a circular mean anchored at the first origin that reaches it.
Amplitudes are the square roots of each unit's mean intensity over its
central window, pooled over the m frames, whose pattern factors (m-th
roots of unity) cancel the neighbours' cross terms in the mean; each frame
is read once from its 16-bit PGM file and summed exactly as integers.
Scoring removes the global phase offset that intensity measurements can
never determine.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fileio
from .boundary_logic import EdgeRatios, InvalidBoundaryMaps
from .forward_model import ComplexField, GridSpec
from .path_search import PathPlan, plan_with_retry


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
    move = plan.moves()
    h, v = ratios.horizontal, ratios.vertical
    rho = np.full(plan.shape, complex(np.nan, np.nan))
    for mv, units, ratio in (("R", np.s_[:, 1:], h), ("L", np.s_[:, :-1], np.conj(h)),
                             ("D", np.s_[1:], v), ("U", np.s_[:-1], np.conj(v))):
        entered = move[units] == mv
        rho[units][entered] = ratio[entered]
    return rho


def accumulate_phase(plan: PathPlan, ratios: EdgeRatios) -> np.ndarray:
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
            f"at {(pr, pc)} move {plan.moves()[r, c]}")
    parent = plan.parent.ravel().tolist()
    rho_u = list(rho)
    product: list = [None] * (s1 * s2)
    product[order[0]] = 1 + 0j
    for u in order[1:].tolist():
        product[u] = product[parent[u]] * rho_u[u]
    phase = np.full(s1 * s2, np.nan)
    phase[order] = np.mod(np.angle([product[u] for u in order.tolist()]), 2.0 * np.pi)
    return phase.reshape(s1, s2)


def _interior_rows(grid: GridSpec, i: int, erode: int) -> slice:
    """Pixel rows of unit row i eroded on each side, in cropped-image coords;
    empty when the erosion and the crop leave none of them."""
    ppu = grid.pixels_per_unit
    top = max(i * ppu + erode, grid.crop_rows)
    bottom = max(min((i + 1) * ppu - erode, grid.crop_rows + grid.height), top)
    return slice(top - grid.crop_rows, bottom - grid.crop_rows)


def interior_pixels(grid: GridSpec, erode: int) -> tuple[slice, list[tuple[int, slice]]]:
    """The pixel columns inside a unit and, per unit row, the frame rows
    inside it, once eroded by `erode` pixels per side and cropped; a
    ValueError names the first unit left with no interior pixel."""
    ppu = grid.pixels_per_unit
    inner = slice(erode, ppu - erode)
    unit_rows = [(i, _interior_rows(grid, i, erode)) for i in range(grid.s1)]
    for i, rows in unit_rows:
        if len(range(ppu)[inner]) * (rows.stop - rows.start) == 0:
            raise ValueError(f"unit {(i, 0)} has no surviving interior pixels: "
                             f"{ppu} px units eroded by {erode} px per side, "
                             f"{grid.crop_rows} rows cropped")
    return inner, unit_rows


def estimate_amplitude(paths: list, grid: GridSpec, erode: int = 3) -> np.ndarray:
    """Per-unit amplitude from the mean intensity of each unit's interior
    over the measurement frames in the 16-bit PGM files `paths`.

    Interiors are eroded by `erode` pixels per side (:func:`interior_pixels`;
    RunConfig.amplitude_erode keeps each unit's central half and the fringe
    bands out). Each frame is read once; its levels over every interior are
    summed exactly as int64 and divided by the frame's own scale. The
    pattern factors q_j^(r+c) are the m-th roots of unity, so the mean over
    the m frames cancels every cross term between two units whose r + c
    differ by a non-multiple of m, edge neighbours among them: within the
    central window the mean is close to the unit's own |a|^2. The square
    root of the mean over all frames and pixels is normalized to a maximum
    of 1. A frame of another shape than the grid's is a format error naming
    its file.
    """
    if not paths:
        raise ValueError("need at least one measurement file")
    inner, unit_rows = interior_pixels(grid, erode)
    ppu, s2 = grid.pixels_per_unit, grid.s2
    total = np.zeros((grid.s1, s2))
    for path in paths:
        frame = fileio.read_pgm16(path)
        if frame.values.shape != (grid.height, grid.width):
            raise ValueError(f"PGM {str(path)!r} holds a {frame.height} x {frame.width} "
                             f"frame, expected {grid.height} x {grid.width}")
        for i, rows in unit_rows:
            column_sums = frame.values[rows].sum(axis=0, dtype=np.int64)
            total[i] += column_sums.reshape(s2, ppu)[:, inner].sum(axis=1) / frame.scale
    pixels = [(rows.stop - rows.start) * len(range(ppu)[inner]) for _, rows in unit_rows]
    amp = np.sqrt(total / (len(paths) * np.array(pixels)[:, None]))
    peak = amp.max()
    if peak > 0:
        amp /= peak
    return amp


def retrieve_phase(invalid: InvalidBoundaryMaps | None, ratios: EdgeRatios,
                   origins: list[tuple[int, int]],
                   plans: list[PathPlan] | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Multi-origin phase recovery with per-unit circular-mean fusion.

    Each origin has its own plan (with transpose retry; built here from
    `invalid` unless `plans` gives one per origin, when `invalid` is not
    read) and phase grid; the grids are aligned to the first origin's at a
    shared reference unit (or by the circular mean of their differences when
    the reference is not common) and fused per unit by the circular mean
    anchored at the first contributor: exact when all contributors agree mod
    2*pi, the plain circular mean otherwise. Returns (phase, provenance) where
    provenance holds the index of the first origin that reached each unit.
    A plan for another grid than the ratios' is rejected, naming its origin.
    """
    if not origins:
        raise ValueError("need at least one origin")
    if plans is None:
        plans = [plan_with_retry(invalid, [origin]) for origin in origins]
    elif [tuple(p.origin) for p in plans] != [tuple(o) for o in origins]:
        raise ValueError("plans must be given one per origin, in origin order")
    grid = (ratios.horizontal.shape[0], ratios.vertical.shape[1])
    for origin, plan in zip(origins, plans):
        if plan.shape != grid:
            raise ValueError(f"the plan from origin {tuple(origin)} is for a {plan.shape} "
                             f"grid, but the edge ratios are for {grid}")
    aligned = []
    contributors = []
    base = None
    for k, (origin, plan) in enumerate(zip(origins, plans)):
        ph = accumulate_phase(plan, ratios)
        known = ~np.isnan(ph)
        if k == 0:
            offset = 0.0
            base = ph
        elif known[origins[0]]:
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


def compose_and_score(phase: np.ndarray, amplitude: np.ndarray,
                      truth: ComplexField) -> ScoreMetrics:
    """Score a reconstruction against ground truth, up to a global phase.

    phase_rmse: circular RMSE of the phase over known units after removing
    the mean-square-optimal global offset (circular mean, then a linear
    refinement; exact recoveries score exactly 0.0). complex_l2: relative L2
    error of amplitude * exp(i phase) after its own optimal global phase.
    unknown_frac: fraction of NaN-phase units. A reconstruction with no
    known unit, or whose known units all have zero truth, has no score, so
    it raises ValueError rather than return NaN metrics.
    """
    if phase.shape != truth.shape or amplitude.shape != truth.shape:
        raise ValueError("shape mismatch with ground truth")
    known = ~np.isnan(phase)
    if not known.any():
        raise ValueError("no unit of the reconstruction is known")
    tru = truth.values[known]
    denom = np.linalg.norm(tru)
    if not denom > 0:
        raise ValueError(f"the truth is zero on all {int(known.sum())} known units")
    d = _wrap(phase[known] - np.angle(tru))
    alpha = np.angle(np.sum(np.exp(1j * d)))
    alpha = alpha + np.mean(_wrap(d - alpha))
    resid = _wrap(d - alpha)
    phase_rmse = float(np.sqrt(np.mean(resid**2)))

    rec = amplitude[known] * np.exp(1j * phase[known])
    inner = np.vdot(tru, rec)
    beta = np.angle(inner) if inner != 0 else 0.0
    complex_l2 = float(np.linalg.norm(rec * np.exp(-1j * beta) - tru) / denom)
    return ScoreMetrics(phase_rmse=phase_rmse, complex_l2=complex_l2,
                        unknown_frac=float(1.0 - known.mean()))
