"""Coherent image-plane intensity simulation for piecewise-constant complex fields.

Every pixel-unit of the source is a uniform patch of complex amplitude. The
imaging system smears each patch with a symmetric 1D kernel p (extended to 2D
as the separable product p(x)p(y)), and the camera records the squared modulus
of the superposed field. Where two adjacent units carry different phases, the
field contributions partially cancel on the shared boundary and a dark fringe
appears there; its depth is governed by the closed-form boundary curvature
implemented in :func:`gamma_second_derivative`.

All rectangle integrals of p are evaluated as differences of the kernel's
primitive P, which is tabulated once per kernel by cumulative trapezoid so the
same mechanism serves all kernel families (the Gaussian has no elementary
primitive).

A simulated frame is |F|^2 plus sigma * max|F|^2 * z, clipped at zero, with
z standard normal draws from the frame's seed. Past the two matrix products
that give F, every frame-sized pass (the squared modulus and its max, the
noise draws, the clip) streams in row strips of about STRIP_PIXELS pixels,
with no frame-sized temporary; fileio's PGM writer uses the same strips.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import cumulative_trapezoid

PSF_KINDS = ("box", "exponential", "gaussian")

# table reach in units of the kernel radius; tails beyond are clamped
_EXTENT_RADII = 20.0


def _kernel_profile(kind: str, radius: float, x: np.ndarray) -> np.ndarray:
    ax = np.abs(x)
    if kind == "box":
        return (ax <= radius).astype(float)
    if kind == "exponential":
        return np.exp(-2.0 * ax / radius)
    if kind == "gaussian":
        return np.exp(-((x / radius) ** 2))
    raise ValueError(f"unknown PSF kind {kind!r}; expected one of {PSF_KINDS}")


class PsfModel:
    """Symmetric nonnegative 1D kernel with a tabulated primitive.

    Parameters
    ----------
    kind : {"box", "exponential", "gaussian"}
        box: 1 inside [-r, r], 0 outside; exponential: exp(-2|x|/r);
        gaussian: exp(-(x/r)^2).
    radius : float
        Kernel radius r in image pixels (> 0).
    step : float
        Tabulation step of the primitive, in image pixels (<= 0.25).
    extent : float, optional
        Half-reach of the primitive table. Defaults to 20 r; P is clamped to
        its end value beyond, which is exact for the box kernel and loses
        only the (negligible) tail mass for the other two.
    """

    def __init__(self, kind: str, radius: float, step: float = 0.05,
                 extent: float | None = None):
        kind = kind.lower()
        if kind not in PSF_KINDS:
            raise ValueError(f"unknown PSF kind {kind!r}; expected one of {PSF_KINDS}")
        if radius <= 0:
            raise ValueError("PSF radius must be positive")
        if not 0 < step <= 0.25:
            raise ValueError("primitive table step must be in (0, 0.25]")
        self.kind = kind
        self.radius = float(radius)
        self.step = float(step)
        self.extent = float(extent) if extent is not None else _EXTENT_RADII * self.radius
        if self.extent <= 0:
            raise ValueError("table extent must be positive")
        n = int(np.ceil(self.extent / self.step)) + 1
        self._xs = np.arange(n) * self.step
        ps = _kernel_profile(kind, self.radius, self._xs)
        # P(0) = 0 by construction; odd extension P(-x) = -P(x) is applied at
        # evaluation time, which keeps the antisymmetry exact in floats.
        self._table = np.concatenate(([0.0], cumulative_trapezoid(ps, self._xs)))

    def p(self, x) -> np.ndarray:
        """Kernel value p(x); symmetric in x."""
        return _kernel_profile(self.kind, self.radius, np.asarray(x, dtype=float))

    def primitive(self, x) -> np.ndarray:
        """Tabulated primitive P(x) with P(0)=0 and P(-x)=-P(x)."""
        x = np.asarray(x, dtype=float)
        ax = np.minimum(np.abs(x), self._xs[-1])
        vals = np.interp(ax, self._xs, self._table)
        return np.sign(x) * vals

    def dp(self, x) -> np.ndarray:
        """Kernel derivative p'(x).

        Analytic for the smooth kinds. The box kernel is discontinuous, so
        its derivative is estimated by a one-sided second difference of the
        primitive table (zero away from the jump, which is all the closed
        form ever needs under good locality).
        """
        x = np.asarray(x, dtype=float)
        if self.kind == "exponential":
            return -(2.0 / self.radius) * np.sign(x) * np.exp(-2.0 * np.abs(x) / self.radius)
        if self.kind == "gaussian":
            return -(2.0 * x / self.radius**2) * np.exp(-((x / self.radius) ** 2))
        h = self.step
        return (self.primitive(x) - 2.0 * self.primitive(x - h)
                + self.primitive(x - 2.0 * h)) / h**2

    @property
    def total_mass(self) -> float:
        """Integral of p over its full (tabulated) support."""
        return float(2.0 * self._table[-1])

    def __repr__(self):
        return f"PsfModel(kind={self.kind!r}, radius={self.radius}, step={self.step})"


def psf_eval(model: PsfModel, x) -> float | np.ndarray:
    """Evaluate the kernel profile p at x (scalar in, scalar out)."""
    out = model.p(x)
    return float(out) if np.isscalar(x) else out


@dataclass
class ComplexField:
    """Rectangular grid of complex amplitudes, one value per pixel-unit."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.ndim != 2 or self.values.size < 1:
            raise ValueError("ComplexField requires a non-empty 2D grid")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("ComplexField values must be finite")

    @property
    def s1(self) -> int:
        return self.values.shape[0]

    @property
    def s2(self) -> int:
        return self.values.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape


@dataclass
class IntensityImage:
    """Nonnegative real image sampled at pixel centers."""

    values: np.ndarray
    pixels_per_unit: int

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2 or self.values.size < 1:
            raise ValueError("IntensityImage requires a non-empty 2D array")
        # one reduction, no boolean frame; NaN fails the comparison too
        if not self.values.min() >= 0:
            raise ValueError("intensity values must be nonnegative (and not NaN)")
        if self.pixels_per_unit < 1:
            raise ValueError("pixels_per_unit must be positive")

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class GridSpec:
    """Pixel-unit grid geometry shared by simulation, detection and scoring."""

    s1: int
    s2: int
    pixels_per_unit: int
    crop_rows: int = 0

    def __post_init__(self):
        if self.s1 < 1 or self.s2 < 1:
            raise ValueError("grid must contain at least one unit")
        if self.pixels_per_unit < 4:
            raise ValueError("pixels_per_unit must be >= 4")
        if self.crop_rows < 0 or 2 * self.crop_rows >= self.s1 * self.pixels_per_unit:
            raise ValueError("crop_rows out of range")

    @property
    def height(self) -> int:
        return self.s1 * self.pixels_per_unit - 2 * self.crop_rows

    @property
    def width(self) -> int:
        return self.s2 * self.pixels_per_unit


# pixels per row strip of a frame-sized pass: a float64 strip (512 KB) stays
# in a core's L2 cache and is small next to any frame worth streaming
STRIP_PIXELS = 1 << 16


def strip_rows(width: int) -> int:
    """Rows per strip of a frame-sized pass over `width`-pixel rows."""
    return max(1, STRIP_PIXELS // width)


def default_crop_rows(pixels_per_unit: int) -> int:
    """A few rows trimmed top and bottom, scaled to the unit size."""
    return int(np.ceil(2 * pixels_per_unit / 32))


@dataclass(frozen=True)
class SimConfig:
    """Knobs of the 2D measurement simulation."""

    pixels_per_unit: int = 32
    noise_sigma: float = 0.0
    crop_rows: int | None = None

    def __post_init__(self):
        if self.pixels_per_unit < 4:
            raise ValueError("pixels_per_unit must be >= 4")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be nonnegative")
        if self.crop_rows is not None and self.crop_rows < 0:
            raise ValueError("crop_rows must be nonnegative")

    @property
    def effective_crop_rows(self) -> int:
        if self.crop_rows is None:
            return default_crop_rows(self.pixels_per_unit)
        return self.crop_rows


def _unit_window(model: PsfModel, x: np.ndarray, unit_len: int, n_units: int) -> np.ndarray:
    """Windows P(x - left_k) - P(x - right_k) for units k = 0..n_units-1.

    Returns an array of shape (len(x), n_units). Unit k spans
    [k*unit_len, (k+1)*unit_len] along the sampled axis.
    """
    edges = np.arange(n_units + 1) * float(unit_len)
    prim = model.primitive(x[:, None] - edges[None, :])
    return prim[:, :-1] - prim[:, 1:]


def field_profile_1d(phases, unit_len: int, model: PsfModel,
                     x: np.ndarray | None = None,
                     amplitudes=None) -> np.ndarray:
    """Complex field along one axis for a row of uniform pixel-units.

    Each unit k of length ``unit_len`` spans [k*unit_len, (k+1)*unit_len] and
    contributes amp_k * exp(i*phase_k) * (P(x-left_k) - P(x-right_k)). By
    default the field is sampled at pixel centers x = j + 0.5 over the full
    row; pass ``x`` to sample arbitrary positions (e.g. exactly on a
    boundary).
    """
    phases = np.asarray(phases, dtype=float)
    if phases.ndim != 1 or phases.size < 1:
        raise ValueError("phases must be a non-empty 1D sequence")
    if unit_len < 1:
        raise ValueError("unit_len must be a positive integer")
    n = phases.size
    if x is None:
        x = np.arange(n * unit_len) + 0.5
    else:
        x = np.asarray(x, dtype=float)
    amps = np.ones(n) if amplitudes is None else np.asarray(amplitudes, dtype=float)
    coeff = amps * np.exp(1j * phases)
    return _unit_window(model, x, unit_len, n) @ coeff


def intensity_profile_1d(phases, unit_len: int, model: PsfModel,
                         x: np.ndarray | None = None,
                         amplitudes=None) -> np.ndarray:
    """Squared modulus of :func:`field_profile_1d`, pointwise."""
    f = field_profile_1d(phases, unit_len, model, x=x, amplitudes=amplitudes)
    return np.abs(f) ** 2


def gamma_second_derivative(model: PsfModel, a1: float, phi1: float, phi2: float) -> float:
    """Closed-form curvature of the boundary intensity for two adjacent units.

    For equal-amplitude units spanning [-a1, 0] and [0, a1], the intensity on
    the shared boundary has zero slope and curvature

        4 * [(1 - cos(phi1 - phi2)) * (p(a1) - p(0))^2
             + (1 + cos(phi1 - phi2)) * P(a1) * p'(a1)].

    The second term vanishes when a1 >> r (kernel locality), leaving a
    guaranteed intensity minimum whenever the phases differ.
    """
    if a1 <= 0:
        raise ValueError("a1 must be positive")
    dcos = np.cos(phi1 - phi2)
    term1 = (1.0 - dcos) * float(model.p(a1) - model.p(0.0)) ** 2
    term2 = (1.0 + dcos) * float(model.primitive(a1)) * float(model.dp(a1))
    return 4.0 * (term1 + term2)


def alternating_phases(delta_phi: float, n_units: int = 8) -> np.ndarray:
    """Phase vector [d, 0, d, 0, ...] of n_units entries."""
    phases = np.zeros(n_units)
    phases[::2] = delta_phi
    return phases


def fringe_radius_sweep(delta_phis, radii, unit_len: int, model_kind: str,
                        n_units: int = 8, step: float = 0.05) -> list[tuple[float, float, float]]:
    """Boundary intensity vs. kernel radius for the alternating phase row.

    For each (delta_phi, radius) the 1D intensity of the n_units-long
    alternating vector is sampled at pixel centers; the value reported is the
    intensity at the pixel nearest the central symmetry axis, normalized by
    the intensity at the center of the unit left of that axis. Sampling at
    pixel centers is what a camera sees: a fringe narrower than one pixel
    leaves the near-axis sample at the plateau level, so the small-radius end
    of every curve sits high.

    Returns rows (delta_phi, radius, relative_intensity).
    """
    delta_phis = list(delta_phis)
    radii = list(radii)
    if not delta_phis or not radii:
        raise ValueError("sweep sets must be non-empty")
    if unit_len < 1:
        raise ValueError("unit_len must be a positive integer")
    axis = (n_units // 2) * unit_len
    rows = []
    for r in radii:
        # table must reach across the whole row so far units still telescope
        extent = max(_EXTENT_RADII * r, (n_units + 1) * unit_len)
        model = PsfModel(model_kind, r, step=step, extent=extent)
        for dphi in delta_phis:
            profile = intensity_profile_1d(alternating_phases(dphi, n_units), unit_len, model)
            near_axis = 0.5 * (profile[axis - 1] + profile[axis])
            plateau = profile[axis - unit_len // 2]
            rows.append((float(dphi), float(r), float(near_axis / plateau)))
    return rows


def simulate_measurement_2d(obj: ComplexField, pattern: ComplexField,
                            model: PsfModel, cfg: SimConfig, seed: int) -> IntensityImage:
    """Simulate one camera frame of the object seen through a phase pattern.

    The source field is the per-unit product object * pattern. With the
    separable kernel p(x)p(y), each unit's contribution factorizes into a
    product of primitive differences along x and y, so the whole field F is a
    pair of matrix products. The frame is |F|^2 + noise_sigma * max|F|^2 * z,
    clipped at zero, with z standard normal draws from the seed's generator
    taken row-major over the uncropped frame; crop_rows rows are then removed
    top and bottom (the top rows' draws are consumed and dropped).

    Past the matrix products every pass runs in row strips: |F|^2 and its
    max straight into the frame (the cropped rows through the frame's first
    rows), and, once F is released, the noise draws through one strip
    buffer, scaled and added into the frame, and the clip. A call never
    holds more than F and the returned frame.
    """
    if obj.shape != pattern.shape:
        raise ValueError(f"object shape {obj.shape} != pattern shape {pattern.shape}")
    ppu = cfg.pixels_per_unit
    if model.radius >= ppu:
        warnings.warn(
            "PSF radius reaches across a whole pixel-unit; fringes may be "
            "indistinguishable", stacklevel=2)
    s1, s2 = obj.shape
    source = obj.values * pattern.values
    ys = np.arange(s1 * ppu) + 0.5
    xs = np.arange(s2 * ppu) + 0.5
    wy = _unit_window(model, ys, ppu, s1)          # (H, s1)
    wx = _unit_window(model, xs, ppu, s2)          # (W, s2)
    field = wy @ source @ wx.T
    height, width = field.shape
    crop = cfg.effective_crop_rows
    frame = np.empty((height - 2 * crop, width))
    rows = min(strip_rows(width), len(frame))
    peak = 0.0
    # |F|^2 strip by strip: the cropped rows only count toward the max and
    # are squared in the frame's first rows, before the frame's own rows are
    for start, stop in ((0, crop), (height - crop, height), (crop, height - crop)):
        for top in range(start, stop, rows):
            bottom = min(top + rows, stop)
            power = (frame[top - crop:bottom - crop] if start == crop
                     else frame[:bottom - top])
            np.abs(field[top:bottom], out=power)
            np.square(power, out=power)
            peak = max(peak, float(power.max()))
    del field
    if cfg.noise_sigma > 0:
        scale = cfg.noise_sigma * peak
        rng = np.random.default_rng(seed)
        noise = np.empty((rows, width))
        for top in range(0, crop, rows):
            rng.standard_normal(out=noise[:min(rows, crop - top)])
        for top in range(0, len(frame), rows):
            draws = noise[:min(rows, len(frame) - top)]
            rng.standard_normal(out=draws)
            draws *= scale
            part = frame[top:top + len(draws)]
            part += draws
            np.clip(part, 0.0, None, out=part)
    return IntensityImage(frame, pixels_per_unit=ppu)
