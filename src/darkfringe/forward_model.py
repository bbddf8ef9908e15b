"""Coherent image-plane intensity simulation for piecewise-constant complex fields.

Every pixel-unit of the source is a uniform patch of complex amplitude. The
imaging system smears each patch with a symmetric 1D kernel p (extended to 2D
as the separable product p(x)p(y)), and the camera records the squared modulus
of the superposed field. Where two adjacent units carry different phases, the
field contributions partially cancel on the shared boundary and a dark fringe
appears there; its depth is governed by the closed-form boundary curvature
implemented in :func:`gamma_second_derivative`.

All rectangle integrals of p are evaluated as differences of the kernel's
primitive P, which every kernel family has in closed form (the Gaussian's
through erf).

A simulated frame is |F|^2 plus sigma * max|F|^2 * z, clipped at zero, with
z standard normal: a float32 Box-Muller transform of float32 uniforms from
two streams spawned from the frame's seed, the first for the top half of
the uncropped frame's rows, the second for the rest. Its tail is cut at
sqrt(48 ln 2) ~ 5.77, and its bytes depend on the SIMD target numpy's
float32 log, sqrt, cos and sin run on, as the BLAS products' do on the BLAS
kernel. A run seeds frame j with the pair (run seed, j). The simulation is
single precision from the field to the frame: F is complex64 and the frame
float32 (4 B per pixel), whose rounding (~6e-8 of a value) lies far below
one readout level (1/65535 of the peak). The source is first scaled by the
power of two that brings its peak amplitude into [0.5, 1), and the frame's
scale undoes it exactly, so an object of any amplitude float32 holds gives
a frame in float32's range.
The camera reads it out once, in place, as 16-bit levels rint(value * s)
with s = 65535 / peak (:func:`quantize_16bit`), written straight to their
packed place, so a readout allocates no second frame; the packed levels
and their scale are the measurement every later stage computes from, laid
out as the PGM file stores them. The whole uncropped frame is simulated,
and every frame-sized pass (F, |F|^2 and its max, the readout) runs over
row strips of about STRIP_PIXELS pixels (:func:`frame_strips`) on the
calling thread, the noise and clip over flat cuts of 4/5 as many on two
threads (:func:`_on_two_threads`); a slice crops the frame to the grid.

F = Wy source Wx^T, like detection's B = frame R_along, is a product with a
banded window matrix: one routine (:func:`banded`, :func:`_banded_strip`)
takes both in pieces of consecutive columns that hold every nonzero of
their columns, each small enough for BLAS to run it on the thread that
calls it. The primitive saturates in float (the box's at r, the others'
where expm1 and erf reach their limits), so each PSF window is exactly zero
beyond a few units of its own (its reach); a frame is bit for bit the
whole-frame product's, from complex64 windows cached per PSF and grid.
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

PSF_KINDS = ("box", "exponential", "gaussian")

# units in the radius sweep's alternating phase row
_SWEEP_UNITS = 8
# most pixels in that row: its float64 primitive array holds 9 per pixel
# (19 MB at this bound)
_SWEEP_PIXELS = 1 << 18


@dataclass(frozen=True)
class PsfModel:
    """Symmetric nonnegative 1D kernel p and its primitive P, both exact.

    Parameters
    ----------
    kind : {"box", "exponential", "gaussian"}
        box: 1 inside [-r, r], 0 outside; exponential: exp(-2|x|/r);
        gaussian: exp(-(x/r)^2). Case is ignored.
    radius : float
        Kernel radius r in image pixels (> 0 and finite).

    P(x) is the integral of p over [0, x], in closed form: box sign(x)
    min(|x|, r), exponential -sign(x) (r/2) expm1(-2|x|/r), gaussian
    sign(x) (r sqrt(pi)/2) erf(|x|/r). Two models are equal when their
    (kind, radius) are, so separately built models share cached windows.
    """

    kind: str
    radius: float

    def __post_init__(self):
        kind = self.kind.lower()
        if kind not in PSF_KINDS:
            raise ValueError(f"unknown PSF kind {kind!r}; expected one of {PSF_KINDS}")
        if not 0 < self.radius < np.inf:
            raise ValueError(f"PSF radius must be positive and finite, got {self.radius!r}")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "radius", float(self.radius))

    def p(self, x) -> np.ndarray:
        """Kernel value p(x); symmetric in x."""
        ax = np.abs(np.asarray(x, dtype=float))
        if self.kind == "box":
            return (ax <= self.radius).astype(float)
        if self.kind == "exponential":
            return np.exp(-2.0 * ax / self.radius)
        return np.exp(-((ax / self.radius) ** 2))

    def primitive(self, x) -> np.ndarray:
        """Primitive P(x) with P(0) = 0 and, exactly in floats, P(-x) = -P(x)."""
        x = np.asarray(x, dtype=float)
        ax, r = np.abs(x), self.radius
        if self.kind == "box":
            vals = np.minimum(ax, r)
        elif self.kind == "exponential":
            vals = -(r / 2.0) * np.expm1(-2.0 * ax / r)
        else:
            # numpy has no erf: math.erf once per distinct argument
            args, where = np.unique(ax / r, return_inverse=True)
            erfs = np.array([math.erf(t) for t in args.tolist()])
            vals = (r * np.sqrt(np.pi) / 2.0) * erfs[where].reshape(ax.shape)
        return np.sign(x) * vals

    def dp(self, x) -> np.ndarray:
        """Kernel derivative p'(x). The box kernel's is 0 for |x| != r and a
        delta at |x| = r, where it raises ValueError."""
        x = np.asarray(x, dtype=float)
        if self.kind == "exponential":
            return -(2.0 / self.radius) * np.sign(x) * np.exp(-2.0 * np.abs(x) / self.radius)
        if self.kind == "gaussian":
            return -(2.0 * x / self.radius**2) * np.exp(-((x / self.radius) ** 2))
        if np.any(np.abs(x) == self.radius):
            raise ValueError(f"the box kernel's derivative at |x| = r = {self.radius} "
                             f"is a delta")
        return np.zeros_like(x)


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


# the camera's 16-bit levels, big-endian as the PGM file stores them
LEVELS = np.dtype(">u2")


def is_levels(values: np.ndarray) -> bool:
    """Whether `values` are 16-bit camera levels rather than intensities."""
    return values.dtype.kind == "u" and values.dtype.itemsize == 2


@dataclass
class IntensityImage:
    """One camera frame sampled at pixel centers.

    A measurement holds the camera's 16-bit levels, with intensity = level /
    scale. The forward model's output before readout holds nonnegative
    float32 values, with intensity = value / scale (a power of two). Levels
    and float32 arrays are kept as they are; any other array is taken as
    float64. Which units the pixels belong to is the grid's to say
    (:class:`GridSpec`), not the frame's.
    """

    values: np.ndarray
    scale: float = 1.0

    def __post_init__(self):
        values = np.asarray(self.values)
        kept = is_levels(values) or values.dtype == np.float32
        self.values = values if kept else np.asarray(values, dtype=float)
        if self.values.ndim != 2 or self.values.size < 1:
            raise ValueError("IntensityImage requires a non-empty 2D array")
        # levels are nonnegative by type; for floats one reduction, no
        # boolean frame, and NaN fails the comparison too
        if not (is_levels(self.values) or self.values.min() >= 0):
            raise ValueError("intensity values must be nonnegative (and not NaN)")
        self.scale = float(self.scale)
        if not 0 < self.scale < np.inf:
            raise ValueError(f"scale must be positive and finite, got {self.scale!r}")

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class GridSpec:
    """Pixel-unit grid geometry: the one description of the s1 x s2 units,
    their pixel pitch and the rows cropped top and bottom, which simulation,
    detection and amplitude estimation all read."""

    s1: int
    s2: int
    pixels_per_unit: int
    crop_rows: int = 0

    def __post_init__(self):
        if self.s1 < 1 or self.s2 < 1:
            raise ValueError("grid must contain at least one unit")
        if self.pixels_per_unit < 1:
            raise ValueError("pixels_per_unit must be positive")
        if self.crop_rows < 0 or 2 * self.crop_rows >= self.s1 * self.pixels_per_unit:
            raise ValueError("crop_rows out of range")

    @property
    def height(self) -> int:
        return self.s1 * self.pixels_per_unit - 2 * self.crop_rows

    @property
    def width(self) -> int:
        return self.s2 * self.pixels_per_unit

    def check_frame(self, img: IntensityImage) -> None:
        """Raise unless the frame has this grid's (height, width)."""
        if img.values.shape != (self.height, self.width):
            raise ValueError(f"image shape {img.values.shape} does not match grid "
                             f"{(self.height, self.width)}")


# pixels per row strip of a frame-sized pass: a complex64 field strip or a
# float64 readout strip (512 KB) stays in a core's L2 cache and is small next
# to any frame worth streaming
STRIP_PIXELS = 1 << 16
# multiply-adds (rows x K x N) per banded product: OpenBLAS 0.3.31, as numpy
# 2.4.6 ships it, runs products below this on the calling thread. 64 x 8 x 128
# complex128 and larger woke a second thread, which then spun for 100-130 ms
# of CPU after every call and slowed the noise draws that follow on a 2-core
# host. complex64 has the same limit: on a 2-core Xeon, 64 x 64 x 16 and
# 64 x 16 x 64 (65,536) ran at CPU/wall 1.98, 64 x 16 x 63 (64,512) and
# 32 x 160 x 12 (61,440) at 1.00.
_BLOCK_MADDS = 1 << 16
# the angle factor of a float32 Box-Muller pair
_TWO_PI = np.float32(2.0 * np.pi)


def row_strips(height: int, rows: int) -> list[slice]:
    """Strips of `rows` rows (at least two) covering [0, height) in order,
    a leftover single row folded into the strip before it.

    A one-row matrix product runs as a matrix-vector product, whose sums may
    differ from a matrix product's in the last bit. With no one-row strip
    (unless height is 1), a row's values do not depend on where the strip
    edges fall.
    """
    tops = list(range(0, height, max(rows, 2)))
    if len(tops) > 1 and height - tops[-1] == 1:
        tops.pop()
    return [slice(top, bottom) for top, bottom in zip(tops, tops[1:] + [height])]


def frame_strips(height: int, width: int) -> tuple[list[slice], int]:
    """The :func:`row_strips` of about STRIP_PIXELS pixels, and their most rows."""
    strips = row_strips(height, STRIP_PIXELS // width)
    return strips, max(rows.stop - rows.start for rows in strips)


def banded(windows: np.ndarray, rows: int) -> tuple:
    """Read-only (columns, lo, hi, block) pieces of a window matrix for
    products of `rows` rows by it (:func:`_banded_strip`): columns is a
    slice, and block = windows[lo:hi, columns] holds every nonzero of its
    columns.

    The columns' first nonzero rows must be in order, as they are in every
    window matrix here: a unit's or a pixel's band starts no earlier than
    the one before it. Columns are taken in runs of at least two (a
    one-column product is a matrix-vector product, whose sums may differ),
    each the widest whose rows x (hi - lo) x columns stays below
    _BLOCK_MADDS where two columns do; a column left over joins the run
    before it. A one-row product is a vector-matrix product, whose sums group
    terms by their place in the whole column, so it takes the whole matrix.
    """
    nonzero = windows != 0
    lo = np.argmax(nonzero, axis=0)
    hi = len(windows) - np.argmax(nonzero[::-1], axis=0)
    k = windows.shape[1]
    runs = [(slice(None), 0, len(windows))] if rows == 1 else []
    first = 0
    while rows > 1 and first < k:
        # lo is sorted, so a run spans from its first lo to the running max of hi
        madds = (rows * (np.maximum.accumulate(hi[first:]) - lo[first])
                 * np.arange(1, k - first + 1))
        width = max(int(np.count_nonzero(madds < _BLOCK_MADDS)), 2)
        if k - first == width + 1:
            width += 1 if width == 2 else -1
        cols = slice(first, min(first + width, k))
        runs.append((cols, int(lo[cols].min()), int(hi[cols].max())))
        first = cols.stop
    pieces = []
    for cols, start, stop in runs:
        block = np.ascontiguousarray(windows[start:stop, cols])
        block.flags.writeable = False
        pieces.append((cols, start, stop, block))
    return tuple(pieces)


def _banded_strip(part: np.ndarray, pieces: tuple, out: np.ndarray) -> np.ndarray:
    """out = part @ windows for one strip by the :func:`banded` pieces of the
    windows, `part` already of out's dtype."""
    for cols, lo, hi, block in pieces:
        np.matmul(part[:, lo:hi], block, out=out[:, cols])
    return out


def default_crop_rows(pixels_per_unit: int) -> int:
    """A few rows trimmed top and bottom, scaled to the unit size."""
    return int(np.ceil(2 * pixels_per_unit / 32))


def _unit_window(model: PsfModel, x: np.ndarray, unit_len: int, n_units: int) -> np.ndarray:
    """Windows P(x - left_k) - P(x - right_k) for units k = 0..n_units-1.

    Returns an array of shape (len(x), n_units). Unit k spans
    [k*unit_len, (k+1)*unit_len] along the sampled axis.
    """
    edges = np.arange(n_units + 1) * float(unit_len)
    prim = model.primitive(x[:, None] - edges[None, :])
    return prim[:, :-1] - prim[:, 1:]


def field_profile_1d(phases, unit_len: int, model: PsfModel,
                     x: np.ndarray | None = None) -> np.ndarray:
    """Complex field along one axis for a row of uniform pixel-units.

    Each unit k of length ``unit_len`` spans [k*unit_len, (k+1)*unit_len],
    has amplitude 1 and contributes exp(i*phase_k) * (P(x-left_k) -
    P(x-right_k)). By default the field is sampled at pixel centers
    x = j + 0.5 over the full row; pass ``x`` to sample arbitrary positions
    (e.g. exactly on a boundary).
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
    return _unit_window(model, x, unit_len, n) @ np.exp(1j * phases)


def intensity_profile_1d(phases, unit_len: int, model: PsfModel,
                         x: np.ndarray | None = None) -> np.ndarray:
    """Squared modulus of :func:`field_profile_1d`, pointwise."""
    f = field_profile_1d(phases, unit_len, model, x=x)
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


def alternating_phases(delta_phi: float) -> np.ndarray:
    """Phase vector [d, 0, d, 0, ...] of _SWEEP_UNITS entries."""
    phases = np.zeros(_SWEEP_UNITS)
    phases[::2] = delta_phi
    return phases


def fringe_radius_sweep(delta_phis, radii, unit_len: int,
                        model_kind: str) -> list[tuple[float, float, float]]:
    """Boundary intensity vs. kernel radius for the alternating phase row.

    For each (delta_phi, radius) the 1D intensity of the alternating vector
    (:func:`alternating_phases`) is sampled at pixel centers; the value
    reported is the intensity at the pixel nearest the central symmetry
    axis, normalized by the intensity at the center of the unit left of that
    axis. Sampling at pixel centers is what a camera sees: a fringe narrower
    than one pixel leaves the near-axis sample at the plateau level, so the
    small-radius end of every curve sits high. The row holds at most
    _SWEEP_PIXELS pixels (unit_len up to 32768), so that the arrays it is
    computed through stay tens of MB.

    Returns rows (delta_phi, radius, relative_intensity).
    """
    delta_phis = list(delta_phis)
    radii = list(radii)
    if not delta_phis or not radii:
        raise ValueError("sweep sets must be non-empty")
    if unit_len < 1:
        raise ValueError("unit_len must be a positive integer")
    if _SWEEP_UNITS * unit_len > _SWEEP_PIXELS:
        raise ValueError(f"a row of {_SWEEP_UNITS} units of {unit_len} px exceeds "
                         f"{_SWEEP_PIXELS} px")
    axis = (_SWEEP_UNITS // 2) * unit_len
    rows = []
    for r in radii:
        model = PsfModel(model_kind, r)
        for dphi in delta_phis:
            profile = intensity_profile_1d(alternating_phases(dphi), unit_len, model)
            near_axis = 0.5 * (profile[axis - 1] + profile[axis])
            plateau = profile[axis - unit_len // 2]
            rows.append((float(dphi), float(r), float(near_axis / plateau)))
    return rows


def _reach(window: np.ndarray, ppu: int) -> int:
    """Units between a pixel's own unit and the farthest unit whose window is
    nonzero at that pixel, over the window matrix (pixels x units): its
    nonzero band, which the primitive's saturation in float makes finite."""
    pixel, unit = np.nonzero(window)
    return int(np.abs(unit - pixel // ppu).max(initial=0))


@lru_cache(maxsize=4)
def _field_windows(model: PsfModel, grid: GridSpec, rows: int) -> tuple:
    """Read-only complex64 Wy, its reach and the :func:`banded` pieces of
    the complex64 Wx^T of the uncropped frame, for row strips of at most
    `rows` rows (the grid's). The reach and the pieces are those of the
    complex64 windows, whose zeros are the ones the products leave out."""
    ppu, s1, s2 = grid.pixels_per_unit, grid.s1, grid.s2
    wy = _unit_window(model, np.arange(s1 * ppu) + 0.5, ppu, s1).astype(np.complex64)
    wx = _unit_window(model, np.arange(s2 * ppu) + 0.5, ppu, s2)
    wy.flags.writeable = False
    # a one-column G is a matrix-vector product, whose sums group each term
    # by its place in the whole row of Wy: it takes every unit
    return wy, _reach(wy, ppu) if s2 > 1 else s1, banded(wx.T.astype(np.complex64), rows)


def _on_two_threads(worker: ThreadPoolExecutor, body, items, scratch, *args) -> None:
    """body(item, scratch[t], *args) for every item, on the calling thread
    (t = 0) and on `worker`, a one-thread pool (t = 1): the one place where
    a pass is split between two threads, and only for the noise cuts and
    the amplitude medians, the passes measured to gain from it.

    Both threads take items from one shared iterator (each next() runs under
    the GIL, so every item goes to exactly one thread) until none is left,
    so neither waits for a fixed share of the other's: when the host slows
    one thread, the other takes more. The calling thread allocates each
    thread's scratch and whatever the pass writes, so the worker allocates
    no buffer; a body runs only numpy and file reads, never a public
    function, and which thread takes an item changes no bit. Each caller
    starts its worker for that one pass (a start costs ~0.2 ms).
    """
    shared = iter(items)

    def take(own):
        for item in shared:
            body(item, own, *args)

    second = worker.submit(take, scratch[1])
    take(scratch[0])
    second.result()


def _power(rows: slice, field: np.ndarray, source: np.ndarray, wy: np.ndarray,
           reach: int, ppu: int, pieces: tuple, frame: np.ndarray) -> float:
    """|F|^2 of one row strip into its float32 rows of `frame`, its F
    through the complex64 strip buffer `field`; returns the strip's max."""
    power = frame[rows]
    lo = max(rows.start // ppu - reach, 0)
    hi = min((rows.stop - 1) // ppu + 1 + reach, len(source))
    part = _banded_strip(wy[rows, lo:hi] @ source[lo:hi], pieces, field[:len(power)])
    np.abs(part, out=power)
    np.square(power, out=power)
    return float(power.max())


def _add_noise(cut: tuple, scratch: tuple, starts: list, scale: np.float32) -> None:
    """Add scale times standard normal values to one float32 noise cut, then
    clip at zero, all in float32. A cut is (k, lo, part): the flat samples
    `part` of noise half k from offset lo, which is even, as is part's
    length unless it ends the half. `scratch` is this thread's complex64
    strip buffer and generator. The generator seeks: it is set to stream k's
    state `starts[k]` and advanced by lo // 2 outputs of 64 bits, two
    float32 uniforms each (advance drops any buffered half output), so the
    cut draws what one in-order draw of the whole half draws at lo. The
    buffer holds two float32 words per pixel; a pair takes five of them: its
    two uniforms, turned into z and scaled in place, from the front, and its
    three words of the transform's scratch behind all the uniforms. So a cut
    holds at most 2/5 as many pairs as the buffer holds words."""
    k, lo, part = cut
    buffer, rng = scratch
    rng.bit_generator.state = starts[k]
    rng.bit_generator.advance(lo // 2)
    words = buffer.reshape(-1).view(np.float32)
    # an odd last cut draws a whole pair and drops its last value
    pairs = (len(part) + 1) // 2
    uniforms = words[:2 * pairs]
    rng.random(out=uniforms, dtype=np.float32)
    noise = _box_muller(uniforms, words[2 * pairs:5 * pairs].reshape(3, pairs))[:len(part)]
    noise *= scale
    part += noise
    np.clip(part, 0.0, None, out=part)


def _box_muller(uniforms: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Standard normal values in place of float32 uniforms in [0, 1): each
    consecutive pair (u1, u2) becomes sqrt(-2 ln(1 - u1)) (cos, sin)(2 pi u2)
    (Box & Muller 1958), through three float32 rows of `scratch`. 1 - u1 is
    at least 2^-24, so no value exceeds sqrt(48 ln 2) ~ 5.77 in size."""
    radius, cosine, angle = scratch
    np.subtract(np.float32(1.0), uniforms[0::2], out=radius)
    np.log(radius, out=radius)
    radius *= np.float32(-2.0)
    np.sqrt(radius, out=radius)
    np.multiply(uniforms[1::2], _TWO_PI, out=angle)
    np.cos(angle, out=cosine)
    np.sin(angle, out=angle)
    np.multiply(radius, cosine, out=uniforms[0::2])
    np.multiply(radius, angle, out=uniforms[1::2])
    return uniforms


def simulate_measurement_2d(obj: ComplexField, pattern: ComplexField, model: PsfModel,
                            grid: GridSpec, noise_sigma: float,
                            seed: int | tuple[int, ...]) -> IntensityImage:
    """Simulate one camera frame of the object seen through a phase pattern.

    The source field is the per-unit product object * pattern, times the
    power of two 2^k that brings its peak amplitude into [0.5, 1) (k = 0 for
    a zero source); the frame's scale is 2^(2k), so intensity = value /
    scale, and levels and scale of a readout do not depend on k unless
    float32 would overflow or underflow without it. With the
    separable kernel p(x)p(y), each unit's contribution factorizes into a
    product of primitive differences along x and y, so the whole field F is a
    pair of matrix products, F = G Wx^T with G = Wy source (H x s2). The
    frame is |F|^2 + noise_sigma * max|F|^2 * z, clipped at zero, over the
    uncropped frame, whose crop_rows rows top and bottom are then sliced off.
    z is standard normal: `a, b = SeedSequence(seed).spawn(2)` (`seed` an
    int or a tuple of ints, as the pipeline's (run seed, j)), stream a draws
    rows [0, H // 2) and stream b rows [H // 2, H), each row-major as float32
    uniforms whose consecutive pairs (u1, u2) the float32 Box-Muller
    transform turns into sqrt(-2 ln(1 - u1)) (cos, sin)(2 pi u2), so |z| is
    at most sqrt(48 ln 2) ~ 5.77; a half of odd size drops its last value.
    z is float32, and its last bits depend on the SIMD target numpy's
    float32 log, sqrt, cos and sin run on, as the field's do on the BLAS
    kernel. The source, Wy, Wx^T and F are complex64 and the frame float32;
    the noise scale, float32(noise_sigma * max|F|^2), the add and the clip
    are float32. The halves and pairs are fixed by the frame, not by the
    strips, so no frame depends on where strip edges fall. The frames differ
    in bytes from those of versions that formed F in complex128 and held
    the frame in float64 (a noiseless level by at most 1), and the noisy
    ones also from those that drew numpy's float64 standard normals.

    The |F|^2 pass takes the row strips (:func:`frame_strips`) on the
    calling thread: a strip's rows of G take only the units within Wy's
    reach of the strip, and its F is their banded product by the pieces of
    Wx^T (:func:`_banded_strip`; :func:`_field_windows`, cached per PSF and
    grid). |F|^2 goes straight into the frame, whose max is the largest
    strip max. Only the noise pass runs on two threads
    (:func:`_on_two_threads`): it cuts each noise half into flat ranges of
    an even number of pixels, 4/5 of as many as a thread's strip buffer
    holds, so a pair never spans two cuts, and each cut seeks its offset in
    its half's stream (:func:`_add_noise`). The caller allocates the frame
    and, per thread, one complex64 strip buffer, which also holds the
    thread's uniforms, transform and scaled noise, and one generator. The
    frame is bit for bit that of the whole-frame complex64 product: the
    terms left out are exact zeros, and the complex product is kept because
    two real products for Re F and Im F can differ from it in the last bit.
    """
    if obj.shape != (grid.s1, grid.s2):
        raise ValueError(f"object shape {obj.shape} does not match grid "
                         f"{(grid.s1, grid.s2)}")
    if obj.shape != pattern.shape:
        raise ValueError(f"object shape {obj.shape} != pattern shape {pattern.shape}")
    if not 0 <= noise_sigma < np.inf:
        raise ValueError("noise_sigma must be nonnegative and finite")
    ppu = grid.pixels_per_unit
    if model.radius >= ppu:
        warnings.warn(
            "PSF radius reaches across a whole pixel-unit; fringes may be "
            "indistinguishable", stacklevel=2)
    s1, s2 = obj.shape
    height, width = s1 * ppu, s2 * ppu
    strips, size = frame_strips(height, width)
    wy, reach, pieces = _field_windows(model, grid, size)
    windows = (wy, reach, ppu, pieces)
    product = obj.values * pattern.values
    # 2^k brings the peak amplitude into [0.5, 1), exactly (ldexp of the
    # real and imaginary parts), so that no |F|^2 leaves float32's range
    k = -np.frexp(np.abs(product).max())[1]
    source = np.ldexp(product.view(float), k).view(complex).astype(np.complex64)
    frame = np.empty((height, width), dtype=np.float32)
    # three rows at least, so that a one-pixel-wide frame's buffer holds a
    # noise pair and its scratch (five float32 words)
    buffers = np.empty((2, max(size, 3), width), dtype=np.complex64)
    peak = max(_power(rows, buffers[0], source, *windows, frame) for rows in strips)
    if noise_sigma > 0:
        # even cuts of 2/5 as many pairs as a thread's buffer holds words
        flat, half, cut = frame.reshape(-1), height // 2 * width, buffers[0].size * 2 // 5 * 2
        cuts = [(k, lo, view[lo:lo + cut])
                for k, view in enumerate((flat[:half], flat[half:]))
                for lo in range(0, len(view), cut)]
        # one generator per thread, which each cut sets to its stream's start
        rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(2)]
        starts = [rng.bit_generator.state for rng in rngs]
        with ThreadPoolExecutor(max_workers=1) as worker:
            _on_two_threads(worker, _add_noise, cuts, list(zip(buffers, rngs)),
                            starts, np.float32(noise_sigma * peak))
    return IntensityImage(frame[grid.crop_rows:height - grid.crop_rows],
                          scale=float(np.ldexp(1.0, 2 * k)))


def _read_out(rows: slice, buffer: np.ndarray, vals: np.ndarray, scale: float,
              levels: np.ndarray) -> None:
    """rint(value * scale) of one row strip, in float64 through the float64
    strip `buffer`, cast into the strip's rows of `levels`, which may lie
    over `vals`: the strip is read whole into the buffer before any of its
    levels is written."""
    scaled = buffer[:rows.stop - rows.start]
    # float64 by its dtype: a float32 frame times a Python float is float32
    np.multiply(vals[rows], scale, out=scaled, dtype=float)
    np.rint(scaled, out=scaled)
    np.copyto(levels[rows], scaled, casting="unsafe")


def quantize_16bit(img: IntensityImage) -> IntensityImage:
    """The camera's 16-bit readout of a float frame (float32 as simulated,
    or float64), in place: the frame is consumed.

    Levels are rint(value * s), the product taken in float64, with s = 65535
    / peak (1 for an all-zero frame), cast to big-endian 16-bit words; their
    scale is s times the frame's own scale, so level / scale is still value /
    img.scale. The levels are contiguous big-endian words from the frame's
    first byte, as a PGM file and read_pgm16 hold them: they share the
    frame's memory (and keep it alive), its float values are gone, and no
    levels-sized array is allocated. A frame that is not C-contiguous, or
    that is read-only, is copied first. After one max for the peak, the row
    strips (:func:`frame_strips`) are read out in order through one float64
    strip buffer, each strip's levels written straight to their packed
    place: its rows [a, b) are read whole into the buffer first, and their
    packed bytes [2wa, 2wb) (w the width) end below 4wb (8wb for float64),
    where the next strip's values start.
    """
    vals = img.values
    if is_levels(vals):
        raise ValueError("frame is already 16-bit levels")
    if not (vals.flags.c_contiguous and vals.flags.writeable):
        vals = vals.copy()
    height, width = vals.shape
    strips, size = frame_strips(height, width)
    peak = float(vals.max())
    scale = 65535.0 / peak if peak > 0 else 1.0
    packed = vals.reshape(-1).view(LEVELS)[:height * width].reshape(height, width)
    buffer = np.empty((size, width))
    for rows in strips:
        _read_out(rows, buffer, vals, scale, packed)
    return IntensityImage(packed, scale * img.scale)
