"""Phase-modulation patterns with uniform adjacent ratios, and their lookup table.

Pattern j is a geometric phase ramp: every horizontally or vertically adjacent
pair of units differs by the same unit-modulus ratio q_j, i.e.
M[c, d] = q_j ** (c + d) with M[0, 0] = 1. A boundary of the modulated object
loses its dark fringe exactly in the measurement whose ratio cancels the
object's own adjacent ratio, which makes the map {j -> conj(q_j)} a lookup
table from fringe-disappearance index to object phase ratio.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .forward_model import ComplexField

# canonical ratio set for m = 4, in measurement order
_CANONICAL_Q4 = (1j, -1j, -1 + 0j, 1 + 0j)


@dataclass(frozen=True)
class PatternSet:
    """The m ramp patterns for an s1 x s2 unit grid."""

    m: int
    ratios: tuple[complex, ...]
    patterns: tuple[ComplexField, ...]

    @property
    def s1(self) -> int:
        return self.patterns[0].s1

    @property
    def s2(self) -> int:
        return self.patterns[0].s2


@dataclass(frozen=True)
class ReferenceLibrary:
    """Map from disappearance index j (1-based) to object adjacent ratio."""

    ratios: dict[int, complex]

    def __getitem__(self, j: int) -> complex:
        return self.ratios[j]

    def __len__(self) -> int:
        return len(self.ratios)


def make_patterns(m: int, s1: int, s2: int) -> PatternSet:
    """Build the m modulation patterns on an s1 x s2 grid.

    m = 4 uses the canonical ratios (i, -i, -1, 1); any other m >= 2 uses the
    m-th roots of unity exp(2*pi*i*j/m), j = 1..m, so the pattern count tracks
    the phase quantization level and nothing else.
    """
    if m < 2:
        raise ValueError("need at least 2 patterns to form a disappearance signature")
    if s1 < 1 or s2 < 1:
        raise ValueError("grid dimensions must be positive")
    if m == 4:
        ratios = _CANONICAL_Q4
    else:
        ratios = tuple(np.exp(2j * np.pi * j / m) for j in range(1, m + 1))
    ramp = np.arange(s1)[:, None] + np.arange(s2)[None, :]
    patterns = tuple(ComplexField(np.power(q, ramp)) for q in ratios)
    return PatternSet(m=m, ratios=ratios, patterns=patterns)


def encode_8bit(pattern: ComplexField) -> np.ndarray:
    """Quantize unit-modulus phases to the 8-bit grey levels of a phase panel.

    theta in [0, 2*pi) maps to floor(theta / (2*pi) * 255), the truncating
    variant: pi/2 -> 63, pi -> 127, 3*pi/2 -> 191, 0 -> 0. Levels come back
    as uint8, one byte per unit, as a pattern file stores them.
    """
    mags = np.abs(pattern.values)
    if not np.allclose(mags, 1.0, atol=1e-9):
        raise ValueError("encode_8bit expects unit-modulus values")
    theta = np.mod(np.angle(pattern.values), 2.0 * np.pi)
    levels = np.floor(theta / (2.0 * np.pi) * 255.0).astype(int)
    return np.mod(levels, 256).astype(np.uint8)


def reference_library(pattern_set: PatternSet) -> ReferenceLibrary:
    """Lookup table R with R[j] = conj(q_j).

    An object boundary with adjacent ratio rho shows no fringe in measurement
    j exactly when rho * q_j = 1, i.e. rho = conj(q_j).
    """
    return ReferenceLibrary(
        {j: complex(np.conj(q)) for j, q in enumerate(pattern_set.ratios, start=1)})

