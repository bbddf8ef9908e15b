"""Shared fixtures and independent oracles for the test suite."""

from __future__ import annotations

import contextlib
import csv
import functools
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import strategies as st

import darkfringe as df
from darkfringe.fileio import _read_pgm_header, _reading
from darkfringe.forward_model import _unit_window, default_crop_rows
from darkfringe.path_search import MOVES, random_invalid_maps, transpose_invalid
from darkfringe.fringe_detect import DetectConfig, FringeMaps
from darkfringe.pipeline import random_quantized_object


def kernel_profile(kind: str, r: float, u: np.ndarray) -> np.ndarray:
    """Reference kernel formulas, written out independently of the package."""
    if kind == "box":
        return (np.abs(u) <= r).astype(float)
    if kind == "exponential":
        return np.exp(-2.0 * np.abs(u) / r)
    return np.exp(-((u / r) ** 2))


def gamma_quadrature(kind: str, r: float, a1: float, phi1: float, phi2: float,
                     x: float, step: float = 0.01) -> float:
    """Boundary-region intensity by direct trapezoid quadrature.

    Two equal-amplitude units spanning [-a1, 0] and [0, a1]; the field at x is
    exp(i phi1) * int_{-a1}^{0} p(x - t) dt + exp(i phi2) * int_{0}^{a1}.
    Completely independent of the closed-form primitives.
    """

    def integral(lo, hi):
        n = int(round((hi - lo) / step))
        u = lo + np.arange(n + 1) * step
        return np.trapezoid(kernel_profile(kind, r, u), dx=step)

    f = (np.exp(1j * phi1) * integral(x, x + a1)
         + np.exp(1j * phi2) * integral(x - a1, x))
    return float(abs(f) ** 2)


def gamma2_centered_fd(kind, r, a1, phi1, phi2, delta=0.5, step=0.01):
    """Second centered finite difference of the quadrature intensity."""
    g0 = gamma_quadrature(kind, r, a1, phi1, phi2, 0.0, step)
    gp = gamma_quadrature(kind, r, a1, phi1, phi2, delta, step)
    gm = gamma_quadrature(kind, r, a1, phi1, phi2, -delta, step)
    return (gp - 2.0 * g0 + gm) / delta**2


def gamma2_fd_richardson(kind, r, a1, phi1, phi2, delta=0.5, step=0.01):
    """Richardson pair of centered differences; cancels the O(delta) term
    the exponential kernel's cusp at 0 leaves in a single stencil."""
    return (2.0 * gamma2_centered_fd(kind, r, a1, phi1, phi2, delta / 2, step)
            - gamma2_centered_fd(kind, r, a1, phi1, phi2, delta, step))


def truth_presence_maps(obj: df.ComplexField, pattern_set: df.PatternSet) -> list[FringeMaps]:
    """Ground-truth fringe presence from the combined adjacent ratios."""
    maps = []
    for j, pattern in enumerate(pattern_set.patterns, start=1):
        comb = obj.values * pattern.values
        ratio_h = comb[:, 1:] / comb[:, :-1]
        ratio_v = comb[1:, :] / comb[:-1, :]
        maps.append(FringeMaps(row_map=~np.isclose(ratio_h, 1.0),
                               col_map=~np.isclose(ratio_v, 1.0),
                               measurement_index=j))
    return maps


def truth_edge_ratios(obj: df.ComplexField) -> df.EdgeRatios:
    vals = obj.values / np.abs(obj.values)
    return df.EdgeRatios(horizontal=vals[:, 1:] / vals[:, :-1],
                         vertical=vals[1:, :] / vals[:-1, :])


def _clip_span(a: int, b: int, lo: int, hi: int) -> slice:
    a, b = max(a, lo), min(b, hi)
    return slice(a - lo, max(b - lo, a - lo))


def _reference_band_test(raw, band_rc, flank_a, flank_b, alpha):
    band_vals = raw[band_rc]
    flank_vals = np.concatenate([raw[flank_a].ravel(), raw[flank_b].ravel()])
    if band_vals.size == 0 or flank_vals.size == 0:
        return True, True
    flank_mean = flank_vals.mean()
    if flank_mean <= 0:
        return True, True
    return bool(band_vals.mean() < alpha * flank_mean), False


def reference_recognize_fringes(img, grid, cfg=DetectConfig(),
                                measurement_index=0) -> FringeMaps:
    """Boundary-by-boundary band-contrast test on the image itself.

    The direct form of ``recognize_fringes``: slice every band and flank
    rectangle of the frame and compare their means one boundary at a time.
    """
    ppu, hw, alpha = grid.pixels_per_unit, cfg.band_halfwidth, cfg.fringe_ratio_alpha
    raw = img.values
    row_lo, row_hi = grid.crop_rows, grid.crop_rows + grid.height
    width = grid.width
    margin = min(hw + 1, (ppu - 1) // 2)

    def along(u, lo, hi):
        return _clip_span(u * ppu + margin, (u + 1) * ppu - margin, lo, hi)

    def across(line, lo, hi):
        return _clip_span(line - hw, line + hw, lo, hi)

    def flank(u, lo, hi):
        center, half = u * ppu + ppu // 2, max(1, ppu // 8)
        return _clip_span(center - half, center + half, lo, hi)

    row_map = np.zeros((grid.s1, grid.s2 - 1), dtype=bool)
    zf_row = np.zeros_like(row_map)
    for i in range(grid.s1):
        rows = along(i, row_lo, row_hi)
        for jb in range(grid.s2 - 1):
            row_map[i, jb], zf_row[i, jb] = _reference_band_test(
                raw, (rows, across((jb + 1) * ppu, 0, width)),
                (rows, flank(jb, 0, width)), (rows, flank(jb + 1, 0, width)), alpha)

    col_map = np.zeros((grid.s1 - 1, grid.s2), dtype=bool)
    zf_col = np.zeros_like(col_map)
    for ib in range(grid.s1 - 1):
        band_rows = across((ib + 1) * ppu, row_lo, row_hi)
        fla_rows, flb_rows = flank(ib, row_lo, row_hi), flank(ib + 1, row_lo, row_hi)
        for j in range(grid.s2):
            cols = along(j, 0, width)
            col_map[ib, j], zf_col[ib, j] = _reference_band_test(
                raw, (band_rows, cols), (fla_rows, cols), (flb_rows, cols), alpha)

    diagnostics = {}
    if zf_row.any() or zf_col.any():
        diagnostics["zero_flank_row"] = zf_row
        diagnostics["zero_flank_col"] = zf_col
    return FringeMaps(row_map=row_map, col_map=col_map,
                      measurement_index=measurement_index, diagnostics=diagnostics)


# -- string planner and path walker: the planner and phase accumulation as
# they were before plans became trees, kept as oracles


class ReferencePlan:
    """A move string per unit (None for UNREACHABLE) plus provenance labels."""

    def __init__(self, origin, paths, provenance):
        self.origin, self.paths, self.provenance = origin, paths, provenance

    def reachable_mask(self) -> np.ndarray:
        return np.array([[p is not None for p in row] for row in self.paths])


def reference_plan_paths(invalid, origin) -> ReferencePlan:
    """Column relay storing whole move strings; targets take the nearest
    entry of their segment by an explicit min over candidates."""
    s1, s2 = invalid.s1, invalid.s2
    r0, c0 = origin
    paths = [[None] * s2 for _ in range(s1)]
    prov = [[None] * s2 for _ in range(s1)]
    segments = []
    for c in range(s2):
        seg = [0] * s1
        for r in range(1, s1):
            seg[r] = seg[r - 1] + int(invalid.matrix_b[r - 1, c])
        segments.append(seg)

    def fill_column(c, entries):
        by_segment = {}
        for row, path in entries:
            by_segment.setdefault(segments[c][row], []).append((row, path))
        changed = False
        for r in range(s1):
            candidates = by_segment.get(segments[c][r])
            if paths[r][c] is not None or not candidates:
                continue
            e_row, e_path = min(candidates, key=lambda rp: (abs(rp[0] - r), rp[0]))
            paths[r][c] = e_path + ("D" * (r - e_row) if r >= e_row else "U" * (e_row - r))
            prov[r][c] = "primary"
            changed = True
        return changed

    def crossings(c_from, c_to, move):
        return [(r, paths[r][c_from] + move) for r in range(s1)
                if paths[r][c_from] is not None
                and not invalid.matrix_a[r, min(c_from, c_to)]]

    fill_column(c0, [(r0, "")])
    while True:
        changed = False
        for direction, move in ((1, "R"), (-1, "L")):
            c = c0 + direction
            while 0 <= c < s2:
                changed |= fill_column(c, crossings(c - direction, c, move))
                c += direction
        reentry = []
        if c0 + 1 < s2:
            reentry += crossings(c0 + 1, c0, "L")
        if c0 - 1 >= 0:
            reentry += crossings(c0 - 1, c0, "R")
        changed |= fill_column(c0, reentry)
        if not changed:
            return ReferencePlan(origin, paths, prov)


def reference_plan_with_retry(invalid, origins) -> ReferencePlan:
    """Transpose retry and extra origins, each filled path rebased as the
    extra origin's own path plus the retry pass's whole path."""
    s1, s2 = invalid.s1, invalid.s2
    plan = reference_plan_paths(invalid, origins[0])
    transposed = transpose_invalid(invalid)
    swap = str.maketrans("UDLR", "LRUD")

    def fill_from(sub, prefix, label, transpose):
        for r in range(s1):
            for c in range(s2):
                sub_path = sub.paths[c][r] if transpose else sub.paths[r][c]
                if plan.paths[r][c] is None and sub_path is not None:
                    plan.paths[r][c] = prefix + (sub_path.translate(swap)
                                                 if transpose else sub_path)
                    plan.provenance[r][c] = label

    def any_missing():
        return any(p is None for row in plan.paths for p in row)

    if any_missing():
        r0, c0 = origins[0]
        fill_from(reference_plan_paths(transposed, (c0, r0)), "", "transpose", True)
    for k, (rk, ck) in enumerate(origins[1:], start=2):
        if not any_missing():
            break
        prefix = plan.paths[rk][ck]
        if prefix is None:
            continue
        fill_from(reference_plan_paths(invalid, (rk, ck)), prefix, f"origin{k}", False)
        fill_from(reference_plan_paths(transposed, (ck, rk)), prefix,
                  f"origin{k}+transpose", True)
    return plan


def reference_accumulate_phase(plan, ratios) -> np.ndarray:
    """Walk every unit's whole move string, multiplying edge ratios."""
    s1, s2 = len(plan.paths), len(plan.paths[0])
    phase = np.full((s1, s2), np.nan)
    for r in range(s1):
        for c in range(s2):
            path = plan.paths[r][c]
            if path is None:
                continue
            rr, cc = plan.origin
            product = 1 + 0j
            for mv in path:
                if mv == "R":
                    rho = ratios.horizontal[rr, cc]
                elif mv == "L":
                    rho = np.conj(ratios.horizontal[rr, cc - 1])
                elif mv == "D":
                    rho = ratios.vertical[rr, cc]
                else:
                    rho = np.conj(ratios.vertical[rr - 1, cc])
                if np.isnan(rho):
                    raise ValueError(f"path for unit {(r, c)} crosses an unknown ratio")
                product *= rho
                dr, dc = MOVES[mv]
                rr, cc = rr + dr, cc + dc
            phase[r, c] = np.mod(np.angle(product), 2.0 * np.pi)
    return phase


def reference_retrieve_phase(invalid, ratios, origins, planner=None):
    """Per-origin plans (reference plans unless `planner` is given) and walks,
    aligned as retrieve_phase does, fused unit by unit by the circular mean
    anchored at the first contributor."""
    planner = planner or reference_plan_with_retry
    s1, s2 = invalid.s1, invalid.s2
    aligned, contributors, base = [], [], None
    for k, origin in enumerate(origins):
        ph = reference_accumulate_phase(planner(invalid, [origin]), ratios)
        known = ~np.isnan(ph)
        if k == 0:
            offset, base = 0.0, ph
        elif known[origins[0]] and not np.isnan(base[origins[0]]):
            offset = base[origins[0]] - ph[origins[0]]
        else:
            overlap = known & ~np.isnan(base)
            if not overlap.any():
                continue
            offset = np.angle(np.sum(np.exp(1j * (base[overlap] - ph[overlap]))))
        aligned.append(np.where(known, ph + offset, np.nan))
        contributors.append(k)
    stack = np.stack(aligned)
    provenance = np.full((s1, s2), -1, dtype=int)
    phase = np.full((s1, s2), np.nan)
    for r in range(s1):
        for c in range(s2):
            vals = stack[:, r, c]
            known_k = np.nonzero(~np.isnan(vals))[0]
            if known_k.size == 0:
                continue
            provenance[r, c] = contributors[known_k[0]]
            anchor = vals[known_k[0]]
            wrapped = vals[known_k] - anchor
            wrapped = wrapped - 2.0 * np.pi * np.round(wrapped / (2.0 * np.pi))
            phase[r, c] = np.mod(anchor + np.mean(wrapped), 2.0 * np.pi)
    return phase, provenance


# -- frame-sized passes as whole-frame expressions: simulation, PGM I/O,
# pattern export and the amplitudes, written out without row strips or
# threads and kept as oracles


def reference_standard_normal(rng, n: int) -> np.ndarray:
    """n standard normal float32 values from rng: ceil(n / 2) pairs of float32
    uniforms drawn in one call, each consecutive pair (u1, u2) turned into
    sqrt(-2 ln(1 - u1)) (cos, sin)(2 pi u2); an odd n drops the last value."""
    u = rng.random(2 * ((n + 1) // 2), dtype=np.float32)
    radius = np.sqrt(np.float32(-2.0) * np.log(np.float32(1.0) - u[0::2]))
    angle = u[1::2] * np.float32(2.0 * np.pi)
    z = np.empty_like(u)
    z[0::2] = radius * np.cos(angle)
    z[1::2] = radius * np.sin(angle)
    return z[:n]


def reference_simulate_measurement_2d(obj, pattern, model, grid, noise_sigma,
                                      seed, streams=None) -> df.IntensityImage:
    """|F|^2 as one complex64 product and float32 frame, plus sigma * max
    times standard normal noise, clipped, then cropped, all in float32. The
    source is first multiplied by the power of two 2^k that brings its peak
    amplitude into [0.5, 1), and the frame's scale is 2^(2k). The noise is
    drawn in two halves of the uncropped rows, the top H // 2 rows from the
    first of `streams` and the rest from the second, each row-major in one
    call (:func:`reference_standard_normal`); `streams` defaults to
    SeedSequence(seed).spawn(2)."""
    s1, s2 = obj.shape
    ppu = grid.pixels_per_unit
    product = obj.values * pattern.values
    k = -int(np.frexp(np.abs(product).max())[1])
    source = (product * 2.0 ** k).astype(np.complex64)
    wy = _unit_window(model, ppu, s1).astype(np.complex64)
    wx = _unit_window(model, ppu, s2)
    wx_t = np.ascontiguousarray(wx.T.astype(np.complex64))
    intensity = np.abs(wy @ source @ wx_t) ** 2
    if noise_sigma > 0:
        height, width = intensity.shape
        streams = np.random.SeedSequence(seed).spawn(2) if streams is None else streams
        z = np.concatenate([reference_standard_normal(np.random.default_rng(stream),
                                                      rows * width)
                            for stream, rows in zip(streams, (height // 2,
                                                              height - height // 2))])
        scale = np.float32(noise_sigma * float(intensity.max()))
        intensity = np.clip(intensity + z.reshape(height, width) * scale, 0.0, None)
    crop = grid.crop_rows
    return df.IntensityImage(intensity[crop:intensity.shape[0] - crop], 4.0 ** k)


def reference_write_pgm16(path, img) -> None:
    """The whole frame's levels, its values times 65535 / peak in float64 (a
    float32 frame times a Python float would be float32), in a PGM file
    whose scale is that factor times the frame's own."""
    vals = img.values
    peak = float(vals.max())
    scale = 65535.0 / peak if peak > 0 else 1.0
    data = np.round(vals.astype(float) * scale).astype(">u2")
    with open(path, "wb") as fh:
        fh.write(b"P5\n")
        fh.write(f"# scale={scale * img.scale!r}\n".encode())
        fh.write(f"{data.shape[1]} {data.shape[0]}\n65535\n".encode())
        fh.write(data.tobytes())


def reference_read_pgm16(path) -> df.IntensityImage:
    with open(path, "rb") as fh:
        width, height, meta = _read_pgm_header(fh, path, 65535)
        raw = np.frombuffer(fh.read(width * height * 2), dtype=">u2")
    scale = float(meta.get("scale", 1.0))
    return df.IntensityImage(raw.reshape(height, width).astype(float) / scale)


# The CSV writers one element at a time, and the readers checking one row
# at a time against what the writer writes there: the package's versions
# must write the same bytes and read the same grids and plans, and raise the
# same message for the same malformed file.


def _reference_write_rows(path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def reference_write_fringe_maps_csv(path, maps: FringeMaps, kind: str) -> None:
    """One 0/1 grid per file; `kind` selects the row or col map."""
    if kind not in ("row", "col"):
        raise ValueError("kind must be 'row' or 'col'")
    grid = maps.row_map if kind == "row" else maps.col_map
    with open(path, "w", newline="") as fh:
        fh.write(f"kind={kind},j={maps.measurement_index}\n")
        writer = csv.writer(fh)
        writer.writerows(grid.astype(int).tolist())


def reference_write_bool_grid_csv(path, grid: np.ndarray) -> None:
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(np.asarray(grid, dtype=int).tolist())


def _reference_rows(path) -> list[tuple[int, list[str]]]:
    """Each row of a CSV file with the line it starts on, the whole file
    read before any row is checked."""
    rows = []
    with _reading(path), open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        start = 1
        for fields in reader:
            rows.append((start, fields))
            start = reader.line_num + 1
    return rows


def _reference_bad_line(what, path, line, why) -> ValueError:
    return ValueError(f"bad {what} {str(path)!r} line {line}: {why}")


def _reference_check_header(rows, path, what, header) -> None:
    found = rows[0][1] if rows else []
    if found != header:
        raise _reference_bad_line(what, path, 1, f"header {','.join(found)!r} is not "
                                                 f"{','.join(header)!r}")


def reference_read_bool_rows(rows, path) -> np.ndarray:
    grid = []
    for line, fields in rows:
        if grid and len(fields) != len(grid[0]):
            raise _reference_bad_line("0/1 grid", path, line,
                                      f"row {len(grid) + 1} has {len(fields)} fields, "
                                      f"row 1 has {len(grid[0])}")
        if any(text not in ("0", "1") for text in fields):
            raise _reference_bad_line("0/1 grid", path, line, f"{fields!r} (expected 0 or 1)")
        grid.append([text == "1" for text in fields])
    return np.array(grid, dtype=bool)


def reference_read_fringe_maps_csv(path) -> tuple[str, int, np.ndarray]:
    rows = _reference_rows(path)
    header = ",".join(rows[0][1]) if rows else ""
    kind, _, j = header.partition(",j=")
    try:
        ok = kind in ("kind=row", "kind=col") and str(int(j)) == j
    except ValueError:
        ok = False
    if not ok:
        raise ValueError(f"bad fringe map header in {str(path)!r}: "
                         f"{header!r} (expected kind=row|col,j=<index>)")
    return kind[len("kind="):], int(j), reference_read_bool_rows(rows[1:], path)


def reference_read_bool_grid_csv(path) -> np.ndarray:
    return reference_read_bool_rows(_reference_rows(path), path)


def reference_write_edge_ratios_csv(path, ratios: df.EdgeRatios) -> None:
    rows = []
    for kind, grid in (("h", ratios.horizontal), ("v", ratios.vertical)):
        for (r, c), val in np.ndenumerate(grid):
            valid = not np.isnan(val)
            rows.append((kind, r, c,
                         repr(float(val.real)) if valid else "nan",
                         repr(float(val.imag)) if valid else "nan",
                         int(valid)))
    _reference_write_rows(path, ["kind", "row", "col", "ratio_real", "ratio_imag", "valid"],
                          rows)


def reference_read_edge_ratios_csv(path, s1: int, s2: int) -> df.EdgeRatios:
    grids = {"h": np.full((s1, s2 - 1), complex(np.nan, np.nan)),
             "v": np.full((s1 - 1, s2), complex(np.nan, np.nan))}
    rows = _reference_rows(path)
    _reference_check_header(rows, path, "edge ratios file",
                            ["kind", "row", "col", "ratio_real", "ratio_imag", "valid"])
    edges = [(kind, r, c) for kind, grid in grids.items() for r, c in np.ndindex(grid.shape)]
    for (line, fields), (kind, r, c) in zip(rows[1:], edges):
        try:
            value = complex(float(fields[3]), float(fields[4]))
            ok = (len(fields) == 6 and fields[:3] == [kind, str(r), str(c)]
                  and fields[5] in ("0", "1"))
        except (IndexError, ValueError):
            ok = False
        if not ok:
            raise _reference_bad_line("edge ratios file", path, line,
                                      f"{fields!r} (expected {kind},{r},{c},<ratio_real>,"
                                      "<ratio_imag>,0|1)")
        if fields[5] == "1":
            grids[kind][r, c] = value
    if len(rows) - 1 != len(edges):
        raise ValueError(f"edge ratios file {str(path)!r} lists {len(rows) - 1} edges, but a "
                         f"{s1} x {s2} grid has {len(edges)}")
    return df.EdgeRatios(horizontal=grids["h"], vertical=grids["v"])


def reference_write_path_plan_csv(path, plan: df.PathPlan) -> None:
    s2 = plan.shape[1]
    moves = np.where(plan.reachable_mask(), plan.moves(), "X").ravel().tolist()
    _reference_write_rows(path, ["row", "col", "move"],
                          [(*divmod(u, s2), mv) for u, mv in enumerate(moves)])


def reference_read_path_plan_csv(path, origin: tuple[int, int]) -> df.PathPlan:
    def bad(line: int, why: str) -> ValueError:
        return _reference_bad_line("path plan", path, line, why)

    origin = (int(origin[0]), int(origin[1]))
    rows = _reference_rows(path)
    _reference_check_header(rows, path, "path plan", ["row", "col", "move"])
    units = rows[1:]
    if not units:
        raise bad(2, "no unit is listed")
    last_line, last = units[-1]
    try:
        ok = len(last) == 3 and all(str(int(t)) == t and t[0] != "-" for t in last[:2])
    except ValueError:
        ok = False
    if not ok:
        raise bad(last_line, f"expected a non-negative integer row and col and a move, "
                             f"found {last!r}")
    s1, s2 = int(last[0]) + 1, int(last[1]) + 1
    if not (0 <= origin[0] < s1 and 0 <= origin[1] < s2):
        raise bad(last_line, f"the origin {origin} is off the {s1} x {s2} grid whose last "
                             "unit this line names")
    parents, marked_x = {}, set()
    for i, (line, fields) in enumerate(units[:s1 * s2]):
        r, c = divmod(i, s2)
        if len(fields) != 3 or fields[:2] != [str(r), str(c)]:
            raise bad(line, f"expected row,col,move of unit {(r, c)}, found {fields!r}")
        mv = fields[2]
        if mv not in MOVES and mv not in ("", "X"):
            raise bad(line, f"move {mv!r} is not one of U, D, L, R, X or empty")
        if (r, c) == origin and mv != "":
            raise bad(line, f"the origin {origin} needs the empty move, not {mv!r}")
        if mv == "" and (r, c) != origin:
            raise bad(line, f"unit {(r, c)} has the empty move, which only "
                            f"the origin {origin} may have")
        if mv in MOVES:
            pr, pc = r - MOVES[mv][0], c - MOVES[mv][1]
            if not (0 <= pr < s1 and 0 <= pc < s2):
                raise bad(line, f"move {mv!r} enters unit {(r, c)} from {(pr, pc)}, "
                                f"off the {s1} x {s2} grid")
            parents[(r, c)] = pr * s2 + pc
        if mv == "X":
            marked_x.add((r, c))
    if len(units) != s1 * s2:
        raise bad(last_line, f"the file lists {len(units)} units, but the {s1} x {s2} grid "
                             f"whose last unit this line names has {s1 * s2}")
    parent = np.full((s1, s2), -1, dtype=np.intp)
    for unit, up in parents.items():
        parent[unit] = up
    prov = [[None if (r, c) in marked_x else "file" for c in range(s2)] for r in range(s1)]
    plan = df.PathPlan(origin=origin, parent=parent, provenance=prov)
    # every chain reaches the origin exactly when each unit follows its parent
    order = plan.order()
    rank = np.full(s1 * s2, s1 * s2)
    rank[order] = np.arange(order.size)
    late = order[1:][rank[parent.flat[order[1:]]] > rank[order[1:]]]
    if late.size:
        line, u = min((units[u][0], u) for u in late.tolist())
        up = int(parent.flat[u])
        why = (f"hangs under the unreachable unit {divmod(up, s2)}"
               if rank[up] == s1 * s2 else "runs into a cycle")
        raise bad(line, f"the parent chain of unit {divmod(u, s2)} {why} "
                        f"instead of reaching the origin {origin}")
    return plan


def reference_pattern_pgm(path, pattern) -> None:
    """8-bit pattern file from int64 levels, one pixel per unit."""
    theta = np.mod(np.angle(pattern.values), 2.0 * np.pi)
    levels = np.mod(np.floor(theta / (2.0 * np.pi) * 255.0).astype(np.int64), 256)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{levels.shape[1]} {levels.shape[0]}\n255\n".encode())
        fh.write(levels.astype(np.uint8).tobytes())


def reference_estimate_amplitude(frames, grid, erode=3) -> np.ndarray:
    """One pass over the 16-bit frames, one unit at a time: the exact integer
    sum of the unit's eroded interior levels divided by the frame's scale,
    added up over the frames in order; sqrt of that over the number of
    frames times the unit's interior pixels, normalized to a maximum of 1."""
    ppu, crop = grid.pixels_per_unit, grid.crop_rows
    rows = []
    for i in range(grid.s1):
        top = max(i * ppu + erode, crop) - crop
        bottom = max(min((i + 1) * ppu - erode - crop, grid.height), top)
        if (bottom - top) * max(ppu - 2 * erode, 0) == 0:
            raise ValueError(f"unit {(i, 0)} has no surviving interior pixels")
        rows.append((top, bottom))
    total = np.zeros((grid.s1, grid.s2))
    count = np.zeros((grid.s1, grid.s2), dtype=int)
    for frame in frames:
        levels = frame.values.astype(np.int64)
        for i, (top, bottom) in enumerate(rows):
            for c in range(grid.s2):
                block = levels[top:bottom, c * ppu + erode:(c + 1) * ppu - erode]
                total[i, c] += int(block.sum()) / frame.scale
                count[i, c] = block.size
    amp = np.sqrt(total / (len(frames) * count))
    peak = amp.max()
    return amp / peak if peak > 0 else amp


def simulate_measurements(obj, pattern_set, model, grid, noise_sigma, seed):
    """One 16-bit frame per pattern, as the pipeline's simulate stage makes
    each: read out as soon as it is simulated, the noise seed the pair (run
    seed, measurement index j)."""
    return [df.forward_model.quantize_16bit(
                df.simulate_measurement_2d(obj, pattern, model, grid, noise_sigma,
                                           seed=(seed, j)))
            for j, pattern in enumerate(pattern_set.patterns, start=1)]


def write_measurements(directory, frames) -> list:
    """Each 16-bit frame written as measurement_j<j>.pgm in `directory`, as
    the simulate stage writes it; the paths, in order."""
    paths = []
    for j, frame in enumerate(frames, start=1):
        paths.append(directory / f"measurement_j{j}.pgm")
        df.fileio.write_pgm16(paths[-1], frame)
    return paths


def reference_quantize_16bit(img):
    """The 16-bit readout on one thread into a new array: the whole frame's
    max, then rint(value * s) with s = 65535 / max cast to big-endian 16-bit
    words, row strip by row strip through one float64 strip, in float64; the
    levels' scale is s times the frame's."""
    vals = img.values
    peak = float(vals.max())
    scale = 65535.0 / peak if peak > 0 else 1.0
    height, width = vals.shape
    strips, size = df.forward_model.frame_strips(height, width)
    buffer = np.empty((size, width))
    levels = np.empty((height, width), dtype=df.forward_model.LEVELS)
    for rows in strips:
        scaled = buffer[:rows.stop - rows.start]
        np.multiply(vals[rows], scale, out=scaled, dtype=float)
        np.rint(scaled, out=scaled)
        np.copyto(levels[rows], scaled, casting="unsafe")
    return df.IntensityImage(levels, scale * img.scale)


class OneThreadPool:
    """Stands in for a module's one-worker pool on the calling thread: each
    submitted call runs at once (the worker takes every item of a two-thread
    pass before the caller starts) or when its result is asked for (the
    caller has taken every item by then)."""

    def __init__(self, eager):
        self.eager = eager

    def __call__(self, max_workers):
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        call = functools.partial(fn, *args)
        if self.eager:
            value = call()
            call = lambda: value  # noqa: E731
        return SimpleNamespace(result=call)


THREAD_ORDERS = ["threads", "worker-first", "caller-first"]


def thread_order(module, order: str):
    """A context in which `module`'s two-thread passes run on two threads
    ("threads"), or on the calling thread alone with a :class:`OneThreadPool`
    in place of its ThreadPoolExecutor ("worker-first", "caller-first")."""
    if order == "threads":
        return contextlib.nullcontext()
    return mock.patch.object(module, "ThreadPoolExecutor",
                             OneThreadPool(order == "worker-first"))


def strip_sizes():
    """Contexts to run a frame pass in: the package's own row strips, and
    strips of at most 256 pixels, so small frames cross many strip edges."""
    return (contextlib.nullcontext(),
            mock.patch.object(df.forward_model, "STRIP_PIXELS", 256))


@st.composite
def frame_cases(draw, rows=(1, 19), cols=(1, 19)):
    """Object, pattern, PSF and simulation settings: 1-19 units per side (or
    the `rows` and `cols` ranges), ppu in {4, 5, 8, 13, 16, 32}, three PSF
    kinds, sigma in {0, .01, .05, .3}, default or drawn crop, m in
    {2, 3, 4, 6}; plus a seed."""
    s1, s2 = draw(st.integers(*rows)), draw(st.integers(*cols))
    ppu = draw(st.sampled_from([4, 5, 8, 13, 16, 32]))
    m = draw(st.sampled_from([2, 3, 4, 6]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    amps = rng.uniform(0.2, 1.0, (s1, s2))
    obj = df.ComplexField(amps * np.exp(2j * np.pi * rng.integers(0, m, (s1, s2)) / m))
    pattern = df.make_patterns(m, s1, s2).patterns[draw(st.integers(0, m - 1))]
    model = df.PsfModel(draw(st.sampled_from(df.forward_model.PSF_KINDS)),
                        draw(st.floats(0.5, ppu - 0.5)))
    crop = draw(st.one_of(st.none(), st.integers(0, (s1 * ppu - 1) // 2)))
    grid = df.GridSpec(s1, s2, ppu, default_crop_rows(ppu) if crop is None else crop)
    noise = draw(st.sampled_from([0.0, 0.01, 0.05, 0.3]))
    return obj, pattern, model, grid, noise, draw(st.integers(0, 2**31 - 1))


@st.composite
def planner_cases(draw):
    """Random invalid maps (1-14 units per side, sigma from 0 to 0.5) and 1-3
    origins on the grid."""
    s1, s2 = draw(st.integers(1, 14)), draw(st.integers(1, 14))
    sigma = draw(st.sampled_from([0.0, 0.05, 0.15, 0.3, 0.5]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    invalid = random_invalid_maps(s1, s2, sigma, rng)
    origins = draw(st.lists(st.tuples(st.integers(0, s1 - 1), st.integers(0, s2 - 1)),
                            min_size=1, max_size=3))
    return invalid, origins


class SimSetup:
    """Canonical 16 x 16 simulation context shared across tests."""

    def __init__(self, s1=16, s2=16, ppu=32, radius=8.0, noise=0.0, m=4):
        self.s1, self.s2, self.m = s1, s2, m
        self.noise = noise
        self.grid = df.GridSpec(s1, s2, ppu, default_crop_rows(ppu))
        self.model = df.PsfModel("gaussian", radius)
        self.patterns = df.make_patterns(m, s1, s2)
        self.library = df.reference_library(self.patterns)
        self.detect_cfg = DetectConfig()

    def random_object(self, seed):
        return random_quantized_object(self.s1, self.s2, self.m, seed)

    def measure(self, obj, seed):
        return simulate_measurements(obj, self.patterns, self.model,
                                     self.grid, self.noise, seed)

    def detect(self, images):
        return [df.recognize_fringes(img, self.grid, self.detect_cfg,
                                     measurement_index=j)
                for j, img in enumerate(images, start=1)]


@pytest.fixture(scope="session")
def sim16():
    return SimSetup()
