"""On-disk formats for every artifact the pipeline produces.

Images travel as binary PGM (P5): 16-bit big-endian for intensity frames,
with the linear scale recorded in a comment line so values can be restored;
8-bit for patterns and diagnostic stages. A 16-bit frame is scaled, rounded
and converted to big-endian words one row strip at a time through two
reused buffers, and read back with one conversion to float and an in-place
division by its scale. Everything tabular is plain CSV
with a fixed header. Complex fields use a one-line ASCII header followed by
row-major interleaved (real, imag) little-endian float32.
"""

from __future__ import annotations

import csv

import numpy as np

from .boundary_logic import EdgeRatios, InvalidBoundaryMaps
from .forward_model import ComplexField, IntensityImage, strip_rows
from .fringe_detect import FringeMaps
from .path_search import MOVES, BlockingStats, PathPlan
from .patterns import ReferenceLibrary


# ---------------------------------------------------------------------------
# PGM


def write_pgm16(path, img: IntensityImage) -> None:
    """16-bit P5 with values linearly scaled to [0, 65535].

    The scale factor (stored / original) goes into a '# scale=<float>'
    comment, so read_pgm16 can undo it. Pixels are scaled, rounded and
    converted one row strip at a time through two reused buffers, and each
    strip's big-endian words are written straight from its buffer.
    """
    vals = img.values
    peak = float(vals.max())
    scale = 65535.0 / peak if peak > 0 else 1.0
    height, width = vals.shape
    rows = min(strip_rows(width), height)
    scaled = np.empty((rows, width))
    stored = np.empty((rows, width), dtype=">u2")
    with open(path, "wb") as fh:
        fh.write(b"P5\n")
        fh.write(f"# scale={scale!r}\n".encode())
        fh.write(f"{width} {height}\n65535\n".encode())
        for top in range(0, height, rows):
            n = min(rows, height - top)
            np.multiply(vals[top:top + n], scale, out=scaled[:n])
            np.rint(scaled[:n], out=scaled[:n])
            np.copyto(stored[:n], scaled[:n], casting="unsafe")
            fh.write(stored[:n])


def _read_payload(fh, path, nbytes: int, kind: str) -> bytes:
    """Exactly `nbytes` of pixel data, or a format error naming the file."""
    data = fh.read(nbytes)
    if len(data) != nbytes:
        raise ValueError(f"truncated {kind} file {str(path)!r}: expected "
                         f"{nbytes} data bytes, found {len(data)}")
    return data


def _read_pgm_header(fh) -> tuple[int, int, int, dict]:
    magic = fh.readline().strip()
    if magic != b"P5":
        raise ValueError(f"not a binary PGM file (magic {magic!r})")
    meta = {}
    fields = []
    while len(fields) < 3:
        line = fh.readline()
        if not line:
            raise ValueError("truncated PGM header")
        if line.startswith(b"#"):
            text = line[1:].strip().decode()
            if "=" in text:
                key, _, value = text.partition("=")
                meta[key.strip()] = value.strip()
            continue
        fields.extend(line.split())
    width, height, maxval = (int(v) for v in fields[:3])
    return width, height, maxval, meta


def read_pgm16(path, pixels_per_unit: int = 1) -> IntensityImage:
    with open(path, "rb") as fh:
        width, height, maxval, meta = _read_pgm_header(fh)
        if maxval != 65535:
            raise ValueError(f"expected 16-bit PGM, maxval={maxval}")
        raw = np.frombuffer(_read_payload(fh, path, width * height * 2, "PGM"),
                            dtype=">u2")
    vals = raw.reshape(height, width).astype(float)
    vals /= float(meta.get("scale", 1.0))
    return IntensityImage(vals, pixels_per_unit=pixels_per_unit)


def write_pgm8(path, values: np.ndarray) -> None:
    """8-bit P5 from an integer grid already in [0, 255]."""
    data = np.asarray(values)
    if data.min() < 0 or data.max() > 255:
        raise ValueError("8-bit PGM expects values in [0, 255]")
    data = np.ascontiguousarray(data, dtype=np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{data.shape[1]} {data.shape[0]}\n255\n".encode())
        fh.write(data)


def read_pgm8(path) -> np.ndarray:
    with open(path, "rb") as fh:
        width, height, maxval, _ = _read_pgm_header(fh)
        if maxval != 255:
            raise ValueError(f"expected 8-bit PGM, maxval={maxval}")
        raw = np.frombuffer(_read_payload(fh, path, width * height, "PGM"),
                            dtype=np.uint8)
    return raw.reshape(height, width).copy()


# ---------------------------------------------------------------------------
# CSV tables


def _write_rows(path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_sweep_csv(path, rows) -> None:
    _write_rows(path, ["delta_phi", "radius", "relative_intensity"],
                [(repr(a), repr(b), repr(c)) for a, b, c in rows])


def write_fringe_maps_csv(path, maps: FringeMaps, kind: str) -> None:
    """One 0/1 grid per file; `kind` selects the row or col map."""
    if kind not in ("row", "col"):
        raise ValueError("kind must be 'row' or 'col'")
    grid = maps.row_map if kind == "row" else maps.col_map
    with open(path, "w", newline="") as fh:
        fh.write(f"kind={kind},j={maps.measurement_index}\n")
        writer = csv.writer(fh)
        writer.writerows(grid.astype(int).tolist())


def _read_bool_rows(fh, path) -> np.ndarray:
    """A CSV grid of 0/1 rows of one length, or a format error naming the file."""
    rows = list(csv.reader(fh))
    for i, row in enumerate(rows[1:], start=2):
        if len(row) != len(rows[0]):
            raise ValueError(f"ragged grid in {str(path)!r}: row {i} has "
                             f"{len(row)} fields, row 1 has {len(rows[0])}")
    try:
        return np.array([[int(v) for v in row] for row in rows], dtype=bool)
    except ValueError as exc:
        raise ValueError(f"bad grid value in {str(path)!r}: {exc}") from exc


def read_fringe_maps_csv(path) -> tuple[str, int, np.ndarray]:
    with open(path, newline="") as fh:
        header = fh.readline().strip()
        try:
            parts = dict(item.split("=") for item in header.split(","))
            kind, j = parts["kind"], int(parts["j"])
        except (KeyError, ValueError) as exc:
            raise ValueError(f"bad fringe map header in {str(path)!r}: "
                             f"{header!r} (expected kind=row|col,j=<index>)") from exc
        if kind not in ("row", "col"):
            raise ValueError(f"bad fringe map kind {kind!r} in {str(path)!r}")
        grid = _read_bool_rows(fh, path)
    return kind, j, grid


def write_bool_grid_csv(path, grid: np.ndarray) -> None:
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(np.asarray(grid, dtype=int).tolist())


def read_bool_grid_csv(path) -> np.ndarray:
    with open(path, newline="") as fh:
        return _read_bool_rows(fh, path)


def write_invalid_maps(path_a, path_b, invalid: InvalidBoundaryMaps) -> None:
    write_bool_grid_csv(path_a, invalid.matrix_a)
    write_bool_grid_csv(path_b, invalid.matrix_b)


def read_invalid_maps(path_a, path_b) -> InvalidBoundaryMaps:
    return InvalidBoundaryMaps(matrix_a=read_bool_grid_csv(path_a),
                               matrix_b=read_bool_grid_csv(path_b))


def write_edge_ratios_csv(path, ratios: EdgeRatios) -> None:
    rows = []
    for kind, grid in (("h", ratios.horizontal), ("v", ratios.vertical)):
        for (r, c), val in np.ndenumerate(grid):
            valid = not np.isnan(val)
            rows.append((kind, r, c,
                         repr(float(val.real)) if valid else "nan",
                         repr(float(val.imag)) if valid else "nan",
                         int(valid)))
    _write_rows(path, ["kind", "row", "col", "ratio_real", "ratio_imag", "valid"], rows)


def read_edge_ratios_csv(path, s1: int, s2: int) -> EdgeRatios:
    horizontal = np.full((s1, s2 - 1), complex(np.nan, np.nan))
    vertical = np.full((s1 - 1, s2), complex(np.nan, np.nan))
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            target = horizontal if row["kind"] == "h" else vertical
            if int(row["valid"]):
                target[int(row["row"]), int(row["col"])] = complex(
                    float(row["ratio_real"]), float(row["ratio_imag"]))
    return EdgeRatios(horizontal=horizontal, vertical=vertical)


def write_path_plan_csv(path, plan: PathPlan) -> None:
    """One `row,col,moves` line per unit: the move string from the plan
    origin, derived from the plan tree, or `X` when unreachable."""
    rows = [(r, c, "X" if moves is None else moves)
            for r, row in enumerate(plan.paths) for c, moves in enumerate(row)]
    _write_rows(path, ["row", "col", "moves"], rows)


def read_path_plan_csv(path, origin: tuple[int, int]) -> PathPlan:
    """Plan tree from a `row,col,moves` CSV.

    The origin's moves must be empty. Every other path must walk from the
    origin over UDLR moves inside the grid, end on its own unit, and without
    its last move be the stored path of the unit it passes through there,
    which becomes the unit's parent. Anything else is a format error naming
    the file and line.
    """
    def bad(line: int, why: str) -> ValueError:
        return ValueError(f"bad path plan {str(path)!r} line {line}: {why}")

    entries: dict[tuple[int, int], tuple[int, str]] = {}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            try:
                r, c, moves = int(row["row"]), int(row["col"]), row["moves"]
            except (KeyError, TypeError, ValueError):
                raise bad(reader.line_num, "expected integer row, col and moves") from None
            if r < 0 or c < 0 or moves is None:
                raise bad(reader.line_num, "expected integer row, col and moves")
            entries[(r, c)] = (reader.line_num, moves)
    if not entries:
        raise bad(1, "no units")
    origin = tuple(origin)
    line, moves = entries.get(origin, (1, None))
    if moves != "":
        raise bad(line, f"the origin {origin} needs the empty path, not {moves!r}")
    s1 = 1 + max(r for r, _ in entries)
    s2 = 1 + max(c for _, c in entries)
    parent = np.full((s1, s2), -1, dtype=np.intp)
    move: list[list[str | None]] = [[None] * s2 for _ in range(s1)]
    move[origin[0]][origin[1]] = ""
    for (r, c), (line, moves) in entries.items():
        if moves == "X" or (r, c) == origin:
            continue
        if moves == "":
            raise bad(line, f"unit {(r, c)} has the empty path, which only "
                            f"the origin {origin} may have")
        rr, cc = origin
        for mv in moves:
            if mv not in MOVES:
                raise bad(line, f"move {mv!r} is not one of UDLR")
            pr, pc = rr, cc
            rr, cc = rr + MOVES[mv][0], cc + MOVES[mv][1]
            if not (0 <= rr < s1 and 0 <= cc < s2):
                raise bad(line, f"path for {(r, c)} leaves the grid at {(rr, cc)}")
        if (rr, cc) != (r, c):
            raise bad(line, f"path for {(r, c)} ends at {(rr, cc)}")
        if entries.get((pr, pc), (0, None))[1] != moves[:-1]:
            raise bad(line, f"path for {(r, c)} passes {(pr, pc)} by "
                            f"{moves[:-1]!r}, not by that unit's stored path")
        parent[r, c], move[r][c] = pr * s2 + pc, moves[-1]
    prov = [[None if mv is None else "file" for mv in row] for row in move]
    return PathPlan(origin=origin, parent=parent, move=move, provenance=prov)


def write_blocking_stats_csv(path, stats: list[BlockingStats]) -> None:
    _write_rows(path, ["sigma", "trials", "single_pass_rate", "retry_rate"],
                [(repr(s.sigma), s.trials, repr(s.single_pass_block_rate),
                  repr(s.retry_block_rate)) for s in stats])


def write_reference_library_csv(path, lib: ReferenceLibrary) -> None:
    _write_rows(path, ["j", "ratio_real", "ratio_imag"],
                [(j, repr(lib[j].real), repr(lib[j].imag))
                 for j in sorted(lib.ratios)])


def read_reference_library_csv(path) -> ReferenceLibrary:
    ratios = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            ratios[int(row["j"])] = complex(float(row["ratio_real"]),
                                            float(row["ratio_imag"]))
    return ReferenceLibrary(ratios)


def write_metrics_csv(path, phase_rmse: float, complex_l2: float,
                      unknown_frac: float) -> None:
    _write_rows(path, ["phase_rmse", "complex_l2", "unknown_frac"],
                [(repr(phase_rmse), repr(complex_l2), repr(unknown_frac))])


# ---------------------------------------------------------------------------
# Complex field (CF32)


def write_complex_field(path, field: ComplexField) -> None:
    """ASCII 'CF32 <rows> <cols>' header, then interleaved float32 LE pairs."""
    vals = field.values
    with open(path, "wb") as fh:
        fh.write(f"CF32 {vals.shape[0]} {vals.shape[1]}\n".encode())
        interleaved = np.empty((vals.shape[0], vals.shape[1], 2), dtype="<f4")
        interleaved[..., 0] = vals.real
        interleaved[..., 1] = vals.imag
        fh.write(interleaved.tobytes())


def read_complex_field(path) -> ComplexField:
    with open(path, "rb") as fh:
        header = fh.readline().split()
        if len(header) != 3 or header[0] != b"CF32":
            raise ValueError("not a CF32 complex field file")
        rows, cols = int(header[1]), int(header[2])
        raw = np.frombuffer(_read_payload(fh, path, rows * cols * 8, "CF32"),
                            dtype="<f4")
    pairs = raw.reshape(rows, cols, 2)
    return ComplexField(pairs[..., 0].astype(float) + 1j * pairs[..., 1].astype(float))
