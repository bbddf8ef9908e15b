"""On-disk formats for every artifact the pipeline produces.

Images travel as binary PGM (P5): 16-bit big-endian for measurement frames,
8-bit for patterns and diagnostic stages. A measurement already is the
camera's 16-bit levels plus their scale (forward_model.quantize_16bit), so
the 16-bit writer writes the header, the scale in a '# scale=<float>'
comment and the level buffer as it is, and the reader returns the file's
levels and scale without converting them. Everything tabular is plain CSV
with a fixed header; a path plan is one `row,col,move` line per unit. Complex
fields use a one-line ASCII header followed by row-major interleaved (real,
imag) little-endian float32. Readers decode text inside `_reading`, so bytes
that are not UTF-8 are a format error naming the file.
"""

from __future__ import annotations

import contextlib
import csv
import os

import numpy as np

from .boundary_logic import EdgeRatios, InvalidBoundaryMaps
from .forward_model import LEVELS, ComplexField, IntensityImage, is_levels
from .fringe_detect import FringeMaps
from .path_search import MOVES, BlockingStats, PathPlan
from .patterns import ReferenceLibrary


@contextlib.contextmanager
def _reading(path):
    """Bytes of `path` that do not decode as UTF-8 (csv text, PGM comments)
    and lines csv cannot split are format errors naming the file."""
    try:
        yield
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ValueError(f"unreadable text in {str(path)!r}: {exc}") from None


# ---------------------------------------------------------------------------
# PGM


def write_pgm16(path, img: IntensityImage) -> None:
    """16-bit P5 of a frame's levels, with its scale (level / intensity) in a
    '# scale=<float>' comment. A frame that is not 16-bit levels is refused:
    quantize it first."""
    if not is_levels(img.values):
        raise ValueError(f"16-bit PGM {str(path)!r} needs 16-bit levels, not a "
                         f"{img.values.dtype} frame")
    height, width = img.values.shape
    with open(path, "wb") as fh:
        fh.write(b"P5\n")
        fh.write(f"# scale={img.scale!r}\n".encode())
        fh.write(f"{width} {height}\n65535\n".encode())
        fh.write(np.ascontiguousarray(img.values, dtype=LEVELS))


def _read_payload(fh, path, nbytes: int, kind: str) -> bytes:
    """Exactly `nbytes` of pixel data, or a format error naming the file; a
    header claiming more than the file holds allocates nothing."""
    found = os.fstat(fh.fileno()).st_size - fh.tell()
    if found < nbytes:
        raise ValueError(f"truncated {kind} file {str(path)!r}: expected "
                         f"{nbytes} data bytes, found {found}")
    return fh.read(nbytes)


def _read_pgm_header(fh, path, maxval: int) -> tuple[int, int, dict]:
    """Width, height and '# key=value' comments of a P5 header whose maxval
    must be `maxval`; anything else is a format error naming the file."""
    magic = fh.readline().strip()
    if magic != b"P5":
        raise ValueError(f"not a binary PGM file {str(path)!r} (magic {magic!r})")
    meta = {}
    fields = []
    while len(fields) < 3:
        line = fh.readline()
        if not line:
            raise ValueError(f"truncated PGM header in {str(path)!r}")
        if line.startswith(b"#"):
            text = line[1:].strip().decode()
            if "=" in text:
                key, _, value = text.partition("=")
                meta[key.strip()] = value.strip()
            continue
        fields.extend(line.split())
    try:
        width, height, found = (int(v) for v in fields[:3])
    except ValueError:
        width = height = 0
    if width < 1 or height < 1:
        raise ValueError(f"bad PGM header in {str(path)!r}: {fields[:3]!r}")
    if found != maxval:
        raise ValueError(f"expected maxval {maxval} in PGM {str(path)!r}, found {found}")
    return width, height, meta


def _pgm_scale(meta: dict, path) -> float:
    """The '# scale=' value of a 16-bit PGM header, 1.0 when absent; a value
    that is not a positive finite number is a format error naming the file."""
    text = meta.get("scale")
    if text is None:
        return 1.0
    try:
        scale = float(text)
    except ValueError:
        scale = np.nan
    if not 0 < scale < np.inf:
        raise ValueError(f"bad scale {text!r} in PGM {str(path)!r} "
                         "(expected a positive finite number)")
    return scale


def read_pgm16(path) -> IntensityImage:
    """The frame's 16-bit levels, as stored, and its scale."""
    with _reading(path), open(path, "rb") as fh:
        width, height, meta = _read_pgm_header(fh, path, 65535)
        scale = _pgm_scale(meta, path)
        raw = np.frombuffer(_read_payload(fh, path, width * height * 2, "PGM"),
                            dtype=LEVELS)
    return IntensityImage(raw.reshape(height, width), scale)


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
    with _reading(path), open(path, "rb") as fh:
        width, height, _ = _read_pgm_header(fh, path, 255)
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


def _read_bool_rows(fh, path, lines_before: int = 0) -> np.ndarray:
    """A CSV grid of 0/1 rows of one length, or a format error naming the
    file (and the line of a bad value, `lines_before` header lines counted)."""
    reader = csv.reader(fh)
    grid = []
    for row in reader:
        if grid and len(row) != len(grid[0]):
            raise ValueError(f"ragged grid in {str(path)!r}: row {len(grid) + 1} has "
                             f"{len(row)} fields, row 1 has {len(grid[0])}")
        line = lines_before + reader.line_num
        try:
            flags = [int(v) for v in row]
        except ValueError as exc:
            raise ValueError(f"bad grid value in {str(path)!r} line {line}: {exc}") from exc
        if not set(flags) <= {0, 1}:
            raise ValueError(f"bad grid value in {str(path)!r} line {line}: "
                             f"{row!r} (expected 0 or 1)")
        grid.append(flags)
    return np.array(grid, dtype=bool)


def read_fringe_maps_csv(path) -> tuple[str, int, np.ndarray]:
    with _reading(path), open(path, newline="", encoding="utf-8") as fh:
        header = fh.readline().strip()
        try:
            parts = dict(item.split("=") for item in header.split(","))
            kind, j = parts["kind"], int(parts["j"])
        except (KeyError, ValueError) as exc:
            raise ValueError(f"bad fringe map header in {str(path)!r}: "
                             f"{header!r} (expected kind=row|col,j=<index>)") from exc
        if kind not in ("row", "col"):
            raise ValueError(f"bad fringe map kind {kind!r} in {str(path)!r}")
        grid = _read_bool_rows(fh, path, lines_before=1)
    return kind, j, grid


def write_bool_grid_csv(path, grid: np.ndarray) -> None:
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(np.asarray(grid, dtype=int).tolist())


def read_bool_grid_csv(path) -> np.ndarray:
    with _reading(path), open(path, newline="", encoding="utf-8") as fh:
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
    """Edge ratios of an s1 x s2 grid. A row that does not parse, has extra
    fields, whose kind is not h or v, whose edge is off the grid or listed
    before, or whose valid flag is not 0 or 1 is a format error naming the
    file and line."""
    grids = {"h": np.full((s1, s2 - 1), complex(np.nan, np.nan)),
             "v": np.full((s1 - 1, s2), complex(np.nan, np.nan))}
    seen = set()
    with _reading(path), open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            try:
                kind = row["kind"]
                grid = grids[kind]
                r, c, valid = int(row["row"]), int(row["col"]), int(row["valid"])
                value = complex(float(row["ratio_real"]), float(row["ratio_imag"]))
                ok = (None not in row and valid in (0, 1) and (kind, r, c) not in seen
                      and 0 <= r < grid.shape[0] and 0 <= c < grid.shape[1])
            except (KeyError, TypeError, ValueError):
                ok = False
            if not ok:
                raise ValueError(f"bad edge ratio row in {str(path)!r} line "
                                 f"{reader.line_num}: {list(row.values())!r}")
            seen.add((kind, r, c))
            if valid:
                grid[r, c] = value
    return EdgeRatios(horizontal=grids["h"], vertical=grids["v"])


def write_path_plan_csv(path, plan: PathPlan) -> None:
    """One `row,col,move` line per unit: the move that enters it from its
    parent, "" at the origin, X when unreachable."""
    s2 = plan.shape[1]
    moves = np.where(plan.reachable_mask(), plan.moves(), "X").ravel().tolist()
    _write_rows(path, ["row", "col", "move"],
                [(*divmod(u, s2), mv) for u, mv in enumerate(moves)])


def read_path_plan_csv(path, origin: tuple[int, int]) -> PathPlan:
    """Plan tree from a `row,col,move` CSV listing each unit of its grid once.

    A move (U, D, L or R) enters the unit from its parent, which must lie on
    the grid; only the origin has the empty move; X marks an UNREACHABLE
    unit. Every parent chain must reach the origin, not an X unit or a cycle.
    Anything else is a format error naming the file and line.
    """
    def bad(line: int, why: str) -> ValueError:
        return ValueError(f"bad path plan {str(path)!r} line {line}: {why}")

    origin = (int(origin[0]), int(origin[1]))
    units: dict[tuple[int, int], tuple[int, str]] = {}
    with _reading(path), open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if header != ["row", "col", "move"]:
            raise bad(1, f"header {','.join(header)!r} is not 'row,col,move'")
        for fields in reader:
            line = reader.line_num
            try:
                r, c, mv = int(fields[0]), int(fields[1]), fields[2]
                ok = len(fields) == 3 and r >= 0 and c >= 0
            except (IndexError, ValueError):
                ok = False
            if not ok:
                raise bad(line, "expected a non-negative integer row and col and a move")
            if mv not in MOVES and mv not in ("", "X"):
                raise bad(line, f"move {mv!r} is not one of U, D, L, R, X or empty")
            if (r, c) == origin and mv != "":
                raise bad(line, f"the origin {origin} needs the empty move, not {mv!r}")
            if mv == "" and (r, c) != origin:
                raise bad(line, f"unit {(r, c)} has the empty move, which only "
                                f"the origin {origin} may have")
            if (r, c) in units:
                raise bad(line, f"unit {(r, c)} is listed twice, first on "
                                f"line {units[(r, c)][0]}")
            units[(r, c)] = (line, mv)
    s1, s2 = (1 + max(unit[k] for unit in [origin, *units]) for k in (0, 1))
    if len(units) != s1 * s2:
        missing = next((r, c) for r in range(s1) for c in range(s2) if (r, c) not in units)
        raise bad(reader.line_num, f"unit {missing} of the {s1} x {s2} grid is not listed")
    parent = np.full((s1, s2), -1, dtype=np.intp)
    for (r, c), (line, mv) in units.items():
        if mv in MOVES:
            pr, pc = r - MOVES[mv][0], c - MOVES[mv][1]
            if not (0 <= pr < s1 and 0 <= pc < s2):
                raise bad(line, f"move {mv!r} enters unit {(r, c)} from {(pr, pc)}, "
                                f"off the {s1} x {s2} grid")
            parent[r, c] = pr * s2 + pc
    prov = [[None if units[(r, c)][1] == "X" else "file" for c in range(s2)]
            for r in range(s1)]
    plan = PathPlan(origin=origin, parent=parent, provenance=prov)
    # every chain reaches the origin exactly when each unit follows its parent
    order = plan.order()
    rank = np.full(s1 * s2, s1 * s2)
    rank[order] = np.arange(order.size)
    late = order[1:][rank[parent.flat[order[1:]]] > rank[order[1:]]]
    if late.size:
        line, u = min((units[divmod(u, s2)][0], u) for u in late.tolist())
        up = int(parent.flat[u])
        why = (f"hangs under the unreachable unit {divmod(up, s2)}"
               if rank[up] == s1 * s2 else "runs into a cycle")
        raise bad(line, f"the parent chain of unit {divmod(u, s2)} {why} "
                        f"instead of reaching the origin {origin}")
    return plan


def write_blocking_stats_csv(path, stats: list[BlockingStats]) -> None:
    _write_rows(path, ["sigma", "trials", "single_pass_rate", "retry_rate"],
                [(repr(s.sigma), s.trials, repr(s.single_pass_block_rate),
                  repr(s.retry_block_rate)) for s in stats])


def write_reference_library_csv(path, lib: ReferenceLibrary) -> None:
    _write_rows(path, ["j", "ratio_real", "ratio_imag"],
                [(j, repr(lib[j].real), repr(lib[j].imag))
                 for j in sorted(lib.ratios)])


def read_reference_library_csv(path) -> ReferenceLibrary:
    """One ratio per measurement index j, the k-th row holding j = k, as
    the writer lists them; a row that does not parse or holds another j
    (0, a gap, a repeat) is a format error naming the file and line."""
    ratios = {}
    with _reading(path), open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            try:
                j = int(row["j"])
                value = complex(float(row["ratio_real"]), float(row["ratio_imag"]))
            except (KeyError, TypeError, ValueError):
                j = None
            if j != len(ratios) + 1:
                raise ValueError(f"bad reference library row in {str(path)!r} line "
                                 f"{reader.line_num}: {list(row.values())!r} (expected "
                                 f"j={len(ratios) + 1})")
            ratios[j] = value
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
        if (len(header) != 3 or header[0] != b"CF32"
                or not (header[1].isdigit() and header[2].isdigit())):
            raise ValueError(f"not a CF32 complex field file {str(path)!r} "
                             f"(header {b' '.join(header)!r})")
        rows, cols = int(header[1]), int(header[2])
        raw = np.frombuffer(_read_payload(fh, path, rows * cols * 8, "CF32"),
                            dtype="<f4")
    pairs = raw.reshape(rows, cols, 2)
    try:
        return ComplexField(pairs[..., 0].astype(float) + 1j * pairs[..., 1].astype(float))
    except ValueError as exc:   # an empty grid or a value that is not finite
        raise ValueError(f"bad complex field {str(path)!r}: {exc}") from None
