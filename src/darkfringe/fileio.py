"""On-disk formats for every artifact the pipeline produces.

Images travel as binary PGM (P5): 16-bit big-endian for measurement frames,
8-bit for patterns and diagnostic stages. A measurement already is the
camera's 16-bit levels, contiguous big-endian words as the file stores
them, plus their scale (forward_model.quantize_16bit), so the 16-bit writer
writes the header, the scale in a '# scale=<float>' comment and the levels
by one write, and the reader returns the file's levels and scale without
converting them. Everything tabular is plain CSV; a path plan is one
`row,col,move` line per unit. Each CSV reader reads the whole file,
then accepts only its writer's layout: the writer's header line, then the
writer's lines in the writer's order, each holding the texts the writer
writes there. The first line that does not is a format error naming the
file and line. Complex fields use a one-line ASCII header followed by
row-major interleaved (real, imag) little-endian float32. Readers decode
text inside `_reading`, so bytes that are not UTF-8 are a format error
naming the file.
"""

from __future__ import annotations

import contextlib
import csv
import itertools
import os
import re

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
    quantize it first.

    The levels are written by one write from their own memory: a readout's
    and read_pgm16's are contiguous big-endian words. Any other layout is
    converted once.
    """
    values = img.values
    if not is_levels(values):
        raise ValueError(f"16-bit PGM {str(path)!r} needs 16-bit levels, not a "
                         f"{values.dtype} frame")
    height, width = values.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n# scale={img.scale!r}\n{width} {height}\n65535\n".encode())
        fh.write(np.ascontiguousarray(values, dtype=LEVELS))


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


def _csv_rows(path) -> list[list[str]]:
    """Every row of the CSV file `path`, all read inside `_reading`, so a
    byte that does not decode or a line csv cannot split anywhere in the
    file is a format error naming it."""
    with _reading(path), open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _bad_row(what: str, path, row: int, why: str) -> ValueError:
    """A format error naming the file and the line on which its row `row`
    (0 for the first) starts, found by reading the file again up to it."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(itertools.islice(reader, row, row), None)
        return ValueError(f"bad {what} {str(path)!r} line {reader.line_num + 1}: {why}")


def _check_header(rows: list[list[str]], path, what: str, header: list[str]) -> None:
    """A format error naming the file unless its first line is `header`."""
    found = rows[0] if rows else []
    if found != header:
        raise _bad_row(what, path, 0, f"header {','.join(found)!r} is not "
                                      f"{','.join(header)!r}")


def write_sweep_csv(path, rows) -> None:
    _write_rows(path, ["delta_phi", "radius", "relative_intensity"],
                [(repr(a), repr(b), repr(c)) for a, b, c in rows])


def _bool_grid_bytes(grid: np.ndarray) -> bytes:
    """csv.writer's bytes for a 0/1 grid, built as one block: each row is its
    flags as digits joined by commas and ended by \r\n."""
    flags = np.asarray(grid, dtype=bool)
    rows, cols = flags.shape
    block = np.full((rows, max(2 * cols + 1, 2)), ord(","), dtype=np.uint8)
    block[:, :2 * cols:2] = flags + ord("0")
    block[:, -2:] = (ord("\r"), ord("\n"))
    return block.tobytes()


def write_fringe_maps_csv(path, maps: FringeMaps, kind: str) -> None:
    """One 0/1 grid per file; `kind` selects the row or col map."""
    if kind not in ("row", "col"):
        raise ValueError("kind must be 'row' or 'col'")
    grid = maps.row_map if kind == "row" else maps.col_map
    with open(path, "wb") as fh:
        fh.write(f"kind={kind},j={maps.measurement_index}\n".encode())
        fh.write(_bool_grid_bytes(grid))


def _bool_grid(rows: list[list[str]], path, first: int = 0) -> np.ndarray:
    """The grid of 0/1 rows as the writer writes them from the file's row
    `first` on: rows of one length, every field the text 0 or 1. Anything
    else is a format error naming the file and the first bad row's line. No
    rows read as an empty 1D grid."""
    rows = rows[first:]
    for i, fields in enumerate(rows):
        if len(fields) != len(rows[0]):
            raise _bad_row("0/1 grid", path, first + i, f"row {i + 1} has {len(fields)} "
                                                        f"fields, row 1 has {len(rows[0])}")
        if not {"0", "1"}.issuperset(fields):
            raise _bad_row("0/1 grid", path, first + i, f"{fields!r} (expected 0 or 1)")
    if not rows:
        return np.zeros(0, dtype=bool)
    digits = "".join(itertools.chain.from_iterable(rows)).encode()
    return (np.frombuffer(digits, dtype=np.uint8) == ord("1")).reshape(len(rows), -1)


def read_fringe_maps_csv(path) -> tuple[str, int, np.ndarray]:
    """The kind, measurement index and grid of a fringe map file: the line
    `kind=row|col,j=<index>` as the writer writes it, then a 0/1 grid."""
    rows = _csv_rows(path)
    header = ",".join(rows[0]) if rows else ""
    found = re.fullmatch(r"kind=(row|col),j=(0|-?[1-9][0-9]*)", header)
    if found is None:
        raise ValueError(f"bad fringe map header in {str(path)!r}: "
                         f"{header!r} (expected kind=row|col,j=<index>)")
    return found[1], int(found[2]), _bool_grid(rows, path, first=1)


def write_bool_grid_csv(path, grid: np.ndarray) -> None:
    with open(path, "wb") as fh:
        fh.write(_bool_grid_bytes(grid))


def read_bool_grid_csv(path) -> np.ndarray:
    return _bool_grid(_csv_rows(path), path)


def write_invalid_maps(path_a, path_b, invalid: InvalidBoundaryMaps) -> None:
    write_bool_grid_csv(path_a, invalid.matrix_a)
    write_bool_grid_csv(path_b, invalid.matrix_b)


def read_invalid_maps(path_a, path_b) -> InvalidBoundaryMaps:
    return InvalidBoundaryMaps(matrix_a=read_bool_grid_csv(path_a),
                               matrix_b=read_bool_grid_csv(path_b))


_EDGE_RATIO_FIELDS = ["kind", "row", "col", "ratio_real", "ratio_imag", "valid"]


def write_edge_ratios_csv(path, ratios: EdgeRatios) -> None:
    """One line per edge, the horizontal grid and then the vertical one, each
    row-major; an edge with a NaN part is written as nan,nan and valid 0."""
    rows = []
    for kind, grid in (("h", ratios.horizontal), ("v", ratios.vertical)):
        valid = ~np.isnan(grid).ravel()
        value = np.where(valid, grid.ravel(), complex(np.nan, np.nan))
        r, c = np.indices(grid.shape).reshape(2, -1).tolist()
        rows += zip([kind] * valid.size, r, c, value.real.tolist(), value.imag.tolist(),
                    valid.astype(int).tolist())
    _write_rows(path, _EDGE_RATIO_FIELDS, rows)


def _edge_line_ok(fields: list[str], key: tuple[str, str, str]) -> bool:
    """Whether a line holds the edge `key` (its kind, row and col texts as
    the writer writes them), two parts float() parses and a valid flag 0 or 1."""
    try:
        float(fields[3]), float(fields[4])
    except (IndexError, ValueError):
        return False
    return len(fields) == 6 and tuple(fields[:3]) == key and fields[5] in ("0", "1")


def read_edge_ratios_csv(path, s1: int, s2: int) -> EdgeRatios:
    """Edge ratios of an s1 x s2 grid, in the writer's layout: its header,
    then one line per edge (:func:`_edge_line_ok`), the horizontal grid
    row-major and then the vertical one, checked column by column. A file
    whose lines all hold their edges but that ends early or runs long (as
    one of another grid may) is a format error naming both edge counts."""
    rows = _csv_rows(path)
    _check_header(rows, path, "edge ratios file", _EDGE_RATIO_FIELDS)
    keys = [*itertools.product("h", map(str, range(s1)), map(str, range(s2 - 1))),
            *itertools.product("v", map(str, range(s1 - 1)), map(str, range(s2)))]
    body = rows[1:len(keys) + 1]
    try:
        if not {6}.issuperset(map(len, body)):
            raise ValueError
        kind, row, col, real, imag, valid = zip(*body) if body else [()] * 6
        if list(zip(kind, row, col)) != keys[:len(body)] or not {"0", "1"}.issuperset(valid):
            raise ValueError
        value = np.empty(len(body), dtype=complex)
        value.real, value.imag = list(map(float, real)), list(map(float, imag))
    except ValueError:
        i = next(i for i, fields in enumerate(body) if not _edge_line_ok(fields, keys[i]))
        raise _bad_row("edge ratios file", path, i + 1,
                       f"{body[i]!r} (expected {','.join(keys[i])},<ratio_real>,"
                       "<ratio_imag>,0|1)") from None
    if len(rows) - 1 != len(keys):
        raise ValueError(f"edge ratios file {str(path)!r} lists {len(rows) - 1} edges, but "
                         f"a {s1} x {s2} grid has {len(keys)}")
    value[np.array(valid) != "1"] = complex(np.nan, np.nan)
    split = s1 * (s2 - 1)
    return EdgeRatios(horizontal=value[:split].reshape(s1, s2 - 1),
                      vertical=value[split:].reshape(s1 - 1, s2))


def write_path_plan_csv(path, plan: PathPlan) -> None:
    """One `row,col,move` line per unit: the move that enters it from its
    parent, "" at the origin, X when unreachable."""
    rows, cols = np.indices(plan.shape).reshape(2, -1).tolist()
    moves = np.where(plan.reachable_mask(), plan.moves(), "X").ravel().tolist()
    _write_rows(path, ["row", "col", "move"], zip(rows, cols, moves))


def read_path_plan_csv(path, origin: tuple[int, int]) -> PathPlan:
    """Plan tree from the writer's layout: the header `row,col,move`, then
    one `row,col,move` line per unit, row-major, the last line naming the
    grid's last unit. A move (U, D, L or R) enters the unit from its parent,
    which must lie on the grid; only the origin has the empty move; X marks
    an UNREACHABLE unit. Every parent chain must reach the origin, not an X
    unit or a cycle. A line that breaks a rule is a format error naming the
    file, the line and the first rule it breaks in the order checked; so is
    a file that ends early or runs long, naming both unit counts."""
    def bad(row: int, why: str) -> ValueError:
        return _bad_row("path plan", path, row, why)

    origin = (int(origin[0]), int(origin[1]))
    rows = _csv_rows(path)
    _check_header(rows, path, "path plan", ["row", "col", "move"])
    n, last = len(rows) - 1, rows[-1]
    if not n:
        raise bad(1, "no unit is listed")
    if len(last) != 3 or not all(re.fullmatch(r"0|[1-9][0-9]*", text) for text in last[:2]):
        raise bad(n, f"expected a non-negative integer row and col and a move, found {last!r}")
    s1, s2 = int(last[0]) + 1, int(last[1]) + 1
    if not (0 <= origin[0] < s1 and 0 <= origin[1] < s2):
        raise bad(n, f"the origin {origin} is off the {s1} x {s2} grid whose last unit "
                     "this line names")
    for i, fields in enumerate(rows[1:s1 * s2 + 1]):
        unit = divmod(i, s2)
        if fields[:2] != [str(unit[0]), str(unit[1])] or len(fields) != 3:
            raise bad(i + 1, f"expected row,col,move of unit {unit}, found {fields!r}")
        move = fields[2]
        if move not in MOVES and move not in ("", "X"):
            raise bad(i + 1, f"move {move!r} is not one of U, D, L, R, X or empty")
        if unit == origin and move != "":
            raise bad(i + 1, f"the origin {origin} needs the empty move, not {move!r}")
        if move == "" and unit != origin:
            raise bad(i + 1, f"unit {unit} has the empty move, which only the origin "
                             f"{origin} may have")
        if move in MOVES:
            up = (unit[0] - MOVES[move][0], unit[1] - MOVES[move][1])
            if not (0 <= up[0] < s1 and 0 <= up[1] < s2):
                raise bad(i + 1, f"move {move!r} enters unit {unit} from {up}, off the "
                                 f"{s1} x {s2} grid")
    if n != s1 * s2:
        raise bad(n, f"the file lists {n} units, but the {s1} x {s2} grid whose last "
                     f"unit this line names has {s1 * s2}")
    move = np.array([fields[2] for fields in rows[1:]]).reshape(s1, s2)
    step = np.zeros((2, s1, s2), dtype=np.intp)
    for name, (dr, dc) in MOVES.items():
        step[:, move == name] = [[dr], [dc]]
    pr, pc = np.indices((s1, s2)) - step
    parent = np.where(step.any(axis=0), pr * s2 + pc, -1)
    plan = PathPlan(origin=origin, parent=parent,
                    provenance=np.where(move == "X", None, "file").tolist())
    # every chain reaches the origin exactly when each unit follows its parent
    order = plan.order()
    rank = np.full(s1 * s2, s1 * s2)
    rank[order] = np.arange(order.size)
    late = order[1:][rank[parent.flat[order[1:]]] > rank[order[1:]]]
    if late.size:
        u = int(late.min())       # the first in line order
        up = int(parent.flat[u])
        why = (f"hangs under the unreachable unit {divmod(up, s2)}"
               if rank[up] == s1 * s2 else "runs into a cycle")
        raise bad(u + 1, f"the parent chain of unit {divmod(u, s2)} {why} "
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
    """One ratio per measurement index j, in the writer's layout: the header
    `j,ratio_real,ratio_imag`, then the k-th line holding j = k as the
    writer writes it and two parts float() parses. Anything else (0, a gap,
    a repeat) is a format error naming the file and line."""
    rows = _csv_rows(path)
    _check_header(rows, path, "reference library", ["j", "ratio_real", "ratio_imag"])
    ratios = {}
    for j, fields in enumerate(rows[1:], start=1):
        try:
            if len(fields) != 3 or fields[0] != str(j):
                raise ValueError
            ratios[j] = complex(float(fields[1]), float(fields[2]))
        except ValueError:
            raise _bad_row("reference library", path, j,
                           f"{fields!r} (expected j={j},<ratio_real>,<ratio_imag>)") from None
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
