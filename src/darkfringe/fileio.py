"""On-disk formats for every artifact the pipeline produces.

Images travel as binary PGM (P5): 16-bit big-endian for measurement frames,
8-bit for patterns and diagnostic stages. A measurement already is the
camera's 16-bit levels plus their scale (forward_model.quantize_16bit), so
the 16-bit writer writes the header, the scale in a '# scale=<float>'
comment and the levels straight from their memory, whatever the stride
between their rows, and the reader returns the file's levels and scale
without converting them. Everything tabular is plain CSV
with a fixed header; a path plan is one `row,col,move` line per unit. The
writers of 0/1 grids, edge ratios and path plans format whole columns (a 0/1
grid is one byte block), and the 0/1 grid, edge-ratio and path-plan readers
parse all rows first and check them as arrays, naming the first bad line.
Complex fields use a one-line ASCII header followed by row-major interleaved
(real, imag) little-endian float32. Readers decode text inside `_reading`, so bytes
that are not UTF-8 are a format error naming the file.
"""

from __future__ import annotations

import contextlib
import csv
import itertools
import os

import numpy as np

from .boundary_logic import EdgeRatios, InvalidBoundaryMaps
from .forward_model import LEVELS, ComplexField, IntensityImage, frame_strips, is_levels
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


# buffers per os.writev call: IOV_MAX on Linux and macOS
_IOV_MAX = 1024


def write_pgm16(path, img: IntensityImage) -> None:
    """16-bit P5 of a frame's levels, with its scale (level / intensity) in a
    '# scale=<float>' comment. A frame that is not 16-bit levels is refused:
    quantize it first.

    The levels are written from their own memory, whatever the stride
    between their rows (the readout's levels lie over the first half of
    each float32 row): row strip by row strip (:func:`frame_strips`, at most
    _IOV_MAX rows), each by os.writev of its rows. Only levels that are not
    big-endian words with contiguous rows are converted, a strip at a time.
    """
    values = img.values
    if not is_levels(values):
        raise ValueError(f"16-bit PGM {str(path)!r} needs 16-bit levels, not a "
                         f"{values.dtype} frame")
    height, width = values.shape
    rows = min(frame_strips(height, width)[1], _IOV_MAX)
    with open(path, "wb") as fh:
        fh.write(f"P5\n# scale={img.scale!r}\n{width} {height}\n65535\n".encode())
        fh.flush()
        for top in range(0, height, rows):
            strip = values[top:top + rows]
            if strip.dtype != LEVELS or strip.strides[1] != LEVELS.itemsize:
                strip = strip.astype(LEVELS)
            _writev_all(fh.fileno(), list(strip.view(np.uint8)))


def _writev_all(fd: int, buffers: list) -> None:
    """Write the 1D byte arrays `buffers` in order by os.writev, going on
    from where a short write stopped."""
    while buffers:
        written = os.writev(fd, buffers)
        done = 0
        while done < len(buffers) and written >= buffers[done].nbytes:
            written -= buffers[done].nbytes
            done += 1
        del buffers[:done]
        if buffers:
            buffers[0] = buffers[0][written:]


def _check_payload(fh, path, nbytes: int, kind: str) -> None:
    """A format error naming the file unless `nbytes` of pixel data follow."""
    found = os.fstat(fh.fileno()).st_size - fh.tell()
    if found < nbytes:
        raise ValueError(f"truncated {kind} file {str(path)!r}: expected "
                         f"{nbytes} data bytes, found {found}")


def _read_payload(fh, path, nbytes: int, kind: str) -> bytes:
    """Exactly `nbytes` of pixel data, or a format error naming the file; a
    header claiming more than the file holds allocates nothing."""
    _check_payload(fh, path, nbytes, kind)
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


def _pgm16_layout(path, height: int, width: int) -> tuple[int, float]:
    """The offset of the levels in a 16-bit PGM of a height x width frame,
    and its scale, checked as read_pgm16 checks the file, without reading
    the levels: a bad header or scale, another shape, or fewer data bytes
    than the frame's is a format error naming the file."""
    with _reading(path), open(path, "rb") as fh:
        found_width, found_height, meta = _read_pgm_header(fh, path, 65535)
        scale = _pgm_scale(meta, path)
        if (found_height, found_width) != (height, width):
            raise ValueError(f"PGM {str(path)!r} holds a {found_height} x {found_width} "
                             f"frame, expected {height} x {width}")
        _check_payload(fh, path, height * width * 2, "PGM")
        return fh.tell(), scale


def _read_band(fh, path, offset: int, band: np.ndarray) -> None:
    """Fill the C-contiguous `band` with the bytes of the open unbuffered
    file `fh` from `offset` on; a file that ends first (it shrank after
    _pgm16_layout checked it) is a format error naming it."""
    fh.seek(offset)
    if fh.readinto(band) != band.nbytes:
        raise ValueError(f"truncated PGM file {str(path)!r}: it ends before byte "
                         f"{offset + band.nbytes}")


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


# the flag of each text a 0/1 grid writes
_FLAGS = {"0": 0, "1": 1}


def _read_bool_rows(fh, path, lines_before: int = 0) -> np.ndarray:
    """A CSV grid of 0/1 rows of one length, or a format error naming the
    file (and the line of a bad value, `lines_before` header lines counted).

    All rows are parsed first and checked as arrays. A value other than the
    text 0 or 1 is read by int(), as " 1" or "+0" are; the error names the
    first bad row by the first rule it breaks: the first row's length, a
    value int() cannot read, a value other than 0 or 1.
    """
    rows, lines, unread = _read_rows(csv.reader(fh))
    n = len(rows)
    lengths = np.fromiter(map(len, rows), dtype=np.intp, count=n)
    texts = list(itertools.chain.from_iterable(rows))
    flags = np.fromiter(map(_FLAGS.get, texts, itertools.repeat(-1)), dtype=np.int8,
                        count=len(texts))
    for i in np.flatnonzero(flags < 0).tolist():
        with contextlib.suppress(ValueError):
            if (value := int(texts[i])) in (0, 1):
                flags[i] = value
    bad = lengths != lengths[:1]
    bad[np.repeat(np.arange(n), lengths)[flags < 0]] = True
    if bad.any():
        i = int(bad.argmax())
        if lengths[i] != lengths[0]:
            raise ValueError(f"ragged grid in {str(path)!r}: row {i + 1} has "
                             f"{lengths[i]} fields, row 1 has {lengths[0]}")
        line = lines_before + lines[i]
        try:
            list(map(int, rows[i]))
        except ValueError as exc:
            raise ValueError(f"bad grid value in {str(path)!r} line {line}: {exc}") from exc
        raise ValueError(f"bad grid value in {str(path)!r} line {line}: "
                         f"{rows[i]!r} (expected 0 or 1)")
    if unread:
        raise unread
    return flags.astype(bool).reshape(n, -1) if n else np.zeros(0, dtype=bool)


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
    with open(path, "wb") as fh:
        fh.write(_bool_grid_bytes(grid))


def read_bool_grid_csv(path) -> np.ndarray:
    with _reading(path), open(path, newline="", encoding="utf-8") as fh:
        return _read_bool_rows(fh, path)


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


def _read_rows(reader) -> tuple[list[list[str]], list[int], Exception | None]:
    """The rows a csv reader yields and the line each ends on, up to the first
    line that does not decode or split; that error is returned, to be raised
    only if no row before it is bad, as a reader checking row by row would."""
    rows, lines = [], []
    try:
        for fields in reader:
            rows.append(fields)
            lines.append(reader.line_num)
    except (UnicodeDecodeError, csv.Error) as exc:
        return rows, lines, exc
    return rows, lines, None


def _parsed(texts, cast) -> tuple[list, np.ndarray]:
    """`cast` of each text, and where it parsed; a text that does not parse,
    or a missing field (None), reads as 0."""
    try:
        return list(map(cast, texts)), np.ones(len(texts), dtype=bool)
    except (TypeError, ValueError):
        pass
    values, ok = [], []
    for text in texts:
        try:
            values.append(cast(text))
            ok.append(True)
        except (TypeError, ValueError):
            values.append(0)
            ok.append(False)
    return values, np.array(ok, dtype=bool)


def _ints(values: list) -> np.ndarray:
    """Python ints as an array, exactly: of object dtype when one exceeds int64."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


def _first_index(keys: list) -> np.ndarray:
    """For each key, the index of its first occurrence in `keys`."""
    first = dict(zip(reversed(keys), range(len(keys) - 1, -1, -1)))
    return np.fromiter(map(first.__getitem__, keys), dtype=np.intp, count=len(keys))


def _dict_row(header: list[str], fields: list[str]) -> dict:
    """A row as csv.DictReader maps it: fields beyond the header in a list
    under None, header names beyond the fields to None."""
    row = dict(zip(header, fields))
    if len(fields) > len(header):
        row[None] = fields[len(header):]
    for name in header[len(fields):]:
        row[name] = None
    return row


def read_edge_ratios_csv(path, s1: int, s2: int) -> EdgeRatios:
    """Edge ratios of an s1 x s2 grid. A row that does not parse, has extra
    fields, whose kind is not h or v, whose edge is off the grid or listed
    before, or whose valid flag is not 0 or 1 is a format error naming the
    file and line; so is a file that does not list every edge of the grid
    (as one of another grid does), naming the file and both edge counts.

    The header names the columns, in any order, and blank lines are skipped,
    as csv.DictReader reads them. All rows are parsed as columns and checked
    as arrays; the error names the first bad row and lists its fields.
    """
    grids = {"h": np.full((s1, s2 - 1), complex(np.nan, np.nan)),
             "v": np.full((s1 - 1, s2), complex(np.nan, np.nan))}
    with _reading(path):
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            rows, lines, unread = _read_rows(reader)
        lines = [line for fields, line in zip(rows, lines) if fields]
        rows = [fields for fields in rows if fields]
        n, width = len(rows), len(header)
        lengths = np.fromiter(map(len, rows), dtype=np.intp, count=n)
        padded = rows
        if (lengths != width).any():
            padded = [fields[:width] + [None] * (width - len(fields)) for fields in rows]
        columns = dict(zip(header, zip(*padded)))     # a repeated name: its last column
        column = {name: columns.get(name, (None,) * n) for name in _EDGE_RATIO_FIELDS}
        kinds = np.array(column["kind"], dtype=object)
        is_h = kinds == "h"
        (r, r_ok), (c, c_ok), (valid, valid_ok) = (_parsed(column[name], int)
                                                   for name in ("row", "col", "valid"))
        (re, re_ok), (im, im_ok) = (_parsed(column[name], float)
                                    for name in ("ratio_real", "ratio_imag"))
        r_arr, c_arr, valid_arr = _ints(r), _ints(c), _ints(valid)
        ok = ((lengths <= width) & (is_h | (kinds == "v"))
              & r_ok & c_ok & valid_ok & re_ok & im_ok
              & ((valid_arr == 0) | (valid_arr == 1))
              & (r_arr >= 0) & (r_arr < np.where(is_h, s1, s1 - 1))
              & (c_arr >= 0) & (c_arr < np.where(is_h, s2 - 1, s2))
              & (_first_index(list(zip(column["kind"], r, c))) == np.arange(n)))
        if not ok.all():
            i = int(np.argmin(ok))
            raise ValueError(f"bad edge ratio row in {str(path)!r} line {lines[i]}: "
                             f"{list(_dict_row(header, rows[i]).values())!r}")
        if unread:
            raise unread
    edges = s1 * (s2 - 1) + (s1 - 1) * s2
    if n != edges:
        raise ValueError(f"edge ratios file {str(path)!r} lists {n} edges, but a "
                         f"{s1} x {s2} grid has {edges}")
    value = np.empty(n, dtype=complex)
    value.real, value.imag = re, im
    for kind, rows_of_kind in (("h", is_h), ("v", ~is_h)):
        sel = rows_of_kind & (valid_arr == 1)
        grids[kind][r_arr[sel], c_arr[sel]] = value[sel]
    return EdgeRatios(horizontal=grids["h"], vertical=grids["v"])


def write_path_plan_csv(path, plan: PathPlan) -> None:
    """One `row,col,move` line per unit: the move that enters it from its
    parent, "" at the origin, X when unreachable."""
    rows, cols = np.indices(plan.shape).reshape(2, -1).tolist()
    moves = np.where(plan.reachable_mask(), plan.moves(), "X").ravel().tolist()
    _write_rows(path, ["row", "col", "move"], zip(rows, cols, moves))


def read_path_plan_csv(path, origin: tuple[int, int]) -> PathPlan:
    """Plan tree from a `row,col,move` CSV listing each unit of its grid once.

    A move (U, D, L or R) enters the unit from its parent, which must lie on
    the grid; only the origin has the empty move; X marks an UNREACHABLE
    unit. Every parent chain must reach the origin, not an X unit or a cycle.
    Anything else is a format error naming the file and line. All rows are
    parsed as columns and checked as arrays; a bad row is reported by the
    first of these rules, in the order listed, that it breaks.
    """
    def bad(line: int, why: str) -> ValueError:
        return ValueError(f"bad path plan {str(path)!r} line {line}: {why}")

    origin = (int(origin[0]), int(origin[1]))
    with _reading(path):
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            if header != ["row", "col", "move"]:
                raise bad(1, f"header {','.join(header)!r} is not 'row,col,move'")
            rows, lines, unread = _read_rows(reader)
        n = len(rows)
        three = np.fromiter(map(len, rows), dtype=np.intp, count=n) == 3
        if not three.all():
            rows = [fields if len(fields) == 3 else ["", "", ""] for fields in rows]
        rs, cs, moves = zip(*rows) if n else ((), (), ())
        (r, r_ok), (c, c_ok) = _parsed(rs, int), _parsed(cs, int)
        r_arr, c_arr, mv = _ints(r), _ints(c), np.array(moves, dtype=object)
        at_origin = (r_arr == origin[0]) & (c_arr == origin[1])
        empty, unreachable = mv == "", mv == "X"
        entering = {move: mv == move for move in MOVES}
        entered = np.logical_or.reduce(list(entering.values()))
        first = _first_index(list(zip(r, c)))
        fails = np.array([
            ~(three & r_ok & c_ok & (r_arr >= 0) & (c_arr >= 0)),
            ~(empty | unreachable | entered),
            at_origin & ~empty,
            empty & ~at_origin,
            first != np.arange(n),
        ])
        if fails.any():
            i = int(fails.any(axis=0).argmax())
            unit, move = (r[i], c[i]), moves[i]
            raise bad(lines[i], (
                "expected a non-negative integer row and col and a move",
                f"move {move!r} is not one of U, D, L, R, X or empty",
                f"the origin {origin} needs the empty move, not {move!r}",
                f"unit {unit} has the empty move, which only the origin {origin} may have",
                f"unit {unit} is listed twice, first on line {lines[first[i]]}",
            )[int(fails[:, i].argmax())])
        if unread:
            raise unread
    s1, s2 = 1 + max([origin[0], *r]), 1 + max([origin[1], *c])
    if n != s1 * s2:
        listed = set(zip(r, c))
        missing = next((rr, cc) for rr in range(s1) for cc in range(s2)
                       if (rr, cc) not in listed)
        raise bad(reader.line_num, f"unit {missing} of the {s1} x {s2} grid is not listed")
    # every unit is listed once, so the rows and cols fit the grid
    dr, dc = np.zeros(n, dtype=np.intp), np.zeros(n, dtype=np.intp)
    for move, step in MOVES.items():
        dr[entering[move]], dc[entering[move]] = step
    pr, pc = r_arr - dr, c_arr - dc
    off = entered & ~((pr >= 0) & (pr < s1) & (pc >= 0) & (pc < s2))
    if off.any():
        i = int(off.argmax())
        raise bad(lines[i], f"move {moves[i]!r} enters unit {(r[i], c[i])} from "
                            f"{(int(pr[i]), int(pc[i]))}, off the {s1} x {s2} grid")
    flat = r_arr * s2 + c_arr
    parent = np.full(s1 * s2, -1, dtype=np.intp)
    parent[flat[entered]] = (pr * s2 + pc)[entered]
    parent = parent.reshape(s1, s2)
    marked_x = np.zeros(s1 * s2, dtype=bool)
    marked_x[flat[unreachable]] = True
    line_of = np.empty(s1 * s2, dtype=np.intp)
    line_of[flat] = lines
    plan = PathPlan(origin=origin, parent=parent,
                    provenance=np.where(marked_x, None, "file").reshape(s1, s2).tolist())
    # every chain reaches the origin exactly when each unit follows its parent
    order = plan.order()
    rank = np.full(s1 * s2, s1 * s2)
    rank[order] = np.arange(order.size)
    late = order[1:][rank[parent.flat[order[1:]]] > rank[order[1:]]]
    if late.size:
        u = int(late[line_of[late].argmin()])
        up = int(parent.flat[u])
        why = (f"hangs under the unreachable unit {divmod(up, s2)}"
               if rank[up] == s1 * s2 else "runs into a cycle")
        raise bad(int(line_of[u]), f"the parent chain of unit {divmod(u, s2)} {why} "
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
