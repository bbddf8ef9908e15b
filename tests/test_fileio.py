import math
import tempfile
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import darkfringe.fileio as fio
from darkfringe.boundary_logic import EdgeRatios, InvalidBoundaryMaps
from darkfringe.forward_model import (LEVELS, STRIP_PIXELS, ComplexField, IntensityImage,
                                      quantize_16bit, simulate_measurement_2d)
from darkfringe.fringe_detect import FringeMaps
from darkfringe.path_search import (BlockingStats, plan_paths, plan_with_retry,
                                    random_invalid_maps)
from darkfringe.patterns import ReferenceLibrary

from conftest import (frame_cases, planner_cases, reference_read_bool_grid_csv,
                      reference_read_edge_ratios_csv, reference_read_fringe_maps_csv,
                      reference_read_path_plan_csv, reference_read_pgm16,
                      reference_write_bool_grid_csv, reference_write_edge_ratios_csv,
                      reference_write_fringe_maps_csv, reference_write_path_plan_csv,
                      reference_write_pgm16, strip_sizes)


def test_pgm16_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    img = IntensityImage(rng.random((20, 30)) * 1234.5)
    frame = quantize_16bit(IntensityImage(img.values.copy()))   # it consumes its frame
    path = tmp_path / "img.pgm"
    fio.write_pgm16(path, frame)
    back = fio.read_pgm16(path)
    # the file holds the levels and the scale as they are
    assert back.values.tobytes() == frame.values.tobytes()
    assert back.scale == frame.scale == 65535.0 / img.values.max()
    # 16-bit quantization bounds the round-trip error
    assert np.abs(back.values / back.scale - img.values).max() <= 1234.5 / 65535
    header = path.read_bytes()[:40]
    assert header.startswith(b"P5\n# scale=")


@settings(max_examples=60, deadline=None)
@given(frame_cases())
def test_pgm16_matches_full_frame_reference(case):
    # strip-wise quantization gives the file bytes of the whole-frame
    # expressions, and the levels read back divided by their scale are the
    # whole-frame reader's values (each readout consumes its own copy)
    obj, pattern, model, grid, noise, seed = case
    img = simulate_measurement_2d(obj, pattern, model, grid, noise, seed)
    with tempfile.TemporaryDirectory() as tmp:
        got, want = Path(tmp) / "got.pgm", Path(tmp) / "want.pgm"
        reference_write_pgm16(want, img)
        expected = reference_read_pgm16(want)
        for strips in strip_sizes():
            with strips:
                fio.write_pgm16(got, quantize_16bit(IntensityImage(img.values.copy(),
                                                                   img.scale)))
            assert got.read_bytes() == want.read_bytes()
            back = fio.read_pgm16(got)
            assert (back.values / back.scale).tobytes() == expected.values.tobytes()


def test_pgm16_zero_frame_matches_reference(tmp_path):
    img = IntensityImage(np.zeros((300, 7)))
    fio.write_pgm16(tmp_path / "got.pgm", quantize_16bit(IntensityImage(img.values.copy())))
    reference_write_pgm16(tmp_path / "want.pgm", img)
    assert (tmp_path / "got.pgm").read_bytes() == (tmp_path / "want.pgm").read_bytes()
    back = fio.read_pgm16(tmp_path / "got.pgm")
    assert back.scale == 1.0
    assert np.array_equal(back.values, img.values)


def test_write_pgm16_streams_in_strips(tmp_path):
    # a 1024 x 1024 frame is 16 strips; the readout allocates one float64
    # strip for each of its two threads (plus the worker thread's own
    # objects, about 10 KB), never levels (they are packed into the frame's
    # own memory) or a scaled or rounded frame, and the writer writes the
    # levels, the frame's first 2 MB, without copying them
    img = IntensityImage(np.random.default_rng(0).random((1024, 1024)))
    tracemalloc.start()
    try:
        frame = quantize_16bit(img)
        quantize_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fio.write_pgm16(tmp_path / "img.pgm", frame)
        write_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert quantize_peak <= 2 * 8 * STRIP_PIXELS + 16384
    assert write_peak <= 8 * STRIP_PIXELS // 8


def _pgm16_bytes(levels, scale):
    """A 16-bit PGM file of the levels, as one bytes object."""
    height, width = levels.shape
    return (f"P5\n# scale={scale!r}\n{width} {height}\n65535\n".encode()
            + levels.astype(">u2").tobytes())


def test_write_pgm16_writes_any_levels_layout_alike(tmp_path):
    # contiguous big-endian levels, the readout's levels over float32 rows,
    # native-endian words and levels whose rows are not contiguous all
    # write the bytes of the contiguous big-endian levels
    levels = np.random.default_rng(1).integers(0, 65536, (70, 33)).astype(LEVELS)
    over_rows = np.zeros((70, 33), dtype=np.float32).view(LEVELS)[:, :33]
    over_rows[:] = levels
    wide = np.zeros((70, 66), dtype=LEVELS)
    wide[:, ::2] = levels
    fio.write_pgm16(tmp_path / "want.pgm", IntensityImage(levels, 3.5))
    want = (tmp_path / "want.pgm").read_bytes()
    assert want == _pgm16_bytes(levels, 3.5)
    for strips in strip_sizes():
        for values in (over_rows, levels.astype("<u2"), wide[:, ::2]):
            with strips:
                fio.write_pgm16(tmp_path / "got.pgm", IntensityImage(values, 3.5))
            assert (tmp_path / "got.pgm").read_bytes() == want


def test_write_pgm16_rejects_a_float_frame(tmp_path):
    path = tmp_path / "frame.pgm"
    with pytest.raises(ValueError, match=r"frame\.pgm.*16-bit levels.*float64"):
        fio.write_pgm16(path, IntensityImage(np.ones((4, 4))))
    assert not path.exists()


@pytest.mark.parametrize("value", ["abc", "0", "inf", "-2", "nan", ""],
                         ids=["not-a-number", "zero", "inf", "negative", "nan", "empty"])
def test_pgm16_reader_rejects_a_bad_scale(tmp_path, value):
    path = tmp_path / "frame.pgm"
    path.write_bytes(f"P5\n# scale={value}\n2 1\n65535\n".encode() + bytes(4))
    with pytest.raises(ValueError, match=r"bad scale .* in PGM '.*frame\.pgm'"):
        fio.read_pgm16(path)


def test_pgm16_without_scale_reads_scale_one(tmp_path):
    path = tmp_path / "frame.pgm"
    path.write_bytes(b"P5\n2 1\n65535\n\x00\x01\x01\x00")
    back = fio.read_pgm16(path)
    assert back.scale == 1.0
    assert back.values.tolist() == [[1, 256]]


def test_pgm8_round_trip(tmp_path):
    grid = np.arange(256, dtype=int).reshape(16, 16)
    path = tmp_path / "pat.pgm"
    fio.write_pgm8(path, grid)
    assert np.array_equal(fio.read_pgm8(path), grid)
    with pytest.raises(ValueError):
        fio.write_pgm8(tmp_path / "bad.pgm", np.array([[300]]))


def test_sweep_csv_header(tmp_path):
    path = tmp_path / "sweep.csv"
    fio.write_sweep_csv(path, [(0.1, 2.0, 0.97)])
    lines = path.read_text().splitlines()
    assert lines[0] == "delta_phi,radius,relative_intensity"
    assert len(lines) == 2


def test_fringe_maps_csv_round_trip(tmp_path):
    maps = FringeMaps(row_map=np.array([[1, 0], [0, 1], [1, 1]], dtype=bool),
                      col_map=np.zeros((2, 3), dtype=bool), measurement_index=2)
    path = tmp_path / "rows.csv"
    fio.write_fringe_maps_csv(path, maps, "row")
    kind, j, grid = fio.read_fringe_maps_csv(path)
    assert (kind, j) == ("row", 2)
    assert np.array_equal(grid, maps.row_map)
    assert path.read_text().splitlines()[0] == "kind=row,j=2"


def test_invalid_maps_round_trip(tmp_path):
    inv = InvalidBoundaryMaps(matrix_a=np.array([[True, False], [False, True]]),
                              matrix_b=np.array([[False, True, False]]))
    fio.write_invalid_maps(tmp_path / "a.csv", tmp_path / "b.csv", inv)
    back = fio.read_invalid_maps(tmp_path / "a.csv", tmp_path / "b.csv")
    assert np.array_equal(back.matrix_a, inv.matrix_a)
    assert np.array_equal(back.matrix_b, inv.matrix_b)
    assert (tmp_path / "a.csv").read_text().splitlines()[0] == "1,0"


def test_edge_ratios_round_trip(tmp_path):
    h = np.array([[1j, complex(np.nan, np.nan)]])
    v = np.array([], dtype=complex).reshape(0, 3)
    ratios = EdgeRatios(horizontal=h, vertical=v)
    path = tmp_path / "ratios.csv"
    fio.write_edge_ratios_csv(path, ratios)
    lines = path.read_text().splitlines()
    assert lines[0] == "kind,row,col,ratio_real,ratio_imag,valid"
    back = fio.read_edge_ratios_csv(path, 1, 3)
    assert back.horizontal[0, 0] == 1j
    assert np.isnan(back.horizontal[0, 1])


def test_path_plan_round_trip(tmp_path):
    inv = InvalidBoundaryMaps(np.zeros((3, 2), bool), np.zeros((2, 3), bool))
    plan = plan_paths(inv, (0, 0))
    path = tmp_path / "plan.csv"
    fio.write_path_plan_csv(path, plan)
    lines = path.read_text().splitlines()
    assert lines[0] == "row,col,move"
    back = fio.read_path_plan_csv(path, origin=(0, 0))
    assert back.paths == plan.paths


def test_path_plan_unreachable_marker(tmp_path):
    plan = plan_paths(InvalidBoundaryMaps(np.ones((1, 1), bool),
                                          np.zeros((0, 2), bool)), (0, 0))
    assert plan.paths[0][1] is None
    path = tmp_path / "plan.csv"
    fio.write_path_plan_csv(path, plan)
    assert "X" in path.read_text()
    back = fio.read_path_plan_csv(path, origin=(0, 0))
    assert back.paths[0][1] is None


def _assert_plan_round_trip(plan, path):
    """The file reads back to the same tree, and writing that writes the same bytes."""
    fio.write_path_plan_csv(path, plan)
    data = path.read_bytes()
    back = fio.read_path_plan_csv(path, plan.origin)
    assert np.array_equal(back.parent, plan.parent)
    assert np.array_equal(back.reachable_mask(), plan.reachable_mask())
    assert back.paths == plan.paths
    fio.write_path_plan_csv(path, back)
    assert path.read_bytes() == data


@settings(max_examples=150, deadline=None)
@given(planner_cases())
def test_path_plan_csv_round_trip_property(case):
    inv, origins = case
    with tempfile.TemporaryDirectory() as tmp:
        for plan in [plan_with_retry(inv, origins)] + [plan_paths(inv, o) for o in origins]:
            _assert_plan_round_trip(plan, Path(tmp) / "plan.csv")


def _pocket(s1, s2, r, c):
    """A grid with three invalid edges around (r, c); only its right edge stays valid."""
    inv = InvalidBoundaryMaps(np.zeros((s1, s2 - 1), bool), np.zeros((s1 - 1, s2), bool))
    inv.matrix_a[r, c - 1] = inv.matrix_b[r - 1, c] = inv.matrix_b[r, c] = True
    return inv


@pytest.mark.parametrize("inv, origins, labels", [
    (_pocket(6, 6, 2, 2), [(0, 0)], {"transpose"}),
    (random_invalid_maps(1, 12, 0.2, np.random.default_rng(1)), [(0, 5)], set()),
    (random_invalid_maps(12, 1, 0.2, np.random.default_rng(1)), [(5, 0)], set()),
    (random_invalid_maps(12, 12, 0.3, np.random.default_rng(3)), [(0, 0), (11, 11)],
     {"transpose", "origin2", "origin2+transpose"}),
], ids=["transpose-graft", "one-row", "one-column", "extra-origin-graft"])
def test_path_plan_round_trip_grafts_and_thin_grids(tmp_path, inv, origins, labels):
    plan = plan_with_retry(inv, origins)
    assert labels <= {p for row in plan.provenance for p in row}
    assert plan.reachable_mask().sum() > 1
    _assert_plan_round_trip(plan, tmp_path / "plan.csv")


PLAN_2X2 = {(0, 0): "", (0, 1): "R", (1, 0): "D", (1, 1): "R"}


def _plan_csv(tmp_path, cells=PLAN_2X2, header="row,col,move", extra=""):
    """A plan CSV of `cells` ({(row, col): move}), then the `extra` lines."""
    path = tmp_path / "plan.csv"
    path.write_text(header + "\n" + "".join(
        f"{r},{c},{mv}\n" for (r, c), mv in cells.items()) + extra)
    return path


def test_path_plan_reader_builds_tree(tmp_path):
    plan = fio.read_path_plan_csv(_plan_csv(tmp_path), origin=(0, 0))
    assert plan.parent.tolist() == [[-1, 0], [0, 2]]
    assert plan.moves().tolist() == [["", "R"], ["D", "R"]]
    assert plan.paths == [["", "R"], ["D", "DR"]]


def _without(cell):
    return {k: v for k, v in PLAN_2X2.items() if k != cell}


@pytest.mark.parametrize("changed, match", [
    (dict(cells={**PLAN_2X2, (1, 1): "Q"}),
     r"line 5: move 'Q' is not one of U, D, L, R, X or empty"),
    (dict(cells={**PLAN_2X2, (0, 1): ""}),
     r"line 3: unit \(0, 1\) has the empty move, which only the origin"),
    (dict(cells={**PLAN_2X2, (0, 0): "R"}),
     r"line 2: the origin \(0, 0\) needs the empty move, not 'R'"),
    (dict(cells={**PLAN_2X2, (1, 1): "U"}),
     r"line 5: move 'U' enters unit \(1, 1\) from \(2, 1\), off the 2 x 2 grid"),
    # a path that ends elsewhere or passes a unit by another path cannot be
    # written with one move per unit; a chain that misses the origin can
    (dict(cells={**PLAN_2X2, (0, 1): "U", (1, 1): "D"}),
     r"line 3: the parent chain of unit \(0, 1\) runs into a cycle instead of reaching "
     r"the origin"),
    (dict(cells={**PLAN_2X2, (1, 0): "X"}),
     r"line 5: the parent chain of unit \(1, 1\) hangs under the unreachable unit "
     r"\(1, 0\) instead of reaching the origin \(0, 0\)"),
    (dict(cells={**PLAN_2X2, (0, 0): "X"}),
     r"line 2: the origin \(0, 0\) needs the empty move, not 'X'"),
    (dict(cells={**PLAN_2X2, (1, 1): "RD"}),
     r"line 5: move 'RD' is not one of U, D, L, R, X or empty"),
    # the last line names the grid's last unit: a unit listed again after it
    # makes the file run long, and a missing unit puts the next one on its line
    pytest.param(dict(extra="1,1,D\n"), r"line 6: the file lists 5 units, but the 2 x 2 grid "
                 r"whose last unit this line names has 4", id="listed-twice"),
    (dict(header="row,col,moves"), r"line 1: header 'row,col,moves' is not 'row,col,move'"),
    pytest.param(dict(cells=_without((1, 1))), r"line 3: expected row,col,move of unit "
                 r"\(1, 0\), found \['0', '1', 'R'\]", id="last-unit-not-listed"),
    pytest.param(dict(cells=_without((0, 0))), r"line 2: expected row,col,move of unit "
                 r"\(0, 0\), found \['0', '1', 'R'\]", id="origin-not-listed"),
    (dict(extra="-1,0,X\n"), r"line 6: expected a non-negative integer row and col"),
    (dict(extra="2,0\n"), r"line 6: expected a non-negative integer row and col"),
    pytest.param(dict(cells={(0, 0): "", (1, 0): "D", (0, 1): "R", (1, 1): "R"}),
                 r"line 3: expected row,col,move of unit \(0, 1\), found \['1', '0', 'D'\]",
                 id="out-of-order"),
])
def test_path_plan_reader_rejects_malformed(tmp_path, changed, match):
    with pytest.raises(ValueError, match=r"plan\.csv.* " + match):
        fio.read_path_plan_csv(_plan_csv(tmp_path, **changed), origin=(0, 0))


def _within(seconds, fn, *args):
    """fn(*args) on a daemon thread: its exception, None if it returned,
    and a test failure if it has not returned within `seconds`."""
    outcome = []

    def run():
        try:
            fn(*args)
            outcome.append(None)
        except Exception as exc:   # handed to the test, which judges it
            outcome.append(exc)

    worker = threading.Thread(target=run, daemon=True)
    worker.start()
    worker.join(seconds)
    assert not worker.is_alive(), f"{fn.__name__}{args!r} did not return in {seconds} s"
    return outcome[0]


def test_path_plan_reader_rejects_a_six_cycle(tmp_path):
    # the top 2 x 3 block of a 3 x 3 grid is one cycle under the origin row;
    # pointer jumping over it never reaches a root
    cells = {(0, 0): "U", (0, 1): "R", (0, 2): "R", (1, 0): "L", (1, 1): "L",
             (1, 2): "D", (2, 0): "", (2, 1): "R", (2, 2): "R"}
    exc = _within(10, fio.read_path_plan_csv, _plan_csv(tmp_path, cells), (2, 0))
    assert isinstance(exc, ValueError)
    assert "plan.csv' line 2: the parent chain of unit (0, 0) runs into a cycle" in str(exc)


def test_fringe_maps_csv_ragged_names_file(tmp_path):
    path = tmp_path / "fringes_row_j1.csv"
    path.write_text("kind=row,j=1\n1,0\n1\n")
    with pytest.raises(ValueError, match=r"fringes_row_j1\.csv.*row 2 has 1 fields"):
        fio.read_fringe_maps_csv(path)


@pytest.mark.parametrize("header", ["kind=row;j=1", "j=1", "kind=row,j=x", "kind=diag,j=1",
                                    "kind=row,j=+1"])
def test_fringe_maps_csv_bad_header_names_file(tmp_path, header):
    path = tmp_path / "fringes_row_j1.csv"
    path.write_text(header + "\n1,0\n")
    with pytest.raises(ValueError, match=r"fringe map .*fringes_row_j1\.csv"):
        fio.read_fringe_maps_csv(path)


def test_bool_grid_csv_ragged_names_file(tmp_path):
    path = tmp_path / "matrix_a.csv"
    path.write_text("1,0,0\n0,1\n")
    with pytest.raises(ValueError, match=r"matrix_a\.csv.*row 2 has 2 fields, row 1 has 3"):
        fio.read_bool_grid_csv(path)


@pytest.mark.parametrize("text, line", [
    ("1,2\n-5,0\n", 1),
    ("1,0\n0,-1\n", 2),
    ("0,1\n1,0\n0,7\n", 3),
    # texts int() reads as 0 or 1, which the writer never writes
    ("0, 1\n1,0\n", 1),
    ("0,1\n+0,1\n", 2),
    ("0_0,1\n", 1),
], ids=["two", "minus-one", "seven", "space-one", "plus-zero", "zero-underscore-zero"])
def test_bool_grid_csv_rejects_values_other_than_0_and_1(tmp_path, text, line):
    path = tmp_path / "matrix_a.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=rf"matrix_a\.csv' line {line}: .*expected 0 or 1"):
        fio.read_bool_grid_csv(path)


def test_fringe_maps_csv_rejects_values_other_than_0_and_1(tmp_path):
    path = tmp_path / "fringes_row_j1.csv"
    path.write_text("kind=row,j=1\n1,0\n0,2\n")
    with pytest.raises(ValueError, match=r"fringes_row_j1\.csv' line 3: .*expected 0 or 1"):
        fio.read_fringe_maps_csv(path)


def test_blocking_stats_csv(tmp_path):
    stats = [BlockingStats(sigma=0.1, trials=500,
                           single_pass_block_rate=0.01, retry_block_rate=0.001)]
    path = tmp_path / "blocking.csv"
    fio.write_blocking_stats_csv(path, stats)
    lines = path.read_text().splitlines()
    assert lines[0] == "sigma,trials,single_pass_rate,retry_rate"
    assert lines[1] == "0.1,500,0.01,0.001"


def test_reference_library_round_trip(tmp_path):
    lib = ReferenceLibrary({1: -1j, 2: 1j, 3: -1 + 0j, 4: 1 + 0j})
    path = tmp_path / "lib.csv"
    fio.write_reference_library_csv(path, lib)
    assert path.read_text().splitlines()[0] == "j,ratio_real,ratio_imag"
    back = fio.read_reference_library_csv(path)
    assert back.ratios == lib.ratios


def test_metrics_csv(tmp_path):
    path = tmp_path / "metrics.csv"
    fio.write_metrics_csv(path, 0.0, 0.01, 0.0)
    lines = path.read_text().splitlines()
    assert lines[0] == "phase_rmse,complex_l2,unknown_frac"


def test_complex_field_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    field = ComplexField(rng.normal(size=(4, 5)) + 1j * rng.normal(size=(4, 5)))
    path = tmp_path / "field.cf32"
    fio.write_complex_field(path, field)
    with open(path, "rb") as fh:
        assert fh.readline() == b"CF32 4 5\n"
    back = fio.read_complex_field(path)
    assert back.shape == (4, 5)
    assert np.allclose(back.values, field.values, atol=1e-6)


def test_complex_field_rejects_garbage(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOPE 1 1\n\x00\x00\x00\x00\x00\x00\x00\x00")
    with pytest.raises(ValueError):
        fio.read_complex_field(path)


def test_pgm_rejects_wrong_magic(tmp_path):
    path = tmp_path / "junk.pgm"
    path.write_bytes(b"P2\n1 1\n255\n0")
    with pytest.raises(ValueError):
        fio.read_pgm8(path)


def _truncate(path, nbytes):
    data = path.read_bytes()
    path.write_bytes(data[:-nbytes])


def test_pgm16_truncated_names_file(tmp_path):
    path = tmp_path / "frame.pgm"
    fio.write_pgm16(path, quantize_16bit(IntensityImage(np.ones((8, 8)))))
    _truncate(path, 69)
    with pytest.raises(ValueError, match=r"frame\.pgm.*expected 128 data bytes, found 59"):
        fio.read_pgm16(path)


def test_pgm16_bands_read_as_the_reader_reads(tmp_path):
    # the amplitudes' band reads: the layout's offset and scale, then any
    # band of rows read into a caller's buffer, are the reader's levels
    path = tmp_path / "frame.pgm"
    frame = quantize_16bit(IntensityImage(np.random.default_rng(4).random((9, 6))))
    fio.write_pgm16(path, frame)
    offset, scale = fio._pgm16_layout(path, 9, 6)
    assert scale == fio.read_pgm16(path).scale == frame.scale
    band = np.empty((3, 6), dtype=frame.values.dtype)
    with open(path, "rb", buffering=0) as fh:
        for top in (0, 4, 6):
            fio._read_band(fh, path, offset + top * 6 * 2, band)
            assert band.tobytes() == frame.values[top:top + 3].tobytes()
        # a file that ends before the band does (it shrank after its check)
        with pytest.raises(ValueError, match=r"frame\.pgm.*ends before byte"):
            fio._read_band(fh, path, offset + 7 * 6 * 2, band)
    with pytest.raises(ValueError, match=r"frame\.pgm' holds a 9 x 6 frame, expected 9 x 7"):
        fio._pgm16_layout(path, 9, 7)
    _truncate(path, 1)
    with pytest.raises(ValueError, match=r"frame\.pgm.*expected 108 data bytes, found 107"):
        fio._pgm16_layout(path, 9, 6)


def test_pgm8_truncated_names_file(tmp_path):
    path = tmp_path / "pattern.pgm"
    fio.write_pgm8(path, np.zeros((8, 8), dtype=int))
    _truncate(path, 5)
    with pytest.raises(ValueError, match=r"pattern\.pgm.*expected 64 data bytes, found 59"):
        fio.read_pgm8(path)


def test_complex_field_truncated_names_file(tmp_path):
    path = tmp_path / "object.cf32"
    fio.write_complex_field(path, ComplexField(np.ones((3, 4), complex)))
    _truncate(path, 10)
    with pytest.raises(ValueError, match=r"object\.cf32.*expected 96 data bytes, found 86"):
        fio.read_complex_field(path)


EDGE_RATIOS_HEADER = "kind,row,col,ratio_real,ratio_imag,valid\n"


@pytest.mark.parametrize("row", [
    "h,-1,0,1.0,0.0,1",          # a negative row would index from the end
    "h,0,2,1.0,0.0,1",           # horizontal grid of a 2 x 3 grid is 2 x 2
    "v,1,0,1.0,0.0,1",           # vertical grid is 1 x 3
    "x,0,0,1.0,0.0,1",           # neither h nor v
    "h,0,0,1.0",                 # short row
    "h,zero,0,1.0,0.0,1",
    "h,0,0,one,0.0,1",
    "h,0,0,1.0,0.0,2",
    "h,+0,1,1.0,0.0,1",          # int() reads +0, but the writer writes 0
    "",                          # a blank line
    "h,1,0,1.0,0.0,1",           # the edge after the next one
], ids=["negative-row", "col-off-grid", "row-off-grid", "kind", "short",
        "row-not-int", "ratio-not-float", "valid-not-0-1", "plus-zero-row", "blank-line",
        "out-of-order"])
def test_edge_ratios_reader_rejects_malformed(tmp_path, row):
    path = tmp_path / "ratios.csv"
    path.write_text(EDGE_RATIOS_HEADER + "h,0,0,1.0,0.0,1\n" + row + "\n")
    with pytest.raises(ValueError, match=r"ratios\.csv' line 3"):
        fio.read_edge_ratios_csv(path, 2, 3)


@pytest.mark.parametrize("row", [
    "h,0,0,-1.0,0.0,1",          # the first row's edge again
    "h,0,0,-1.0,0.0,0",          # again, flagged invalid
    "h,0,1,-1.0,0.0,1,extra",    # one field too many
], ids=["repeated-edge", "repeated-invalid-edge", "extra-field"])
def test_edge_ratios_reader_rejects_repeats_and_extra_fields(tmp_path, row):
    path = tmp_path / "ratios.csv"
    path.write_text(EDGE_RATIOS_HEADER + "h,0,0,1.0,0.0,1\n" + row + "\n")
    with pytest.raises(ValueError, match=r"ratios\.csv' line 3"):
        fio.read_edge_ratios_csv(path, 2, 3)


# a 4 x 4 run's file read at another grid fails at its first line that is
# not that grid's writer's; a file whose lines all are fails on the counts
OTHER_GRID_LINE = {
    # the 4 x 3 horizontal grid ends where a 5 x 3 one goes on
    (5, 4): r"line 14: \['v', '0', '0', '1\.0', '0\.0', '1'\] \(expected h,4,0,",
    # a row of 3 horizontal edges where a 4 x 5 grid has 4
    (4, 5): r"line 5: \['h', '1', '0', '1\.0', '0\.0', '1'\] \(expected h,0,3,",
}


@pytest.mark.parametrize("s1, s2, dropped, found, expected", [
    (5, 4, 0, 24, 31),           # a 4 x 4 run's file read at 5 x 4
    (4, 5, 0, 24, 31),
    (4, 4, 1, 23, 24),           # its own grid, the last edge's line missing
])
def test_edge_ratios_reader_rejects_a_file_that_lacks_an_edge(tmp_path, s1, s2, dropped,
                                                              found, expected):
    path = tmp_path / "ratios.csv"
    fio.write_edge_ratios_csv(path, EdgeRatios(horizontal=np.ones((4, 3), complex),
                                               vertical=np.ones((3, 4), complex)))
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:len(lines) - dropped]))
    why = OTHER_GRID_LINE.get((s1, s2), rf"lists {found} edges, but a {s1} x {s2} grid "
                                        rf"has {expected}")
    with pytest.raises(ValueError, match=r"ratios\.csv' " + why):
        fio.read_edge_ratios_csv(path, s1, s2)


@pytest.mark.parametrize("row", ["2,1.0", "two,1.0,0.0", "1,-1.0,0.0", "0,-1.0,0.0",
                                 "3,-1.0,0.0", "", "2,-1.0,0.0,x"],
                         ids=["short", "j-not-int", "repeated-j", "j-zero", "j-gap",
                              "blank-line", "extra-field"])
def test_reference_library_reader_rejects_malformed(tmp_path, row):
    path = tmp_path / "lib.csv"
    path.write_text("j,ratio_real,ratio_imag\n1,0.0,1.0\n" + row + "\n")
    with pytest.raises(ValueError, match=r"lib\.csv' line 3"):
        fio.read_reference_library_csv(path)


# header layouts no writer writes, and a row index int() reads, each of
# which the readers used to accept
@pytest.mark.parametrize("reader, content, why", [
    (lambda path: fio.read_edge_ratios_csv(path, 1, 2),
     b"row,kind,col,ratio_imag,ratio_real,valid\r\n0,h,0,0.0,1.0,1\r\n",
     r"line 1: header 'row,kind,col,ratio_imag,ratio_real,valid' is not 'kind,row,col,"),
    (lambda path: fio.read_edge_ratios_csv(path, 1, 2),
     EDGE_RATIOS_HEADER.encode()[:-1] + b",note\r\nh,0,0,1.0,0.0,1,x\r\n",
     r"line 1: header '.*,valid,note' is not "),
    (lambda path: fio.read_path_plan_csv(path, (0, 0)),
     b"row,col,move\r\n+0,0,\r\n0,1,R\r\n",
     r"line 2: expected row,col,move of unit \(0, 0\), found \['\+0', '0', ''\]"),
    (fio.read_reference_library_csv, b"j,ratio_imag,ratio_real\r\n1,1.0,0.0\r\n",
     r"line 1: header 'j,ratio_imag,ratio_real' is not 'j,ratio_real,ratio_imag'"),
], ids=["edges-reordered-columns", "edges-extra-column", "plan-plus-zero-row",
        "library-reordered-header"])
def test_csv_readers_accept_only_the_writers_layout(tmp_path, reader, content, why):
    path = tmp_path / "odd.csv"
    path.write_bytes(content)
    with pytest.raises(ValueError, match=r"odd\.csv'.* " + why):
        reader(path)


@pytest.mark.parametrize("reader, data", [
    (fio.read_pgm8, b"P2\n1 1\n255\n\x00"),
    (fio.read_pgm8, b"P5\n1 1\n"),
    (fio.read_pgm8, b"P5\nx 1\n255\n\x00"),
    (fio.read_pgm16, b"P5\n1 1\n255\n\x00"),
    (fio.read_pgm16, b"P5\n-1 -2\n65535\n" + bytes(4)),
    (fio.read_pgm16, b"P5\n0 3\n65535\n"),
    (fio.read_pgm8, b"P5\n100000 100000\n255\n\x00"),
    (fio.read_complex_field, b"NOPE 1 1\n" + bytes(8)),
    (fio.read_complex_field, b"CF32 a 1\n" + bytes(8)),
    (fio.read_complex_field, b"CF32 0 1\n"),
    (fio.read_complex_field, b"CF32 1 1\n" + np.array([np.nan, 0], "<f4").tobytes()),
], ids=["pgm-magic", "pgm-truncated-header", "pgm-bad-size", "pgm16-maxval",
        "pgm-negative-size", "pgm-zero-size", "pgm-claims-more-than-the-file",
        "cf32-magic", "cf32-bad-size", "cf32-empty", "cf32-not-finite"])
def test_header_errors_name_the_file(tmp_path, reader, data):
    path = tmp_path / "broken.bin"
    path.write_bytes(data)
    with pytest.raises(ValueError, match=r"broken\.bin"):
        reader(path)


# -- every reader, on undecodable and arbitrary bytes: it parses the file or
# raises a ValueError that names it


def _seed_files() -> dict:
    """Reader name -> (call on a path, valid file contents to mutate)."""
    with tempfile.TemporaryDirectory() as tmp:
        def written(writer, *args) -> bytes:
            path = Path(tmp) / "seed"
            writer(path, *args)
            return path.read_bytes()

        maps = FringeMaps(row_map=np.array([[1, 0], [0, 1]], dtype=bool),
                          col_map=np.array([[0, 1, 1]], dtype=bool), measurement_index=2)
        ratios = EdgeRatios(horizontal=np.array([[1j, complex(np.nan, np.nan)], [-1, 1]]),
                            vertical=np.array([[1j, -1j, 1]]))
        plan = plan_paths(InvalidBoundaryMaps(np.array([[False, True], [False, False]]),
                                              np.array([[False, True, False]])), (0, 0))
        frame = quantize_16bit(IntensityImage(np.arange(12.0).reshape(3, 4)))
        plan_text = written(fio.write_path_plan_csv, plan)
        header = b"row,col,move\r\n"
        return {
            "read_pgm16": (fio.read_pgm16, [written(fio.write_pgm16, frame)]),
            "read_pgm8": (fio.read_pgm8, [written(fio.write_pgm8, np.arange(6).reshape(2, 3))]),
            "read_fringe_maps_csv": (fio.read_fringe_maps_csv,
                                     [written(fio.write_fringe_maps_csv, maps, "row")]),
            "read_bool_grid_csv": (fio.read_bool_grid_csv,
                                   [written(fio.write_bool_grid_csv, maps.col_map)]),
            "read_edge_ratios_csv": (lambda path: fio.read_edge_ratios_csv(path, 2, 3),
                                     [written(fio.write_edge_ratios_csv, ratios)]),
            "read_path_plan_csv": (lambda path: fio.read_path_plan_csv(path, (0, 0)), [
                plan_text,
                # a cycle (0, 1) <-> (1, 1), and a unit under an X unit
                header + b"0,0,\r\n0,1,U\r\n1,0,D\r\n1,1,D\r\n",
                header + b"0,0,\r\n0,1,X\r\n1,0,D\r\n1,1,U\r\n",
                # the top 2 x 3 block one cycle, rooted at (2, 0) but read from (0, 0)
                header + b"0,0,U\r\n0,1,R\r\n0,2,R\r\n1,0,L\r\n1,1,L\r\n1,2,D\r\n"
                         b"2,0,\r\n2,1,R\r\n2,2,R\r\n"]),
            "read_reference_library_csv": (fio.read_reference_library_csv, [
                written(fio.write_reference_library_csv,
                        ReferenceLibrary({1: -1j, 2: 1j, 3: -1 + 0j}))]),
            "read_complex_field": (fio.read_complex_field, [
                written(fio.write_complex_field, ComplexField(np.ones((2, 3)) * (1 + 2j)))]),
        }


SEED_FILES = _seed_files()


@pytest.mark.parametrize("name", sorted(SEED_FILES))
def test_readers_name_the_file_on_undecodable_bytes(tmp_path, name):
    read, seeds = SEED_FILES[name]
    data = seeds[0]
    if data.startswith(b"P5"):    # a PGM: an undecodable comment line
        data = b"P5\n# \xff\n" + data[3:]
    else:                         # a header that is not UTF-8
        data = data[:1] + b"\xff" + data[1:]
    path = tmp_path / "undecodable.file"
    path.write_bytes(data)
    with pytest.raises(ValueError, match=r"undecodable\.file"):
        read(path)


def test_pgm_comment_that_is_not_utf8_names_the_file(tmp_path):
    path = tmp_path / "frame.pgm"
    path.write_bytes(b"P5\n# \xff\n1 1\n65535\n\0\0")
    with pytest.raises(ValueError, match=r"unreadable text in '.*frame\.pgm'"):
        fio.read_pgm16(path)


@st.composite
def mutated(draw, data: bytes) -> bytes:
    """`data` with 1-4 bytes spans replaced, inserted or deleted."""
    data = bytearray(data)
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(data)))
        chunk = draw(st.binary(min_size=1, max_size=4) | st.sampled_from(
            [b",", b"\r\n", b"-", b"9", b"0", b"\xff", b"X", b"U", b"L", b"#", b" "]))
        how = draw(st.sampled_from(["replace", "insert", "delete"]))
        if how == "insert":
            data[i:i] = chunk
        elif how == "replace":
            data[i:i + len(chunk)] = chunk
        else:
            del data[i:i + len(chunk)]
    return bytes(data)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_readers_parse_or_name_the_file(data):
    name = data.draw(st.sampled_from(sorted(SEED_FILES)), label="reader")
    read, seeds = SEED_FILES[name]
    content = data.draw(st.binary(max_size=120) | st.sampled_from(seeds).flatmap(mutated),
                        label="content")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzzed.file"
        path.write_bytes(content)
        exc = _within(10, read, path)
    if exc is not None:
        assert type(exc) is ValueError and str(path) in str(exc), repr(exc)


# -- the array writers and readers against the element-at-a-time references
# in conftest: the same bytes, the same grids and plans, the same errors

FLOAT_PARTS = st.sampled_from([0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e300, -1e300,
                               0.1 + 0.2, 1 / 3, math.inf, -math.inf, math.nan]) | st.floats()


@st.composite
def csv_artifacts(draw):
    """Edge ratios with NaN, signed-zero, subnormal, huge and 17-digit parts
    (some NaN in one part only), fringe maps and 0/1 grids of the same grid,
    and plans with X units from every drawn origin; 1-6 x 1-6 units."""
    s1, s2 = draw(st.integers(1, 6)), draw(st.integers(1, 6))

    def ratios(shape):
        parts = draw(st.lists(st.tuples(FLOAT_PARTS, FLOAT_PARTS),
                              min_size=shape[0] * shape[1], max_size=shape[0] * shape[1]))
        return np.array([complex(a, b) for a, b in parts], dtype=complex).reshape(shape)

    def flags(shape):
        return np.array(draw(st.lists(st.booleans(), min_size=shape[0] * shape[1],
                                      max_size=shape[0] * shape[1])), dtype=bool).reshape(shape)

    edges = EdgeRatios(horizontal=ratios((s1, s2 - 1)), vertical=ratios((s1 - 1, s2)))
    maps = FringeMaps(row_map=flags((s1, s2 - 1)), col_map=flags((s1 - 1, s2)),
                      measurement_index=draw(st.integers(1, 12)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    invalid = random_invalid_maps(s1, s2, draw(st.sampled_from([0.0, 0.2, 0.5])), rng)
    origins = draw(st.lists(st.tuples(st.integers(0, s1 - 1), st.integers(0, s2 - 1)),
                            min_size=1, max_size=3))
    plans = [plan_with_retry(invalid, origins)] + [plan_paths(invalid, o) for o in origins]
    return (s1, s2), edges, maps, invalid, plans


def _explicit_csv_artifacts(s1, s2, origin):
    """A csv_artifacts case whose edge ratios cycle through one-NaN-part,
    signed-zero, subnormal, +-1e300 and 17-digit values, with X units."""
    parts = [complex(np.nan, 1.0), complex(-0.0, 5e-324), complex(1e300, -1e300),
             complex(0.1 + 0.2, 1 / 3), complex(1.0, np.nan)]
    cycle = np.resize(np.array(parts), 2 * s1 * s2)
    edges = EdgeRatios(horizontal=cycle[:s1 * (s2 - 1)].reshape(s1, s2 - 1),
                       vertical=cycle[s1 * s2:s1 * s2 + (s1 - 1) * s2].reshape(s1 - 1, s2))
    invalid = InvalidBoundaryMaps(np.arange(s1 * (s2 - 1)).reshape(s1, s2 - 1) % 3 == 1,
                                  np.zeros((s1 - 1, s2), bool))
    maps = FringeMaps(row_map=invalid.matrix_a, col_map=~invalid.matrix_b, measurement_index=3)
    return (s1, s2), edges, maps, invalid, [plan_paths(invalid, origin)]


def _read_outcome(read, path):
    """What a reader makes of a file: its error, or its grids or plan as bytes."""
    try:
        got = read(path)
    except Exception as exc:   # compared with the reference's, whatever it is
        return type(exc), str(exc)
    if isinstance(got, EdgeRatios):
        return got.horizontal.shape, got.horizontal.tobytes(), got.vertical.tobytes()
    if isinstance(got, np.ndarray):
        return got.dtype, got.shape, got.tobytes()
    if isinstance(got, tuple):
        kind, j, grid = got
        return kind, j, grid.dtype, grid.shape, grid.tobytes()
    return got.origin, got.parent.shape, got.parent.tobytes(), got.provenance


@settings(max_examples=150, deadline=None)
@given(csv_artifacts())
@example(_explicit_csv_artifacts(1, 1, (0, 0)))
@example(_explicit_csv_artifacts(1, 7, (0, 4)))
@example(_explicit_csv_artifacts(3, 4, (2, 1)))
def test_csv_writers_and_readers_match_the_references(case):
    (s1, s2), edges, maps, invalid, plans = case
    with tempfile.TemporaryDirectory() as tmp:
        got, want = Path(tmp) / "got.csv", Path(tmp) / "want.csv"
        writes = [(fio.write_edge_ratios_csv, reference_write_edge_ratios_csv, (edges,)),
                  (fio.write_bool_grid_csv, reference_write_bool_grid_csv, (invalid.matrix_a,)),
                  (fio.write_bool_grid_csv, reference_write_bool_grid_csv, (invalid.matrix_b,))]
        writes += [(fio.write_fringe_maps_csv, reference_write_fringe_maps_csv, (maps, kind))
                   for kind in ("row", "col")]
        writes += [(fio.write_path_plan_csv, reference_write_path_plan_csv, (plan,))
                   for plan in plans]
        for write, reference_write, args in writes:
            write(got, *args)
            reference_write(want, *args)
            assert got.read_bytes() == want.read_bytes(), write.__name__
        # both readers read the files back alike, and without an error
        reads = [(fio.write_edge_ratios_csv, (edges,),
                  lambda p: fio.read_edge_ratios_csv(p, s1, s2),
                  lambda p: reference_read_edge_ratios_csv(p, s1, s2))]
        reads += [(fio.write_path_plan_csv, (plan,),
                   lambda p, o=plan.origin: fio.read_path_plan_csv(p, o),
                   lambda p, o=plan.origin: reference_read_path_plan_csv(p, o)) for plan in plans]
        reads += [(fio.write_fringe_maps_csv, (maps, kind), fio.read_fringe_maps_csv,
                   reference_read_fringe_maps_csv) for kind in ("row", "col")]
        reads += [(fio.write_bool_grid_csv, (grid,), fio.read_bool_grid_csv,
                   reference_read_bool_grid_csv) for grid in (invalid.matrix_a, invalid.matrix_b)]
        for write, args, read, reference_read in reads:
            write(got, *args)
            outcome = _read_outcome(read, got)
            assert outcome == _read_outcome(reference_read, got)
            assert not isinstance(outcome[0], type), outcome

EQUIVALENCE_READERS = {
    "edge_ratios": (lambda p: fio.read_edge_ratios_csv(p, 2, 3),
                    lambda p: reference_read_edge_ratios_csv(p, 2, 3)),
    "path_plan": (lambda p: fio.read_path_plan_csv(p, (0, 0)),
                  lambda p: reference_read_path_plan_csv(p, (0, 0))),
    "fringe_maps": (fio.read_fringe_maps_csv, reference_read_fringe_maps_csv),
    "bool_grid": (fio.read_bool_grid_csv, reference_read_bool_grid_csv),
}


@settings(max_examples=800, deadline=None)
@given(st.data())
def test_csv_readers_fail_like_the_references(data):
    # on any mutation of a valid file, both read the same result or raise
    # the same error, message included
    name = data.draw(st.sampled_from(sorted(EQUIVALENCE_READERS)), label="reader")
    seeds = SEED_FILES[f"read_{name}_csv"][1]
    content = data.draw(st.sampled_from(seeds).flatmap(mutated), label="content")
    read, reference_read = EQUIVALENCE_READERS[name]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzzed.csv"
        path.write_bytes(content)
        assert _read_outcome(read, path) == _read_outcome(reference_read, path)


EDGE_ROW = b"h,0,0,1.0,0.0,1\r\n"
PLAN_ROWS = b"0,0,\r\n0,1,R\r\n1,0,D\r\n1,1,R\r\n"


@pytest.mark.parametrize("name, content", [
    ("edge_ratios", b""),
    ("edge_ratios", EDGE_RATIOS_HEADER.encode()),
    ("edge_ratios", EDGE_RATIOS_HEADER.encode() + b"\r\n\r\n" + EDGE_ROW + b"\n\nh,0,1,x,0,1\n"),
    ("edge_ratios", b"row,kind,col,ratio_imag,ratio_real,valid\r\n0,h,1,2.0,1.0,1\r\n"),
    ("edge_ratios", b"kind,row,col,ratio_real,ratio_imag,valid,note\r\nh,0,0,1.0,0.0,1\r\n"
                    b"v,0,2,-1.0,0.0,1,x\r\nh,1,1,1.0,0.0,0,x,y\r\n"),
    ("edge_ratios", b"kind,row,row,col,ratio_real,ratio_imag,valid\r\nh,x,1,0,1.0,0.0,1\r\n"
                    b"h,1,x,0,1.0,0.0,1\r\n"),
    ("edge_ratios", b"kind,row,col,ratio_real,valid\r\nh,0,0,1.0,1\r\n"),
    ("edge_ratios", b"\r\nh,0,0,1.0,0.0,1\r\n"),
    ("edge_ratios", EDGE_RATIOS_HEADER.encode() + b"h,99999999999999999999,0,1,0,1\r\n"),
    ("edge_ratios", EDGE_RATIOS_HEADER.encode() + b"h, 1,+0,1_0.5,-0,1\r\n"
                    b"v,0,\xd9\xa3,nan,inf,0\r\n"),
    ("edge_ratios", EDGE_RATIOS_HEADER.encode() + b'h,0,0,"1.0\n",0.0,1\r\nh,0,0,1,0,1\r\n'),
    ("edge_ratios", EDGE_RATIOS_HEADER.encode() + b"h,0,0,x,0,1\r\n" + EDGE_ROW * 900 + b"\xff"),
    ("edge_ratios", EDGE_RATIOS_HEADER.encode() + EDGE_ROW + b"\xff" * 9000 + b"h,0,0,x,0,1\r\n"),
    ("edge_ratios", EDGE_RATIOS_HEADER.encode() + EDGE_ROW + b"\r\n" * 5000 + b"\xff"),
    ("path_plan", b"row,col,move\r\n"),
    ("path_plan", b"row,col,move\r\n" + PLAN_ROWS + b"99999999999999999999,0,R\r\n"),
    ("path_plan", b"row,col,move\r\n" + PLAN_ROWS + b"99999999999999999999,0,R\r\n" * 2),
    ("path_plan", b"row,col,move\r\n" + PLAN_ROWS[:-8] + b"\r\n1,1,R\r\n"),
    ("path_plan", b"row,col,move\r\n" + PLAN_ROWS[:-8] + b'1,1,"R\nX"\r\n'),
    ("path_plan", b"row,col,move\r\n" + PLAN_ROWS[:-8] + b"1,1,R\x00\r\n"),
    ("path_plan", b"row,col,move\r\n0,0,\r\n0,1,R,\r\n1,0,D\r\n1,1\r\n"),
    ("path_plan", b"row,col,move\r\n0,0,\r\n0,1,X\r\n1,0,D\r\n1,1,U\r\n0,1,X\r\n"),
    ("path_plan", b"row,col,move\r\n+0,0,\r\n0, 1,R\r\n\xd9\xa1,0,D\r\n1,1_0,R\r\n"),
    ("path_plan", b"row,col,move\r\n0,0,R\r\n" + PLAN_ROWS * 600 + b"\xff"),
    ("path_plan", b"row,col,move\r\n" + PLAN_ROWS + b"\xff" * 9000 + b"0,0,R\r\n"),
    ("path_plan", b"row,col,move\r\n0,0,\r\n0," + b" " * 9000 + b"1,R\r\n\xff"),
    ("bool_grid", b""),
    ("bool_grid", b"\r\n\r\n"),
    ("bool_grid", b"0,1\r\n\r\n1,0\r\n"),
    ("bool_grid", b" 1,+0,01,0_0\r\n\xd9\xa1,1\t,-0,1\r\n"),
    ("bool_grid", b"0,1\r\n1,2\r\n"),
    ("bool_grid", b"0,1\r\n1,x\r\n0\r\n"),
    ("bool_grid", b"0,1\r\n1\r\n0,x\r\n"),
    ("bool_grid", b"0,1\r\n1,99999999999999999999\r\n"),
    ("bool_grid", b"1,0\r\n0," + b"1" * 5000 + b"\r\n"),
    ("bool_grid", b'0,"1\n"\r\n1,"0\r\n"\r\n1,y\r\n'),
    ("bool_grid", b"0,1\x00\r\n1,0\r\n"),
    ("bool_grid", b"0,1\r\n" * 3000 + b"\xff"),
    ("bool_grid", b"0,1\r\n1,9\r\n" + b"0,1\r\n" * 3000 + b"\xff"),
    ("fringe_maps", b"kind=row,j=2\n0,1\r\n1, 1\r\n"),
    ("fringe_maps", b"kind=col,j=1\n0,1\r\n1,0,1\r\n"),
    ("fringe_maps", b"kind=col,j=1\n0,1\r\n\r\nx,0\r\n"),
    ("fringe_maps", b"kind=col,j=1\n0,1\r\n1,0\r\nx,0\r\n"),
    ("fringe_maps", b"kind=row,j=3\n"),
], ids=lambda v: "" if isinstance(v, bytes) else v)
def test_csv_readers_read_odd_files_like_the_references(tmp_path, name, content):
    # blank lines, reordered, extra and repeated header names, a short
    # header, huge ints, what int() and float() accept, a line inside quotes,
    # a NUL, and bytes that do not decode before or after a bad row or
    # after more than a decoder's chunk of good ones
    path = tmp_path / "odd.csv"
    path.write_bytes(content)
    read, reference_read = EQUIVALENCE_READERS[name]
    assert _read_outcome(read, path) == _read_outcome(reference_read, path)
