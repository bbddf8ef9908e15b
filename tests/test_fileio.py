import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

import darkfringe.fileio as fio
from darkfringe.boundary_logic import EdgeRatios, InvalidBoundaryMaps
from darkfringe.forward_model import (STRIP_PIXELS, ComplexField, IntensityImage,
                                      quantize_16bit, simulate_measurement_2d)
from darkfringe.fringe_detect import FringeMaps
from darkfringe.path_search import BlockingStats, plan_paths
from darkfringe.patterns import ReferenceLibrary

from conftest import (frame_cases, reference_read_pgm16, reference_write_pgm16,
                      strip_sizes)


def test_pgm16_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    img = IntensityImage(rng.random((20, 30)) * 1234.5, pixels_per_unit=10)
    frame = quantize_16bit(img)
    path = tmp_path / "img.pgm"
    fio.write_pgm16(path, frame)
    back = fio.read_pgm16(path, pixels_per_unit=10)
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
    # whole-frame reader's values
    obj, pattern, model, cfg, seed = case
    img = simulate_measurement_2d(obj, pattern, model, cfg, seed)
    with tempfile.TemporaryDirectory() as tmp:
        got, want = Path(tmp) / "got.pgm", Path(tmp) / "want.pgm"
        reference_write_pgm16(want, img)
        expected = reference_read_pgm16(want, pixels_per_unit=cfg.pixels_per_unit)
        for strips in strip_sizes():
            with strips:
                fio.write_pgm16(got, quantize_16bit(img))
            assert got.read_bytes() == want.read_bytes()
            back = fio.read_pgm16(got, pixels_per_unit=cfg.pixels_per_unit)
            assert (back.values / back.scale).tobytes() == expected.values.tobytes()


def test_pgm16_zero_frame_matches_reference(tmp_path):
    img = IntensityImage(np.zeros((300, 7)), pixels_per_unit=4)
    fio.write_pgm16(tmp_path / "got.pgm", quantize_16bit(img))
    reference_write_pgm16(tmp_path / "want.pgm", img)
    assert (tmp_path / "got.pgm").read_bytes() == (tmp_path / "want.pgm").read_bytes()
    back = fio.read_pgm16(tmp_path / "got.pgm")
    assert back.scale == 1.0
    assert np.array_equal(back.values, img.values)


def test_write_pgm16_streams_in_strips(tmp_path):
    # a 1024 x 1024 frame is 16 strips; the readout allocates the 2 B/px
    # levels and one float64 strip, never a scaled or rounded frame, and the
    # writer writes the levels without copying them
    img = IntensityImage(np.random.default_rng(0).random((1024, 1024)), 64)
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
    assert quantize_peak <= 2 * img.values.size + 8 * STRIP_PIXELS + 4096
    assert write_peak <= 8 * STRIP_PIXELS // 8


def test_write_pgm16_rejects_a_float_frame(tmp_path):
    path = tmp_path / "frame.pgm"
    with pytest.raises(ValueError, match=r"frame\.pgm.*16-bit levels.*float64"):
        fio.write_pgm16(path, IntensityImage(np.ones((4, 4)), pixels_per_unit=4))
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
    assert lines[0] == "row,col,moves"
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


def _plan_csv(tmp_path, **changed):
    """A 2 x 2 plan CSV from origin (0, 0); `u<r><c>=moves` replaces a cell."""
    cells = {"u00": "", "u01": "R", "u10": "D", "u11": "RD", **changed}
    path = tmp_path / "plan.csv"
    path.write_text("row,col,moves\n" + "".join(
        f"{key[1]},{key[2]},{moves}\n" for key, moves in cells.items()))
    return path


def test_path_plan_reader_builds_tree(tmp_path):
    plan = fio.read_path_plan_csv(_plan_csv(tmp_path, u11="DR"), origin=(0, 0))
    assert plan.parent.tolist() == [[-1, 0], [0, 2]]
    assert plan.move == [["", "R"], ["D", "R"]]
    assert plan.paths == [["", "R"], ["D", "DR"]]


@pytest.mark.parametrize("changed, match", [
    (dict(u11="RQ"), r"line 5: move 'Q' is not one of UDLR"),
    (dict(u01=""), r"line 3: unit \(0, 1\) has the empty path, which only the origin"),
    (dict(u00="RL"), r"line 2: the origin \(0, 0\) needs the empty path, not 'RL'"),
    (dict(u11="RDD"), r"line 5: path for \(1, 1\) leaves the grid at \(2, 1\)"),
    (dict(u11="R"), r"line 5: path for \(1, 1\) ends at \(0, 1\)"),
    (dict(u11="RLRD"), r"line 5: path for \(1, 1\) passes \(0, 1\) by 'RLR'"),
    (dict(u00="X"), r"line 2: the origin \(0, 0\) needs the empty path, not 'X'"),
])
def test_path_plan_reader_rejects_malformed(tmp_path, changed, match):
    with pytest.raises(ValueError, match=r"plan\.csv.* " + match):
        fio.read_path_plan_csv(_plan_csv(tmp_path, **changed), origin=(0, 0))


def test_fringe_maps_csv_ragged_names_file(tmp_path):
    path = tmp_path / "fringes_row_j1.csv"
    path.write_text("kind=row,j=1\n1,0\n1\n")
    with pytest.raises(ValueError, match=r"fringes_row_j1\.csv.*row 2 has 1 fields"):
        fio.read_fringe_maps_csv(path)


@pytest.mark.parametrize("header", ["kind=row;j=1", "j=1", "kind=row,j=x", "kind=diag,j=1"])
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
    fio.write_pgm16(path, quantize_16bit(IntensityImage(np.ones((8, 8)), pixels_per_unit=4)))
    _truncate(path, 69)
    with pytest.raises(ValueError, match=r"frame\.pgm.*expected 128 data bytes, found 59"):
        fio.read_pgm16(path)


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
], ids=["negative-row", "col-off-grid", "row-off-grid", "kind", "short",
        "row-not-int", "ratio-not-float", "valid-not-0-1"])
def test_edge_ratios_reader_rejects_malformed(tmp_path, row):
    path = tmp_path / "ratios.csv"
    path.write_text(EDGE_RATIOS_HEADER + "h,0,0,1.0,0.0,1\n" + row + "\n")
    with pytest.raises(ValueError, match=r"ratios\.csv' line 3"):
        fio.read_edge_ratios_csv(path, 2, 3)


@pytest.mark.parametrize("row", ["2,1.0", "two,1.0,0.0", "1,-1.0,0.0"],
                         ids=["short", "j-not-int", "repeated-j"])
def test_reference_library_reader_rejects_malformed(tmp_path, row):
    path = tmp_path / "lib.csv"
    path.write_text("j,ratio_real,ratio_imag\n1,0.0,1.0\n" + row + "\n")
    with pytest.raises(ValueError, match=r"lib\.csv' line 3"):
        fio.read_reference_library_csv(path)


@pytest.mark.parametrize("reader, data", [
    (fio.read_pgm8, b"P2\n1 1\n255\n\x00"),
    (fio.read_pgm8, b"P5\n1 1\n"),
    (fio.read_pgm8, b"P5\nx 1\n255\n\x00"),
    (fio.read_pgm16, b"P5\n1 1\n255\n\x00"),
    (fio.read_complex_field, b"NOPE 1 1\n" + bytes(8)),
    (fio.read_complex_field, b"CF32 a 1\n" + bytes(8)),
], ids=["pgm-magic", "pgm-truncated-header", "pgm-bad-size", "pgm16-maxval",
        "cf32-magic", "cf32-bad-size"])
def test_header_errors_name_the_file(tmp_path, reader, data):
    path = tmp_path / "broken.bin"
    path.write_bytes(data)
    with pytest.raises(ValueError, match=r"broken\.bin"):
        reader(path)
