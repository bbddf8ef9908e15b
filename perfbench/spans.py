"""Per-layer spans recorded from outside the package.

`Tracer.install` replaces each public layer function listed in LAYER_FUNCTIONS
with a wrapper, in its defining module and in every other darkfringe module
(and the package namespace) that imported it by name, so calls through
`pipeline`, `reconstruct`, `path_search`, `fileio` and `cli` are all seen.
Spans nest: a span's self time is its duration minus the time its child spans
cover. Counters are read only from what the wrapped functions return (or, for
file IO, the size on disk of the files named by their path parameters), after
the span's clock has stopped; that reading time is kept apart as `count_s`.

The tracing overhead of an operation is what the tracer itself adds:
installing and removing the wrappers (`install_s`), reading counters
(`count_s`) and each span's bookkeeping (`spans` times `wrapper_cost()`).

A name listed here that the package no longer defines is reported as a
missing span, never as a zero.
"""

from __future__ import annotations

import functools
import inspect
import os
import statistics
import sys
import time
import tracemalloc
from dataclasses import dataclass, field

import numpy as np

FILEIO_FUNCTIONS = (
    "write_pgm16", "read_pgm16", "write_pgm8", "read_pgm8",
    "write_sweep_csv", "write_fringe_maps_csv", "read_fringe_maps_csv",
    "write_bool_grid_csv", "read_bool_grid_csv", "write_invalid_maps",
    "read_invalid_maps", "write_edge_ratios_csv", "read_edge_ratios_csv",
    "write_path_plan_csv", "read_path_plan_csv", "write_blocking_stats_csv",
    "write_reference_library_csv", "read_reference_library_csv",
    "write_metrics_csv", "write_complex_field", "read_complex_field",
)

# layer (= defining module) -> public functions that get a span
LAYER_FUNCTIONS = {
    "forward_model": ("simulate_measurement_2d",),
    "fringe_detect": ("recognize_fringes",),
    "boundary_logic": ("mark_invalid_and_ratios",),
    "path_search": ("plan_paths", "plan_with_retry"),
    "reconstruct": ("retrieve_phase", "accumulate_phase", "estimate_amplitude",
                    "compose_and_score"),
    "fileio": FILEIO_FUNCTIONS,
    "pipeline": ("run_pipeline",),
    "cli": ("main",),
}

LAYERS = tuple(LAYER_FUNCTIONS)

# per-layer time metrics: metric -> the functions whose self time it sums
TIME_METRICS = {
    "forward_model.simulate_s": ("forward_model.simulate_measurement_2d",),
    "fringe_detect.recognize_s": ("fringe_detect.recognize_fringes",),
    "boundary_logic.fuse_s": ("boundary_logic.mark_invalid_and_ratios",),
    "path_search.plan_s": ("path_search.plan_paths", "path_search.plan_with_retry"),
    "reconstruct.retrieve_self_s": ("reconstruct.retrieve_phase",),
    "reconstruct.accumulate_s": ("reconstruct.accumulate_phase",),
    "reconstruct.amplitude_s": ("reconstruct.estimate_amplitude",),
    "reconstruct.score_s": ("reconstruct.compose_and_score",),
    "fileio.write_s": tuple(f"fileio.{n}" for n in FILEIO_FUNCTIONS if n.startswith("write")),
    "fileio.read_s": tuple(f"fileio.{n}" for n in FILEIO_FUNCTIONS if n.startswith("read")),
    "pipeline.self_s": ("pipeline.run_pipeline",),
    "cli.self_s": ("cli.main",),
}

COUNT_METRICS = (
    "forward_model.mpix", "fringe_detect.boundaries", "fringe_detect.zero_flank",
    "fringe_detect.tp", "fringe_detect.fp", "fringe_detect.fn",
    "boundary_logic.invalid_edges", "path_search.plan_with_retry_calls",
    "path_search.plan_paths_calls", "path_search.moves_stored",
    "path_search.unreachable_units", "path_search.transpose_units",
    "reconstruct.moves_walked", "fileio.bytes_written", "fileio.bytes_read",
    "fileio.files_written",
)

# detection decisions against true presence, folded into fringe_detect.f1
TRUTH_COUNTS = ("fringe_detect.tp", "fringe_detect.fp", "fringe_detect.fn")

ROOT = "bench.op"


@dataclass
class Span:
    name: str
    layer: str
    start: float
    children_s: float = 0.0
    end: float = 0.0
    after: float = 0.0         # end plus the time spent reading counters
    mem_base: int = 0
    mem_peak: int = 0

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.children_s


@dataclass
class OpTrace:
    """Everything recorded during one traced operation."""

    self_s: dict = field(default_factory=dict)           # function -> seconds
    counts: dict = field(default_factory=lambda: dict.fromkeys(COUNT_METRICS, 0))
    alloc_peak: dict = field(default_factory=dict)       # layer -> bytes
    written: set = field(default_factory=set)
    read: set = field(default_factory=set)
    count_s: float = 0.0
    install_s: float = 0.0
    spans: int = 0


def _paths(signature: inspect.Signature, args, kwargs) -> list[str]:
    """The values of a file function's path parameters (`path`, `path_a`, ...)."""
    bound = signature.bind(*args, **kwargs).arguments
    return [os.fspath(v) for k, v in bound.items() if k.startswith("path")]


def _plan_cells(plan):
    return [p for row in plan.paths for p in row]


class Tracer:
    """Span recorder; active only between `start_op` and `end_op`."""

    def __init__(self, truth_maps: dict | None = None):
        self.truth_maps = truth_maps or {}
        self.missing: list[str] = []
        self.originals: list[tuple[object, str, object]] = []
        self.stack: list[Span] = []
        self.op: OpTrace | None = None

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        import darkfringe
        self.missing = []
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "darkfringe" or name.startswith("darkfringe."))]
        for layer, names in LAYER_FUNCTIONS.items():
            home = sys.modules.get(f"darkfringe.{layer}") or getattr(darkfringe, layer, None)
            for fname in names:
                original = getattr(home, fname, None) if home is not None else None
                if not callable(original):
                    self.missing.append(f"{layer}.{fname}")
                    continue
                wrapper = self._wrap(layer, fname, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self.originals.append((module, attr, original))
                            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self.originals):
            setattr(module, attr, original)
        self.originals.clear()

    # -- spans --------------------------------------------------------------

    def _enter(self, name: str, layer: str) -> Span:
        span = Span(name, layer, 0.0)
        if tracemalloc.is_tracing():
            current, peak = tracemalloc.get_traced_memory()
            if self.stack:
                parent = self.stack[-1]
                parent.mem_peak = max(parent.mem_peak, peak)
            tracemalloc.reset_peak()
            span.mem_base = span.mem_peak = current
        self.stack.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.after = time.perf_counter()
        op = self.op
        self.stack.pop()
        op.spans += 1
        op.self_s[span.name] = op.self_s.get(span.name, 0.0) + span.self_s
        op.count_s += span.after - span.end
        if tracemalloc.is_tracing():
            span.mem_peak = max(span.mem_peak, tracemalloc.get_traced_memory()[1])
            grown = span.mem_peak - span.mem_base
            op.alloc_peak[span.layer] = max(op.alloc_peak.get(span.layer, 0), grown)
        if self.stack:
            parent = self.stack[-1]
            parent.children_s += span.after - span.start
            parent.mem_peak = max(parent.mem_peak, span.mem_peak)

    def _wrap(self, layer: str, fname: str, original):
        name = f"{layer}.{fname}"
        count = getattr(self, f"_count_{fname}", None)
        if layer == "fileio":
            count = functools.partial(self._count_fileio, inspect.signature(original))

        def wrapper(*args, **kwargs):
            if self.op is None:
                return original(*args, **kwargs)
            span = self._enter(name, layer)
            try:
                result = original(*args, **kwargs)
                span.end = time.perf_counter()
                if count is not None:
                    count(fname, args, kwargs, result)
            finally:
                span.end = span.end or time.perf_counter()
                self._close(span)
            return result

        wrapper.__wrapped__ = original
        wrapper.__name__ = fname
        return wrapper

    def start_op(self) -> None:
        self.op = OpTrace()
        self._root = self._enter(ROOT, "bench")

    def end_op(self) -> OpTrace:
        self._root.end = time.perf_counter()
        self._close(self._root)
        op, self.op = self.op, None
        start = time.perf_counter()
        op.counts["fileio.files_written"] = len(op.written)
        op.counts["fileio.bytes_written"] = sum(os.path.getsize(p) for p in op.written
                                                if os.path.isfile(p))
        op.counts["fileio.bytes_read"] = sum(os.path.getsize(p) for p in op.read
                                             if os.path.isfile(p))
        op.count_s += time.perf_counter() - start
        return op

    # -- counters, from return values only -----------------------------------

    def _count_fileio(self, signature, fname, args, kwargs, result):
        if self.stack[-2].layer == "fileio":
            return   # nested reader/writer: the outer call already names the files
        target = self.op.written if fname.startswith("write") else self.op.read
        target.update(os.path.abspath(p) for p in _paths(signature, args, kwargs))

    def _count_simulate_measurement_2d(self, fname, args, kwargs, image):
        self.op.counts["forward_model.mpix"] += image.values.size / 1e6

    def _count_recognize_fringes(self, fname, args, kwargs, maps):
        c = self.op.counts
        c["fringe_detect.boundaries"] += maps.row_map.size + maps.col_map.size
        c["fringe_detect.zero_flank"] += sum(int(np.sum(v)) for k, v in
                                             maps.diagnostics.items()
                                             if k.startswith("zero_flank"))
        truth = self.truth_maps.get(maps.measurement_index)
        if truth is None:
            return
        for got, want in ((maps.row_map, truth.row_map), (maps.col_map, truth.col_map)):
            c["fringe_detect.tp"] += int((got & want).sum())
            c["fringe_detect.fp"] += int((got & ~want).sum())
            c["fringe_detect.fn"] += int((~got & want).sum())

    def _count_mark_invalid_and_ratios(self, fname, args, kwargs, result):
        invalid, _ = result
        self.op.counts["boundary_logic.invalid_edges"] += int(
            invalid.matrix_a.sum() + invalid.matrix_b.sum())

    def _count_plan_paths(self, fname, args, kwargs, plan):
        self.op.counts["path_search.plan_paths_calls"] += 1

    def _count_plan_with_retry(self, fname, args, kwargs, plan):
        c = self.op.counts
        cells = _plan_cells(plan)
        c["path_search.plan_with_retry_calls"] += 1
        c["path_search.moves_stored"] += sum(len(p) for p in cells if p is not None)
        c["path_search.unreachable_units"] += sum(p is None for p in cells)
        c["path_search.transpose_units"] += sum(
            1 for row in plan.provenance for label in row
            if label is not None and "transpose" in label)

    def _count_accumulate_phase(self, fname, args, kwargs, phase):
        self.op.counts["reconstruct.moves_walked"] += sum(
            len(p) for p in _plan_cells(args[0]) if p is not None)


def wrapper_cost(calls: int = 2000, repeats: int = 5) -> float:
    """Seconds one span adds to a call: a wrapped no-op against the bare no-op,
    median of `repeats` rounds of `calls` calls each."""
    def noop():
        return None

    tracer = Tracer()
    wrapped = tracer._wrap("bench", "noop", noop)
    costs = []
    tracer.start_op()
    try:
        for _ in range(repeats):
            start = time.perf_counter()
            for _ in range(calls):
                wrapped()
            middle = time.perf_counter()
            for _ in range(calls):
                noop()
            costs.append((middle - start) - (time.perf_counter() - middle))
    finally:
        tracer.end_op()
    return max(0.0, statistics.median(costs) / calls)
