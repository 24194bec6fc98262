"""Layer timing from outside the program.

A ``Tracer`` swaps the module attributes through which ``perfchar.cli``
reaches each layer for timing wrappers, and puts the originals back on exit.
Spans nest: a span's self time is its duration minus the time of the spans
opened inside it. Spans are folded into per-name totals as they close, since
one run makes hundreds of thousands of calls (``energy_metrics`` per row).
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

#: (span name, module, attribute). Missing attributes are skipped, so a
#: refactor of the program leaves the benchmark running with that span at 0.
TARGETS = (
    ("ingest.parse_runs", "perfchar.cli", "parse_runs"),
    ("ingest.aggregate", "perfchar.cli", "aggregate"),
    ("ingest.aggregate", "perfchar.metrics", "aggregate"),
    ("ingest.flag_outliers", "perfchar.ingest", "flag_outliers"),
    ("ingest.parse_pairwise", "perfchar.cli", "parse_pairwise_bandwidth"),
    ("ingest.build_pairwise_matrix", "perfchar.ingest", "build_pairwise_matrix"),
    ("ingest.detect_weak_links", "perfchar.cli", "detect_weak_links"),
    ("metrics.energy_metrics", "perfchar.cli", "energy_metrics"),
    ("metrics.compare_platforms", "perfchar.cli", "compare_platforms"),
    ("scalefit.fit_amdahl", "perfchar.cli", "fit_amdahl"),
    ("scalefit.fit_gustafson", "perfchar.cli", "fit_gustafson"),
    ("scalefit.fit_mpi_shares", "perfchar.cli", "fit_mpi_shares"),
    ("scalefit.critical_units", "perfchar.cli", "critical_units"),
    ("scalefit.project", "perfchar.cli", "project"),
    ("report.emit_plot_data", "perfchar.cli", "emit_plot_data"),
    ("report.sidecar", "perfchar.cli", "write_sidecar_metadata"),
    ("roofline.classify", "perfchar.cli", "classify"),
    ("roofline.curve", "perfchar.cli", "roofline_curve"),
    ("microbench.triad", "perfchar.cli", "run_stream_triad"),
    ("microbench.fma", "perfchar.cli", "run_fma_kernel"),
)


class Tracer:
    """Per-name span totals and counters for one round of operations."""

    def __init__(self):
        self._open: list[list[float]] = []  # child time accumulated per open span
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)
        self.samples = defaultdict(list)

    def wrap(self, name, fn):
        before, after = _HOOKS.get(name, (None, None))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args = before(self, args)
            children = [0.0]
            self._open.append(children)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                self._open.pop()
                if self._open:
                    self._open[-1][0] += elapsed
                self.total[name] += elapsed
                self.self_time[name] += elapsed - children[0]
                self.calls[name] += 1
            if after is not None:
                after(self, result)
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Replace every target attribute by its wrapper; restore on exit."""
        saved = []
        try:
            for name, module_name, attr in TARGETS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr, None)
                if original is None:
                    continue
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def _count_rows(tracer, result):
    tracer.counts["parse_runs_rows"] += len(result)


def _count_pairwise(tracer, args):
    entries = list(args[0])
    tracer.counts["pairwise_rows"] += len(entries)
    return (entries, *args[1:])


def _count_emit(tracer, args):
    rows = list(args[0])
    tracer.counts["emit_rows"] += len(rows)
    return (rows, *args[1:])


def _count_bytes(tracer, path):
    tracer.counts["bytes_written"] += path.stat().st_size


def _triad_result(tracer, result):
    tracer.samples["triad_median_gbs"].append(statistics.median(result.per_repetition))


def _fma_result(tracer, result):
    tracer.samples[f"fma_{result.precision}_gflops"].append(result.gflops)


_HOOKS = {
    "ingest.parse_runs": (None, _count_rows),
    "ingest.build_pairwise_matrix": (_count_pairwise, None),
    "report.emit_plot_data": (_count_emit, _count_bytes),
    "microbench.triad": (None, _triad_result),
    "microbench.fma": (None, _fma_result),
}

#: Per-layer metric name -> unit, in the order they are reported.
PER_LAYER_UNITS = {
    "cli.self_s": "s",
    "cli.stdout_bytes": "bytes",
    "ingest.parse_runs_s": "s",
    "ingest.parse_runs_rows": "count",
    "ingest.aggregate_s": "s",
    "ingest.aggregate_calls": "count",
    "ingest.flag_outliers_calls": "count",
    "ingest.parse_pairwise_s": "s",
    "ingest.pairwise_rows": "count",
    "ingest.matrices_built": "count",
    "ingest.matrices_used_per_built": "ratio",
    "ingest.detect_weak_links_s": "s",
    "metrics.energy_metrics_s": "s",
    "metrics.energy_metrics_calls": "count",
    "metrics.compare_platforms_self_s": "s",
    "scalefit.fit_amdahl_s": "s",
    "scalefit.fit_amdahl_calls": "count",
    "scalefit.fit_amdahl_ms_per_call": "ms",
    "scalefit.fit_gustafson_s": "s",
    "scalefit.fit_mpi_shares_s": "s",
    "scalefit.critical_units_s": "s",
    "scalefit.project_s": "s",
    "report.emit_plot_data_s": "s",
    "report.emit_rows": "count",
    "report.bytes_written": "bytes",
    "report.sidecar_s": "s",
    "roofline.classify_s": "s",
    "roofline.classify_calls": "count",
    "roofline.curve_s": "s",
    "microbench.triad_s": "s",
    "microbench.triad_median_gbs": "GB/s",
    "microbench.triad_counted_bytes_per_element": "bytes",
    "microbench.copy_gbs": "GB/s",
    "microbench.fma_double_gflops": "GFlop/s",
    "microbench.fma_single_gflops": "GFlop/s",
}


def round_metrics(tracer: Tracer, *, stdout_bytes: int, copy_gbs: float,
                  counted_bytes_per_element: float) -> dict[str, float]:
    """Per-layer values of one round. ``cli.main`` is the root span of each call."""
    t, c = tracer.total, tracer.calls
    built = c["ingest.build_pairwise_matrix"]
    amdahl_calls = c["scalefit.fit_amdahl"]
    return {
        "cli.self_s": tracer.self_time["cli.main"],
        "cli.stdout_bytes": stdout_bytes,
        "ingest.parse_runs_s": t["ingest.parse_runs"],
        "ingest.parse_runs_rows": tracer.counts["parse_runs_rows"],
        "ingest.aggregate_s": t["ingest.aggregate"],
        "ingest.aggregate_calls": c["ingest.aggregate"],
        "ingest.flag_outliers_calls": c["ingest.flag_outliers"],
        "ingest.parse_pairwise_s": t["ingest.parse_pairwise"],
        "ingest.pairwise_rows": tracer.counts["pairwise_rows"],
        "ingest.matrices_built": built,
        "ingest.matrices_used_per_built": c["ingest.parse_pairwise"] / built if built else 0.0,
        "ingest.detect_weak_links_s": t["ingest.detect_weak_links"],
        "metrics.energy_metrics_s": t["metrics.energy_metrics"],
        "metrics.energy_metrics_calls": c["metrics.energy_metrics"],
        "metrics.compare_platforms_self_s": tracer.self_time["metrics.compare_platforms"],
        "scalefit.fit_amdahl_s": t["scalefit.fit_amdahl"],
        "scalefit.fit_amdahl_calls": amdahl_calls,
        "scalefit.fit_amdahl_ms_per_call":
            1000.0 * t["scalefit.fit_amdahl"] / amdahl_calls if amdahl_calls else 0.0,
        "scalefit.fit_gustafson_s": t["scalefit.fit_gustafson"],
        "scalefit.fit_mpi_shares_s": t["scalefit.fit_mpi_shares"],
        "scalefit.critical_units_s": t["scalefit.critical_units"],
        "scalefit.project_s": t["scalefit.project"],
        "report.emit_plot_data_s": t["report.emit_plot_data"],
        "report.emit_rows": tracer.counts["emit_rows"],
        "report.bytes_written": tracer.counts["bytes_written"],
        "report.sidecar_s": t["report.sidecar"],
        "roofline.classify_s": t["roofline.classify"],
        "roofline.classify_calls": c["roofline.classify"],
        "roofline.curve_s": t["roofline.curve"],
        "microbench.triad_s": t["microbench.triad"],
        "microbench.triad_median_gbs": statistics.median(tracer.samples["triad_median_gbs"]),
        "microbench.triad_counted_bytes_per_element": counted_bytes_per_element,
        "microbench.copy_gbs": copy_gbs,
    }


def fma_metrics(tracer: Tracer) -> dict[str, float]:
    """FMA rates of the ``bench flops`` calls made under ``tracer``."""
    return {
        f"microbench.fma_{precision}_gflops": statistics.median(tracer.samples[f"fma_{precision}_gflops"])
        for precision in ("double", "single")
    }
