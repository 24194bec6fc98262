"""Command-line interface.

Subcommands map one-to-one onto the analysis surfaces:

* ``spec show``        declared platform limits
* ``bench mem``        triad bandwidth runs and thread sweeps
* ``bench flops``      FMA throughput runs
* ``analyze roofline`` ceiling curves plus kernel-point classification
* ``analyze scaling``  strong/weak/share model fits and projections
* ``analyze energy``   E2S, EDP, and work-per-joule per run record
* ``analyze network``  pairwise-bandwidth weak-link detection
* ``report compare``   cross-platform comparison tables

Exit codes: 0 success, 1 analysis or validation failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import math
import sys
from operator import attrgetter
from pathlib import Path

import numpy as np

from . import __version__
from .exceptions import InvalidDataError, ParameterError, PerfcharError
from .hwmodel import (
    MODES,
    PRECISION_BITS,
    load_platform_spec,
    node_peak_flops,
    peak_bandwidth,
    peak_flops,
    stream_min_elements,
)
from .ingest import (
    GROUP_FIELDS,
    RUNS_COLUMNS,
    KernelTable,
    detect_weak_links,
    group_by,
    parse_kernel_points,
    parse_pairwise_bandwidth,
    parse_runs,
    parse_share_groups,
    read_columns,
)
from .metrics import compare_platforms, energy_terms, per_joule_unit, speedup_points
from .microbench import (
    FMA_CHAINS,
    FMA_VECTOR_ELEMENTS,
    FMA_WARMUP_SECONDS,
    PINNING_POLICIES,
    TRIAD_ALIGNMENT,
    TRIAD_BYTES_PER_ELEMENT,
    TRIAD_FIRST_TOUCH,
    TRIAD_SCALAR_Q,
    TRIAD_WARMUP_PASSES,
    TriadConfig,
    require_cpus,
    run_fma_kernel,
    run_stream_triad,
)
from .report import (
    BLOCK_ROWS,
    atomic_write_text,
    emit_plot_data,
    gnuplot_loglog_script,
    write_sidecar_metadata,
)
from .roofline import (
    build_roofline,
    classify_many,
    roofline_curve,
)
from .scalefit import (
    AMDAHL_BISECTIONS,
    AMDAHL_GRID,
    critical_units,
    fit_amdahl_many,
    fit_gustafson_many,
    fit_mpi_shares_many,
    project_many,
)

DEFAULT_PROJECTION = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512)

def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.handler(args)
    except PerfcharError as exc:
        message = " ".join(str(exc).split())
        print(f"perfchar: error: {type(exc).__name__}: {message}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"perfchar: error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="perfchar",
        description="Performance characterization and scalability projection toolkit",
    )
    parser.add_argument("--version", action="version", version=f"perfchar {__version__}")
    top = parser.add_subparsers(dest="command", required=True)

    spec = top.add_parser("spec", help="platform spec utilities")
    spec_sub = spec.add_subparsers(dest="action", required=True)
    show = spec_sub.add_parser("show", help="print the limits a spec implies")
    show.add_argument("spec", help="platform spec JSON file")
    show.set_defaults(handler=_cmd_spec_show)

    bench = top.add_parser("bench", help="run a microbenchmark")
    bench_sub = bench.add_subparsers(dest="kernel", required=True)

    mem = bench_sub.add_parser("mem", help="triad memory bandwidth")
    mem.add_argument("--elements", type=int, required=True, help="8-byte elements per array")
    mem.add_argument("--threads", default="1", help="thread count, or comma list for a sweep")
    mem.add_argument("--reps", type=int, default=200, help="repetitions per run (best is kept)")
    mem.add_argument("--pin", default="interleaved", choices=PINNING_POLICIES)
    mem.add_argument("--spec", help="platform spec JSON; enforces the sizing rule")
    mem.add_argument("--out", help="CSV output path (threads,best_gbs)")
    mem.set_defaults(handler=_cmd_bench_mem)

    flops = bench_sub.add_parser("flops", help="FMA floating-point throughput")
    flops.add_argument("--precision", default="double", choices=PRECISION_BITS)
    flops.add_argument("--mode", default="vector", choices=MODES)
    flops.add_argument("--duration", type=float, default=1.0, help="seconds per measurement")
    flops.add_argument("--threads", default="1", help="thread count, or comma list for a sweep")
    flops.add_argument("--out", help="CSV output path (mode,precision,gflops)")
    flops.set_defaults(handler=_cmd_bench_flops)

    analyze = top.add_parser("analyze", help="analyze ingested measurements")
    analyze_sub = analyze.add_subparsers(dest="analysis", required=True)

    roof = analyze_sub.add_parser("roofline", help="ceiling curve and kernel classification")
    roof.add_argument("--spec", help="platform spec JSON providing the peaks")
    roof.add_argument("--flops-gflops", type=float, help="compute peak override, GFlop/s")
    roof.add_argument("--bandwidth-gbs", type=float, help="bandwidth peak override, GB/s")
    roof.add_argument("--scope", default="node", choices=["node", "core"])
    roof.add_argument("--precision", default="double", choices=PRECISION_BITS)
    roof.add_argument("--mode", default="vector", choices=MODES)
    roof.add_argument("--points", help="kernel points CSV: label,intensity[,gflops]")
    roof.add_argument("--out-dir", required=True)
    roof.add_argument("--gnuplot", action="store_true", help="also emit a gnuplot script")
    roof.set_defaults(handler=_cmd_analyze_roofline)

    scaling = analyze_sub.add_parser("scaling", help="fit and project scaling models")
    scaling.add_argument("--model", required=True, choices=["amdahl", "gustafson", "mpi-shares"])
    scaling.add_argument("--in", dest="input", required=True, help="runs CSV/JSON, or share CSV")
    scaling.add_argument(
        "--group", default="app,platform,compiler", help="comma list of grouping fields"
    )
    scaling.add_argument(
        "--project",
        default=",".join(str(p) for p in DEFAULT_PROJECTION),
        help="comma list of unit counts to project to",
    )
    scaling.add_argument("--out-dir", required=True)
    scaling.add_argument("--gnuplot", action="store_true", help="also emit a gnuplot script")
    scaling.set_defaults(handler=_cmd_analyze_scaling)

    energy = analyze_sub.add_parser("energy", help="energy metrics per run record")
    energy.add_argument("--in", dest="input", required=True, help="runs CSV/JSON file")
    energy.add_argument("--out", help="CSV output path")
    energy.set_defaults(handler=_cmd_analyze_energy)

    network = analyze_sub.add_parser("network", help="pairwise bandwidth weak links")
    network.add_argument("--in", dest="input", required=True, help="pairwise CSV/JSON file")
    network.add_argument("--threshold", type=float, default=0.10)
    network.add_argument("--message-size", type=int, help="select one message size (bytes)")
    network.add_argument("--out-dir", required=True)
    network.set_defaults(handler=_cmd_analyze_network)

    report = top.add_parser("report", help="rendered comparison reports")
    report_sub = report.add_subparsers(dest="report_kind", required=True)
    compare = report_sub.add_parser("compare", help="per-app platform/compiler comparison")
    compare.add_argument("--in", dest="input", required=True, help="runs CSV/JSON file")
    compare.add_argument("--metric", default="time", choices=["time", "rate"])
    compare.add_argument("--out", help="CSV output path")
    compare.set_defaults(handler=_cmd_report_compare)

    return parser


def _parse_thread_list(text: str) -> list[int]:
    try:
        counts = [int(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise ParameterError(f"bad thread list {text!r}") from exc
    require_cpus(*counts)  # before any spec load, config or run
    return counts


def _cmd_spec_show(args) -> int:
    spec = load_platform_spec(args.spec)
    print(f"platform: {spec.name}")
    print(f"cores/node: {spec.cores_per_node} ({spec.sockets} sockets x {spec.cores_per_socket})")
    print(f"frequency: {spec.frequency:.2f} GHz")
    if spec.vector_units:  # the unit peak_flops takes; no other declared unit enters a peak
        unit = spec.widest_vector_unit()
        single, double = (peak_flops(spec, precision, "vector") for precision in ("single", "double"))
        print(
            f"vector unit {unit.extension_name}: {unit.register_width}-bit, "
            f"{single:.2f} / {double:.2f} GFlop/s per core (single/double)"
        )
    if spec.vector_units or spec.scalar_issue_per_cycle is not None:
        print(f"scalar peak: {peak_flops(spec, 'double', 'scalar'):.2f} GFlop/s per core")
    print(
        f"memory: {spec.memory_channels} channels x {spec.channel_peak:.2f} GB/s "
        f"= {peak_bandwidth(spec):.2f} GB/s"
    )
    print(f"bandwidth-benchmark minimum elements: {stream_min_elements(spec)}")
    return 0


def _cmd_bench_mem(args) -> int:
    counts = _parse_thread_list(args.threads)
    spec = load_platform_spec(args.spec) if args.spec else None
    configs = [TriadConfig(args.elements, count, args.reps, args.pin) for count in counts]
    results = [run_stream_triad(config, spec=spec) for config in configs]
    meta = results[-1]
    if args.out:  # written before stdout, so a failed write prints nothing
        emit_plot_data([np.array([r.threads for r in results]), _floats(r.best for r in results)], args.out,
                       ["threads", "best_gbs"])
        provenance = {
            "command": "bench mem",
            "elements": args.elements,
            "repetitions": args.reps,
            "pinning": args.pin,
            "triad_q": TRIAD_SCALAR_Q,
            "warmup_passes": TRIAD_WARMUP_PASSES,
            "kernel": meta.kernel,
            "counted_bytes_per_element": TRIAD_BYTES_PER_ELEMENT,
            "moved_bytes_per_element": meta.moved_bytes_per_element,
            "streaming_stores": meta.streaming_stores,
            "store_bits": meta.store_bits,
            "array_alignment_bytes": TRIAD_ALIGNMENT,
            "first_touch": TRIAD_FIRST_TOUCH,
            "setup_threads": {str(r.threads): r.setup_threads for r in results},
            "per_repetition_gbs": {str(r.threads): list(r.per_repetition) for r in results},
            "median_gbs": {str(r.threads): float(np.median(r.per_repetition)) for r in results},
        }
        if spec is not None:
            peak = peak_bandwidth(spec)
            provenance["peak_bandwidth_gbs"] = peak
            provenance["best_over_peak"] = {str(r.threads): r.best / peak for r in results}
        write_sidecar_metadata(args.out, provenance)
    print(f"{'threads':>8}  {'best GB/s':>10}")
    for result in results:
        print(f"{result.threads:>8}  {result.best:>10.2f}")
    print(
        f"elements={meta.elements} reps={len(meta.per_repetition)} q={TRIAD_SCALAR_Q} "
        f"warmup={TRIAD_WARMUP_PASSES} pinning={meta.pinning} pinned={meta.pinned} "
        f"kernel={meta.kernel}"
    )
    return 0


def _cmd_bench_flops(args) -> int:
    counts = _parse_thread_list(args.threads)
    results = [run_fma_kernel(args.precision, args.mode, args.duration, threads=count) for count in counts]
    if args.out:  # written before stdout, so a failed write prints nothing
        emit_plot_data([[r.mode for r in results], [r.precision for r in results],
                        _floats(r.gflops for r in results)], args.out, header=["mode", "precision", "gflops"])
        write_sidecar_metadata(args.out, {
            "command": "bench flops",
            "duration": args.duration,
            "threads": counts,
            "chains": FMA_CHAINS,
            "vector_elements": FMA_VECTOR_ELEMENTS,
            "warmup_seconds": FMA_WARMUP_SECONDS,
        })
    for result in results:
        print(
            f"{result.mode}/{result.precision} threads={result.threads}: "
            f"{result.gflops:.3f} GFlop/s over {result.duration:.2f} s"
        )
    return 0


def _cmd_analyze_roofline(args) -> int:
    flops, bandwidth, label = args.flops_gflops, args.bandwidth_gbs, "model"
    if args.spec:  # a peak given by its flag is used; the spec gives only the others
        spec = load_platform_spec(args.spec)
        if flops is None:
            flops = (node_peak_flops if args.scope == "node" else peak_flops)(spec, args.precision, args.mode)
        bandwidth, label = peak_bandwidth(spec) if bandwidth is None else bandwidth, spec.name
    elif flops is None or bandwidth is None:
        raise ParameterError("need --spec, or both --flops-gflops and --bandwidth-gbs")
    model = build_roofline(flops, bandwidth, scope=args.scope)

    points = parse_kernel_points(args.points) if args.points else KernelTable([], *np.empty((3, 0)))
    # The range widens to half and twice each positive intensity; name the first point that breaks it.
    positive = np.flatnonzero(points.intensity > 0)
    with np.errstate(over="ignore", divide="ignore"):  # inf, as a Python float gives
        i_min = np.minimum.accumulate(np.append(model.ridge_intensity / 256, points.intensity[positive] / 2))
        i_max = np.maximum.accumulate(np.append(model.ridge_intensity * 256, points.intensity[positive] * 2))
        bad = np.flatnonzero(~((i_min > 0) & (i_max / i_min < math.inf))[1:])
    if bad.size:
        k, end = positive[bad[0]], bad[0] + 1
        raise ParameterError(f"kernel '{points.label[k]}': intensity {points.intensity[k].item()!r} puts the "
                             f"roofline curve out of range ({i_min[end].item()!r} to {i_max[end].item()!r} Flop/Byte)")

    measured = points.measured_perf
    bound, sustained, headroom, above_roof = classify_many(model, points.label, points.intensity, measured)
    roof = np.array(roofline_curve(model, i_min[-1].item(), i_max[-1].item())).T
    out_dir = Path(args.out_dir)
    curve_path = out_dir / "roofline_curve.csv"
    emit_plot_data([np.concatenate([roof[0], points.intensity]),
                    np.concatenate([roof[1], np.where(np.isnan(measured), sustained, measured)]),
                    ["roof"] * roof.shape[1] + points.label], curve_path, header=["intensity", "gflops", "label"])

    # intensity, gflops of the roof rows only: the kernel rows are drawn from roofline_points.csv
    series = [(curve_path.name, "1:(strcol(3) eq 'roof' ? $2 : 1/0) with lines")]
    if len(points):
        points_path = out_dir / "roofline_points.csv"
        emit_plot_data(
            [points.label, points.intensity, measured, sustained, bound, headroom, above_roof],
            points_path,
            header=["label", "intensity", "measured_gflops", "sustained_gflops", "bound", "headroom", "above_roof"],
        )
        series.append((points_path.name, "2:3 with points"))  # intensity, measured_gflops

    if args.gnuplot:
        script = gnuplot_loglog_script(
            series, "roofline.png", f"{label} roofline ({model.scope})",
            "arithmetic intensity [Flop/Byte]", "performance [GFlop/s]",
        )
        atomic_write_text(out_dir / "roofline.gp", script)

    write_sidecar_metadata(curve_path, {"command": "analyze roofline", "peak_gflops": flops,
                                        "peak_gbs": bandwidth, "ridge_intensity": model.ridge_intensity,
                                        "scope": model.scope})
    lines = [f"{label} ({model.scope}): peak {model.peak_flops:.2f} GFlop/s, "
             f"{model.peak_bandwidth:.2f} GB/s, ridge {model.ridge_intensity:.5f} Flop/Byte",
             *map("  {}: {} (ceiling {:.3f} GFlop/s)".format, points.label, bound, sustained.tolist())]
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def _floats(values) -> np.ndarray:
    """A float column for emit_plot_data; None becomes NaN, a blank cell."""
    return np.array([np.nan if v is None else v for v in values], dtype=float)


def _rounded(value: float, places: int) -> float:
    """``value`` rounded to ``places`` decimals, a zero unsigned, so that ``.{places}f`` never writes "-0.000"."""
    return round(value, places) + 0.0


def _cmd_analyze_scaling(args) -> int:
    fields = tuple(f.strip() for f in args.group.split(",") if f.strip())
    if not fields:
        raise ParameterError(f"--group names no field: {args.group!r}")
    out_dir = Path(args.out_dir)

    if args.model == "mpi-shares":
        keys, groups = parse_share_groups(args.input, fields)
        labels, fits, critical, lines = [], [], [], []
        try:  # the lines of the groups before a failing one are printed before its error
            for key, fit in zip(keys, fit_mpi_shares_many(groups)):
                if isinstance(fit, PerfcharError):
                    raise fit
                label = "/".join(key)
                try:
                    lb_only = critical_units(fit, 100.0, "lb_only")
                    lb_com = critical_units(fit, 100.0, "lb_plus_com")
                except InvalidDataError as exc:
                    raise InvalidDataError(f"group {label}: {exc}") from exc
                labels.append(label)
                fits.append(fit)
                critical.append([np.nan if c is None else c.units for c in (lb_only, lb_com)])
                lines.append(
                    f"{label}: lb = {_rounded(fit.a, 3):.3f}*p + {_rounded(fit.b, 3):.3f} (%), "
                    f"com = {_rounded(fit.c, 3):.3f} % "
                    + (f"(100% at p={lb_only.units:.1f} lb-only, {lb_com.units:.1f} lb+com)\n"
                       if lb_only and lb_com else "(no critical point)\n")
                )
        finally:
            sys.stdout.write("".join(lines))
        header = ["group", "a", "sigma_a", "b", "sigma_b", "c", "sigma_c",
                  "critical_lb_only", "critical_lb_plus_com"]
        values = np.array(list(map(attrgetter(*header[1:7]), fits)), dtype=float).reshape(-1, 6)
        fits_path = out_dir / "mpi_share_fits.csv"
        emit_plot_data([labels, *values.T, *np.array(critical).T], fits_path, header=header)
        # An lb and a com curve row per share point, group by group.
        p, a, b, c = groups.points[:, 0], *np.repeat(values[:, [0, 2, 4]], groups.sizes, axis=0).T  # a, b, c
        curves_path = out_dir / "mpi_share_curves.csv"
        emit_plot_data([np.repeat(np.array(labels, dtype=object), 2 * groups.sizes).tolist(),
                        ["lb", "com"] * len(p), np.repeat(p, 2), np.column_stack((a * p + b, c)).ravel()],
                       curves_path, header=["group", "series", "p", "share_pct"])
        write_sidecar_metadata(fits_path, {"command": "analyze scaling", "model": args.model})
        return 0

    try:
        p_list = [float(p) for p in args.project.split(",") if p.strip()]
    except ValueError as exc:
        raise ParameterError(f"bad projection list {args.project!r}") from exc
    unknown = [f for f in fields if f not in GROUP_FIELDS]
    if unknown:
        raise ParameterError(
            f"unknown --group field(s) {', '.join(unknown)}; valid: {', '.join(GROUP_FIELDS)}"
        )
    if not np.isfinite(p_list).all():
        raise ParameterError(f"projection unit counts must be finite: {args.project!r}")
    # Groups are reported up to the first failure, whose error is raised after the
    # groups before it are printed: the speedups' error (only groups before it are
    # built), a group's fit error, or a projection unit count below 1 (at the first).
    labels, points, failure = speedup_points(parse_runs(args.input), fields, args.model)
    fits = (fit_amdahl_many if args.model == "amdahl" else fit_gustafson_many)(points)
    good = next((i for i, fit in enumerate(fits) if isinstance(fit, PerfcharError)), len(fits))
    if good < len(fits):
        fits, failure = fits[:good], fits[good]
    proj_columns = [[]] * 4
    if fits:
        try:
            units, speedup, efficiency = project_many(fits, p_list)
        except ParameterError as exc:
            fits, failure = fits[:1], exc
        else:
            proj_columns = [[label for label in labels for _ in units], np.tile(units, len(fits)),
                            speedup.ravel(), efficiency.ravel()]
    for label, fit in zip(labels, fits):
        b = f", b = {_rounded(fit.b, 4):.4f} +- {_rounded(fit.sigma_b, 4):.4f}" if args.model == "amdahl" else ""
        print(f"{label}: a = {_rounded(fit.a, 4):.4f} +- {_rounded(fit.sigma_a, 4):.4f}{b}")
    if failure is not None:
        raise failure

    header = ["group", "model", "a", "sigma_a", "b", "sigma_b", "residual"]
    fits_path = out_dir / "scaling_fits.csv"
    emit_plot_data(  # a Gustafson fit has no b: blank cells
        [labels, [args.model] * len(fits), *(_floats(getattr(fit, name, None) for fit in fits)
                                             for name in header[2:])],
        fits_path, header=header,
    )
    proj_path = out_dir / "scaling_projection.csv"
    emit_plot_data(proj_columns, proj_path, header=["group", "p", "speedup", "efficiency"])
    if args.gnuplot:
        script = gnuplot_loglog_script(
            [(proj_path.name, "2:3 with linespoints")], "scaling.png", f"{args.model} projection",
            "units", "speedup",
        )
        atomic_write_text(out_dir / "scaling.gp", script)
    provenance = {"command": "analyze scaling", "model": args.model}
    if args.model == "amdahl":
        provenance.update(fit_weighting="1/speedup", fit_method="variable projection, grid then bisection",
                          fit_grid=AMDAHL_GRID.tolist(), fit_bisections=AMDAHL_BISECTIONS)
    write_sidecar_metadata(fits_path, provenance)
    return 0


def _cmd_analyze_energy(args) -> int:
    runs = parse_runs(args.input)
    fields = ("app", "platform", "compiler", "nodes", "timestamp")
    order = np.argsort(group_by([getattr(runs, f) for f in fields], len(runs))[0], kind="stable")
    runs = runs.take(order)
    # NaN where a run has no energy, or for work, no rate metric: a blank cell.
    with np.errstate(over="ignore"):  # an overflow is the error below
        e2s, edp, work = energy_terms(runs.energy, runs.time,
                                      np.where(runs.is_rate(), runs.metric_value, np.nan))
    overflow = np.isinf(edp) | np.isinf(work)
    if overflow.any():  # name the first such run in the file; a RunTable keeps no line numbers
        line = [n for b, _ in read_columns(args.input, RUNS_COLUMNS) for n in b][order[overflow].min()]
        raise InvalidDataError(f"{args.input}: line {line}: edp_kjs or work_per_joule overflows")
    per_joule = {unit: per_joule_unit(unit) for unit in set(runs.metric_unit)}
    units = np.where(np.isnan(work), "", np.array([*map(per_joule.get, runs.metric_unit)], object)).tolist()
    columns = [runs.app, runs.platform, runs.compiler, runs.nodes, runs.time, e2s, edp, work, units]
    header = ["app", "platform", "compiler", "nodes", "time_s", "e2s_kj", "edp_kjs",
              "work_per_joule", "work_unit"]
    if args.out:  # written before stdout, so a failed write prints nothing
        emit_plot_data(columns, args.out, header=header)
        write_sidecar_metadata(args.out, {"command": "analyze energy"})

    def g6(values: np.ndarray) -> list[str]:  # six significant digits, a NaN ("nan") as a blank cell
        text = list(map("{:.6g}".format, values.tolist()))
        return list(map({"nan": ""}.get, text, text)) if np.isnan(values).any() else text

    sys.stdout.write("  ".join(header) + "\n")
    for start in range(0, len(runs), BLOCK_ROWS):  # the cell text of one block of rows at a time
        block = [column[start:start + BLOCK_ROWS] for column in columns]
        cells = [*block[:3], list(map(str, block[3].tolist())), *map(g6, block[4:8]), block[8]]
        sys.stdout.write("\n".join(map("  ".join, zip(*cells))) + "\n")
    return 0


def _cmd_analyze_network(args) -> int:
    matrix = parse_pairwise_bandwidth(args.input, message_size=args.message_size)
    links = detect_weak_links(matrix, threshold=args.threshold)
    out_dir = Path(args.out_dir)

    emit_plot_data([matrix.node_ids, matrix.row_medians], out_dir / "node_medians.csv",
                   header=["node", "median_gbs"])
    links_path = out_dir / "weak_links.csv"
    header = ["node_a", "node_b", "bandwidth_gbs", "reference_gbs", "deficit_pct"]
    if links:
        emit_plot_data(
            [[w.node_a for w in links], [w.node_b for w in links], _floats(w.bandwidth for w in links),
             _floats(w.reference for w in links), 100.0 * _floats(w.deficit for w in links)],
            links_path, header=header,
        )
    else:
        atomic_write_text(links_path, ",".join(header) + "\n")
    write_sidecar_metadata(links_path, {"command": "analyze network", "message_size": matrix.message_size,
                                        "threshold": args.threshold})

    print(
        f"{len(matrix.node_ids)} nodes at message size {matrix.message_size}; "
        f"{len(links)} weak link(s) at threshold {args.threshold:.0%}"
    )
    for w in links:
        print(
            f"  {w.node_a} <-> {w.node_b}: {w.bandwidth:.3f} GB/s, "
            f"{100 * w.deficit:.1f}% below reference {w.reference:.3f} GB/s"
        )
    if matrix.asymmetry_warnings:
        print(f"  note: {len(matrix.asymmetry_warnings)} pair(s) with asymmetric directions")
    return 0


def _cmd_report_compare(args) -> int:
    table = compare_platforms(parse_runs(args.input), metric=args.metric)
    if args.out:  # written before stdout, so a failed write prints nothing
        columns = table.to_csv_columns()
        emit_plot_data(list(columns.values()), args.out, header=list(columns))
        write_sidecar_metadata(args.out, {"command": "report compare", "metric": args.metric})
    print(table.to_text())
    return 0


if __name__ == "__main__":
    sys.exit(main())
