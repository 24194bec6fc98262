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
from pathlib import Path

import numpy as np

from . import __version__
from .exceptions import InvalidDataError, ParameterError, PerfcharError
from .hwmodel import (
    load_platform_spec,
    node_peak_flops,
    peak_bandwidth,
    peak_flops,
    stream_min_elements,
)
from .ingest import (
    GROUP_FIELDS,
    RUNS_COLUMNS,
    detect_weak_links,
    parse_kernel_points,
    parse_pairwise_bandwidth,
    parse_runs,
    parse_share_groups,
    read_columns,
)
from .metrics import compare_platforms, energy_terms, per_joule_unit, speedup_points
from .microbench import (
    TRIAD_ALIGNMENT,
    TRIAD_BYTES_PER_ELEMENT,
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
    ranks,
    write_sidecar_metadata,
)
from .roofline import (
    build_roofline,
    classify,
    roofline_curve,
)
from .scalefit import (
    AMDAHL_MAX_ITER,
    AMDAHL_START,
    AMDAHL_TOL,
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
    mem.add_argument("--pin", default="interleaved", choices=["interleaved", "compact", "none"])
    mem.add_argument("--spec", help="platform spec JSON; enforces the sizing rule")
    mem.add_argument("--out", help="CSV output path (threads,best_gbs)")
    mem.set_defaults(handler=_cmd_bench_mem)

    flops = bench_sub.add_parser("flops", help="FMA floating-point throughput")
    flops.add_argument("--precision", default="double", choices=["single", "double"])
    flops.add_argument("--mode", default="vector", choices=["scalar", "vector"])
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
    roof.add_argument("--precision", default="double", choices=["single", "double"])
    roof.add_argument("--mode", default="vector", choices=["scalar", "vector"])
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
    if not counts:
        raise ParameterError("no thread counts given")
    return counts


def _cmd_spec_show(args) -> int:
    spec = load_platform_spec(args.spec)
    print(f"platform: {spec.name}")
    print(f"cores/node: {spec.cores_per_node} ({spec.sockets} sockets x {spec.cores_per_socket})")
    print(f"frequency: {spec.frequency:.2f} GHz")
    for unit in spec.vector_units:
        single = peak_flops(spec, "single", "vector")
        double = peak_flops(spec, "double", "vector")
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
    if counts != sorted(counts):
        raise ParameterError("thread counts must be sorted ascending")
    spec = load_platform_spec(args.spec) if args.spec else None
    configs = [TriadConfig(args.elements, count, args.reps, args.pin) for count in counts]
    require_cpus(max(counts))  # before any run of a sweep
    results = [run_stream_triad(config, spec=spec) for config in configs]
    meta = results[-1]

    print(f"{'threads':>8}  {'best GB/s':>10}")
    for result in results:
        print(f"{result.threads:>8}  {result.best:>10.2f}")
    print(
        f"elements={meta.elements} reps={len(meta.per_repetition)} q={meta.q} "
        f"warmup={meta.warmup_passes} pinning={meta.pinning} pinned={meta.pinned} "
        f"kernel={meta.kernel}"
    )
    if args.out:
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
            "array_alignment_bytes": TRIAD_ALIGNMENT,
        }
        if spec is not None:
            peak = peak_bandwidth(spec)
            provenance["peak_bandwidth_gbs"] = peak
            provenance["best_over_peak"] = {str(r.threads): r.best / peak for r in results}
        write_sidecar_metadata(args.out, provenance)
    return 0


def _cmd_bench_flops(args) -> int:
    counts = _parse_thread_list(args.threads)
    require_cpus(max(counts))  # before any thread starts
    results = []
    for count in counts:
        result = run_fma_kernel(args.precision, args.mode, args.duration, threads=count)
        results.append(result)
        print(
            f"{result.mode}/{result.precision} threads={result.threads}: "
            f"{result.gflops:.3f} GFlop/s over {result.duration:.2f} s"
        )
    if args.out:
        emit_plot_data([[r.mode for r in results], [r.precision for r in results],
                        _floats(r.gflops for r in results)], args.out, header=["mode", "precision", "gflops"])
        write_sidecar_metadata(
            args.out, {"command": "bench flops", "duration": args.duration}
        )
    return 0


def _cmd_analyze_roofline(args) -> int:
    if args.spec:
        spec = load_platform_spec(args.spec)
        if args.scope == "node":
            flops = node_peak_flops(spec, args.precision, args.mode)
        else:
            flops = peak_flops(spec, args.precision, args.mode)
        bandwidth = peak_bandwidth(spec) if args.bandwidth_gbs is None else args.bandwidth_gbs
        label = spec.name
    else:
        if args.flops_gflops is None or args.bandwidth_gbs is None:
            raise ParameterError("need --spec, or both --flops-gflops and --bandwidth-gbs")
        flops, bandwidth, label = args.flops_gflops, args.bandwidth_gbs, "model"
    if args.flops_gflops is not None:
        flops = args.flops_gflops
    model = build_roofline(flops, bandwidth, scope=args.scope)

    points = parse_kernel_points(args.points) if args.points else []
    i_min = model.ridge_intensity / 256
    i_max = model.ridge_intensity * 256
    for point in points:
        if point.intensity > 0:
            i_min, i_max = min(i_min, point.intensity / 2), max(i_max, point.intensity * 2)
            if not (0 < i_min and i_max / i_min < math.inf):
                raise ParameterError(f"kernel '{point.label}': intensity {point.intensity!r} puts the "
                                     f"roofline curve out of range ({i_min!r} to {i_max!r} Flop/Byte)")

    out_dir = Path(args.out_dir)
    classifications = [classify(model, p) for p in points]
    curve = roofline_curve(model, i_min, i_max)
    labels = ["roof"] * len(curve) + [p.label for p in points]
    curve += [(p.intensity, c.sustained if p.measured_perf is None else p.measured_perf)
              for p, c in zip(points, classifications)]
    curve_path = out_dir / "roofline_curve.csv"
    emit_plot_data([*np.array(curve).T, labels], curve_path, header=["intensity", "gflops", "label"])

    files = [curve_path]
    if classifications:
        points_path = out_dir / "roofline_points.csv"
        emit_plot_data(
            [[c.label for c in classifications], _floats(p.intensity for p in points),
             _floats(p.measured_perf for p in points), _floats(c.sustained for c in classifications),
             [c.bound for c in classifications], _floats(c.headroom for c in classifications),
             np.array([c.above_roof for c in classifications])],
            points_path,
            header=["label", "intensity", "measured_gflops", "sustained_gflops", "bound", "headroom", "above_roof"],
        )
        files.append(points_path)

    if args.gnuplot:
        script = gnuplot_loglog_script(
            [f.name for f in files], "roofline.png", f"{label} roofline ({model.scope})",
            "arithmetic intensity [Flop/Byte]", "performance [GFlop/s]",
        )
        atomic_write_text(out_dir / "roofline.gp", script)

    write_sidecar_metadata(curve_path, {"command": "analyze roofline", "peak_gflops": flops,
                                        "peak_gbs": bandwidth, "ridge_intensity": model.ridge_intensity,
                                        "scope": model.scope})
    print(
        f"{label} ({model.scope}): peak {model.peak_flops:.2f} GFlop/s, "
        f"{model.peak_bandwidth:.2f} GB/s, ridge {model.ridge_intensity:.5f} Flop/Byte"
    )
    for cls in classifications:
        print(f"  {cls.label}: {cls.bound} (ceiling {cls.sustained:.3f} GFlop/s)")
    return 0


def _floats(values) -> np.ndarray:
    """A float column for emit_plot_data; None becomes NaN, a blank cell."""
    return np.array([np.nan if v is None else v for v in values], dtype=float)


def _cmd_analyze_scaling(args) -> int:
    fields = tuple(f.strip() for f in args.group.split(",") if f.strip())
    if not fields:
        raise ParameterError(f"--group names no field: {args.group!r}")
    try:
        p_list = [float(p) for p in args.project.split(",") if p.strip()]
    except ValueError as exc:
        raise ParameterError(f"bad projection list {args.project!r}") from exc
    out_dir = Path(args.out_dir)

    if args.model == "mpi-shares":
        groups = parse_share_groups(args.input, fields)
        labels, fits, critical = [], [], []
        group, procs, share = [], [], []  # an lb and a com curve row per share point
        for (key, pts), fit in zip(groups.items(), fit_mpi_shares_many(groups.values())):
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
            for p, _, _ in pts:
                group += [label, label]
                procs += [p, p]
                share += [fit.a * p + fit.b, fit.c]
            print(
                f"{label}: lb = {fit.a:.3f}*p + {fit.b:.3f} (%), com = {fit.c:.3f} % "
                + (f"(100% at p={lb_only.units:.1f} lb-only, {lb_com.units:.1f} lb+com)"
                   if lb_only and lb_com else "(no critical point)")
            )
        header = ["group", "a", "sigma_a", "b", "sigma_b", "c", "sigma_c",
                  "critical_lb_only", "critical_lb_plus_com"]
        fits_path = out_dir / "mpi_share_fits.csv"
        emit_plot_data([labels, *(_floats(getattr(fit, name) for fit in fits) for name in header[1:7]),
                        *np.array(critical).T], fits_path, header=header)
        curves_path = out_dir / "mpi_share_curves.csv"
        emit_plot_data([group, ["lb", "com"] * (len(procs) // 2), _floats(procs), _floats(share)],
                       curves_path, header=["group", "series", "p", "share_pct"])
        write_sidecar_metadata(fits_path, {"command": "analyze scaling", "model": args.model})
        return 0

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
        if args.model == "amdahl":
            print(f"{label}: a = {fit.a:.4f} +- {fit.sigma_a:.4f}, b = {fit.b:.4f} +- {fit.sigma_b:.4f}")
        else:
            print(f"{label}: a = {fit.a:.4f} +- {fit.sigma_a:.4f}")
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
            [proj_path.name], "scaling.png", f"{args.model} projection", "units", "speedup"
        )
        atomic_write_text(out_dir / "scaling.gp", script)
    provenance = {"command": "analyze scaling", "model": args.model}
    if args.model == "amdahl":
        provenance.update(fit_weighting="1/speedup", fit_start=AMDAHL_START,
                          fit_max_iter=AMDAHL_MAX_ITER, fit_tol=AMDAHL_TOL)
    write_sidecar_metadata(fits_path, provenance)
    return 0


def _cmd_analyze_energy(args) -> int:
    runs = parse_runs(args.input)
    order = np.lexsort([ranks(runs.timestamp), runs.nodes,
                        *map(ranks, (runs.compiler, runs.platform, runs.app))])
    runs = runs.take(order)
    # NaN where a run has no energy, or for work, no rate metric: a blank cell.
    with np.errstate(over="ignore"):  # an overflow is the error below
        e2s, edp, work = energy_terms(runs.energy, runs.time,
                                      np.where(runs.is_rate(), runs.metric_value, np.nan))
    overflow = np.isinf(edp) | np.isinf(work)
    if overflow.any():  # name the first such run in the file; a RunTable keeps no line numbers
        line = read_columns(args.input, RUNS_COLUMNS)[0][order[overflow].min()]
        raise InvalidDataError(f"{args.input}: line {line}: edp_kjs or work_per_joule overflows")
    units = [per_joule_unit(u) if w == w else "" for u, w in zip(runs.metric_unit, work.tolist())]
    columns = [runs.app, runs.platform, runs.compiler, runs.nodes, runs.time, e2s, edp, work, units]
    header = ["app", "platform", "compiler", "nodes", "time_s", "e2s_kj", "edp_kjs",
              "work_per_joule", "work_unit"]
    g6 = "{:.6g}".format
    sys.stdout.write("  ".join(header) + "\n")
    for start in range(0, len(runs), BLOCK_ROWS):  # the cell text of one block of rows at a time
        block = [column[start:start + BLOCK_ROWS] for column in columns]
        cells = [*block[:3], list(map(str, block[3].tolist())), list(map(g6, block[4].tolist())),
                 *([g6(v) if v == v else "" for v in d.tolist()] for d in block[5:8]), block[8]]
        sys.stdout.write("\n".join(map("  ".join, zip(*cells))) + "\n")
    if args.out:
        emit_plot_data(columns, args.out, header=header)
        write_sidecar_metadata(args.out, {"command": "analyze energy"})
    return 0


def _cmd_analyze_network(args) -> int:
    matrix = parse_pairwise_bandwidth(args.input, message_size=args.message_size)
    links = detect_weak_links(matrix, threshold=args.threshold)
    out_dir = Path(args.out_dir)

    emit_plot_data([matrix.node_ids, matrix.row_medians], out_dir / "node_medians.csv",
                   header=["node", "median_gbs"])
    links_path = out_dir / "weak_links.csv"
    if links:
        emit_plot_data(
            [[w.node_a for w in links], [w.node_b for w in links], _floats(w.bandwidth for w in links),
             _floats(w.reference for w in links), 100.0 * _floats(w.deficit for w in links)],
            links_path,
            header=["node_a", "node_b", "bandwidth_gbs", "reference_gbs", "deficit_pct"],
        )
    else:
        atomic_write_text(links_path, "node_a,node_b,bandwidth_gbs,reference_gbs,deficit_pct\n")
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
    print(table.to_text())
    if args.out:
        columns = table.to_csv_columns()
        emit_plot_data(list(columns.values()), args.out, header=list(columns))
        write_sidecar_metadata(args.out, {"command": "report compare", "metric": args.metric})
    return 0


if __name__ == "__main__":
    sys.exit(main())
