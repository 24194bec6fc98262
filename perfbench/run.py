"""Benchmark of the perfchar CLI: end-to-end times per subcommand, or per-layer spans.

Run from the root of a perfchar checkout:

    python3 perfbench/run.py --workload bulk-ingest --seed 1 --seconds 10 --trace 0

Inputs are generated from ``--seed`` into ``.perfbench_work/``; the program
reads only those files. Every workload makes the same CLI calls in whole
rounds until ``--seconds`` have passed, and at least MIN_ROUNDS, then checks
the last round's outputs against values computed from the generator. A
workload differs only in which inputs are at focus size; the rest are small
probes, so that every metric is measured. The last stdout line is one JSON
object: end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``. A fuller record goes to ``.perfbench_work/results/``. See
README.md for the workloads, the metrics and the host-speed normalization.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
import spans
from inputs import INPUT_FILES, MESSAGE_SIZES, SIZES, write_inputs

#: Which inputs each workload runs at focus size; all others are probes.
#: ``triad`` is "rule" for arrays sized by the program's sizing rule.
WORKLOADS = {
    "bulk-ingest": {"runs": "full", "pairwise": "full", "triad": "probe"},
    "fits-many": {"fits": "full", "shares": "full", "kernels": "full", "triad": "probe"},
    "instruments": {"triad": "rule"},
}

MIN_ROUNDS = 3  # every metric is a median of at least three calls
SETUP_SAMPLES = 5
PROBE_TRIAD_ELEMENTS = 1 << 20
PROBE_TRIAD_CALLS = 2  # probe-sized bench mem calls per round
TRIAD_REPS = {"rule": 4, "probe": 150}
COPY_REPS = 6
COPY_BYTES_PER_ELEMENT = 16  # one 8-byte read and one 8-byte write
FMA_SECONDS = 0.5
REFERENCE_ROWS = 1500
REFERENCE_REPS = 3
#: Reported times are seconds at the host speed where the reference kernel
#: takes this long (its median on the reference host, see README.md).
REFERENCE_NOMINAL_S = 0.010
RULE_FLOOR_ELEMENTS = 10_000_000  # arrays of at least ten million elements ...
RULE_LLC_MULTIPLE = 4  # ... and at least four times the last-level cache

E2E_UNITS = {
    "setup_s": "s",
    "energy_s": "s",
    "compare_s": "s",
    "scaling_amdahl_s": "s",
    "scaling_gustafson_s": "s",
    "scaling_shares_s": "s",
    "network_s": "s",
    "roofline_s": "s",
    "bench_mem_s": "s",
    "triad_gbs": "GB/s",
    "triad_copy_ratio": "ratio",
    "peak_rss_mb": "MB",
}

SETUP_CODE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t0 = time.perf_counter(); "
    "import perfchar.cli; print(time.perf_counter() - t0, perfchar.cli.__file__)"
)


@dataclass
class Op:
    """One CLI call: the end-to-end metric it adds to, its id and its arguments."""

    metric: str
    id: str
    argv: list
    #: ``bench mem``: its outputs are measurements, so they differ between calls,
    #: and its time is memory-bound, so the CPU reference does not scale it.
    instrument: bool = False


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def host_facts() -> dict:
    """nproc, affinity, RAM and the last-level cache as the OS reports them."""
    cache = Path("/sys/devices/system/cpu/cpu0/cache")
    llc_level, llc_bytes = 0, 0
    for index in sorted(cache.glob("index*")):
        if (index / "type").read_text().strip() == "Instruction":
            continue
        level = int((index / "level").read_text())
        size = (index / "size").read_text().strip()
        scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(size[-1], 1)
        if level > llc_level:
            llc_level, llc_bytes = level, int(size.rstrip("KMG")) * scale
    if not llc_bytes:
        raise RuntimeError(f"no cache sizes under {cache}")
    packages = {p.read_text().strip() for p in
                Path("/sys/devices/system/cpu").glob("cpu[0-9]*/topology/physical_package_id")}
    meminfo = dict(line.split(":", 1) for line in Path("/proc/meminfo").read_text().splitlines())
    model = next((line.split(":", 1)[1].strip() for line in
                  Path("/proc/cpuinfo").read_text().splitlines() if line.startswith("model name")), "")
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "ram_bytes": int(meminfo["MemTotal"].split()[0]) * 1024,
        "llc_level": llc_level,
        "llc_bytes": llc_bytes,
        "sockets": max(1, len(packages)),
        "cpu_model": model,
        "machine": platform.machine(),
    }


def write_host_spec(host: dict, path: Path) -> Path:
    """A platform spec for this host. Only sockets and the LLC size matter to
    ``bench mem``; the peak fields are placeholders it does not read."""
    spec = {
        "name": "bench-host",
        "sockets": host["sockets"],
        "cores_per_socket": max(1, host["nproc"] // host["sockets"]),
        "frequency": 1.0,
        "vector_units": [],
        "memory_channels": 1,
        "channel_peak": 1.0,
        "llc_per_socket": host["llc_bytes"],
    }
    path.write_text(json.dumps(spec, indent=2) + "\n", encoding="utf-8")
    return path


def build_ops(inp, out: Path, triad_args: list, triad_calls: int) -> list[Op]:
    """Every CLI call of one round, one per input file (two for pairwise)."""
    ops = []

    def add(metric, name, kind, argv_for):
        for part, path in enumerate(inp.paths[kind]):
            op_id = f"{name}-{part}"
            ops.append(Op(metric, op_id, argv_for(str(path), str(out / op_id), part)))

    add("energy_s", "energy", "runs",
        lambda path, dest, _: ["analyze", "energy", "--in", path, "--out", f"{dest}/energy.csv"])
    add("compare_s", "compare", "runs",
        lambda path, dest, _: ["report", "compare", "--in", path, "--out", f"{dest}/compare.csv"])
    for kind in ("runs", "fits"):
        add("scaling_amdahl_s", f"amdahl-{kind}", kind,
            lambda path, dest, _: ["analyze", "scaling", "--model", "amdahl", "--in", path,
                                   "--out-dir", dest])
    add("scaling_gustafson_s", "gustafson", "fits",
        lambda path, dest, _: ["analyze", "scaling", "--model", "gustafson", "--in", path,
                               "--out-dir", dest])
    add("scaling_shares_s", "shares", "shares",
        lambda path, dest, _: ["analyze", "scaling", "--model", "mpi-shares", "--in", path,
                               "--out-dir", dest])
    for size in MESSAGE_SIZES:
        add("network_s", f"network{size}", "pairwise",
            lambda path, dest, _: ["analyze", "network", "--in", path, "--message-size", str(size),
                                   "--out-dir", dest])

    def roofline(path, dest, part):
        truth = inp.truth["kernels"][part]
        return ["analyze", "roofline", "--flops-gflops", repr(truth.peak_gflops),
                "--bandwidth-gbs", repr(truth.peak_gbs), "--points", path, "--out-dir", dest]

    add("roofline_s", "roofline", "kernels", roofline)
    for part in range(triad_calls):
        op_id = f"bench-mem-{part}"
        ops.append(Op("bench_mem_s", op_id,
                      ["bench", "mem", *triad_args, "--out", str(out / op_id / "mem.csv")],
                      instrument=True))
    return ops


def run_op(main, op: Op, out: Path) -> tuple[int, float, str]:
    """Call ``main`` with stdout to a file; the time includes flushing it."""
    (out / op.id).mkdir(parents=True, exist_ok=True)
    err = io.StringIO()
    gc.collect()
    with open(out / f"{op.id}.stdout", "w", encoding="utf-8") as stdout, \
            contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        code = main(op.argv)
        stdout.flush()
        elapsed = time.perf_counter() - t0
    return code, elapsed, err.getvalue()


def output_digest(out: Path, op: Op) -> str:
    """SHA-256 over the op's data files and stdout; sidecars carry timestamps."""
    digest = hashlib.sha256()
    files = sorted(p for p in (out / op.id).iterdir() if not p.name.endswith(".meta.json"))
    for path in [*files, out / f"{op.id}.stdout"]:
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def copy_bandwidth(elements: int) -> float:
    """Best-of-N ``np.copyto`` GB/s at the triad's length, after one untimed pass."""
    src = np.full(elements, 1.5)
    dst = np.empty_like(src)
    np.copyto(dst, src)
    best = 0.0
    for _ in range(COPY_REPS):
        t0 = time.perf_counter()
        np.copyto(dst, src)
        best = max(best, COPY_BYTES_PER_ELEMENT * elements / 1e9 / (time.perf_counter() - t0))
    return best


def _reference_kernel(lines: list[str]) -> int:
    """Parse, group, reduce and format CSV rows as the CLI does, with no perfchar code."""
    rows = [(r[1], int(r[3]), float(r[5]), float(r[6])) for r in csv.reader(lines)]
    groups: dict[tuple, list[float]] = {}
    for app, nodes, t, _ in rows:
        groups.setdefault((app, nodes), []).append(t)
    means = [float(np.mean(v)) for v in groups.values()]
    text = "\n".join(f"{a},{n},{t!r},{e / 1000.0!r}" for a, n, t, e in rows)
    return len(text) + len(means)


REFERENCE_LINES = [
    f"p{i % 7},a{i % 13},gnu,{i % 64 + 1},48,{i * 0.37!r},{i * 1.3!r},{i * 0.1!r} MLUP/s"
    for i in range(REFERENCE_ROWS)
]


def reference_seconds() -> float:
    """Median time of the reference kernel: the host's speed at this moment."""
    samples = []
    for _ in range(REFERENCE_REPS):
        t0 = time.perf_counter()
        _reference_kernel(REFERENCE_LINES)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def measure_setup(src: Path) -> tuple[float, float]:
    """``import perfchar.cli`` in fresh interpreters: (median normalized, median raw)
    seconds. The first, untimed, import may also compile the bytecode cache."""
    normalized, raw = [], []
    ref = reference_seconds()
    for i in range(SETUP_SAMPLES + 1):
        proc = subprocess.run([sys.executable, "-s", "-c", SETUP_CODE, str(src)],
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"import perfchar.cli failed: {proc.stderr.strip()}")
        value, module_file = proc.stdout.split()
        if not Path(module_file).resolve().is_relative_to(src.resolve()):
            raise RuntimeError(f"imported perfchar from {module_file}, not {src}")
        ref_after = reference_seconds()
        if i:
            raw.append(float(value))
            normalized.append(float(value) * REFERENCE_NOMINAL_S / ((ref + ref_after) / 2))
        ref = ref_after
    return statistics.median(normalized), statistics.median(raw)


def check_outputs(inp, out: Path, ops: list[Op], failed_ids: set) -> list[str]:
    """Run the output check of every call of the last round; return the failures."""
    t = inp.truth
    checkers = {
        "energy": lambda d, i: checks.check_energy(d / "energy.csv", t["runs"][i]),
        "compare": lambda d, i: checks.check_compare(d / "compare.csv", t["runs"][i]),
        "amdahl-runs": lambda d, i: checks.check_amdahl_runs(d, t["runs"][i]),
        "amdahl-fits": lambda d, i: checks.check_amdahl_fits(d, t["fits"][i]),
        "gustafson": lambda d, i: checks.check_gustafson(d, t["fits"][i]),
        "shares": lambda d, i: checks.check_shares(d, t["shares"][i]),
        "roofline": lambda d, i: checks.check_roofline(d, t["kernels"][i]),
    }
    for size in MESSAGE_SIZES:
        checkers[f"network{size}"] = (
            lambda d, i, size=size: checks.check_network(d, t["pairwise"][i], size))
    errors = []
    for op in ops:
        name, _, part = op.id.rpartition("-")
        if op.instrument or op.id in failed_ids:
            continue
        try:
            checkers[name](out / op.id, int(part))
        except checks.CheckError as exc:
            errors.append(f"{op.id}: {exc}")
    return errors


def median_of(rounds: list[dict]) -> dict:
    return {key: statistics.median(r[key] for r in rounds) for key in rounds[0]}


def metric_times(ops: list[Op], samples: dict) -> dict:
    """Each time metric: the sum over its calls of the call's median time."""
    totals: dict[str, float] = {}
    for op in ops:
        totals[op.metric] = totals.get(op.metric, 0.0) + statistics.median(samples[op.id])
    return totals


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds < 1:
        print("perfbench: --seconds must be >= 1", file=sys.stderr)
        return 2
    root = Path.cwd()
    src = root / "src"
    if not (src / "perfchar" / "__init__.py").is_file():
        print(f"perfbench: no perfchar sources under {src}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import perfchar
    import perfchar.cli
    import perfchar.hwmodel
    import perfchar.microbench

    if not Path(perfchar.__file__).resolve().is_relative_to(src.resolve()):
        print(f"perfbench: imported perfchar from {perfchar.__file__}", file=sys.stderr)
        return 2

    work = root / ".perfbench_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    try:
        return _run(args, root, src, work, perfchar)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, root: Path, src: Path, work: Path, perfchar) -> int:
    plan = WORKLOADS[args.workload]
    sizes = {kind: SIZES[plan.get(kind, "probe")][kind] for kind in INPUT_FILES}
    inp = write_inputs(args.seed, sizes, work / "in")

    host = host_facts()
    rule_min = None
    if plan["triad"] == "rule":
        spec_path = write_host_spec(host, work / "host.json")
        elements = perfchar.hwmodel.stream_min_elements(perfchar.hwmodel.load_platform_spec(spec_path))
        rule_min = max(RULE_FLOOR_ELEMENTS, -(-RULE_LLC_MULTIPLE * host["llc_bytes"] // 8))
        triad_args = ["--elements", str(elements), "--threads", "1",
                      "--reps", str(TRIAD_REPS["rule"]), "--spec", str(spec_path)]
    else:
        elements = PROBE_TRIAD_ELEMENTS
        triad_args = ["--elements", str(elements), "--threads", "1",
                      "--reps", str(TRIAD_REPS["probe"])]
    out = work / "out"
    ops = build_ops(inp, out, triad_args, 1 if rule_min else PROBE_TRIAD_CALLS)

    setup_s, setup_raw_s = measure_setup(src)

    samples = {op.id: [] for op in ops}
    raw_samples = {op.id: [] for op in ops}
    triad, ratio, tracer_rounds, digests = [], [], [], {}
    attempted, failed, failed_ids, errors = 0, 0, set(), []
    rounds = 0
    started = time.perf_counter()
    while rounds < MIN_ROUNDS or time.perf_counter() - started < args.seconds:
        rounds += 1
        tracer = spans.Tracer()
        stdout_bytes, copies = 0, []
        ref = reference_seconds()
        with tracer.installed() if args.trace else contextlib.nullcontext():
            main = tracer.wrap("cli.main", perfchar.cli.main) if args.trace else perfchar.cli.main
            for op in ops:
                code, elapsed, err = run_op(main, op, out)
                attempted += 1
                ref_after = reference_seconds()
                raw_samples[op.id].append(elapsed)
                scale = 1.0 if op.instrument else REFERENCE_NOMINAL_S / ((ref + ref_after) / 2)
                samples[op.id].append(elapsed * scale)
                stdout_bytes += (out / f"{op.id}.stdout").stat().st_size
                if code != 0:
                    failed += 1
                    failed_ids.add(op.id)
                    print(f"perfbench: {op.id} exited {code}: {err.strip()[:500]}", file=sys.stderr)
                elif not op.instrument:
                    digest = output_digest(out, op)
                    if digests.setdefault(op.id, digest) != digest:
                        errors.append(f"{op.id}: outputs differ between calls")
                else:
                    try:
                        best = checks.check_bench_mem(
                            out / op.id / "mem.csv", (out / f"{op.id}.stdout").read_text(),
                            elements, rule_min)
                    except checks.CheckError as exc:
                        errors.append(f"{op.id}: {exc}")
                    else:
                        copies.append(copy_bandwidth(elements))
                        triad.append(best)
                        ratio.append(best / copies[-1])
                    ref_after = reference_seconds()  # the copy ran since
                ref = ref_after
        if args.trace:
            tracer_rounds.append(spans.round_metrics(
                tracer, stdout_bytes=stdout_bytes,
                copy_gbs=statistics.median(copies) if copies else 0.0,
                counted_bytes_per_element=getattr(perfchar.microbench, "TRIAD_BYTES_PER_ELEMENT", 0)))
    measured_s = time.perf_counter() - started
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    e2e = {
        "setup_s": setup_s,
        **metric_times(ops, samples),
        "triad_gbs": statistics.median(triad) if triad else math.nan,
        "triad_copy_ratio": statistics.median(ratio) if ratio else math.nan,
        "peak_rss_mb": peak_rss_mb,
    }
    raw_times = {"setup_s": setup_raw_s, **metric_times(ops, raw_samples)}
    per_layer = {}
    if args.trace:
        per_layer = median_of(tracer_rounds)
        fma_tracer = spans.Tracer()
        with fma_tracer.installed():
            for precision in ("double", "single"):
                op = Op("fma", f"fma-{precision}",
                        ["bench", "flops", "--precision", precision, "--mode", "vector",
                         "--duration", str(FMA_SECONDS), "--threads", "1",
                         "--out", str(out / f"fma-{precision}/flops.csv")])
                code, _, err = run_op(perfchar.cli.main, op, out)
                attempted += 1
                if code != 0:
                    failed += 1
                    failed_ids.add(op.id)
                    print(f"perfbench: {op.id} exited {code}: {err.strip()[:500]}", file=sys.stderr)
        per_layer.update(spans.fma_metrics(fma_tracer))

    errors += check_outputs(inp, out, ops, failed_ids)
    correct = not errors

    units = spans.PER_LAYER_UNITS if args.trace else E2E_UNITS
    values = per_layer if args.trace else e2e
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": rounds,
        "calls_per_round": len(ops),
        "measured_s": measured_s,
        "attempted": attempted,
        "failed": failed,
        "correct": correct,
        "errors": errors,
        "versions": {"perfchar": perfchar.__version__, "numpy": np.__version__,
                     "python": platform.python_version()},
        "host": host,
        "triad": {"elements": elements, "bytes_per_array": 8 * elements,
                  "rule_min_elements": rule_min},
        "input_sizes": sizes,
        "end_to_end": {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in e2e.items()},
        "raw_seconds": raw_times,
        "reference_nominal_s": REFERENCE_NOMINAL_S,
        "samples": {"normalized_s": samples, "raw_s": raw_samples, "triad_gbs": triad,
                    "triad_copy_ratio": ratio},
        "per_layer": {k: {"value": v, "unit": spans.PER_LAYER_UNITS[k]} for k, v in per_layer.items()},
    }
    results = root / ".perfbench_work" / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8")

    for error in errors:
        print(f"perfbench: {error}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} rounds={rounds} attempted={attempted} "
          f"failed={failed} correct={correct}")
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']!r} {metric['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
