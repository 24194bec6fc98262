"""Seeded input generators for the perfchar benchmark.

Every generator takes a numpy ``Generator`` plus a size and returns the file
text together with the ground truth the output checks compare against. The
program only ever sees the written files; the truth stays in the benchmark.
The same seed gives byte-identical files (``write_inputs``).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

RUNS_HEADER = "platform,app,compiler,nodes,ranks_per_node,time_s,energy_j,app_metric,timestamp"

RUN_APPS = ("alya", "graph500", "lbc", "tangaroa")
RATE_APPS = ("alya", "lbc")  # apps whose rows carry an MLUP/s rate
RUN_PLATFORMS = (("dibona-tx2", 64), ("mn4-skylake", 48), ("mn4-amd", 64))
RUN_COMPILERS = ("gnu", "vendor")
RUN_NODES = (1, 2, 4, 8, 16, 32, 64, 128)

MESSAGE_SIZES = (4096, 65536)
PAIRWISE_BASE_GBS = {4096: 6.0, 65536: 11.5}
PAIRWISE_JITTER = 0.03  # healthy pairs stay within +-3% of the base
PAIRWISE_WEAK_RANGE = (0.4, 0.7)  # planted weak pairs run at this share of the base

FIT_PLATFORMS = ("skl", "tx2")
FIT_NODE_COUNTS = 7  # pmin * 2**k for k in 0..6
FIT_PMIN_CHOICES = (1, 2, 4)
FIT_NOISE = 0.01  # relative sigma on times and rates of noisy groups

SHARE_PROCS = (16, 32, 64, 128, 256, 512)
SHARE_NOISE = 0.5  # uniform +- percentage points

#: Input sizes as (size per file, files). ``full`` is the focus size of a
#: workload, ``probe`` the small size of inputs it runs only so that every
#: metric is measured. Size is repeats per node count for runs, nodes for
#: pairwise, groups for fits and shares, points for kernels. Runs files split
#: by (app, compiler), so every file keeps all platforms of its groups.
SIZES = {
    "full": {"runs": (400, 8), "pairwise": (320, 1), "fits": (400, 10), "shares": (400, 10),
             "kernels": (3000, 3)},
    "probe": {"runs": (40, 2), "pairwise": (96, 1), "fits": (300, 2), "shares": (300, 2),
              "kernels": (1000, 2)},
    "tiny": {"runs": (2, 2), "pairwise": (12, 1), "fits": (8, 2), "shares": (8, 2),
             "kernels": (16, 1)},
}

#: Stream ids keep each input independent of which others a workload makes.
_STREAMS = {"runs": 1, "pairwise": 2, "fits": 3, "shares": 4, "kernels": 5, "roof": 6}


def rng_for(seed: int, kind: str, part: int = 0) -> np.random.Generator:
    return np.random.default_rng([seed, _STREAMS[kind], part])


def amdahl_speedup(a, p):
    """Ideal strong-scaling speedup 1/((1-a) + a/p), without the offset."""
    return 1.0 / ((1.0 - a) + a / p)


@dataclass
class RunsTruth:
    app: list
    platform: list
    compiler: list
    nodes: np.ndarray
    time: np.ndarray
    energy: np.ndarray
    rate: np.ndarray  # NaN where the row has no rate
    planted_a: dict  # (app, platform, compiler) -> a; b is 0 because pmin is 1


def make_runs(rng: np.random.Generator, repeats: int, pairs) -> tuple[str, RunsTruth]:
    """Run records for the (app, compiler) ``pairs`` on every platform: 8 node
    counts x ``repeats`` rows per group, energy on every row.

    Repeats come in pairs t*(1+e), t*(1-e), so each node count's mean time is
    the noiseless model value and an Amdahl fit must recover the planted a.
    """
    if repeats % 2:
        raise ValueError("repeats must be even")
    groups = [(app, plat, ranks, comp) for app, comp in pairs for plat, ranks in RUN_PLATFORMS]
    half = repeats // 2
    cols = {k: [] for k in ("app", "platform", "compiler", "ranks")}
    nodes, times, power_w, rates, planted = [], [], [], [], {}
    for app, plat, ranks, comp in groups:
        a = rng.uniform(0.85, 0.995)
        planted[(app, plat, comp)] = a
        t1 = rng.uniform(100.0, 1000.0)
        watts = rng.uniform(250.0, 450.0)
        for p in RUN_NODES:
            t = t1 / amdahl_speedup(a, p)
            e = rng.uniform(0.0, 0.05, half)
            group_times = np.concatenate([t * (1.0 + e), t * (1.0 - e)])
            times.append(group_times)
            power_w.append(p * watts * rng.uniform(0.95, 1.05, repeats))
            if app in RATE_APPS:
                work = 1000.0 * p * t1 * rng.uniform(0.9, 1.1)
                rates.append(work / group_times)
            else:
                rates.append(np.full(repeats, np.nan))
            nodes.append(np.full(repeats, p))
            for key, value in (("app", app), ("platform", plat), ("compiler", comp), ("ranks", ranks)):
                cols[key].extend([value] * repeats)
    time = np.concatenate(times)
    energy = time * np.concatenate(power_w)
    rate = np.concatenate(rates)
    node_arr = np.concatenate(nodes)
    n = len(time)
    stamps = np.datetime_as_string(
        np.datetime64("2019-01-01T00:00:00") + np.arange(n).astype("timedelta64[s]")
    )
    order = rng.permutation(n)
    lines = [RUNS_HEADER]
    app, plat, comp, ranks = cols["app"], cols["platform"], cols["compiler"], cols["ranks"]
    t_l, e_l, r_l, n_l = time.tolist(), energy.tolist(), rate.tolist(), node_arr.tolist()
    for i in order.tolist():
        metric = "" if r_l[i] != r_l[i] else f"{r_l[i]!r} MLUP/s"
        lines.append(
            f"{plat[i]},{app[i]},{comp[i]},{n_l[i]},{ranks[i]},{t_l[i]!r},{e_l[i]!r},"
            f"{metric},{stamps[i]}Z"
        )
    truth = RunsTruth(app, plat, comp, node_arr, time, energy, rate, planted)
    return "\n".join(lines) + "\n", truth


@dataclass
class PairwiseTruth:
    node_ids: tuple
    matrices: dict  # msg_bytes -> symmetric (n, n) array, NaN diagonal
    weak: dict  # msg_bytes -> set of (node_a, node_b) with node_a < node_b


def make_pairwise(rng: np.random.Generator, n_nodes: int) -> tuple[str, PairwiseTruth]:
    """All-pairs bandwidth at two message sizes, one direction per pair, planted weak links."""
    node_ids = tuple(f"n{i:03d}" for i in range(n_nodes))
    iu, ju = np.triu_indices(n_nodes, k=1)
    n_pairs = len(iu)
    n_weak = max(1, n_nodes // 32)
    lines = ["node_a,node_b,msg_bytes,bandwidth_gbs"]
    matrices, weak = {}, {}
    for size in MESSAGE_SIZES:
        base = PAIRWISE_BASE_GBS[size]
        values = base * (1.0 + rng.uniform(-PAIRWISE_JITTER, PAIRWISE_JITTER, n_pairs))
        weak_idx = rng.choice(n_pairs, size=n_weak, replace=False)
        values[weak_idx] = base * rng.uniform(*PAIRWISE_WEAK_RANGE, n_weak)
        matrix = np.full((n_nodes, n_nodes), np.nan)
        matrix[iu, ju] = values
        matrix[ju, iu] = values
        matrices[size] = matrix
        weak[size] = {(node_ids[iu[k]], node_ids[ju[k]]) for k in weak_idx.tolist()}
        backward = (rng.random(n_pairs) < 0.5).tolist()
        first, second, vals = iu.tolist(), ju.tolist(), values.tolist()
        for k in rng.permutation(n_pairs).tolist():
            a, b = node_ids[first[k]], node_ids[second[k]]
            if backward[k]:
                a, b = b, a
            lines.append(f"{a},{b},{size},{vals[k]!r}")
    return "\n".join(lines) + "\n", PairwiseTruth(node_ids, matrices, weak)


@dataclass
class FitsTruth:
    labels: list  # "app/platform/compiler", the CLI's group label
    noisy: np.ndarray  # bool per group
    amdahl_a: np.ndarray
    amdahl_b: np.ndarray
    nodes: np.ndarray  # (groups, 7)
    rates: np.ndarray  # (groups, 7), as written, MLUP/s


def make_fits(rng: np.random.Generator, n_groups: int, first: int = 0) -> tuple[str, FitsTruth]:
    """Runs in JSON form: one record per group and node count, times and rates.

    Even-numbered groups are noiseless, odd ones carry FIT_NOISE on both
    columns. The Amdahl offset is planted as b = 1 - s(pmin), the value for
    which the speedup relative to the smallest node count stays in the model.
    """
    labels, entries = [], []
    noisy = np.arange(n_groups) % 2 == 1
    pmin = rng.choice(FIT_PMIN_CHOICES, n_groups)
    a = rng.uniform(0.8, 0.995, n_groups)
    b = 1.0 - amdahl_speedup(a, pmin)
    a_weak = rng.uniform(0.5, 0.99, n_groups)
    t_base = rng.uniform(50.0, 5000.0, n_groups)
    r_base = rng.uniform(10.0, 1000.0, n_groups)
    nodes = pmin[:, None] * (2 ** np.arange(FIT_NODE_COUNTS))[None, :]
    times = t_base[:, None] / (amdahl_speedup(a[:, None], nodes) + b[:, None])
    rates = r_base[:, None] * ((1.0 - a_weak[:, None]) + a_weak[:, None] * nodes)
    scale = np.where(noisy, FIT_NOISE, 0.0)[:, None]
    times = times * (1.0 + scale * rng.standard_normal(times.shape))
    rates = rates * (1.0 + scale * rng.standard_normal(rates.shape))
    for g in range(n_groups):
        app, plat = f"k{(first + g) // 2:04d}", FIT_PLATFORMS[(first + g) % 2]
        labels.append(f"{app}/{plat}/gnu")
        for k in range(FIT_NODE_COUNTS):
            entries.append({
                "platform": plat, "app": app, "compiler": "gnu",
                "nodes": int(nodes[g, k]), "ranks_per_node": 48,
                "time_s": float(times[g, k]), "energy_j": None,
                "app_metric": f"{float(rates[g, k])!r} MLUP/s", "timestamp": None,
            })
    entries = [entries[i] for i in rng.permutation(len(entries)).tolist()]
    text = json.dumps(entries, separators=(",", ":")) + "\n"
    return text, FitsTruth(labels, noisy, a, b, nodes, rates)


@dataclass
class SharesTruth:
    labels: list
    procs: np.ndarray  # (len(SHARE_PROCS),)
    lb: np.ndarray  # (groups, procs), as written
    com: np.ndarray


def make_shares(rng: np.random.Generator, n_groups: int, first: int = 0) -> tuple[str, SharesTruth]:
    """MPI-time shares: a load-balance line plus a constant communication share."""
    procs = np.array(SHARE_PROCS, dtype=float)
    a = rng.uniform(0.01, 0.08, n_groups)
    b = rng.uniform(1.0, 10.0, n_groups)
    c = rng.uniform(5.0, 25.0, n_groups)
    shape = (n_groups, len(procs))
    lb = a[:, None] * procs[None, :] + b[:, None] + rng.uniform(-SHARE_NOISE, SHARE_NOISE, shape)
    com = c[:, None] + rng.uniform(-SHARE_NOISE, SHARE_NOISE, shape)
    labels, rows = [], []
    for g in range(n_groups):
        app, plat = f"s{(first + g) // 2:04d}", FIT_PLATFORMS[(first + g) % 2]
        labels.append(f"{app}/{plat}/gnu")
        for k, p in enumerate(SHARE_PROCS):
            rows.append(f"{plat},{app},gnu,{p},{float(lb[g, k])!r},{float(com[g, k])!r}")
    rows = [rows[i] for i in rng.permutation(len(rows)).tolist()]
    text = "platform,app,compiler,procs,lb_share_pct,com_share_pct\n" + "\n".join(rows) + "\n"
    return text, SharesTruth(labels, procs, lb, com)


@dataclass
class KernelsTruth:
    labels: list
    flops: np.ndarray
    loads: np.ndarray
    stores: np.ndarray
    peak_gflops: float
    peak_gbs: float


def make_kernels(rng: np.random.Generator, n_points: int, roof_rng: np.random.Generator):
    """Kernel points in ``label,flops,loads,stores`` form, plus the roofline peaks."""
    flops = np.floor(10 ** rng.uniform(6.0, 12.0, n_points))
    loads = np.floor(10 ** rng.uniform(5.0, 10.0, n_points)) + 1.0
    stores = np.floor(loads * rng.uniform(0.1, 1.0, n_points)) + 1.0
    labels = [f"kp{i:05d}" for i in range(n_points)]
    rows = [f"{labels[i]},{int(flops[i])},{int(loads[i])},{int(stores[i])}" for i in range(n_points)]
    peak_gflops = float(roof_rng.uniform(500.0, 2000.0))
    peak_gbs = float(roof_rng.uniform(100.0, 300.0))
    text = "label,flops,loads,stores\n" + "\n".join(rows) + "\n"
    return text, KernelsTruth(labels, flops, loads, stores, peak_gflops, peak_gbs)


@dataclass
class Inputs:
    """Paths of the generated files and the truth behind each, per input kind."""

    paths: dict = field(default_factory=dict)  # kind -> [Path, ...]
    truth: dict = field(default_factory=dict)  # kind -> [truth, ...]


INPUT_FILES = {
    "runs": "runs.csv", "pairwise": "pairwise.csv", "fits": "fits.json",
    "shares": "shares.csv", "kernels": "kernels.csv",
}
RUN_PAIRS = [(app, comp) for app in RUN_APPS for comp in RUN_COMPILERS]


def write_inputs(seed: int, sizes: dict, out_dir: str | os.PathLike) -> Inputs:
    """Generate every input file of a workload into ``out_dir``.

    ``sizes`` maps each input kind to (size per file, files), as in SIZES.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    result = Inputs()
    for kind, name in INPUT_FILES.items():
        size, parts = sizes[kind]
        result.paths[kind], result.truth[kind] = [], []
        for part in range(parts):
            rng = rng_for(seed, kind, part)
            if kind == "runs":
                text, truth = make_runs(rng, size, RUN_PAIRS[part::parts])
            elif kind == "pairwise":
                text, truth = make_pairwise(rng, size)
            elif kind == "fits":
                text, truth = make_fits(rng, size, first=part * size)
            elif kind == "shares":
                text, truth = make_shares(rng, size, first=part * size)
            else:
                text, truth = make_kernels(rng, size, rng_for(seed, "roof", part))
            path = out / f"{Path(name).stem}-{part}{Path(name).suffix}"
            path.write_text(text, encoding="utf-8")
            result.paths[kind].append(path)
            result.truth[kind].append(truth)
    return result
