"""Output checks: every file the CLI writes is compared with values computed
here from the generator's own arrays, never from the program's code.

Each check raises ``CheckError`` on the first disagreement.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from inputs import amdahl_speedup

#: Amdahl recovery tolerances for the noisy groups of the fits input, fixed
#: before any run: 5x the worst error seen over 15000 simulated noisy groups
#: (|da| <= 0.0096, |db| <= 0.034 at 1% relative noise).
NOISY_A_TOL = 0.05
NOISY_B_TOL = 0.2
NOISELESS_TOL = 1e-6
REL_TOL = 1e-9  # for values the program and the check compute in another order


class CheckError(AssertionError):
    """An output disagrees with the independently computed expectation."""


def read_csv(path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def _require(cond, message):
    if not cond:
        raise CheckError(message)


def _close(name, got, want, rel=REL_TOL, abs_tol=1e-12):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    _require(got.shape == want.shape, f"{name}: {got.shape[0] if got.ndim else 1} values, "
             f"expected {want.shape[0] if want.ndim else 1}")
    bad = ~np.isclose(got, want, rtol=rel, atol=abs_tol)
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        raise CheckError(f"{name}: value {i} is {got.flat[i]!r}, expected {want.flat[i]!r}")


def _by_group(rows, key="group"):
    out = {}
    for row in rows:
        _require(row[key] not in out, f"duplicate group {row[key]!r}")
        out[row[key]] = row
    return out


def check_energy(path, truth) -> None:
    """Every run row once, with e2s, EDP and work per joule from the generator's values."""
    rows = read_csv(path)
    _require(len(rows) == len(truth.time), f"energy: {len(rows)} rows, expected {len(truth.time)}")
    e2s = truth.energy / 1000.0
    rate = truth.rate
    has_rate = ~np.isnan(rate)
    want_key = sorted(
        zip(truth.app, truth.platform, truth.compiler, truth.nodes.tolist(), truth.time.tolist(),
            range(len(rows)))
    )
    order = [k[-1] for k in want_key]
    got = sorted(
        (r["app"], r["platform"], r["compiler"], int(r["nodes"]), float(r["time_s"]), i)
        for i, r in enumerate(rows)
    )
    _require([g[:5] for g in got] == [w[:5] for w in want_key],
             "energy: row keys (app, platform, compiler, nodes, time_s) differ")
    got_rows = [rows[g[-1]] for g in got]
    _close("energy e2s_kj", [float(r["e2s_kj"]) for r in got_rows], e2s[order])
    _close("energy edp_kjs", [float(r["edp_kjs"]) for r in got_rows], (e2s * truth.time)[order])
    want_rate = has_rate[order]
    got_rate = np.array([r["work_per_joule"] != "" for r in got_rows])
    _require(np.array_equal(got_rate, want_rate), "energy: work_per_joule present on the wrong rows")
    wpj = (rate * truth.time / truth.energy)[order][want_rate]
    _close("energy work_per_joule",
           [float(r["work_per_joule"]) for r, keep in zip(got_rows, want_rate) if keep], wpj)
    units = {r["work_unit"] for r, keep in zip(got_rows, want_rate) if keep}
    _require(units <= {"MLUP/J"}, f"energy: work units {units}")


def check_compare(path, truth) -> None:
    """Means and stddevs per (app, platform, compiler) with numpy; ranks and deltas per app."""
    rows = read_csv(path)
    keys = list(zip(truth.app, truth.platform, truth.compiler))
    groups: dict[tuple, list[int]] = {}
    for i, k in enumerate(keys):
        groups.setdefault(k, []).append(i)
    _require(len(rows) == len(groups), f"compare: {len(rows)} rows, expected {len(groups)}")
    stats = {}
    for k, idx in groups.items():
        t = truth.time[idx]
        stats[k] = (float(np.mean(t)), float(np.std(t, ddof=1)), len(idx))
    seen = set()
    for row in rows:
        k = (row["app"], row["platform"], row["compiler"])
        _require(k in stats and k not in seen, f"compare: unexpected or repeated row {k}")
        seen.add(k)
        mean, std, n = stats[k]
        _close(f"compare mean {k}", float(row["mean"]), mean)
        _close(f"compare stddev {k}", float(row["stddev"]), std)
        _require(int(row["n"]) == n, f"compare n {k}: {row['n']} != {n}")
        peers = {c: s[0] for c, s in stats.items() if c[0] == k[0]}
        best = min(peers.values())
        rank = 1 + sum(m < mean for m in peers.values())
        _require(int(row["rank"]) == rank, f"compare rank {k}: {row['rank']} != {rank}")
        _close(f"compare delta_pct {k}", float(row["delta_pct"]), 100.0 * (1.0 - best / mean),
               abs_tol=1e-9)


def _check_projection(path, fits: dict, model: str) -> None:
    rows = read_csv(path)
    _require(len(rows) == 10 * len(fits), f"projection: {len(rows)} rows, expected {10 * len(fits)}")
    p = np.array([float(r["p"]) for r in rows])
    a = np.array([float(fits[r["group"]]["a"]) for r in rows])
    if model == "amdahl":
        b = np.array([float(fits[r["group"]]["b"]) for r in rows])
        want = amdahl_speedup(a, p) + b
    else:
        want = (1.0 - a) + a * p
    _close("projection speedup", [float(r["speedup"]) for r in rows], want)
    _close("projection efficiency", [float(r["efficiency"]) for r in rows], want / p)


def check_amdahl_runs(out_dir, truth) -> None:
    """One fit per run group, recovering the planted (a, b = 0) to 1e-6."""
    fits = _by_group(read_csv(Path(out_dir) / "scaling_fits.csv"))
    want = {"/".join(k): a for k, a in truth.planted_a.items()}
    _require(set(fits) == set(want), f"amdahl: groups {sorted(set(fits) ^ set(want))[:3]} differ")
    for label, a in want.items():
        row = fits[label]
        _require(abs(float(row["a"]) - a) <= NOISELESS_TOL, f"amdahl {label}: a {row['a']} vs {a!r}")
        _require(abs(float(row["b"])) <= NOISELESS_TOL, f"amdahl {label}: b {row['b']} vs 0")
    _check_projection(Path(out_dir) / "scaling_projection.csv", fits, "amdahl")


def check_amdahl_fits(out_dir, truth) -> None:
    """Planted (a, b): noiseless groups to 1e-6, noisy ones within NOISY_*_TOL."""
    fits = _by_group(read_csv(Path(out_dir) / "scaling_fits.csv"))
    _require(set(fits) == set(truth.labels), "amdahl: group set differs from the generated one")
    for g, label in enumerate(truth.labels):
        row = fits[label]
        tol_a, tol_b = (NOISY_A_TOL, NOISY_B_TOL) if truth.noisy[g] else (NOISELESS_TOL,) * 2
        a, b = truth.amdahl_a[g], truth.amdahl_b[g]
        _require(abs(float(row["a"]) - a) <= tol_a, f"amdahl {label}: a {row['a']} vs {a!r}")
        _require(abs(float(row["b"]) - b) <= tol_b, f"amdahl {label}: b {row['b']} vs {b!r}")
    _check_projection(Path(out_dir) / "scaling_projection.csv", fits, "amdahl")


def check_gustafson(out_dir, truth) -> None:
    """a, sigma_a and residual equal a least squares of s - 1 on p - 1 done here."""
    fits = _by_group(read_csv(Path(out_dir) / "scaling_fits.csv"))
    _require(set(fits) == set(truth.labels), "gustafson: group set differs from the generated one")
    s = truth.rates / truth.rates[:, :1]
    x, y = truth.nodes - 1.0, s - 1.0
    sxx = np.sum(x * x, axis=1)
    a = np.clip(np.sum(x * y, axis=1) / sxx, 0.0, 1.0)
    resid = np.sum((s - ((1.0 - a[:, None]) + a[:, None] * truth.nodes)) ** 2, axis=1)
    sigma = np.sqrt(resid / (truth.nodes.shape[1] - 1) / sxx)
    rows = [fits[label] for label in truth.labels]
    _close("gustafson a", [float(r["a"]) for r in rows], a, abs_tol=1e-12)
    _close("gustafson sigma_a", [float(r["sigma_a"]) for r in rows], sigma, abs_tol=1e-9)
    _close("gustafson residual", [float(r["residual"]) for r in rows], resid, abs_tol=1e-12)
    _check_projection(Path(out_dir) / "scaling_projection.csv", fits, "gustafson")


def check_shares(out_dir, truth) -> None:
    """Line fit of the load-balance share by least squares here; c is the mean."""
    fits = _by_group(read_csv(Path(out_dir) / "mpi_share_fits.csv"))
    _require(set(fits) == set(truth.labels), "shares: group set differs from the generated one")
    p = truth.procs
    n = len(p)
    pc = p - p.mean()
    a = (truth.lb - truth.lb.mean(axis=1, keepdims=True)) @ pc / np.sum(pc * pc)
    b = truth.lb.mean(axis=1) - a * p.mean()
    resid = np.sum((truth.lb - (a[:, None] * p + b[:, None])) ** 2, axis=1)
    design = np.column_stack([p, np.ones(n)])
    inv = np.linalg.inv(design.T @ design)
    scale = resid / (n - 2)
    c = truth.com.mean(axis=1)
    sigma_c = truth.com.std(axis=1, ddof=1) / math.sqrt(n)
    rows = [fits[label] for label in truth.labels]
    col = lambda name: [float(r[name]) for r in rows]
    _close("shares a", col("a"), a, abs_tol=1e-9)
    _close("shares b", col("b"), b, abs_tol=1e-9)
    _close("shares sigma_a", col("sigma_a"), np.sqrt(scale * inv[0, 0]), abs_tol=1e-9)
    _close("shares sigma_b", col("sigma_b"), np.sqrt(scale * inv[1, 1]), abs_tol=1e-9)
    _close("shares c", col("c"), c, abs_tol=1e-12)
    _close("shares sigma_c", col("sigma_c"), sigma_c, abs_tol=1e-12)
    _close("shares critical_lb_only", col("critical_lb_only"), (100.0 - b) / a)
    _close("shares critical_lb_plus_com", col("critical_lb_plus_com"), (100.0 - b - c) / a)


def check_network(out_dir, truth, size: int) -> None:
    """The weak-link set is the planted one; node medians are np.nanmedian of the matrix."""
    out_dir = Path(out_dir)
    matrix = truth.matrices[size]
    links = read_csv(out_dir / "weak_links.csv")
    got = {(r["node_a"], r["node_b"]) for r in links}
    _require(len(got) == len(links), "network: a weak link is listed twice")
    _require(got == truth.weak[size],
             f"network {size}: weak links {sorted(got ^ truth.weak[size])[:3]} differ from the planted set")
    index = {node: i for i, node in enumerate(truth.node_ids)}
    _close(f"network {size} link bandwidth", [float(r["bandwidth_gbs"]) for r in links],
           [matrix[index[r["node_a"]], index[r["node_b"]]] for r in links])
    medians = read_csv(out_dir / "node_medians.csv")
    _require([r["node"] for r in medians] == list(truth.node_ids), f"network {size}: node list differs")
    _close(f"network {size} node medians", [float(r["median_gbs"]) for r in medians],
           np.nanmedian(matrix, axis=1))


def check_roofline(out_dir, truth) -> None:
    """Each point's intensity, bound and sustained value equal min(peak, bw * I)."""
    out_dir = Path(out_dir)
    peak, bw = truth.peak_gflops, truth.peak_gbs
    intensity = truth.flops / ((truth.loads + truth.stores) * 8)
    rows = read_csv(out_dir / "roofline_points.csv")
    by_label = _by_group(rows, key="label")
    _require(set(by_label) == set(truth.labels), "roofline: point set differs from the generated one")
    rows = [by_label[label] for label in truth.labels]
    _close("roofline intensity", [float(r["intensity"]) for r in rows], intensity)
    _close("roofline sustained", [float(r["sustained_gflops"]) for r in rows],
           np.minimum(peak, bw * intensity))
    want_bound = np.where(intensity < peak / bw, "memory-bound", "compute-bound")
    got_bound = np.array([r["bound"] for r in rows])
    _require(np.array_equal(got_bound, want_bound), "roofline: a point has the wrong bound")
    curve = read_csv(out_dir / "roofline_curve.csv")
    x = np.array([float(r["intensity"]) for r in curve])
    _close("roofline curve", [float(r["gflops"]) for r in curve], np.minimum(peak, bw * x))
    labels = [r["label"] for r in curve if r["label"] != "roof"]
    _require(sorted(labels) == sorted(truth.labels), "roofline curve: kernel rows differ")
    # The roof is sampled on a log grid from min(ridge/256, I_min/2) to max(ridge*256, I_max*2).
    roof = np.array([float(r["intensity"]) for r in curve if r["label"] == "roof"])
    ridge = peak / bw
    _require(len(roof) >= 2, "roofline curve: fewer than two roof samples")
    _close("roofline curve ends", roof[[0, -1]],
           [min(ridge / 256, intensity.min() / 2), max(ridge * 256, intensity.max() * 2)], rel=1e-9)
    steps = roof[1:] / roof[:-1]
    _close("roofline curve log steps", steps, np.full(len(steps), steps[0]), rel=1e-9)


def check_bench_mem(csv_path, stdout_text: str, requested: int, rule_min: int | None) -> float:
    """One finite positive bandwidth at the requested length; returns best GB/s.

    The program's bit-exact verification ran if the command exited 0. When a
    sizing rule applies, the requested length must be at least its minimum.
    """
    rows = read_csv(csv_path)
    _require(len(rows) == 1 and rows[0]["threads"] == "1", f"bench mem: rows {rows}")
    best = float(rows[0]["best_gbs"])
    _require(math.isfinite(best) and best > 0, f"bench mem: best_gbs {best!r}")
    meta = json.loads(Path(str(csv_path) + ".meta.json").read_text(encoding="utf-8"))
    _require(meta.get("elements") == requested, f"bench mem: sidecar elements {meta.get('elements')}")
    _require(f"elements={requested} " in stdout_text, "bench mem: stdout length differs from the request")
    if rule_min is not None:
        _require(requested >= rule_min, f"bench mem: {requested} below the sizing rule {rule_min}")
    return best
