"""Derived energy metrics (E2S, EDP, work per joule) and cross-platform comparisons."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import EmptyComparisonError, InvalidDataError, ParameterError
from .ingest import AppMetric, RunRecord, RunTable, group_by, group_stats


@dataclass(frozen=True)
class EnergyMetrics:
    """Energy-to-solution (kJ), energy-delay product (kJ s), optional work/J."""

    e2s_kj: float
    edp_kjs: float
    work_per_joule: AppMetric | None = None

    def __post_init__(self):
        if self.e2s_kj < 0 or self.edp_kjs < 0:
            raise ParameterError("energy metrics must be non-negative")


def energy_terms(energy_j, time_s, rate=None):
    """E2S (kJ), EDP (kJ s) and work per joule (None without a rate).

    Scalars and numpy arrays give bit-identical values: each step is one
    correctly rounded IEEE operation.
    """
    e2s_kj = energy_j / 1000.0
    work = None if rate is None else rate * time_s / energy_j
    return e2s_kj, e2s_kj * time_s, work


def per_joule_unit(rate_unit: str) -> str:
    """Unit of a rate metric integrated over time per joule, e.g. MLUP/s -> MLUP/J."""
    return rate_unit[: -len("/s")] + "/J"


def energy_metrics(record: RunRecord) -> EnergyMetrics | None:
    """Energy metrics of one run, or None when the record carries no energy.

    work_per_joule is derived from a rate metric as rate * time / energy
    (e.g. MLUP/s becomes MLUP/J); non-rate metrics are left out.
    """
    if record.energy is None:
        return None
    metric = record.app_metric
    rate = metric.value if metric is not None and metric.is_rate() else None
    e2s_kj, edp_kjs, value = energy_terms(record.energy, record.time, rate)
    work = None if value is None else AppMetric(value, per_joule_unit(metric.unit))
    return EnergyMetrics(e2s_kj=e2s_kj, edp_kjs=edp_kjs, work_per_joule=work)


@dataclass(frozen=True)
class ComparisonCell:
    """One (app, platform/compiler) entry of a comparison table."""

    mean: float
    stddev: float
    n: int
    delta_pct: float  # how far the best improves on this value, in percent
    rank: int  # 1 = best


@dataclass(frozen=True)
class ComparisonTable:
    """Per-app rows against (platform, compiler) columns."""

    metric: str  # "time" (lower is better) or "rate" (higher is better)
    columns: tuple[tuple[str, str], ...]  # (platform, compiler)
    rows: tuple[tuple[str, dict], ...]  # (app, {column: ComparisonCell})

    def to_csv_columns(self) -> dict[str, list[str] | np.ndarray]:
        """The CSV form by column name: one row per (app, platform/compiler) cell present."""
        present = [(app, column, cell) for app, cells in self.rows for column in self.columns
                   if (cell := cells.get(column)) is not None]
        return {
            "app": [app for app, _, _ in present],
            "platform": [column[0] for _, column, _ in present],
            "compiler": [column[1] for _, column, _ in present],
            **{name: np.array([getattr(cell, name) for _, _, cell in present])
               for name in ("mean", "stddev", "n", "delta_pct", "rank")},
        }

    def to_text(self) -> str:
        headers = ["app"] + [f"{p}/{c}" for p, c in self.columns]
        body = []
        for app, cells in self.rows:
            line = [app]
            for col in self.columns:
                cell = cells.get(col)
                if cell is None:
                    line.append("-")
                else:
                    line.append(f"{cell.mean:.2f} ({cell.delta_pct:+.1f}%, r{cell.rank})")
            body.append(line)
        widths = [max(len(row[i]) for row in [headers] + body) for i in range(len(headers))]
        fmt = "  ".join(f"{{:<{w}}}" for w in widths)
        lines = [fmt.format(*headers), fmt.format(*["-" * w for w in widths])]
        lines += [fmt.format(*row) for row in body]
        return "\n".join(lines)


def compare_platforms(runs: RunTable, metric: str = "time") -> ComparisonTable:
    """Cross-platform comparison of shared applications.

    ``delta_pct`` states how much of a run the best group saves: for times,
    100 * (1 - best/value); for rates, 100 * (1 - value/best). Requires at
    least two distinct platforms sharing an app. Equal means rank in the order
    their groups are first seen. An app whose best rate mean is 0, or with a
    mean, stddev or delta_pct that is not finite, is an InvalidDataError.
    """
    if metric == "time":
        value, sign = "time", 1.0
    elif metric == "rate":
        runs = runs.take(np.flatnonzero(runs.is_rate()))
        value, sign = "metric_value", -1.0
    else:
        raise ParameterError(f"metric must be 'time' or 'rate', got {metric!r}")

    keys, first, n, mean, stddev = group_stats(runs, ("app", "platform", "compiler"), value)
    by_app: dict[str, list[int]] = {}
    for g in np.argsort(first).tolist():  # groups in first-seen order
        by_app.setdefault(keys[g][0], []).append(g)
    comparable = {app: gs for app, gs in by_app.items() if len({keys[g][1] for g in gs}) >= 2}
    if not comparable:
        raise EmptyComparisonError("comparison needs at least two platforms sharing an application")

    columns = tuple(sorted({keys[g][1:] for gs in comparable.values() for g in gs}))
    means, stddevs, counts = mean.tolist(), stddev.tolist(), n.tolist()
    rows = []
    for app in sorted(comparable):
        groups = comparable[app]
        order = sorted(groups, key=lambda g: sign * means[g])
        best, rank = means[order[0]], {g: r for r, g in enumerate(order, start=1)}
        if sign < 0 and best == 0:
            raise InvalidDataError(f"app {app}: the best rate mean is 0, so delta_pct is undefined")
        deltas = [100.0 * (1.0 - (best / means[g] if sign > 0 else means[g] / best)) for g in groups]
        if not np.isfinite([deltas, mean[groups], stddev[groups]]).all():
            raise InvalidDataError(f"app {app}: a mean, stddev or delta_pct is not finite")
        rows.append((app, {keys[g][1:]: ComparisonCell(means[g], stddevs[g], counts[g], delta, rank[g])
                           for g, delta in zip(groups, deltas)}))
    return ComparisonTable(metric=metric, columns=columns, rows=tuple(rows))


def speedup_points(runs: RunTable, fields: tuple[str, ...], model: str):
    """Labels and speedup points per group in sorted key order, and the first failure.

    Speedups are time ratios for ``model`` "amdahl" and rate ratios for
    "gustafson", against the mean at each group's smallest node count. Groups
    are reported up to the first one that fails, a weak-scaling group with a
    record lacking a positive rate; its error is returned (None when none
    fails), and only the groups before it are aggregated.
    """
    failure, value = None, "time"
    if model == "gustafson":
        value = "metric_value"
        unusable = ~(runs.is_rate() & (runs.metric_value > 0))
        if unusable.any():
            failure = InvalidDataError("weak-scaling fits need a positive rate app_metric "
                                       "(e.g. MLUP/s) on every record")
            curve, _ = group_by(runs, fields)
            runs = runs.take(np.flatnonzero(curve < curve[unusable].min()))
    keys, first, _, mean, _ = group_stats(runs, (*fields, "nodes"), value)
    groups = [key[:-1] for key in keys]  # each mean's group; a group's means come in node order
    starts = [i for i, group in enumerate(groups) if i == 0 or group != groups[i - 1]]
    ends = [*starts[1:], len(keys)]
    base = np.repeat(mean[starts], np.diff([*starts, len(keys)]))  # the mean at the smallest node count
    with np.errstate(over="ignore", invalid="ignore"):  # inf and nan, as Python floats give them
        speedup = mean / base if model == "gustafson" else base / mean
    pairs = list(zip(runs.nodes[first].tolist(), speedup.tolist()))
    labels = ["/".join(map(str, groups[i])) for i in starts]
    return labels, [pairs[a:b] for a, b in zip(starts, ends)], failure
