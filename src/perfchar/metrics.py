"""Derived energy metrics (E2S, EDP, work per joule) and cross-platform comparisons."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .exceptions import EmptyComparisonError, ParameterError
from .ingest import AppMetric, RunRecord, RunTable, aggregate


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

    def to_csv_rows(self) -> list[list]:
        out = [["app", "platform", "compiler", "mean", "stddev", "n", "delta_pct", "rank"]]
        for app, cells in self.rows:
            for col in self.columns:
                cell = cells.get(col)
                if cell is None:
                    continue
                out.append(
                    [app, col[0], col[1], cell.mean, cell.stddev, cell.n, cell.delta_pct, cell.rank]
                )
        return out

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


def compare_platforms(records: Iterable[RunRecord], metric: str = "time") -> ComparisonTable:
    """Cross-platform comparison of shared applications.

    ``delta_pct`` states how much of a run the best group saves: for times,
    100 * (1 - best/value); for rates, 100 * (1 - value/best). Requires at
    least two distinct platforms sharing an app.
    """
    runs = RunTable.from_records(records)
    if metric == "time":
        value, lower_is_better = "time", True
    elif metric == "rate":
        runs = runs.take(np.flatnonzero(runs.is_rate()))
        value, lower_is_better = "metric_value", False
    else:
        raise ParameterError(f"metric must be 'time' or 'rate', got {metric!r}")

    stats = aggregate(runs, group_key=("app", "platform", "compiler"), value=value)
    by_app: dict[str, dict[tuple[str, str], object]] = {}
    for (app, platform, compiler), st in stats.items():
        by_app.setdefault(app, {})[(platform, compiler)] = st

    comparable = {
        app: cols for app, cols in by_app.items() if len({p for p, _ in cols}) >= 2
    }
    if not comparable:
        raise EmptyComparisonError(
            "comparison needs at least two platforms sharing an application"
        )

    columns = tuple(sorted({col for cols in comparable.values() for col in cols}))
    rows = []
    for app in sorted(comparable):
        cols = comparable[app]
        means = {col: st.mean for col, st in cols.items()}
        best = min(means.values()) if lower_is_better else max(means.values())
        order = sorted(means, key=lambda c: (means[c] if lower_is_better else -means[c]))
        ranks = {col: order.index(col) + 1 for col in means}
        cells = {}
        for col, st in cols.items():
            if lower_is_better:
                delta = 100.0 * (1.0 - best / st.mean)
            else:
                delta = 100.0 * (1.0 - st.mean / best)
            cells[col] = ComparisonCell(st.mean, st.stddev, st.n, delta, ranks[col])
        rows.append((app, cells))
    return ComparisonTable(metric=metric, columns=columns, rows=tuple(rows))
