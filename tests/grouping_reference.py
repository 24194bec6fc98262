"""The per-group loops behind aggregation, comparison and speedups, as they were.

``perfchar.ingest.group_stats`` is now the one columnar group-by, and
``perfchar.metrics.compare_platforms`` and ``perfchar.metrics.speedup_points``
are built on it. Together they must give exactly the results, and the errors,
that these functions give: the same statistics bit for bit, groups in the same
order, the same ranks for equal means, and an overflowing square named by the
same group. The code is kept as it was, as the reference for that comparison,
with ``AggregateStats``, the per-group result ``aggregate`` returns.
The one change: where ``compare_platforms`` divides by a best rate mean of 0,
it raised ZeroDivisionError, and the columnar code raises InvalidDataError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress
from typing import Iterable

import numpy as np

from perfchar.exceptions import EmptyComparisonError, InvalidDataError, ParameterError
from perfchar.ingest import RunRecord, RunTable
from perfchar.metrics import ComparisonCell, ComparisonTable


@dataclass(frozen=True)
class AggregateStats:
    """Per-group sample statistics; stddev is the (n-1) sample deviation."""

    mean: float
    stddev: float
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ParameterError("a group must contain at least one record")
        if self.stddev < 0:
            raise ParameterError("stddev must be >= 0")
        if self.n == 1 and self.stddev != 0.0:
            raise ParameterError("a single-record group has zero stddev")


def group_records(
    records: Iterable[RunRecord], fields: tuple[str, ...]
) -> dict[tuple, np.ndarray]:
    """Row indices of the records by the tuple of their ``fields`` values.

    Groups come in first-seen order, and each group's rows in record order.
    """
    runs = RunTable.from_records(records)
    keys = list(zip(*map(runs.column, fields))) if fields else [()] * len(runs)
    code = {key: i for i, key in enumerate(dict.fromkeys(keys))}
    group = np.fromiter(map(code.__getitem__, keys), np.intp, len(keys))
    ends = np.cumsum(np.bincount(group, minlength=len(code)))
    return dict(zip(code, np.split(np.argsort(group, kind="stable"), ends[:-1])))


def aggregate(
    records: Iterable[RunRecord],
    group_key=("app", "platform", "compiler"),
    value: str = "time",
) -> dict[tuple, AggregateStats]:
    """Group records and compute the mean and the sample stddev of each group.

    ``value`` names the numeric RunTable column aggregated: ``time``,
    ``energy`` or ``metric_value``.
    """
    runs = RunTable.from_records(records)
    fields = (group_key,) if isinstance(group_key, str) else tuple(group_key)
    column = getattr(runs, value)
    stats = {}
    for key, rows in group_records(runs, fields).items():
        # Python sums in record order: a numpy reduction adds pairwise and
        # changes the last bits of the mean.
        values = column[rows].tolist()
        n = len(values)
        mean = sum(values) / n
        try:
            stddev = math.sqrt(sum((v - mean) ** 2 for v in values) / (n - 1)) if n > 1 else 0.0
        except OverflowError as exc:
            raise InvalidDataError(f"{value} values of group {'/'.join(map(str, key))} overflow") from exc
        stats[key] = AggregateStats(mean, stddev, n)
    return stats


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


def speedup_points(runs: RunTable, fields: tuple[str, ...], model: str):
    """Labels and speedup points per group in sorted key order, and the first failure.

    Speedups are time ratios for strong scaling and rate ratios for weak
    scaling, against each group's smallest node count. Groups are reported up
    to the first one that fails; its error is returned (None when none fails).
    Only the groups before it are aggregated.
    """
    failure, value = None, "time"
    if model == "gustafson":
        value = "metric_value"
        keys = list(zip(*map(runs.column, fields)))
        unusable = ~(runs.is_rate() & (runs.metric_value > 0))
        first_failing = min(compress(keys, unusable), default=None)
        if first_failing is not None:
            failure = InvalidDataError(
                "weak-scaling fits need a positive rate app_metric (e.g. MLUP/s) on every record"
            )
            runs = runs.take(np.flatnonzero([key < first_failing for key in keys]))
    means: dict[tuple, dict[int, float]] = {}
    for (*key, nodes), st in aggregate(runs, (*fields, "nodes"), value=value).items():
        means.setdefault(tuple(key), {})[nodes] = st.mean
    labels, points = [], []
    for key, by_nodes in sorted(means.items()):
        base = by_nodes[min(by_nodes)]
        if model == "gustafson":
            points.append([(p, by_nodes[p] / base) for p in sorted(by_nodes)])
        else:
            points.append([(p, base / by_nodes[p]) for p in sorted(by_nodes)])
        labels.append("/".join(str(k) for k in key))
    return labels, points, failure
