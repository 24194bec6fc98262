"""Measurement ingestion: run records, aggregation, and pairwise bandwidth maps.

Four file schemas are accepted, each as CSV (UTF-8, header mandatory) or as a
JSON array of objects with the same field names:

* runs:      ``platform,app,compiler,nodes,ranks_per_node,time_s,energy_j,app_metric,timestamp``
* pairwise:  ``node_a,node_b,msg_bytes,bandwidth_gbs`` (optional ``unit`` column,
  ``MB/s`` values are converted to GB/s on import)
* shares:    the grouping columns plus ``procs,lb_share_pct,com_share_pct``
* kernel points: ``label`` plus ``intensity``, or ``flops,loads,stores`` (optional
  ``access_bytes``); optional ``gflops,time_share_pct``

Files are read as whole columns (``read_columns``). Runs come back as a
``RunTable``, which holds them as columns and builds a ``RunRecord`` only when
a row is asked for. Energy is stored in joules; presentation layers convert
to kJ. The app metric is a free ``value unit`` pair such as ``266.7 MLUP/s``.
"""

from __future__ import annotations

import csv
import io
import json
import math
import operator
import sys
from collections.abc import Sequence
from dataclasses import dataclass, fields as dataclass_fields
from datetime import datetime
from functools import cached_property
from itertools import repeat
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from .exceptions import (
    IncompleteMatrixError,
    InvalidDataError,
    ParameterError,
    RowError,
    SchemaError,
)
from .report import ranks
from .roofline import CounterSample, KernelPoint, arithmetic_intensity

RUNS_COLUMNS = (
    "platform",
    "app",
    "compiler",
    "nodes",
    "ranks_per_node",
    "time_s",
    "energy_j",
    "app_metric",
    "timestamp",
)

PAIRWISE_COLUMNS = ("node_a", "node_b", "msg_bytes", "bandwidth_gbs")

SHARE_COLUMNS = ("procs", "lb_share_pct", "com_share_pct")

KERNEL_POINT_COLUMNS = ("intensity", "flops", "loads", "stores", "access_bytes", "gflops", "time_share_pct")

#: RunRecord fields whose values always order, so groups keyed on them sort.
GROUP_FIELDS = ("platform", "app", "compiler", "nodes", "ranks_per_node", "time", "timestamp")

#: The largest bandwidth (GB/s) read: the mean of two such values, a pair's
#: or a median's, stays finite.
MAX_GBS = sys.float_info.max / 2

#: Bidirectional measurements of one pair may disagree by up to this fraction
#: before the pair is reported in the asymmetry warning list.
SYMMETRY_TOLERANCE = 0.10


def _split_metric(text: str) -> tuple[float, str]:
    """(value, unit) of an app metric text such as ``266.7 MLUP/s``."""
    value, *unit = text.split(None, 1) or [""]  # a blank text fails in float("")
    return float(value), unit[0].strip() if unit else ""


@dataclass(frozen=True)
class AppMetric:
    """An application-reported metric with its unit, e.g. 266.7 MLUP/s."""

    value: float
    unit: str

    @classmethod
    def from_text(cls, text: str) -> "AppMetric":
        return cls(*_split_metric(text))

    def is_rate(self) -> bool:
        return self.unit.endswith("/s")

    def __str__(self) -> str:
        return f"{self.value!r} {self.unit}".strip()


@dataclass(frozen=True)
class RunRecord:
    """One measured execution of an application on a platform."""

    platform: str
    app: str
    compiler: str
    nodes: int
    ranks_per_node: int
    time: float  # seconds
    energy: float | None = None  # joules
    app_metric: AppMetric | None = None
    timestamp: str = ""

    def __post_init__(self):
        if self.nodes < 1:
            raise ParameterError("nodes must be >= 1")
        if self.ranks_per_node < 1:
            raise ParameterError("ranks_per_node must be >= 1")
        if max(self.nodes, self.ranks_per_node) >= 2**63:  # held in int64 columns
            raise ParameterError("nodes and ranks_per_node must be < 2**63")
        if not 0 < self.time < math.inf:
            raise ParameterError("time must be finite and > 0")
        if self.energy is not None and not 0 < self.energy < math.inf:
            raise ParameterError("energy must be finite and > 0 when present")
        if self.app_metric is not None and not math.isfinite(self.app_metric.value):
            raise ParameterError("app_metric value must be finite")
        if self.timestamp:
            _validate_iso8601(self.timestamp)


@dataclass(frozen=True, eq=False)
class RunTable(Sequence):
    """Validated run records held as columns; a sequence of RunRecord.

    String columns are lists and numeric columns numpy arrays, one entry per
    record in file order. ``energy`` and ``metric_value`` read NaN where a
    record has no energy or no app metric, and ``metric_unit`` reads "" where
    it has no app metric. Indexing and iteration build RunRecords on demand,
    and a slice is a RunTable.
    """

    platform: list[str]
    app: list[str]
    compiler: list[str]
    nodes: np.ndarray
    ranks_per_node: np.ndarray
    time: np.ndarray  # seconds
    energy: np.ndarray  # joules
    metric_value: np.ndarray
    metric_unit: list[str]
    timestamp: list[str]

    @classmethod
    def from_records(cls, records: Iterable[RunRecord]) -> "RunTable":
        """The table of ``records``."""
        no_metric = AppMetric(math.nan, "")
        rows = [(r.platform, r.app, r.compiler, r.nodes, r.ranks_per_node, r.time,
                 math.nan if r.energy is None else r.energy, (r.app_metric or no_metric).value,
                 (r.app_metric or no_metric).unit, r.timestamp) for r in records]
        columns = [list(column) for column in zip(*rows)] or [[] for _ in range(10)]
        return cls(*columns[:3], *map(np.array, columns[3:8]), *columns[8:])

    def __len__(self) -> int:
        return len(self.platform)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self.take(np.arange(len(self))[index])
        energy, value = float(self.energy[index]), float(self.metric_value[index])
        return RunRecord(
            self.platform[index],
            self.app[index],
            self.compiler[index],
            int(self.nodes[index]),
            int(self.ranks_per_node[index]),
            float(self.time[index]),
            None if math.isnan(energy) else energy,
            None if math.isnan(value) else AppMetric(value, self.metric_unit[index]),
            self.timestamp[index],
        )

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))

    def column(self, name: str) -> list:
        """The values of one field as a list of Python objects."""
        values = getattr(self, name)
        return values.tolist() if isinstance(values, np.ndarray) else values

    def take(self, rows: np.ndarray) -> "RunTable":
        """The table of the records at ``rows`` (integer indices), in that order."""
        picks = rows.tolist()

        def pick(values):
            return values[rows] if isinstance(values, np.ndarray) else list(map(values.__getitem__, picks))

        return RunTable(*(pick(getattr(self, f.name)) for f in dataclass_fields(self)))

    def is_rate(self) -> np.ndarray:
        """Which records carry a rate app metric (a unit ending in ``/s``)."""
        rate = {unit: unit.endswith("/s") for unit in set(self.metric_unit)}
        return np.fromiter(map(rate.__getitem__, self.metric_unit), bool, len(self))


def _validate_iso8601(text: str) -> None:
    try:
        datetime.fromisoformat(text.replace("Z", "+00:00"))
    except ValueError as exc:
        raise ParameterError(f"timestamp {text!r} is not ISO-8601") from exc


def read_columns(
    source: str | Path, columns: tuple[str, ...], optional: tuple[str, ...] = ()
) -> tuple[Sequence[int], list[list[str]]]:
    """Line numbers and cell columns of a CSV or JSON file, validating the header.

    Returns the line numbers of the data rows (entry numbers for JSON) and
    one list of cell strings per name in ``columns`` then ``optional``, in that
    order. CSV cells are stripped; an optional column the file lacks reads "".
    A CSV row is numbered by its last line: a quoted field may hold commas and
    line breaks. A file without quotes is split on commas, every line one row;
    a cell longer than ``csv.field_size_limit()`` is a SchemaError either way.
    """
    path = Path(source)
    text = path.read_text(encoding="utf-8")
    names = (*columns, *optional)
    if path.suffix.lower() == ".json" or text.lstrip().startswith("["):
        try:
            entries = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{path}: not valid JSON: {exc}") from exc
        if not isinstance(entries, list):
            raise SchemaError(f"{path}: JSON input must be an array of objects")
        required = set(columns)
        for i, entry in enumerate(entries, start=1):
            if not isinstance(entry, dict):
                raise SchemaError(f"{path}: entry {i} is not an object")
            if not entry.keys() >= required:
                missing = [c for c in columns if c not in entry]
                raise SchemaError(f"{path}: entry {i} lacks mandatory fields {missing}")
        cells = [["" if e.get(k) is None else str(e[k]) for e in entries] for k in names]
        return range(1, len(entries) + 1), cells

    # Without a quote no row spans lines: csv.reader would give each
    # non-empty line split on commas. A NUL is left to csv.reader, which
    # rejects it before Python 3.11.
    plain = '"' not in text and "\0" not in text
    # Comment lines (leading '#') are tolerated so fixtures can carry notes;
    # reported line numbers always refer to the original file.
    commented, lines = "#" in text, text.splitlines()
    del text  # the lines hold it again; a large file should not be held twice
    numbers = range(1, len(lines) + 1)
    if commented:
        kept = [i for i, line in enumerate(lines) if not line.lstrip().startswith("#")]
        lines, numbers = [lines[i] for i in kept], [numbers[i] for i in kept]
        plain = plain or not any('"' in line or "\0" in line for line in lines)
    if not lines:
        raise SchemaError(f"{path}: empty file, header row is mandatory")
    reader = csv.reader(lines)
    try:
        header = next(reader)
        missing = [c for c in columns if c not in header]
        if missing:
            raise SchemaError(f"{path}: missing mandatory column(s) {missing}")
        # Short rows read "" past their last field, and fields past the
        # header's width are ignored: each row gives ``width`` cells of ``flat``.
        width, pad = len(header), [""] * len(header)
        # A line within the csv field limit holds no field above it.
        if plain and max(map(len, lines)) <= csv.field_size_limit():
            # Lines are dropped in place, as the reader holds the list too.
            del lines[0]  # the header, which spans no lines without a quote
            row_lines = list(numbers[1:])
            if "" in lines:
                kept = [i for i, line in enumerate(lines) if line]
                lines[:], row_lines = [lines[i] for i in kept], [row_lines[i] for i in kept]
            if lines and {line.count(",") for line in lines} == {width - 1}:
                text = ",".join(lines)
                lines.clear()  # the text holds them again
                flat = text.split(",")
                del text
            else:
                flat = [cell for line in lines for cell in (line.split(",") + pad)[:width]]
        else:
            row_lines = []

            def numbered_rows():
                for row in reader:
                    if row:  # a row is numbered by its last line
                        row_lines.append(numbers[reader.line_num - 1])
                        yield row

            flat = [cell for row in numbered_rows() for cell in (row + pad)[:width]]
    except csv.Error as exc:
        raise SchemaError(f"{path}: line {numbers[reader.line_num - 1]}: {exc}") from exc
    del lines, reader  # the cells hold the text again
    # A repeated column name reads its last occurrence.
    position = {name: i for i, name in enumerate(header)}
    return row_lines, [[""] * len(row_lines) if i is None else list(map(str.strip, flat[i::width]))
                       for i in map(position.get, names)]


def _rows(lines: Sequence[int], rows: Iterable[tuple], make: Callable) -> list:
    """``make(*row)`` of every row; one RowError lists every row on which it raises ValueError."""
    values, failures = [], []
    for line, row in zip(lines, rows):
        try:
            values.append(make(*row))
        except ValueError as exc:  # ParameterError is a ValueError
            failures.append((line, str(exc)))
    if failures:
        raise RowError(failures)
    return values


def _run_record(platform, app, compiler, nodes, ranks, time_s, energy_j, app_metric, timestamp):
    """The RunRecord of one row of cells; raises ValueError for the first check it fails."""
    energy = float(energy_j) if energy_j else None
    metric = AppMetric.from_text(app_metric) if app_metric else None
    return RunRecord(platform, app, compiler, int(nodes), int(ranks), float(time_s),
                     energy, metric, timestamp)


def _run_table(cells: list[list[str]]) -> RunTable | None:
    """The RunTable of the runs columns, or None when some row fails ``_run_record``.

    Converts and checks whole columns at once. Which rows fail, and why, is
    left to ``_run_record``.
    """
    platform, app, compiler, nodes, ranks, time_s, energy_j, app_metric, timestamp = cells
    try:
        # A blank energy or app metric is absent: NaN, and "" for the unit.
        energy = np.array([float(text) if text else math.nan for text in energy_j], dtype=float)
        metric = [_split_metric(text) if text else (math.nan, "") for text in app_metric]
        nodes = np.array(list(map(int, nodes)), dtype=np.int64)
        ranks = np.array(list(map(int, ranks)), dtype=np.int64)
        time = np.array(list(map(float, time_s)), dtype=float)
        for stamp in set(timestamp) - {""}:
            _validate_iso8601(stamp)
    except (ValueError, OverflowError):  # OverflowError: a count beyond int64
        return None
    metric_value = np.array([value for value, _ in metric], dtype=float)
    has_energy = np.fromiter(map(bool, energy_j), bool, len(energy_j))
    has_metric = np.fromiter(map(bool, app_metric), bool, len(app_metric))
    valid = ((nodes >= 1) & (ranks >= 1) & (time > 0) & (time < math.inf)
             & (~has_energy | (energy > 0) & (energy < math.inf))
             & (~has_metric | np.isfinite(metric_value)))
    if not valid.all():
        return None
    return RunTable(platform, app, compiler, nodes, ranks, time, energy, metric_value,
                    [unit for _, unit in metric], timestamp)


def parse_runs(source: str | Path) -> RunTable:
    """Load and validate run records; raises RowError listing every bad line.

    Each bad line is reported with the first check its row fails in
    ``_run_record``: the cell conversions, then RunRecord's own checks.
    """
    lines, cells = read_columns(source, RUNS_COLUMNS)
    runs = _run_table(cells)
    return RunTable.from_records(_rows(lines, zip(*cells), _run_record)) if runs is None else runs


def _share_point(procs: str, lb: str, com: str) -> tuple[float, float, float]:
    """(procs, lb_share_pct, com_share_pct) of one share row; raises ValueError unless finite."""
    point = (float(procs), float(lb), float(com))
    if not all(map(math.isfinite, point)):
        raise ValueError(f"{', '.join(SHARE_COLUMNS)} must be finite")
    return point


def parse_share_groups(source: str | Path, fields: tuple[str, ...]):
    """Share points (procs, lb_share_pct, com_share_pct) by their ``fields`` values.

    The ``fields`` columns are mandatory; groups come back in sorted key order.
    Raises RowError listing every line with a share or count that is not finite.
    """
    lines, cells = read_columns(source, (*fields, *SHARE_COLUMNS))
    points = _rows(lines, zip(*cells[len(fields):]), _share_point)
    groups: dict[tuple, list[tuple[float, float, float]]] = {}
    for *key, point in zip(*cells[:len(fields)], points):
        groups.setdefault(tuple(key), []).append(point)
    if not groups:
        raise SchemaError(f"{source}: no share rows")
    return dict(sorted(groups.items()))


def _kernel_point(label, intensity, flops, loads, stores, access_bytes, measured, share) -> KernelPoint:
    """The KernelPoint of one row of cells; raises ValueError for the first check it fails."""
    if intensity:
        value = float(intensity)
    elif flops or loads or stores:
        sample = CounterSample(float(flops), float(loads), float(stores), int(access_bytes or 8))
        value = arithmetic_intensity(sample)
    else:
        raise ValueError("a kernel point needs 'intensity' or 'flops,loads,stores'")
    return KernelPoint(label, value, float(measured) if measured else None,
                       float(share) / 100.0 if share else None)


def parse_kernel_points(source: str | Path) -> list[KernelPoint]:
    """Kernel points from CSV or JSON: either an intensity column or raw counter totals.

    Columns: ``label`` plus ``intensity``, or ``flops,loads,stores`` (optional
    ``access_bytes``, default 8) from which intensity is derived. Optional
    ``gflops`` and ``time_share_pct`` annotate the point. Raises RowError
    listing every line that is not a valid point.
    """
    lines, cells = read_columns(source, ("label",), optional=KERNEL_POINT_COLUMNS)
    points = _rows(lines, zip(*cells), _kernel_point)
    if not points:
        raise SchemaError(f"{source}: no kernel points")
    return points


def serialize_runs(records: Iterable[RunRecord]) -> str:
    """Canonical CSV form of a record set; parse(serialize(x)) == x."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(RUNS_COLUMNS)
    for r in records:
        writer.writerow(
            [
                r.platform,
                r.app,
                r.compiler,
                r.nodes,
                r.ranks_per_node,
                repr(r.time),
                "" if r.energy is None else repr(r.energy),
                "" if r.app_metric is None else str(r.app_metric),
                r.timestamp,
            ]
        )
    return out.getvalue()


def group_by(runs: RunTable, fields: tuple[str, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Each record's group by ``fields``, numbered in sorted key order, and each group's first record."""
    codes = [ranks(values) if isinstance(values, list) else np.unique(values, return_inverse=True)[1]
             for values in map(runs.__getattribute__, fields)] or [np.zeros(len(runs), np.intp)]
    order = np.lexsort(codes[::-1])  # stable: a group's records stay in record order
    ordered = np.array(codes)[:, order]
    new = np.ones(len(runs), bool)
    new[1:] = (ordered[:, 1:] != ordered[:, :-1]).any(axis=0)
    group = np.empty(len(runs), np.intp)
    group[order] = np.cumsum(new) - 1
    return group, order[new]


def group_stats(runs: RunTable, fields: tuple[str, ...], value: str):
    """Each group's key, first record, count, mean and (n-1) sample stddev of the float column
    ``value``, groups by their ``fields`` values in sorted key order.

    Sums add in record order from 0.0 and squares are Python's ``pow``, as in a
    Python loop over each group. A square that overflows is an InvalidDataError
    naming the first group, in first-seen order, that holds one.
    """
    group, first = group_by(runs, fields)
    picks = first.tolist()
    columns = (map(runs.column(f).__getitem__, picks) for f in fields)
    keys = list(zip(*columns)) if fields else [()] * len(picks)
    values = getattr(runs, value)
    n = np.bincount(group, minlength=len(picks))
    mean = np.bincount(group, weights=values, minlength=len(picks)) / n
    rows = np.argsort(first[group], kind="stable")  # group by group in first-seen order
    with np.errstate(over="ignore"):  # a deviation overflows to inf, as a Python float does
        deviations = (values - mean[group])[rows].tolist()
    squares = []
    try:
        squares.extend(map(pow, deviations, repeat(2)))
    except OverflowError as exc:  # squares holds those before the one that overflowed
        key = keys[group[rows[len(squares)]]]
        raise InvalidDataError(f"{value} values of group {'/'.join(map(str, key))} overflow") from exc
    spread = np.bincount(group[rows], weights=squares, minlength=len(picks))
    return keys, first, n, mean, np.where(n > 1, np.sqrt(spread / np.maximum(n - 1, 1)), 0.0)


@dataclass(frozen=True)
class WeakLink:
    """A node pair whose bandwidth falls below its rows' typical value."""

    node_a: str
    node_b: str
    bandwidth: float  # GB/s
    reference: float  # row median used as the baseline, GB/s
    deficit: float  # 1 - bandwidth / reference


@dataclass(frozen=True)
class PairwiseBandwidthMatrix:
    """Dense node-pair bandwidth map (GB/s) at one message size.

    The matrix is symmetric by construction: a pair measured in both
    directions stores the average, and directions disagreeing by more than
    ``SYMMETRY_TOLERANCE`` are listed in ``asymmetry_warnings``.
    """

    node_ids: tuple[str, ...]
    bandwidth: np.ndarray  # square, NaN diagonal
    message_size: int  # bytes
    asymmetry_warnings: tuple[tuple[str, str, float], ...] = ()

    def __post_init__(self):
        n = len(self.node_ids)
        if self.bandwidth.shape != (n, n):
            raise ParameterError("bandwidth matrix must be square over node_ids")

    @cached_property
    def row_medians(self) -> np.ndarray:
        """Each row's median; finite for bandwidths up to ``MAX_GBS``."""
        return np.nanmedian(self.bandwidth, axis=1)

    def pair_value(self, a: str, b: str) -> float:
        return float(self.bandwidth[self.node_ids.index(a), self.node_ids.index(b)])


def _check_pair(a: str, b: str, bw: float) -> None:
    if a == b:
        raise ParameterError(f"self-pair {a!r} is not a network measurement")
    if not 0 < bw < math.inf:
        raise ParameterError(f"bandwidth for pair ({a}, {b}) must be finite and > 0")
    if bw > MAX_GBS:
        raise ParameterError(f"bandwidth for pair ({a}, {b}) must be at most {MAX_GBS!r} GB/s")


def build_pairwise_matrix(
    entries: Iterable[tuple[str, str, float]], message_size: int
) -> PairwiseBandwidthMatrix:
    """Assemble a symmetric matrix from directed (node_a, node_b, GB/s) entries."""
    # One loop, not zip(*entries): holding a tuple per entry at once costs
    # the garbage collector more than the loop costs.
    node_a, node_b, gbs = [], [], []
    for a, b, bw in entries:
        _check_pair(a, b, bw)
        node_a.append(a)
        node_b.append(b)
        gbs.append(bw)
    return _matrix(node_a, node_b, np.array(gbs, dtype=float), message_size)


def _matrix(node_a: list, node_b: list, gbs: np.ndarray, message_size: int) -> PairwiseBandwidthMatrix:
    """The matrix of directed entries, given as columns, that passed _check_pair."""
    node_ids = tuple(sorted({*node_a, *node_b}))
    n = len(node_ids)
    index = {node: i for i, node in enumerate(node_ids)}
    src = np.fromiter(map(index.__getitem__, node_a), np.intp, len(node_a))
    dst = np.fromiter(map(index.__getitem__, node_b), np.intp, len(node_b))
    # A directed pair measured twice keeps its last value. Numpy leaves the
    # winner of a repeated fancy-index assignment unspecified, so keep only
    # the last entry of each pair.
    _, from_end = np.unique((src * n + dst)[::-1], return_index=True)
    last = len(src) - 1 - from_end
    forward = np.full((n, n), np.nan)
    forward[src[last], dst[last]] = gbs[last]
    backward = forward.T
    both = ~np.isnan(forward) & ~np.isnan(backward)
    mean = (forward + backward) / 2.0
    rel = np.abs(forward - backward) / mean
    value = np.where(both, mean, np.where(np.isnan(forward), backward, forward))
    upper = np.triu(np.ones((n, n), dtype=bool), 1)
    missing = [(node_ids[i], node_ids[j]) for i, j in zip(*np.nonzero(upper & np.isnan(value)))]
    if missing:
        pairs = ", ".join(f"({a}, {b})" for a, b in missing)
        raise IncompleteMatrixError(f"missing bandwidth for pair(s): {pairs}", missing)
    rows, cols = np.nonzero(upper & both & (rel > SYMMETRY_TOLERANCE))
    warnings_list = [
        (node_ids[i], node_ids[j], r) for i, j, r in zip(rows, cols, rel[rows, cols].tolist())
    ]
    matrix = np.where(upper | upper.T, value, np.nan)
    return PairwiseBandwidthMatrix(node_ids, matrix, message_size, tuple(warnings_list))


def _gbs_divisor(unit: str) -> float:
    """What a bandwidth in ``unit`` (GB/s when blank) is divided by to read GB/s."""
    unit = unit.strip() or "GB/s"
    if unit.lower() in ("mb/s", "mbs"):
        return 1000.0
    if unit.lower() not in ("gb/s", "gbs"):
        raise ValueError(f"unknown bandwidth unit {unit!r}")
    return 1.0


def _pairwise_row(a: str, b: str, msg_bytes: str, bandwidth: str, unit: str) -> tuple[int, str, str, float]:
    """(message size, node_a, node_b, GB/s) of one row; raises ValueError for the first check it fails."""
    size, gbs = int(msg_bytes), float(bandwidth) / _gbs_divisor(unit)
    _check_pair(a, b, gbs)
    return size, a, b, gbs


def _pairwise_entries(source: str | Path) -> tuple[list[int], np.ndarray, list[str], list[str], np.ndarray]:
    """Read and validate every pairwise row.

    Returns the sorted distinct message sizes, each row's index into them,
    and the node_a, node_b and GB/s columns.
    """
    lines, (node_a, node_b, msg_bytes, bandwidth, unit) = read_columns(
        source, PAIRWISE_COLUMNS, optional=("unit",)
    )
    # Whole columns at once; which rows fail, and why, is left to _pairwise_row.
    try:
        size_of = {text: int(text) for text in set(msg_bytes)}
        divisor = {text: _gbs_divisor(text) for text in set(unit)}
        gbs = np.array(list(map(float, bandwidth)), dtype=float)
        gbs /= np.fromiter(map(divisor.__getitem__, unit), float, len(unit))
        valid = not any(map(operator.eq, node_a, node_b)) and ((gbs > 0) & (gbs <= MAX_GBS)).all()
    except ValueError:
        valid = False
    if not valid:  # the column checks are _pairwise_row's, so _rows raises
        _rows(lines, zip(node_a, node_b, msg_bytes, bandwidth, unit), _pairwise_row)
    sizes = sorted(set(size_of.values()))
    position = {size: i for i, size in enumerate(sizes)}
    code = {text: position[size] for text, size in size_of.items()}
    size_index = np.fromiter(map(code.__getitem__, msg_bytes), np.intp, len(msg_bytes))
    return sizes, size_index, node_a, node_b, gbs


def parse_pairwise_bandwidth(
    source: str | Path, message_size: int | None = None
) -> PairwiseBandwidthMatrix:
    """Parse one matrix; a multi-size file needs an explicit message_size.

    Rows of every size are validated; only the selected size is assembled.
    """
    sizes, size_index, node_a, node_b, gbs = _pairwise_entries(source)
    if not sizes:
        raise SchemaError(f"{source}: no pairwise bandwidth rows")
    if message_size is None:
        if len(sizes) > 1:
            raise SchemaError(f"{source}: contains {len(sizes)} message sizes {sizes}; pick one")
        (message_size,) = sizes
    elif message_size not in sizes:
        raise SchemaError(f"{source}: no rows for message size {message_size}")
    keep = np.flatnonzero(size_index == sizes.index(message_size))
    picks = keep.tolist()
    return _matrix(list(map(node_a.__getitem__, picks)), list(map(node_b.__getitem__, picks)), gbs[keep],
                   message_size)


def detect_weak_links(
    matrix: PairwiseBandwidthMatrix, threshold: float = 0.10
) -> list[WeakLink]:
    """Pairs whose bandwidth is below (1 - threshold) times their row median.

    The row median is the baseline (robust against the high diagonal-neighbor
    pairs a tree topology produces); a pair is checked against both of its
    rows and reported once with the larger deficit. ``threshold`` is a
    fraction in [0, 1).
    """
    if not 0 <= threshold < 1:
        raise ParameterError(f"threshold must be within [0, 1), got {threshold!r}")
    n = len(matrix.node_ids)
    medians = matrix.row_medians
    rows, cols = np.triu_indices(n, 1)
    bw = matrix.bandwidth[rows, cols]
    factor = 1.0 - threshold
    weak = np.flatnonzero((bw < factor * medians[rows]) | (bw < factor * medians[cols]))
    rows, cols, bw = rows[weak], cols[weak], bw[weak]
    # max(median_i, median_j) as Python's max picks it: the first unless the second is larger.
    reference = np.where(medians[cols] > medians[rows], medians[cols], medians[rows])
    links = [
        WeakLink(matrix.node_ids[i], matrix.node_ids[j], b, ref, d)
        for i, j, b, ref, d in zip(rows.tolist(), cols.tolist(), bw.tolist(), reference.tolist(),
                                   (1.0 - bw / reference).tolist())
    ]
    links.sort(key=lambda w: (-w.deficit, w.node_a, w.node_b))
    return links
