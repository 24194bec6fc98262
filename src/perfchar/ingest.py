"""Measurement ingestion: run records, aggregation, and pairwise bandwidth maps.

Four file schemas are accepted, each as CSV (UTF-8, header mandatory) or as a
JSON array of objects with the same field names:

* runs:      ``platform,app,compiler,nodes,ranks_per_node,time_s,energy_j,app_metric,timestamp``
* pairwise:  ``node_a,node_b,msg_bytes,bandwidth_gbs`` (optional ``unit`` column,
  ``MB/s`` values are converted to GB/s on import)
* shares:    the grouping columns plus ``procs,lb_share_pct,com_share_pct``
* kernel points: ``label`` plus ``intensity``, or ``flops,loads,stores`` (optional
  ``access_bytes``); optional ``gflops,time_share_pct``

``read_columns`` holds a file's text, one block of rows as cells, and what
the parser has made of the blocks before. It splits a quote-free block once,
a ``"\\n"`` field marking each line's end, and strips none of its cells when
its text is ASCII without a space, tab or ``\\x1f``. A parser's converter is
the only code that converts and checks its rows: a block as whole columns,
with no Python call per row, raising ValueError at the first rule a row
breaks. Its number rules, shared with the dataclasses, are range checks on
each column's (least, greatest). ``_each_block`` halves a refused block
until each failing row stands alone, to name its line and why. The pairwise
parser codes each node name once, keeps or drops a block of one message size
whole, divides a block in one unit by a scalar, and sorts its entries only
when a directed pair repeats. Runs come back as a ``RunTable``, which holds
them as columns and builds a ``RunRecord`` only when a row is asked for.
``RunTable.from_records`` and ``build_pairwise_matrix`` reuse the converters.
Energy is stored in joules; presentation layers convert to kJ. The app
metric is a free ``value unit`` pair such as ``266.7 MLUP/s``.
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
from itertools import chain, compress, count, islice, repeat
from pathlib import Path
from typing import Callable, Iterable, Iterator

import numpy as np

from .exceptions import (
    IncompleteMatrixError,
    InvalidDataError,
    ParameterError,
    RowError,
    SchemaError,
)
from .report import BLOCK_ROWS, ranks
from .roofline import check_bytes_moved, check_counters, check_point, span, span_of
from .scalefit import PointGroups

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


@dataclass(frozen=True)
class AppMetric:
    """An application-reported metric with its unit, e.g. 266.7 MLUP/s."""

    value: float
    unit: str

    @classmethod
    def from_text(cls, text: str) -> "AppMetric":
        """The metric of a ``value unit`` text such as ``266.7 MLUP/s``."""
        value, *unit = text.split(None, 1) or [""]  # a blank text fails in float("")
        return cls(float(value), unit[0].strip() if unit else "")

    def is_rate(self) -> bool:
        return self.unit.endswith("/s")

    def __str__(self) -> str:
        return f"{float(self.value)!r} {self.unit}".strip()


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
        check_run((self.nodes, self.nodes), (self.ranks_per_node, self.ranks_per_node), (self.time, self.time),
                  span_of(self.energy), span_of(self.app_metric and self.app_metric.value),
                  [self.timestamp] if self.timestamp else [])


def check_run(nodes, ranks_per_node, time, energy, metric_value, timestamps: list[str]) -> None:
    """Raises ParameterError for the first RunRecord rule broken: by a number's (least, greatest)
    span (see ``roofline.span``), then by a text of ``timestamps`` that ``datetime.fromisoformat`` refuses."""
    if nodes[0] < 1:
        raise ParameterError("nodes must be >= 1")
    if ranks_per_node[0] < 1:
        raise ParameterError("ranks_per_node must be >= 1")
    if max(nodes[1], ranks_per_node[1]) >= 2**63:  # held in int64 columns
        raise ParameterError("nodes and ranks_per_node must be < 2**63")
    if not (0 < time[0] and time[1] < math.inf):
        raise ParameterError("time must be finite and > 0")
    if not (0 < energy[0] and energy[1] < math.inf):
        raise ParameterError("energy must be finite and > 0 when present")
    if not (-math.inf < metric_value[0] and metric_value[1] < math.inf):
        raise ParameterError("app_metric value must be finite")
    read = []  # the timestamps before the first that fails
    try:
        read.extend(map(datetime.fromisoformat, map(str.replace, timestamps, repeat("Z"), repeat("+00:00"))))
    except ValueError as exc:
        raise ParameterError(f"timestamp {timestamps[len(read)]!r} is not ISO-8601") from exc


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
        """The table that ``parse_runs`` reads from ``serialize_runs(records)``, dtypes included."""
        return cls(*_run_table(_record_cells(records), {}, {}))

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


def _line_blocks(text: str) -> Iterator[tuple[Sequence[int], list[str]]]:
    """(line numbers, lines) of ``text``, about BLOCK_ROWS lines at a time, comment lines left out."""
    step, start, first, commented = BLOCK_ROWS * (len(text) // (text.count("\n") + 1) + 1), 0, 1, "#" in text
    while start < len(text):
        end = text.find("\n", start + step) + 1 or len(text)  # cut after "\n": lines break as in splitlines()
        lines = text[start:end].splitlines()
        numbers, start, first = range(first, first + len(lines)), end, first + len(lines)
        if commented:  # a leading '#'; line numbers still count every line
            kept = [i for i, line in enumerate(lines) if not line.lstrip().startswith("#")]
            lines, numbers = [lines[i] for i in kept], [numbers[i] for i in kept]
        yield numbers, lines


def _csv_rows(path: Path, blocks: Iterable[tuple[Sequence[int], list[str]]]) -> Iterator[tuple[int, list]]:
    """(number of its last line, fields) of each row one csv.reader takes from the lines of ``blocks``."""
    last = [0]
    try:
        for row in csv.reader(line for numbers, lines in blocks for last[0], line in zip(numbers, lines)):
            yield last[0], row
    except csv.Error as exc:
        raise SchemaError(f"{path}: line {last[0]}: {exc}") from exc


def _flat(rows: Iterable[tuple[int, list[str]]], width: int) -> tuple[list[int], list[str]]:
    """Line numbers and ``width`` cells of the rows not blank; a short row reads "" past its end."""
    rows, pad = [(line, row) for line, row in rows if row], [""] * width
    return [line for line, _ in rows], [cell for _, row in rows for cell in (row + pad)[:width]]


def read_columns(
    source: str | Path, columns: tuple[str, ...], optional: tuple[str, ...] = ()
) -> Iterator[tuple[Sequence[int], list[list[str]]]]:
    """Line numbers and cell columns of a CSV or JSON file, about BLOCK_ROWS rows at a time.

    Checks the header, or every JSON entry, then gives one block or more: its
    rows' line numbers (entry numbers for JSON) and one list of cells per name
    in ``columns`` then ``optional``. CSV cells are stripped; an optional
    column the file lacks reads "". A row is numbered by its last line, as a
    quoted field may hold commas and line breaks; a cell longer than
    ``csv.field_size_limit()`` is a SchemaError.
    """
    path = Path(source)
    try:
        text = path.read_text(encoding="utf-8-sig")  # a byte-order mark is not part of the header
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: not UTF-8 text: {exc}") from exc
    names, required = (*columns, *optional), set(columns)
    if path.suffix.lower() == ".json" or text.lstrip().startswith("["):
        try:
            entries = json.loads(text)
        except (ValueError, RecursionError) as exc:  # also integers past the digit limit
            raise SchemaError(f"{path}: not valid JSON: {exc}") from exc
        if not isinstance(entries, list):
            raise SchemaError(f"{path}: JSON input must be an array of objects")
        for i, entry in enumerate(entries, start=1):
            if not isinstance(entry, dict):
                raise SchemaError(f"{path}: entry {i} is not an object")
            if not entry.keys() >= required:
                missing = [c for c in columns if c not in entry]
                raise SchemaError(f"{path}: entry {i} lacks mandatory fields {missing}")
        for lo in range(0, max(len(entries), 1), BLOCK_ROWS):
            block = entries[lo:lo + BLOCK_ROWS]
            yield range(lo + 1, lo + len(block) + 1), [["" if e.get(k) is None else str(e[k]) for e in block]
                                                         for k in names]
        return

    blocks = _line_blocks(text)
    quoted = '"' in text or "\0" in text  # a NUL is left to csv.reader, which rejects it before Python 3.11
    if not quoted:  # the header line alone, then each block of lines
        numbers, lines = next(((numbers, lines) for numbers, lines in blocks if lines), ((), []))
        blocks = chain([(numbers[1:], lines[1:])], blocks)
    rows = _csv_rows(path, blocks if quoted else [(numbers[:1], lines[:1])])
    header = next(rows, (0, None))[1]
    if header is None:
        raise SchemaError(f"{path}: empty file, header row is mandatory")
    if missing := [c for c in columns if c not in header]:
        raise SchemaError(f"{path}: missing mandatory column(s) {missing}")
    width, picks = len(header), list(map({name: i for i, name in enumerate(header)}.get, names))
    if quoted:  # the one reader's rows, BLOCK_ROWS at a time after an empty first block
        blocks = ((None, batch) for batch in chain([[]], iter(lambda: list(islice(rows, BLOCK_ROWS)), [])))
    for numbers, lines in blocks:
        # Quote-free lines are split once, with a "\n" field between two lines. Every line has ``width``
        # fields when the count adds up and every (width + 1)th field is a "\n", which no line holds.
        # Space, tab and \x1f are the only ASCII characters that str.strip() removes within a line.
        joined = "" if quoted else ",\n,".join(lines)
        strip = quoted or not joined.isascii() or any(map(joined.__contains__, " \t\x1f"))
        cells, step, joined = joined.split(","), width + 1, None  # the text is not held while the block is used
        if (quoted or len(cells) != len(lines) * step - 1 or cells[width::step].count("\n") != len(lines) - 1
                or width == 1 and "" in lines or max(map(len, lines)) > csv.field_size_limit()):
            # Without quotes, csv.reader on this block alone gives the same cells: no row spans lines.
            (numbers, cells), step = _flat(lines if quoted else _csv_rows(path, [(numbers, lines)]), width), width
        yield numbers, [[""] * len(numbers) if i is None else _stripped(cells[i::step]) if strip else cells[i::step]
                        for i in picks]  # a repeated column name reads its last column


def _stripped(cells: list[str]) -> list[str]:
    """``cells`` stripped; as they are when str.split(), which splits where str.strip() strips, finds no blank."""
    text = "".join(cells)
    return cells if text and text.split(None, 1) == [text] else list(map(str.strip, cells))


def _each_block(blocks: Iterable[tuple[Sequence[int], list[list[str]]]], convert: Callable) -> list:
    """The columns that ``convert(cells)`` gives for every block, each joined across the blocks.

    ``convert`` refuses a block that holds a failing row by raising ValueError
    (ParameterError is one). One RowError lists every failing row of every
    block in file order, each with the error ``convert`` raises on it alone.
    """
    columns, failures = [], []
    for lines, cells in blocks:
        try:
            columns.append(convert(cells))
        except ValueError as refusal:
            failures += _failing_rows(convert, lines, cells, refusal)
    if failures:
        raise RowError(failures)
    return [np.concatenate(parts) if isinstance(parts[0], np.ndarray) else list(chain.from_iterable(parts))
            for parts in zip(*columns)]


def _failing_rows(convert: Callable, lines: Sequence[int], cells: list, refusal: ValueError) -> list:
    """(line, reason) of each failing row of a block that ``convert`` refused with ``refusal``, found by
    converting each half again and halving a refused half, down to single rows. A refused block whose
    halves both pass is a fault of ``convert``: a RuntimeError names its first line."""
    if len(lines) == 1:
        return [(lines[0], str(refusal))]
    failures, half = [], len(lines) // 2
    for part in (slice(half), slice(half, None)):
        try:
            convert([column[part] for column in cells])
        except ValueError as exc:
            failures += _failing_rows(convert, lines[part], [column[part] for column in cells], exc)
    if not failures:
        raise RuntimeError(f"line {lines[0]}: the column check declined a block whose rows all pass")
    return failures


def _floats(cells: list[str]) -> np.ndarray:
    """Each cell's float, NaN for a blank cell (read as "nan"); ValueError for a cell that float() refuses."""
    return np.fromiter(map(float, map({"": "nan"}.get, cells, cells) if "" in cells else cells), float, len(cells))


def _shared(texts: list[str], seen: dict[str, str]) -> list[str]:
    """``texts`` with each text replaced by the equal one first kept in ``seen``."""
    return list(map(seen.setdefault, texts, texts))


def _counts(cells: list[str]) -> tuple[dict[str, int], tuple]:
    """Each distinct cell's int, and their (least, greatest) span; ValueError for a cell that int() refuses."""
    counts = {text: int(text) for text in set(cells)}
    return counts, (min(counts.values(), default=math.inf), max(counts.values(), default=-math.inf))


def _run_table(cells: list[list[str]], texts: dict[str, str], stamps: dict[str, str]) -> tuple:
    """The RunTable columns of a block of runs cells; raises ValueError for the first rule a row breaks.

    Reads energy, app metric, nodes, ranks per node and time, in a row's order, by C-level maps (the counts
    once per distinct text), then checks them and the timestamps not in ``stamps`` by ``check_run``. Equal
    texts are one object, kept in ``texts`` or ``stamps``.
    """
    platform, app, compiler, nodes, ranks, time_s, energy_j, app_metric, timestamp = cells
    has_energy = np.fromiter(map(bool, energy_j), bool, len(energy_j))
    has_metric = np.fromiter(map(bool, app_metric), bool, len(app_metric))

    def metrics():  # [value, ""] or [value, unit, ""] of each app metric, split as AppMetric.from_text splits
        return map(operator.add, map(str.split, compress(app_metric, has_metric), repeat(None), repeat(1)),
                   repeat([""]))  # a text of blanks is [""], which fails in float("")

    metric_value, unit = np.full(len(app_metric), math.nan), np.full(len(app_metric), "", object)  # if absent
    energy = _floats(energy_j)  # NaN where the energy is absent
    metric_value[has_metric] = np.fromiter(map(float, map(operator.itemgetter(0), metrics())), float)
    (node_counts, node_span), (rank_counts, rank_span) = _counts(nodes), _counts(ranks)
    time = np.fromiter(map(float, time_s), float, len(time_s))
    check_run(node_span, rank_span, span(time), span(energy[has_energy]), span(metric_value[has_metric]),
              list(set(timestamp).difference(stamps, [""])))
    rest = list(map(operator.itemgetter(1), metrics()))  # "" or the unit, with the blanks that end the cell
    stripped = {text: texts.setdefault(text.strip(), text.strip()) for text in set(rest)}
    unit[has_metric] = np.array(list(map(stripped.__getitem__, rest)), object)
    return (*(_shared(c, texts) for c in (platform, app, compiler)),
            *(np.fromiter(map(c.__getitem__, column), np.int64, len(column))
              for c, column in ((node_counts, nodes), (rank_counts, ranks))),
            time, energy, metric_value, unit.tolist(), _shared(timestamp, stamps))


def parse_runs(source: str | Path) -> RunTable:
    """Load and validate run records; raises RowError listing every bad line.

    Each bad line is reported with the first rule its row breaks: the cell
    conversions, then RunRecord's own checks.
    """
    texts, stamps = {}, {}  # one object per distinct text of a text column, and per timestamp checked
    return RunTable(*_each_block(read_columns(source, RUNS_COLUMNS),
                                 lambda cells: _run_table(cells, texts, stamps)))


def parse_share_groups(source: str | Path, fields: tuple[str, ...]) -> tuple[list[tuple[str, ...]], PointGroups]:
    """Share points (procs, lb_share_pct, com_share_pct) grouped by their ``fields`` values.

    The ``fields`` columns are mandatory. Gives each group's key, in sorted key
    order, and the groups' points, each group's sorted as ``sorted()`` sorts
    their tuples. Raises RowError listing every line with a share or count
    that is not finite.
    """
    texts = {}  # one object per distinct key text

    def convert(cells):  # the key columns and the points; ValueError for the first rule a row breaks
        *key, procs, lb, com = cells
        points = np.column_stack([np.fromiter(map(float, column), float, len(column))
                                  for column in (procs, lb, com)])
        if not np.isfinite(points).all():
            raise ValueError(f"{', '.join(SHARE_COLUMNS)} must be finite")
        return *(_shared(column, texts) for column in key), points

    *columns, points = _each_block(read_columns(source, (*fields, *SHARE_COLUMNS)), convert)
    if not len(points):
        raise SchemaError(f"{source}: no share rows")
    group, first = group_by(columns, len(points))
    return _group_keys(columns, first), PointGroups.of(group, points, len(first))


@dataclass(frozen=True, eq=False)
class KernelTable:
    """Validated kernel points as columns, NaN for an absent measurement or share."""

    label: list[str]
    intensity: np.ndarray  # Flop/Byte
    measured_perf: np.ndarray  # GFlop/s
    time_share: np.ndarray  # fraction of total run time

    def __len__(self) -> int:
        return len(self.label)


def parse_kernel_points(source: str | Path) -> KernelTable:
    """Kernel points from CSV or JSON: either an intensity column or raw counter totals.

    Columns: ``label`` plus ``intensity``, or ``flops,loads,stores`` (optional
    ``access_bytes``, default 8) from which intensity is derived. Optional
    ``gflops`` and ``time_share_pct`` annotate the point. Raises RowError
    listing every line that is not a valid point.
    """
    def convert(cells):  # the table's columns, a blank as NaN; ValueError for the first rule a row breaks
        label, intensity, flops, loads, stores, access_bytes, measured, share = cells
        value = _floats(intensity)  # NaN in the rows without one, where the counters give it; only they are read
        derived = list(map(operator.not_, intensity))
        flops, loads, stores, access_bytes = (list(compress(c, derived))
                                              for c in (flops, loads, stores, access_bytes))
        if not all(map(any, zip(flops, loads, stores))):
            raise ValueError("a kernel point needs 'intensity' or 'flops,loads,stores'")
        flops, loads, stores = (np.fromiter(map(float, c), float, len(c)) for c in (flops, loads, stores))
        access_bytes = list(map({"": "8"}.get, access_bytes, access_bytes))
        counts, access_span = _counts(access_bytes)
        check_counters(span(flops), span(loads), span(stores), access_span)
        size = np.fromiter(map(float, map(counts.__getitem__, access_bytes)), float, len(access_bytes))
        with np.errstate(over="ignore"):  # an overflow reads inf, as a Python float does
            moved = (loads + stores) * size
            check_bytes_moved(span(moved))
            value[np.array(derived, bool)] = flops / moved
        gflops, fraction = _floats(measured), _floats(share) / 100.0
        check_point(span(value), *(span(column[np.fromiter(map(bool, texts), bool, len(texts))])
                                   for column, texts in ((gflops, measured), (fraction, share))))
        return label, value, gflops, fraction

    table = KernelTable(*_each_block(read_columns(source, ("label",), optional=KERNEL_POINT_COLUMNS), convert))
    if not len(table):
        raise SchemaError(f"{source}: no kernel points")
    return table


def _record_cells(records: Iterable[RunRecord]) -> list[list[str]]:
    """The runs-file cells of ``records``, a list per column; time, energy and metric value as their float's repr."""
    records = list(records)
    platform, app, compiler, nodes, ranks, time, energy, metric, timestamp = (
        list(map(operator.attrgetter(f.name), records)) for f in dataclass_fields(RunRecord))
    return [platform, app, compiler, list(map(str, nodes)), list(map(str, ranks)), list(map(repr, map(float, time))),
            ["" if e is None else repr(float(e)) for e in energy], ["" if m is None else str(m) for m in metric],
            timestamp]


def serialize_runs(records: Iterable[RunRecord]) -> str:
    """Canonical CSV form of a record set; parse(serialize(x)) == x."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerows(chain([RUNS_COLUMNS], zip(*_record_cells(records))))
    return out.getvalue()


def group_by(columns: Sequence, rows: int) -> tuple[np.ndarray, np.ndarray]:
    """Each of ``rows`` rows' group by its values in ``columns``, numbered in sorted key order, and
    each group's first row. A column is a list of str or a numpy array."""
    codes = [ranks(values)[0] if isinstance(values, list) else np.unique(values, return_inverse=True)[1]
             for values in columns] or [np.zeros(rows, np.intp)]
    order = np.lexsort(codes[::-1])  # stable: a group's rows stay in row order
    ordered = np.array(codes)[:, order]
    new = np.ones(rows, bool)
    new[1:] = (ordered[:, 1:] != ordered[:, :-1]).any(axis=0)
    group = np.empty(rows, np.intp)
    group[order] = np.cumsum(new) - 1
    return group, order[new]


def _group_keys(columns: Sequence[list], first: np.ndarray) -> list[tuple]:
    """The key, one value per column, of each group's first row."""
    picks = first.tolist()
    return list(zip(*(map(column.__getitem__, picks) for column in columns))) or [()] * len(picks)


def group_stats(runs: RunTable, fields: tuple[str, ...], value: str):
    """Each group's key, first record, count, mean and (n-1) sample stddev of the float column
    ``value``, groups by their ``fields`` values in sorted key order.

    Sums add in record order from 0.0 and squares are Python's ``pow``, as in a
    Python loop over each group. A square that overflows is an InvalidDataError
    naming the first group, in first-seen order, that holds one.
    """
    group, first = group_by([getattr(runs, f) for f in fields], len(runs))
    picks = first.tolist()
    keys = _group_keys([runs.column(f) for f in fields], first)
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


def build_pairwise_matrix(entries: Iterable[tuple[str, str, float]], message_size: int) -> PairwiseBandwidthMatrix:
    """Assemble a symmetric matrix from directed (node_a, node_b, GB/s) entries, checked as the reader checks rows."""
    node_a, node_b, bandwidth = list(zip(*entries)) or [()] * 3
    code, gbs = {}, np.fromiter(bandwidth, float, len(bandwidth))
    return _matrix(code, *_pair_codes(node_a, node_b, gbs, code, count()), gbs, message_size)


def _pair_codes(node_a: Sequence, node_b: Sequence, gbs: np.ndarray, code: dict, numbers: Iterator[int]):
    """Each entry's (node_a, node_b) codes, a name new to ``code`` kept with the next of ``numbers``; raises
    _check_pair's error for the first entry that is a self-pair or whose GB/s ``gbs`` is outside (0, MAX_GBS]."""
    src, dst = (np.fromiter(map(code.setdefault, names, numbers), np.intp, len(names)) for names in (node_a, node_b))
    for i in np.flatnonzero((src == dst) | ~((gbs > 0) & (gbs <= MAX_GBS)))[:1]:  # the first bad entry raises
        _check_pair(node_a[i], node_b[i], gbs[i])
    return src, dst


def _matrix(code: dict, src: np.ndarray, dst: np.ndarray, gbs: np.ndarray,
            message_size: int) -> PairwiseBandwidthMatrix:
    """The matrix of directed entries that passed _check_pair, each node given as its value in ``code``."""
    rank = np.zeros(max(code.values(), default=0) + 1, np.intp)
    rank[src] = rank[dst] = 1  # marks the codes the entries hold; the other names are left out
    node_ids = tuple(sorted(name for name, c in code.items() if rank[c]))
    n = len(node_ids)
    rank[list(map(code.__getitem__, node_ids))] = np.arange(n)
    src, dst = rank[src], rank[dst]
    forward = np.full((n, n), np.nan)
    forward[src, dst] = gbs
    measured = ~np.isnan(forward)
    if np.count_nonzero(measured) < len(gbs):
        # A directed pair measured twice keeps its last value. Numpy leaves the winner of a
        # repeated fancy-index assignment unspecified, so assign each pair's last entry again.
        _, from_end = np.unique((src * n + dst)[::-1], return_index=True)
        last = len(src) - 1 - from_end
        forward[src[last], dst[last]] = gbs[last]
    backward = forward.T
    both = measured & measured.T
    mean = (forward + backward) / 2.0
    rel = np.abs(forward - backward) / mean
    value = np.where(both, mean, np.where(measured, forward, backward))
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


def parse_pairwise_bandwidth(source: str | Path, message_size: int | None = None) -> PairwiseBandwidthMatrix:
    """Parse one matrix; a multi-size file needs an explicit message_size.

    Rows of every size are validated; with a message_size, only that size's rows are kept.
    """
    size_of, divisor = {}, {}  # each distinct msg_bytes and unit text's value
    code, numbers = {}, count()  # each node name's code: the number of the node cell it first appears in

    def convert(cells):  # the kept rows' columns; ValueError for the first rule a row breaks
        node_a, node_b, msg_bytes, bandwidth, unit = cells
        sizes, units = set(msg_bytes), set(unit)
        size_of.update((text, int(text)) for text in sizes.difference(size_of))
        gbs = np.fromiter(map(float, bandwidth), float, len(bandwidth))
        divisor.update((text, _gbs_divisor(text)) for text in units.difference(divisor))
        gbs /= (divisor[unit[0]] if len(units) == 1
                else np.fromiter(map(divisor.__getitem__, unit), float, len(unit)))
        src, dst = _pair_codes(node_a, node_b, gbs, code, numbers)
        picked = {text for text in sizes if message_size in (None, size_of[text])}  # the kept rows' texts
        keep = (slice(None) if picked == sizes else slice(0) if not picked
                else np.fromiter(map(picked.__contains__, msg_bytes), bool, len(msg_bytes)))
        return src[keep], dst[keep], gbs[keep]

    src, dst, gbs = _each_block(read_columns(source, PAIRWISE_COLUMNS, optional=("unit",)), convert)
    sizes = sorted(set(size_of.values()))
    if not sizes:
        raise SchemaError(f"{source}: no pairwise bandwidth rows")
    if message_size is None:
        if len(sizes) > 1:
            raise SchemaError(f"{source}: contains {len(sizes)} message sizes {sizes}; pick one")
        (message_size,) = sizes
    elif message_size not in sizes:
        raise SchemaError(f"{source}: no rows for message size {message_size}")
    return _matrix(code, src, dst, gbs, message_size)


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
