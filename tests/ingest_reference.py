"""The row-at-a-time ingest path as first written.

``perfchar.ingest`` reads runs, pairwise, share and kernel-point files as
whole columns. It must accept and reject exactly the rows these functions
accept and reject, with the same messages, and give bit-identical records,
group statistics, matrices, warnings, weak links, share groups and kernel
points. The code is
kept as it was, as the reference for that comparison, with ``classify`` as
the per-point reference for ``perfchar.roofline.classify_many``. The one
change: ``_check_pair`` refuses a bandwidth above half the largest float, as
perfchar now does, so that no pair mean or row median overflows.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from operator import attrgetter
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from grouping_reference import AggregateStats
from perfchar.exceptions import IncompleteMatrixError, ParameterError, RowError, SchemaError
from perfchar.ingest import (
    KERNEL_POINT_COLUMNS,
    PAIRWISE_COLUMNS,
    RUNS_COLUMNS,
    SHARE_COLUMNS,
    SYMMETRY_TOLERANCE,
    AppMetric,
    PairwiseBandwidthMatrix,
    RunRecord,
    WeakLink,
)
from perfchar.roofline import (
    COMPUTE_BOUND,
    MEMORY_BOUND,
    Classification,
    CounterSample,
    KernelPoint,
    RooflineModel,
    arithmetic_intensity,
    sustained_perf,
)


def read_rows(source: str | Path, columns: tuple[str, ...], optional: tuple[str, ...] = ()):
    """Yield (line_number, values) from a CSV or JSON file, validating the header.

    ``values`` lists one string per name in ``columns`` then ``optional``, in
    that order; an optional column the file lacks reads as "".
    """
    path = Path(source)
    text = path.read_text(encoding="utf-8")
    stripped = text.lstrip()
    names = (*columns, *optional)
    if path.suffix.lower() == ".json" or stripped.startswith("["):
        try:
            entries = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{path}: not valid JSON: {exc}") from exc
        if not isinstance(entries, list):
            raise SchemaError(f"{path}: JSON input must be an array of objects")
        for i, entry in enumerate(entries, start=1):
            if not isinstance(entry, dict):
                raise SchemaError(f"{path}: entry {i} is not an object")
            missing = [c for c in columns if c not in entry]
            if missing:
                raise SchemaError(f"{path}: entry {i} lacks mandatory fields {missing}")
            yield i, ["" if entry.get(k) is None else str(entry[k]) for k in names]
        return

    # Comment lines (leading '#') are tolerated so fixtures can carry notes;
    # reported line numbers always refer to the original file.
    kept = [
        (number, line)
        for number, line in enumerate(text.splitlines(), start=1)
        if not line.lstrip().startswith("#")
    ]
    reader = csv.reader(line for _, line in kept)
    header = next(reader, None)
    if header is None:
        raise SchemaError(f"{path}: empty file, header row is mandatory")
    missing = [c for c in columns if c not in header]
    if missing:
        raise SchemaError(f"{path}: missing mandatory column(s) {missing}")
    # A repeated column name reads its last occurrence; an absent optional
    # column reads the "" appended after each row's last field.
    width = len(header)
    position = {name: i for i, name in enumerate(header)}
    indices = [position.get(name, width) for name in names]
    lacks_optional = width in indices
    for row in reader:
        if not row:
            continue
        if len(row) != width:
            row = row[:width] + [""] * (width - len(row))
        if lacks_optional:
            row.append("")
        original_line = kept[min(reader.line_num, len(kept)) - 1][0]
        yield original_line, [row[i].strip() for i in indices]


def parse_runs(source: str | Path) -> list[RunRecord]:
    """Load and validate run records; raises RowError listing every bad line."""
    records: list[RunRecord] = []
    failures: list[tuple[int, str]] = []
    for line, values in read_rows(source, RUNS_COLUMNS):
        platform, app, compiler, nodes, ranks, time_s, energy_j, app_metric, timestamp = values
        try:
            energy = float(energy_j) if energy_j else None
            metric = AppMetric.from_text(app_metric) if app_metric else None
            records.append(
                RunRecord(platform, app, compiler, int(nodes), int(ranks), float(time_s),
                          energy, metric, timestamp)
            )
        except (ParameterError, ValueError) as exc:
            failures.append((line, str(exc)))
    if failures:
        raise RowError(failures)
    return records


def group_records(
    records: Iterable[RunRecord], fields: tuple[str, ...]
) -> dict[tuple, list[RunRecord]]:
    """Records by the tuple of their ``fields`` values, groups in first-seen order."""
    get = attrgetter(*fields) if fields else lambda r: ()
    single = len(fields) == 1  # attrgetter of one name returns the bare value
    groups: dict[tuple, list[RunRecord]] = {}
    for record in records:
        key = get(record)
        groups.setdefault((key,) if single else key, []).append(record)
    return groups


def aggregate(
    records: Sequence[RunRecord],
    group_key=("app", "platform", "compiler"),
    value: Callable[[RunRecord], float] = lambda r: r.time,
) -> dict[tuple, AggregateStats]:
    """Group records and compute the mean and the sample stddev of each group."""
    fields = (group_key,) if isinstance(group_key, str) else tuple(group_key)
    stats = {}
    for key, members in group_records(records, fields).items():
        values = [value(r) for r in members]
        n = len(values)
        mean = sum(values) / n
        if n > 1:
            stddev = math.sqrt(sum((v - mean) ** 2 for v in values) / (n - 1))
        else:
            stddev = 0.0
        stats[key] = AggregateStats(mean, stddev, n)
    return stats


def _check_pair(a: str, b: str, bw: float) -> None:
    if a == b:
        raise ParameterError(f"self-pair {a!r} is not a network measurement")
    if not 0 < bw < math.inf:
        raise ParameterError(f"bandwidth for pair ({a}, {b}) must be finite and > 0")
    if bw > sys.float_info.max / 2:
        raise ParameterError(f"bandwidth for pair ({a}, {b}) must be at most {sys.float_info.max / 2!r} GB/s")


def build_pairwise_matrix(
    entries: Iterable[tuple[str, str, float]], message_size: int
) -> PairwiseBandwidthMatrix:
    """Assemble a symmetric matrix from directed (node_a, node_b, GB/s) entries."""
    directed: dict[tuple[str, str], float] = {}
    nodes: set[str] = set()
    for a, b, bw in entries:
        _check_pair(a, b, bw)
        directed[(a, b)] = bw
        nodes.update((a, b))
    node_ids = tuple(sorted(nodes))
    n = len(node_ids)
    matrix = np.full((n, n), np.nan)
    warnings_list: list[tuple[str, str, float]] = []
    missing: list[tuple[str, str]] = []
    for i in range(n):
        for j in range(i + 1, n):
            a, b = node_ids[i], node_ids[j]
            forward = directed.get((a, b))
            backward = directed.get((b, a))
            if forward is None and backward is None:
                missing.append((a, b))
                continue
            if forward is not None and backward is not None:
                value = (forward + backward) / 2.0
                rel = abs(forward - backward) / value
                if rel > SYMMETRY_TOLERANCE:
                    warnings_list.append((a, b, rel))
            else:
                value = forward if forward is not None else backward
            matrix[i, j] = matrix[j, i] = value
    if missing:
        pairs = ", ".join(f"({a}, {b})" for a, b in missing)
        raise IncompleteMatrixError(f"missing bandwidth for pair(s): {pairs}", missing)
    return PairwiseBandwidthMatrix(node_ids, matrix, message_size, tuple(warnings_list))


def _pairwise_entries(source: str | Path) -> dict[int, list[tuple[str, str, float]]]:
    """Read and validate every pairwise row, grouped by message size."""
    by_size: dict[int, list[tuple[str, str, float]]] = {}
    failures: list[tuple[int, str]] = []
    for line, (a, b, msg_bytes, bandwidth, unit) in read_rows(
        source, PAIRWISE_COLUMNS, optional=("unit",)
    ):
        try:
            size = int(msg_bytes)
            bw = float(bandwidth)
            unit = unit.strip() or "GB/s"
            if unit.lower() in ("mb/s", "mbs"):
                bw /= 1000.0
            elif unit.lower() not in ("gb/s", "gbs"):
                raise ValueError(f"unknown bandwidth unit {unit!r}")
            _check_pair(a, b, bw)
            by_size.setdefault(size, []).append((a, b, bw))
        except ValueError as exc:
            failures.append((line, str(exc)))
    if failures:
        raise RowError(failures)
    return by_size


def parse_pairwise_bandwidth(
    source: str | Path, message_size: int | None = None
) -> PairwiseBandwidthMatrix:
    """Parse one matrix; a multi-size file needs an explicit message_size.

    Rows of every size are validated; only the selected size is assembled.
    """
    by_size = _pairwise_entries(source)
    if not by_size:
        raise SchemaError(f"{source}: no pairwise bandwidth rows")
    if message_size is None:
        if len(by_size) > 1:
            raise SchemaError(
                f"{source}: contains {len(by_size)} message sizes {sorted(by_size)}; pick one"
            )
        (message_size,) = by_size
    elif message_size not in by_size:
        raise SchemaError(f"{source}: no rows for message size {message_size}")
    return build_pairwise_matrix(by_size[message_size], message_size)


def detect_weak_links(
    matrix: PairwiseBandwidthMatrix, threshold: float = 0.10
) -> list[WeakLink]:
    """Pairs whose bandwidth is below (1 - threshold) times their row median.

    The row median is the baseline (robust against the high diagonal-neighbor
    pairs a tree topology produces); a pair is checked against both of its
    rows and reported once with the larger deficit.
    """
    if threshold < 0:
        raise ParameterError("threshold must be >= 0")
    n = len(matrix.node_ids)
    medians = [float(np.nanmedian(matrix.bandwidth[i])) for i in range(n)]
    links = []
    for i in range(n):
        for j in range(i + 1, n):
            bw = float(matrix.bandwidth[i, j])
            if math.isnan(bw):
                continue
            reference = max(medians[i], medians[j])
            if bw < (1.0 - threshold) * medians[i] or bw < (1.0 - threshold) * medians[j]:
                links.append(
                    WeakLink(
                        matrix.node_ids[i],
                        matrix.node_ids[j],
                        bw,
                        reference,
                        1.0 - bw / reference,
                    )
                )
    links.sort(key=lambda w: (-w.deficit, w.node_a, w.node_b))
    return links


def parse_share_groups(source: str | Path, fields: tuple[str, ...]):
    """Share points (procs, lb_share_pct, com_share_pct) by their ``fields`` values, each group's in file order.

    The ``fields`` columns are mandatory; groups come back in sorted key order.
    Raises RowError listing every line with a share or count that is not finite.
    """
    groups: dict[tuple, list[tuple[float, float, float]]] = {}
    failures: list[tuple[int, str]] = []
    for line, values in read_rows(source, (*fields, *SHARE_COLUMNS)):
        *key, procs, lb, com = values
        try:
            point = (float(procs), float(lb), float(com))
            if not all(map(math.isfinite, point)):
                raise ValueError(f"{', '.join(SHARE_COLUMNS)} must be finite")
        except ValueError as exc:
            failures.append((line, str(exc)))
            continue
        groups.setdefault(tuple(key), []).append(point)
    if failures:
        raise RowError(failures)
    if not groups:
        raise SchemaError(f"{source}: no share rows")
    return dict(sorted(groups.items()))


def parse_kernel_points(source: str | Path) -> list[KernelPoint]:
    """Kernel points from CSV or JSON; raises RowError listing every line that is not a valid point."""
    points: list[KernelPoint] = []
    failures: list[tuple[int, str]] = []
    for line, values in read_rows(source, ("label",), optional=KERNEL_POINT_COLUMNS):
        label, intensity, flops, loads, stores, access_bytes, measured, share = values
        try:
            if intensity:
                value = float(intensity)
            elif flops or loads or stores:
                sample = CounterSample(float(flops), float(loads), float(stores), int(access_bytes or 8))
                value = arithmetic_intensity(sample)
            else:
                raise ValueError("a kernel point needs 'intensity' or 'flops,loads,stores'")
            points.append(KernelPoint(label, value, float(measured) if measured else None,
                                      float(share) / 100.0 if share else None))
        except ValueError as exc:
            failures.append((line, str(exc)))
    if failures:
        raise RowError(failures)
    if not points:
        raise SchemaError(f"{source}: no kernel points")
    return points


def classify(model: RooflineModel, point: KernelPoint) -> Classification:
    """Place a kernel point: memory-bound strictly below the ridge, else compute-bound."""
    sustained = sustained_perf(model, point.intensity)
    bound = MEMORY_BOUND if point.intensity < model.ridge_intensity else COMPUTE_BOUND
    headroom = None
    if point.measured_perf is not None and point.measured_perf > 0:
        headroom = sustained / point.measured_perf
        if headroom == math.inf:
            raise ParameterError(
                f"kernel '{point.label}': headroom {sustained:.4g} / {point.measured_perf:.4g} overflows"
            )
    above_roof = headroom is not None and point.measured_perf > sustained
    return Classification(point.label, bound, sustained, headroom, above_roof)
